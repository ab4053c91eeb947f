// The system under test and everything the workloads share about it: the
// pinned serving configuration, the hosted model, seeded request cases with
// their expected answers, the set-up measurement, the three lanes (one per
// layer entry point) and the metric reporting common to every workload.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/batch_nacu.hpp"
#include "harness.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "nn/mlp.hpp"
#include "nn/quantized_mlp.hpp"
#include "serve/server.hpp"

namespace perfbench {

using nacu::fp::Fixed;
using Function = nacu::core::BatchNacu::Function;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_file;  ///< Chrome-trace output of a traced run
};

// -- pinned configuration -------------------------------------------------------

/// Q4.11, the paper's 16-bit pick.
[[nodiscard]] nacu::core::NacuConfig datapath_config();
/// 2 shards, work stealing on, max_batch 256, max_wait 50 µs and a queue
/// large enough that overload shows as latency, not refusals. Resilience
/// and submit options stay at their defaults.
[[nodiscard]] nacu::serve::ServerOptions serving_options();
/// The pinned options and the engine identity (backend, table kinds) as
/// one printable line.
[[nodiscard]] std::string describe_configuration(
    const nacu::core::BatchNacu& engine);

/// Stack builds per measured round; set-up time is the median of all of a
/// run's builds, spread across the run so that slow spells of the host do
/// not decide it.
inline constexpr int kBuildsPerRound = 2;

// -- request cases ----------------------------------------------------------------

/// One distinct request and its expected answer, computed before any timer
/// by a reference engine or model separate from the served ones.
struct ActivationCase {
  Function function = Function::Sigmoid;
  std::vector<Fixed> input;
  std::vector<std::int64_t> input_raw;
  std::vector<std::int64_t> expected;
};
struct SoftmaxCase {
  std::vector<Fixed> logits;
  std::vector<std::int64_t> expected;
};
struct MlpCase {
  std::vector<double> input;
  std::vector<double> expected;
};

enum class Kind : std::uint8_t { Activation, Softmax, Mlp };
/// Request i of a lane is stream[i % stream.size()].
struct Item {
  Kind kind = Kind::Activation;
  std::uint32_t index = 0;
};
using Stream = std::vector<Item>;

/// What every workload builds before timing: the reference engine and model
/// that produce expected answers, the float model the server hosts, and the
/// case pools.
struct Env {
  Env(const Args& args, std::size_t activation_cases,
      std::size_t activation_elems);

  Args args;
  nacu::core::NacuConfig config;
  nacu::core::BatchNacu reference;
  nacu::nn::Mlp float_model;
  nacu::nn::QuantizedMlp reference_model;
  std::vector<ActivationCase> activations;  ///< function of case k: k % 3
  std::vector<SoftmaxCase> softmax_rows;    ///< 64 logits each
  std::vector<MlpCase> mlp_inputs;
  Rng rng;
  HostTimes host_at_start = host_times();

  /// A closed-loop activation stream: consecutive cases from a seeded start,
  /// so functions rotate σ, tanh, exp.
  [[nodiscard]] Stream activation_stream();
};

[[nodiscard]] bool same_raws(const std::vector<Fixed>& got,
                             const std::vector<std::int64_t>& want);
[[nodiscard]] bool same_bits(const std::vector<double>& got,
                             const std::vector<double>& want);

// -- the served stack -------------------------------------------------------------

struct Stack {
  std::unique_ptr<nacu::nn::QuantizedMlp> model;
  std::unique_ptr<nacu::serve::InferenceServer> inference;
  std::unique_ptr<nacu::net::NetServer> net;  ///< null without the wire
};

/// Builds the stack (per-shard engines with table warm-up and layout
/// checks, the hosted model, the NetServer bind when @p with_net) and waits
/// for the first correct answer, @p repeats times. Appends each build's
/// seconds to @p seconds and leaves the last stack in @p out.
void build_stack(const Env& env, bool with_net, int repeats, Stack& out,
                 std::vector<double>& seconds);

// -- lanes: one per layer entry point -----------------------------------------------

/// net::Client::send_* / read_response on one connection.
class WireLane {
 public:
  static constexpr bool kWaitsOnItsOwn = true;
  WireLane(const Env& env, std::uint16_t port, const Stream* stream);
  [[nodiscard]] bool connected() const { return client_->valid(); }
  void set_stream(const Stream* stream) { stream_ = stream; }
  void prepare(std::uint64_t) {}
  Outcome enter(std::uint64_t i);
  Outcome finish(std::uint64_t i, Clock::time_point& answered);
  [[nodiscard]] std::size_t elements(std::uint64_t i) const;

 private:
  const Env* env_;
  const Stream* stream_;
  std::unique_ptr<nacu::net::Client> client_;
};

/// serve::InferenceServer::submit* and the returned futures. Holds up to
/// @p slots outstanding futures, indexed by request number.
class ServeLane {
 public:
  static constexpr bool kWaitsOnItsOwn = false;
  ServeLane(const Env& env, nacu::serve::InferenceServer& server,
            const nacu::nn::QuantizedMlp& model, const Stream* stream,
            std::size_t slots);
  void prepare(std::uint64_t i);
  Outcome enter(std::uint64_t i);
  Outcome finish(std::uint64_t i, Clock::time_point& answered);
  [[nodiscard]] std::size_t elements(std::uint64_t i) const;

 private:
  struct Pending {
    std::future<std::vector<Fixed>> fixed;
    std::future<std::vector<double>> real;
  };
  const Env* env_;
  nacu::serve::InferenceServer* server_;
  const nacu::nn::QuantizedMlp* model_;
  const Stream* stream_;
  std::vector<Fixed> staged_fixed_;
  std::vector<double> staged_real_;
  std::vector<Pending> pending_;
};

/// core::BatchNacu::evaluate / softmax and nn::QuantizedMlp::predict_proba,
/// called synchronously: use with a closed-loop window of 1.
class CoreLane {
 public:
  CoreLane(const Env& env, const nacu::core::BatchNacu& engine,
           const nacu::nn::QuantizedMlp& model, const Stream* stream);
  void prepare(std::uint64_t) {}
  Outcome enter(std::uint64_t i);
  Outcome finish(std::uint64_t i, Clock::time_point& answered);
  [[nodiscard]] std::size_t elements(std::uint64_t i) const;

 private:
  const Env* env_;
  const nacu::core::BatchNacu* engine_;
  const nacu::nn::QuantizedMlp* model_;
  const Stream* stream_;
  std::vector<Fixed> out_fixed_;
  std::vector<double> out_real_;
};

inline const LayerNames kWireNames{"wire.request", "net.send",
                                   "net.read_response"};
inline const LayerNames kServeNames{"serve.request", "serve.submit",
                                    "serve.future_wait"};
inline const LayerNames kCoreNames{"core.request", "core.call", nullptr};

// -- reporting ----------------------------------------------------------------------

/// Attempts, failures and wrong answers over every phase of a run.
struct Totals {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
  Failures failures;
  void add(const PhaseResult& phase);
};

/// The end-to-end metrics every workload reports, in BENCHMARK.json order.
struct EndToEnd {
  std::vector<double> setup_s;  ///< every build of the run
  const PhaseResult* measured = nullptr;  ///< latency/throughput come from it
  double max_rate_rps = 0.0;
  std::string max_rate_note;
  std::vector<double> rss_mib;  ///< each round's peak RSS
};
void add_end_to_end(Report& report, const EndToEnd& e2e);

/// Phases and counters a traced run hands to the per-layer report. Wire
/// phases are null on a workload without the wire.
struct Peel {
  const PhaseResult* primary_untraced = nullptr;
  const PhaseResult* primary_traced = nullptr;
  const PhaseResult* wire = nullptr;  ///< traced wire phase
  const PhaseResult* wire_untraced = nullptr;
  const PhaseResult* serve = nullptr;  ///< traced serve phase, same stream
  const PhaseResult* core = nullptr;   ///< traced engine phase, same stream
  bool open_loop = false;
  nacu::serve::InferenceServer::Counters primary_counters{};
  nacu::serve::InferenceServer::Counters run_counters{};
  nacu::net::NetServer::Stats run_stats{};
};
/// Every per-layer metric, in BENCHMARK.json order. @p micro_seconds is the
/// budget for the single-threaded core/nn measurements.
void add_per_layer(Report& report, const Env& env, const Stack& stack,
                   const Peel& peel, double micro_seconds);

[[nodiscard]] nacu::serve::InferenceServer::Counters operator-(
    const nacu::serve::InferenceServer::Counters& a,
    const nacu::serve::InferenceServer::Counters& b);
[[nodiscard]] nacu::net::NetServer::Stats operator-(
    const nacu::net::NetServer::Stats& a,
    const nacu::net::NetServer::Stats& b);
void print_counters(const nacu::serve::InferenceServer::Counters& c);
void print_stats(const nacu::net::NetServer::Stats& s);

/// Print the human summary and the JSON line; returns the exit code
/// (non-zero on any wrong answer).
int finish_run(const Env& env, const Report& report, const Totals& totals,
               const Stack& stack, const Trace* trace);

}  // namespace perfbench
