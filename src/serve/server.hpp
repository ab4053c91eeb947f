// Sharded asynchronous inference server over the NACU batch engine.
//
// The missing piece between "a fast datapath" and "a system that serves
// traffic": many concurrent clients submit per-request work — an
// element-wise activation batch, a softmax row, a whole QuantizedMlp or
// LstmFixed forward pass — and get std::futures back. Where the first
// serving layer funnelled every submitter through one mutex into one
// dispatcher thread (the measured scaling ceiling: requests/s *fell* as
// clients grew), this server scales out:
//
//   * sharded ingress — N dispatcher shards, each owning a bounded MPSC
//     ShardQueue, its own core::BatchNacu engine and its own MicroBatcher.
//     A cheap shard picker (round-robin with per-thread affinity) sends
//     each submitting thread to its home shard, so S shards divide
//     submission-lock contention by S; a full home shard spills to the
//     next before rejecting;
//   * work stealing — an idle shard steals the oldest queued ingress of
//     the most loaded neighbour, so one bursty client cannot strand work
//     behind a single dispatcher while others sit idle;
//   * admission control (admission.hpp) — priority classes with
//     per-class depth limits (best-effort sheds before high), deadline
//     checks at submit *and* dispatch (an expired request is never
//     executed), and per-tenant token-bucket quotas, all layered above
//     the exact OverloadedError backpressure;
//   * self-healing (resilience.hpp) — per-shard supervision with
//     heartbeat watchdog, crash respawn and stall redistribution;
//     per-shard circuit breaking that routes traffic away from unhealthy
//     shards; budgeted transparent retries after a dispatcher death; and
//     live SEU scrub-and-recover: with a fault port armed, every
//     table-path result is parity-verified before release, a detection
//     quarantines the function onto the bit-identical scalar path while
//     the supervisor scrub-rebuilds the table off the hot path.
//
// Contracts, each proven by tests/test_serving.cpp, tests/
// test_admission.cpp, and tests/test_resilience.cpp:
//
//  * bit-identity — results equal direct BatchNacu/model calls raw-for-raw
//    no matter the shard count, the stealing schedule, how requests were
//    grouped for dispatch, whether it was retried or moved off a stalled
//    shard, or whether the serving path was quarantined down to the
//    scalar unit. Every shard's engine builds identical tables from the
//    same scalar datapath, and the scalar datapath *is* the table's
//    source — so every schedule and every degradation yields the same
//    bits;
//  * backpressure — at most queue_capacity requests sit accepted-but-
//    undispatched across all shards; past a priority's depth limit submit
//    throws OverloadedError and enqueues nothing (reject-with-error, never
//    silent drops or unbounded queues);
//  * graceful shutdown — shutdown() (and the destructor) stops admission
//    (further submits throw ShutdownError), drains every accepted request
//    across every shard, fulfils its future, then joins the dispatchers. A
//    returned future is therefore always eventually ready — deadline-shed
//    requests become ready with DeadlineExpiredError, requests orphaned by
//    a shard failure with no retry credit with ShardFailedError;
//  * in-place activations — an activation's result is delivered in the
//    request's own input vector, overwritten with f(input) (a verifying
//    shard evaluates into a reused scratch and copies back after the
//    parity check), so serving allocates and copies no result buffer;
//  * per-request error isolation — every request of a dispatch group is
//    evaluated on its own, so a request with bad inputs (e.g. a Fixed
//    outside the datapath format) gets the exception on its own future; the
//    other requests of the same group still complete correctly;
//  * observability — per-stage obs:: metrics: serve.* admission counters
//    and latency histograms (log2 buckets give p50/p99 through
//    Registry::to_json()), serve.shard.* steal counters, serve.admission.*
//    shed/quota counters, and serve.resilience.* detection/recovery
//    counters.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/admission.hpp"
#include "serve/micro_batcher.hpp"
#include "serve/request.hpp"
#include "serve/resilience.hpp"
#include "serve/shard_queue.hpp"

namespace nacu::serve {

struct ServerOptions {
  /// Micro-batching policy: group size, age-based flush, high-water mark.
  /// queue_capacity is the *total* backpressure bound; each shard's queue
  /// gets ceil(queue_capacity / shards).
  BatcherOptions batcher{};
  /// Engine knobs forwarded to every shard's core::BatchNacu (thread
  /// pool, kernel backend, table/parallel thresholds, table layout mode
  /// and cache budget). Every shard shares one policy; with the default
  /// TableMode::Auto the shards' σ/tanh tables come up half-range and
  /// collapse to the PWL form only once the process-wide working set
  /// (live_table_bytes, exported as serve.table.resident_bytes) crosses
  /// cache_budget_bytes.
  core::BatchNacu::Options batch_options{};
  /// Build the σ/tanh/exp activation tables at construction (when the
  /// format is table-cacheable) so the first requests are not taxed with
  /// the lazy full-domain sweeps.
  bool warm_tables = true;
  /// Dispatcher shards. 1 (the default) reproduces the single-dispatcher
  /// behaviour exactly; 0 picks one shard per hardware thread, clamped to
  /// [1, 8].
  std::size_t shards = 1;
  /// Idle shards steal queued ingress from the most loaded neighbour.
  bool work_stealing = true;
  /// How often an idle shard re-polls neighbours for stealable work (it
  /// has no other wake-up source for work that never touches its queue).
  std::chrono::microseconds steal_poll{100};
  /// Priority depth limits, deadline policy, per-tenant quotas.
  AdmissionOptions admission{};
  /// Supervision, circuit breaking, the retry budget, live SEU
  /// verification (resilience.hpp).
  ResilienceOptions resilience{};
  /// The serving layer's single time source (empty = steady_clock). Every
  /// time read in the layer — the enqueued_at stamp, the max_wait flush
  /// check, dispatch-time deadline shedding, the completion-latency
  /// histogram, circuit cooldowns, stall timing — goes through this
  /// one seam: at construction it is propagated into admission.clock and
  /// resilience.clock wherever those are unset, so injecting a fake clock
  /// here puts the whole layer on fake time. (Before this seam existed,
  /// the flush and latency paths read steady_clock directly and were
  /// silently exempt from the fake-clock test discipline.)
  std::function<std::chrono::steady_clock::time_point()> clock{};
};

class InferenceServer {
 public:
  using Function = core::BatchNacu::Function;

  explicit InferenceServer(const core::NacuConfig& config,
                           ServerOptions options = {});
  ~InferenceServer();  ///< shutdown(): drains accepted work, then joins.

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Element-wise activation batch: future resolves to f(input) in order.
  /// Throws OverloadedError / ShutdownError / QuotaExceededError /
  /// DeadlineExpiredError instead of enqueueing.
  [[nodiscard]] std::future<std::vector<fp::Fixed>> submit(
      Function f, std::vector<fp::Fixed> input,
      const SubmitOptions& submit_options = {});

  /// One Eq. 13 softmax row over @p logits.
  [[nodiscard]] std::future<std::vector<fp::Fixed>> submit_softmax(
      std::vector<fp::Fixed> logits, const SubmitOptions& submit_options = {});

  /// Full forward pass: future resolves to model.predict_proba(input).
  /// @p model is borrowed — keep it alive until the future resolves.
  [[nodiscard]] std::future<std::vector<double>> submit_mlp(
      const nn::QuantizedMlp& model, std::vector<double> input,
      const SubmitOptions& submit_options = {});

  /// Completion forms of the three calls above: the same admission and the
  /// same throws, but an accepted request's outcome goes to @p done —
  /// exactly once, on a serving-layer thread (request.hpp's Completion
  /// contract) — instead of through a future. The future forms are thin
  /// adapters over these.
  void submit(Function f, std::vector<fp::Fixed> input,
              const SubmitOptions& submit_options,
              Completion<std::vector<fp::Fixed>> done);
  void submit_softmax(std::vector<fp::Fixed> logits,
                      const SubmitOptions& submit_options,
                      Completion<std::vector<fp::Fixed>> done);
  void submit_mlp(const nn::QuantizedMlp& model, std::vector<double> input,
                  const SubmitOptions& submit_options,
                  Completion<std::vector<double>> done);

  /// One LSTM cell step: future resolves to model.step(state, x).
  /// @p model is borrowed — keep it alive until the future resolves.
  [[nodiscard]] std::future<nn::LstmFixed::State> submit_lstm(
      const nn::LstmFixed& model, nn::LstmFixed::State state,
      std::vector<double> x, const SubmitOptions& submit_options = {});

  /// Stop admission, drain every accepted request across every shard,
  /// join the supervisor and dispatchers, fail-or-finish any orphans.
  /// Idempotent and safe from several threads.
  void shutdown();

  /// Whether submissions are still admitted.
  [[nodiscard]] bool accepting() const;
  /// Requests accepted but not yet taken into a dispatch group, summed
  /// over all shards.
  [[nodiscard]] std::size_t pending() const;

  /// Shard 0's engine (all shards are configured identically and produce
  /// identical bits).
  [[nodiscard]] const core::BatchNacu& engine() const noexcept;
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }
  [[nodiscard]] const ServerOptions& options() const noexcept {
    return options_;
  }

  /// Now on the serving clock (ServerOptions::clock, steady_clock when
  /// unset). Request stamping, flush ageing, and latency accounting all
  /// read this; admission_.now() and resilience_now() agree with it by
  /// the propagation in ServerOptions::clock's contract.
  [[nodiscard]] std::chrono::steady_clock::time_point now() const {
    return options_.clock ? options_.clock()
                          : std::chrono::steady_clock::now();
  }

  /// Run one supervisor pass now, on the resilience clock: recover dead
  /// dispatchers, detect stalls, perform requested scrubs, advance circuit
  /// cooldowns. The watchdog thread calls this on its
  /// interval; fake-clock tests (and the chaos bench) call it directly for
  /// deterministic recovery. Serialised against the watchdog; a no-op
  /// once shutdown has begun.
  void poke_supervisor();

  /// Point-in-time health of shard @p shard_index.
  [[nodiscard]] ShardHealthSnapshot shard_health(std::size_t shard_index) const;

  /// Per-server admission/completion tallies — unlike the obs:: registry
  /// these are always on and scoped to this instance, so tests can assert
  /// exact counts without toggling the global metrics switch. Invariant
  /// after shutdown(): accepted == completed, and
  /// accepted + rejected_* + shed_priority == submissions attempted.
  struct Counters {
    std::uint64_t accepted = 0;
    std::uint64_t rejected_overload = 0;  ///< full at the capacity limit
    std::uint64_t rejected_shutdown = 0;
    std::uint64_t rejected_quota = 0;     ///< tenant bucket empty
    std::uint64_t rejected_deadline = 0;  ///< expired already at submit
    std::uint64_t shed_priority = 0;  ///< full at a sub-capacity class limit
    std::uint64_t shed_deadline = 0;  ///< accepted, expired before dispatch
    std::uint64_t completed = 0;  ///< completions run (value or exception)
    std::uint64_t dispatches = 0;  ///< dispatch groups executed
    std::uint64_t steals = 0;          ///< successful steal operations
    std::uint64_t stolen_requests = 0;  ///< requests moved by stealing
    // Resilience (serve/resilience.hpp):
    std::uint64_t detections = 0;  ///< verify-before-release parity hits
    std::uint64_t degraded_requests = 0;  ///< served on the scalar path
    std::uint64_t scrubs = 0;           ///< successful scrub-and-reverify
    std::uint64_t scrub_failures = 0;   ///< table still corrupt after scrub
    std::uint64_t respawns = 0;  ///< dispatcher threads rebuilt after death
    std::uint64_t stalls = 0;    ///< frozen-heartbeat redistributions
    std::uint64_t retried = 0;   ///< transparent requeues after shard loss
    std::uint64_t retry_exhausted = 0;  ///< futures failed ShardFailedError
    // Always 0: the server never duplicates a request. Kept because the
    // benchmark harness reads and reports them (serve.hedges).
    std::uint64_t hedges = 0;
    std::uint64_t hedge_wins = 0;
    std::uint64_t circuit_opens = 0;
    std::uint64_t circuit_closes = 0;
  };
  [[nodiscard]] Counters counters() const;

 private:
  /// Propagate ServerOptions::clock into admission.clock and
  /// resilience.clock wherever those are unset, so one injected clock
  /// covers the whole layer (a sub-option clock set explicitly still
  /// wins). Runs before any member reads options_.
  [[nodiscard]] static ServerOptions normalize(ServerOptions options);

  /// Everything one dispatcher shard owns. Engines are per-shard so group
  /// execution never shares mutable state across shards; configured
  /// identically, they produce identical bits by the dense-table
  /// construction argument. The engine lives behind a unique_ptr so the
  /// supervisor can rebuild it wholesale after a dispatcher death.
  struct Shard {
    Shard(const core::NacuConfig& config,
          const core::BatchNacu::Options& batch_options,
          const BatcherOptions& batcher_options, std::size_t capacity);

    std::unique_ptr<core::BatchNacu> engine;
    ShardQueue queue;
    MicroBatcher batcher;  ///< dispatcher-private; fed by queue.drain_into

    ShardHealth health;
    /// Fault port re-attached to every rebuilt engine (nullptr = unarmed).
    fault::BitFaultPort* fault_port = nullptr;
    /// Parity-verify every table-path dispatch before release (armed port
    /// or ResilienceOptions::verify_dispatches, and a cacheable format).
    bool verify = false;
    /// Dispatcher-thread-only: detections in the current dispatch group,
    /// used to decide record_success at group end.
    std::uint64_t group_detections = 0;

    /// Dispatcher-thread-only: a verifying shard's evaluation target,
    /// reused across requests (the parity check needs the input intact).
    std::vector<fp::Fixed> verify_scratch;

    std::thread dispatcher;  ///< started after every shard exists
  };

  /// Admission: preadmit (deadline/quota), stamp, then push into the home
  /// shard or — when it is full — probe the others once around, skipping
  /// shards whose circuit refuses (falling back to ignoring circuit state
  /// when every healthy shard is full — fail-static). Throws instead of
  /// enqueueing on any rejection; the payload's completion then never runs.
  template <typename Payload>
  void enqueue(Payload payload, const SubmitOptions& submit_options);
  /// The future adapter: install a promise-setting completion, enqueue.
  template <typename Payload>
  [[nodiscard]] auto enqueue_for_future(Payload payload,
                                        const SubmitOptions& submit_options);

  /// Round-robin with per-thread affinity: each submitting thread keeps
  /// hitting the same shard (its producer lock stays warm and uncontended
  /// until thread count exceeds shard count).
  [[nodiscard]] std::size_t home_shard() const noexcept;

  /// Now on the resilience clock (injected fake in tests, steady_clock
  /// otherwise). Circuit cooldowns, stall timing, and the retry budget all
  /// read this clock.
  [[nodiscard]] std::chrono::steady_clock::time_point resilience_now() const;

  /// Crash barrier around dispatcher_run: an escaped exception marks the
  /// shard dead for the supervisor instead of terminating the process.
  void dispatcher_loop(std::size_t shard_index);
  void dispatcher_run(std::size_t shard_index);
  /// Steal from the most loaded other shard into @p shard_index's batcher.
  [[nodiscard]] bool try_steal(std::size_t shard_index);
  /// Execute one dispatch group on @p shard: shed expired deadlines, run
  /// every other request on its own, run every completion exactly once.
  void execute_group(Shard& shard, std::vector<Request> group);
  /// Execute one request and deliver its value or its exception.
  void execute_one(Shard& shard, Request& request);
  /// Evaluate an activation in place (request.input becomes the result),
  /// verified before release when the shard verifies. True when it was
  /// served on the scalar (degraded) path.
  [[nodiscard]] bool execute_activation(Shard& shard,
                                        ActivationRequest& request);
  /// A verify-before-release check failed on @p shard: quarantine the
  /// function, request a scrub, record the failure against the circuit.
  void on_detection(Shard& shard, std::size_t function_index);
  /// Record completion metrics and the enqueue→complete latency.
  void finish(const Request& request);

  // -- supervisor (watchdog thread or poke_supervisor) ---------------------
  void supervisor_loop();
  /// One pass; caller holds supervisor_mutex_.
  void supervisor_pass(std::chrono::steady_clock::time_point now);
  /// Join a dead dispatcher, sweep its orphans, rebuild its engine,
  /// respawn the thread, requeue-or-fail the orphans.
  void recover_dead_shard(std::size_t shard_index,
                          std::chrono::steady_clock::time_point now);
  /// Scrub-rebuild every quarantined table of @p shard_index, re-verify
  /// through the armed read path, clear quarantine / close the circuit on
  /// success; keep stuck-at functions quarantined (still serving, scalar).
  void scrub_shard(std::size_t shard_index,
                   std::chrono::steady_clock::time_point now);
  /// Push an orphaned @p request into some shard, circuits respected
  /// first, then — when a circuit skip left it unplaced — ignoring circuit
  /// state (fail-static). Spends no retry credit or budget, so a stalled
  /// shard's queued work (which never ran) moves for free. Counts a
  /// success in retried; moves from @p request only on success.
  [[nodiscard]] bool reroute(Request& request);
  /// Re-enqueue a dead dispatcher's orphan if it has retry credit and the
  /// budget admits; otherwise fail its future (ShardFailedError).
  void requeue_or_fail(Request&& request);
  /// Fail an orphan that found no shard: ShardFailedError, accounted.
  void fail_orphan(Request& request);
  /// Post-join shutdown sweep: fail anything a dead shard left behind.
  void sweep_leftovers();

  ServerOptions options_;
  core::NacuConfig config_;  ///< kept for supervisor engine rebuilds
  AdmissionController admission_;
  std::size_t per_shard_capacity_ = 0;
  bool stamp_enqueue_time_ = false;  ///< max_wait > 0 needs the age stamp
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Golden parity signatures + calibrated ranges shared by every shard's
  /// verify path (read-only after construction). Built only when some
  /// shard verifies and the format is table-cacheable.
  std::unique_ptr<fault::InvariantChecker> checker_;
  std::unique_ptr<RetryBudget> retry_budget_;

  std::thread supervisor_;
  std::mutex supervisor_mutex_;  ///< serialises passes (watchdog vs poke)
  std::mutex supervisor_wake_mutex_;
  std::condition_variable supervisor_wake_;
  /// Supervisor-pass state (guarded by supervisor_mutex_): last observed
  /// heartbeat and when it last advanced, per shard.
  std::vector<std::uint64_t> last_heartbeat_;
  std::vector<std::chrono::steady_clock::time_point> last_progress_;

  std::atomic<bool> stopping_{false};
  std::once_flag join_once_;

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> rejected_overload_{0};
  std::atomic<std::uint64_t> rejected_shutdown_{0};
  std::atomic<std::uint64_t> rejected_quota_{0};
  std::atomic<std::uint64_t> rejected_deadline_{0};
  std::atomic<std::uint64_t> shed_priority_{0};
  std::atomic<std::uint64_t> shed_deadline_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> dispatches_{0};
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> stolen_requests_{0};
  std::atomic<std::uint64_t> detections_{0};
  std::atomic<std::uint64_t> degraded_requests_{0};
  std::atomic<std::uint64_t> scrubs_{0};
  std::atomic<std::uint64_t> scrub_failures_{0};
  std::atomic<std::uint64_t> respawns_{0};
  std::atomic<std::uint64_t> stalls_{0};
  std::atomic<std::uint64_t> retried_{0};
  std::atomic<std::uint64_t> retry_exhausted_{0};
  std::atomic<std::uint64_t> circuit_opens_{0};
  std::atomic<std::uint64_t> circuit_closes_{0};
};

}  // namespace nacu::serve
