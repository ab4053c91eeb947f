#include "stack.hpp"

#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "nn/dataset.hpp"

namespace perfbench {

namespace nc = nacu::core;
namespace ns = nacu::serve;

nc::NacuConfig datapath_config() { return nc::config_for_bits(16); }

ns::ServerOptions serving_options() {
  ns::ServerOptions options;
  options.shards = 2;
  options.work_stealing = true;
  options.batcher.max_batch = 256;
  options.batcher.max_wait = std::chrono::microseconds{50};
  options.batcher.queue_capacity = std::size_t{1} << 20;
  return options;
}

namespace {

const char* table_kind_name(nacu::simd::TableKind kind) {
  switch (kind) {
    case nacu::simd::TableKind::Dense:
      return "Dense";
    case nacu::simd::TableKind::HalfSigmoid:
      return "HalfSigmoid";
    case nacu::simd::TableKind::HalfOdd:
      return "HalfOdd";
    case nacu::simd::TableKind::Pwl:
      return "Pwl";
  }
  return "?";
}

constexpr Function kFunctions[] = {Function::Sigmoid, Function::Tanh,
                                   Function::Exp};
constexpr const char* kFunctionNames[] = {"sigmoid", "tanh", "exp"};

std::vector<std::int64_t> raws_of(const std::vector<Fixed>& values) {
  std::vector<std::int64_t> raws(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    raws[i] = values[i].raw();
  }
  return raws;
}

/// Seeded raws over the whole format, with both saturating ends drawn
/// often (1 in 16 each).
std::vector<Fixed> random_inputs(Rng& rng, std::size_t n,
                                 const nacu::fp::Format& fmt) {
  std::vector<Fixed> values;
  values.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t pick = rng.next() % 16;
    const std::int64_t raw = pick == 0   ? fmt.min_raw()
                             : pick == 1 ? fmt.max_raw()
                                         : rng.between(fmt.min_raw(),
                                                       fmt.max_raw());
    values.push_back(Fixed::from_raw(raw, fmt));
  }
  return values;
}

nacu::nn::Mlp trained_model() {
  nacu::nn::MlpConfig config;
  config.layer_sizes = {2, 16, 16, 3};
  config.epochs = 40;
  nacu::nn::Mlp model{config};
  model.train(nacu::nn::make_blobs(60, 3));
  return model;
}

constexpr std::size_t kSoftmaxRows = 256;
constexpr std::size_t kSoftmaxLogits = 64;
constexpr std::size_t kMlpInputs = 256;

}  // namespace

std::string describe_configuration(const nc::BatchNacu& engine) {
  const ns::ServerOptions o = serving_options();
  const nacu::fp::Format fmt = engine.format();
  char line[512];
  std::snprintf(
      line, sizeof line,
      "format Q%d.%d, backend %s, tables sigmoid=%s tanh=%s exp=%s; "
      "shards %zu, work stealing %s, max_batch %zu, max_wait %lld us, "
      "queue_capacity %zu, resilience and submit options at defaults",
      fmt.integer_bits(), fmt.fractional_bits(),
      nacu::simd::backend_name(engine.backend()),
      table_kind_name(engine.table_kind(Function::Sigmoid)),
      table_kind_name(engine.table_kind(Function::Tanh)),
      table_kind_name(engine.table_kind(Function::Exp)), o.shards,
      o.work_stealing ? "on" : "off", o.batcher.max_batch,
      static_cast<long long>(o.batcher.max_wait.count()),
      o.batcher.queue_capacity);
  return line;
}

// -- cases ----------------------------------------------------------------------

Env::Env(const Args& arguments, std::size_t activation_cases,
         std::size_t activation_elems)
    : args{arguments},
      config{datapath_config()},
      reference{config},
      float_model{trained_model()},
      reference_model{float_model, config},
      rng{arguments.seed} {
  const nacu::fp::Format fmt = config.format;
  for (std::size_t k = 0; k < activation_cases; ++k) {
    ActivationCase c;
    c.function = kFunctions[k % 3];
    c.input = random_inputs(rng, activation_elems, fmt);
    c.input_raw = raws_of(c.input);
    c.expected = raws_of(reference.evaluate(c.function, c.input));
    activations.push_back(std::move(c));
  }
  for (std::size_t k = 0; k < kSoftmaxRows; ++k) {
    SoftmaxCase c;
    c.logits = random_inputs(rng, kSoftmaxLogits, fmt);
    c.expected = raws_of(reference.softmax(c.logits));
    softmax_rows.push_back(std::move(c));
  }
  for (std::size_t k = 0; k < kMlpInputs; ++k) {
    MlpCase c;
    c.input = {10.0 * rng.uniform() - 5.0, 10.0 * rng.uniform() - 5.0};
    c.expected = reference_model.predict_proba(c.input);
    mlp_inputs.push_back(std::move(c));
  }
}

Stream Env::activation_stream() {
  const std::size_t n = activations.size();
  const std::size_t start = rng.next() % n;
  Stream stream(n);
  for (std::size_t j = 0; j < n; ++j) {
    stream[j] = {Kind::Activation, static_cast<std::uint32_t>((start + j) % n)};
  }
  return stream;
}

bool same_raws(const std::vector<Fixed>& got,
               const std::vector<std::int64_t>& want) {
  if (got.size() != want.size()) {
    return false;
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].raw() != want[i]) {
      return false;
    }
  }
  return true;
}

bool same_bits(const std::vector<double>& got,
               const std::vector<double>& want) {
  return got.size() == want.size() &&
         std::memcmp(got.data(), want.data(), got.size() * sizeof(double)) ==
             0;
}

// -- set-up ---------------------------------------------------------------------

void build_stack(const Env& env, bool with_net, int repeats, Stack& out,
                 std::vector<double>& seconds) {
  const ActivationCase& probe = env.activations.front();
  for (int r = 0; r < repeats; ++r) {
    out.net.reset();
    out.inference.reset();
    out.model.reset();
    const Clock::time_point start = Clock::now();
    out.model = std::make_unique<nacu::nn::QuantizedMlp>(env.float_model,
                                                         env.config);
    out.inference =
        std::make_unique<ns::InferenceServer>(env.config, serving_options());
    std::vector<Fixed> answer;
    if (with_net) {
      nacu::net::NetServerOptions options;
      options.mlp = out.model.get();
      out.net = std::make_unique<nacu::net::NetServer>(*out.inference, options);
      nacu::net::Client client{out.net->port()};
      answer = client.call(probe.function, probe.input);
    } else {
      answer = out.inference->submit(probe.function, probe.input).get();
    }
    const Clock::time_point done = Clock::now();
    if (!same_raws(answer, probe.expected)) {
      throw std::runtime_error{"set-up: first answer is not bit-exact"};
    }
    seconds.push_back(seconds_between(start, done));
  }
}

// -- lanes ------------------------------------------------------------------------

namespace {

template <typename Values, typename Expected, typename Same>
Outcome compare(const Values& got, const Expected& want, Same same) {
  return same(got, want) ? Outcome{} : Outcome{Outcome::Wrong, nullptr};
}

std::size_t item_elements(const Env& env, const Item& item) {
  switch (item.kind) {
    case Kind::Activation:
      return env.activations[item.index].input.size();
    case Kind::Softmax:
      return env.softmax_rows[item.index].logits.size();
    case Kind::Mlp:
      return env.mlp_inputs[item.index].input.size();
  }
  return 0;
}

const Item& item_at(const Stream* stream, std::uint64_t i) {
  return (*stream)[i % stream->size()];
}

}  // namespace

WireLane::WireLane(const Env& env, std::uint16_t port, const Stream* stream)
    : env_{&env},
      stream_{stream},
      client_{std::make_unique<nacu::net::Client>(port)} {}

Outcome WireLane::enter(std::uint64_t i) {
  const Item& item = item_at(stream_, i);
  std::uint64_t id = 0;
  switch (item.kind) {
    case Kind::Activation: {
      const ActivationCase& c = env_->activations[item.index];
      id = client_->send_submit(c.function, c.input);
      break;
    }
    case Kind::Softmax:
      id = client_->send_softmax(env_->softmax_rows[item.index].logits);
      break;
    case Kind::Mlp:
      id = client_->send_mlp(env_->mlp_inputs[item.index].input);
      break;
  }
  return id == 0 ? Outcome{Outcome::Lost, "send_failed"} : Outcome{};
}

Outcome WireLane::finish(std::uint64_t i, Clock::time_point& answered) {
  const auto response = client_->read_response();
  answered = Clock::now();
  if (!response.has_value()) {
    return {Outcome::Lost, "lost_connection"};
  }
  if (!response->ok()) {
    return {Outcome::Failed, nacu::net::error_code_name(response->error)};
  }
  const Item& item = item_at(stream_, i);
  switch (item.kind) {
    case Kind::Activation:
      return compare(response->values, env_->activations[item.index].expected,
                     same_raws);
    case Kind::Softmax:
      return compare(response->values,
                     env_->softmax_rows[item.index].expected, same_raws);
    case Kind::Mlp:
      return compare(response->doubles, env_->mlp_inputs[item.index].expected,
                     same_bits);
  }
  return {Outcome::Wrong, nullptr};
}

std::size_t WireLane::elements(std::uint64_t i) const {
  return item_elements(*env_, item_at(stream_, i));
}

ServeLane::ServeLane(const Env& env, ns::InferenceServer& server,
                     const nacu::nn::QuantizedMlp& model, const Stream* stream,
                     std::size_t slots)
    : env_{&env},
      server_{&server},
      model_{&model},
      stream_{stream},
      pending_(slots) {}

void ServeLane::prepare(std::uint64_t i) {
  const Item& item = item_at(stream_, i);
  switch (item.kind) {
    case Kind::Activation:
      staged_fixed_ = env_->activations[item.index].input;
      break;
    case Kind::Softmax:
      staged_fixed_ = env_->softmax_rows[item.index].logits;
      break;
    case Kind::Mlp:
      staged_real_ = env_->mlp_inputs[item.index].input;
      break;
  }
}

Outcome ServeLane::enter(std::uint64_t i) {
  const Item& item = item_at(stream_, i);
  Pending& p = pending_[i % pending_.size()];
  try {
    switch (item.kind) {
      case Kind::Activation:
        p.fixed = server_->submit(env_->activations[item.index].function,
                                  std::move(staged_fixed_));
        break;
      case Kind::Softmax:
        p.fixed = server_->submit_softmax(std::move(staged_fixed_));
        break;
      case Kind::Mlp:
        p.real = server_->submit_mlp(*model_, std::move(staged_real_));
        break;
    }
  } catch (...) {
    return {Outcome::Failed, exception_cause(std::current_exception())};
  }
  return {};
}

Outcome ServeLane::finish(std::uint64_t i, Clock::time_point& answered) {
  const Item& item = item_at(stream_, i);
  Pending& p = pending_[i % pending_.size()];
  try {
    if (item.kind == Kind::Mlp) {
      const std::vector<double> got = p.real.get();
      answered = Clock::now();
      return compare(got, env_->mlp_inputs[item.index].expected, same_bits);
    }
    const std::vector<Fixed> got = p.fixed.get();
    answered = Clock::now();
    return compare(got,
                   item.kind == Kind::Activation
                       ? env_->activations[item.index].expected
                       : env_->softmax_rows[item.index].expected,
                   same_raws);
  } catch (...) {
    answered = Clock::now();
    return {Outcome::Failed, exception_cause(std::current_exception())};
  }
}

std::size_t ServeLane::elements(std::uint64_t i) const {
  return item_elements(*env_, item_at(stream_, i));
}

CoreLane::CoreLane(const Env& env, const nc::BatchNacu& engine,
                   const nacu::nn::QuantizedMlp& model, const Stream* stream)
    : env_{&env}, engine_{&engine}, model_{&model}, stream_{stream} {}

Outcome CoreLane::enter(std::uint64_t i) {
  const Item& item = item_at(stream_, i);
  try {
    switch (item.kind) {
      case Kind::Activation: {
        const ActivationCase& c = env_->activations[item.index];
        out_fixed_.resize(c.input.size(), c.input.front());
        engine_->evaluate(c.function, c.input, out_fixed_);
        break;
      }
      case Kind::Softmax:
        out_fixed_ = engine_->softmax(env_->softmax_rows[item.index].logits);
        break;
      case Kind::Mlp:
        out_real_ =
            model_->predict_proba(env_->mlp_inputs[item.index].input);
        break;
    }
  } catch (...) {
    return {Outcome::Failed, exception_cause(std::current_exception())};
  }
  return {};
}

Outcome CoreLane::finish(std::uint64_t i, Clock::time_point& answered) {
  answered = Clock::now();
  const Item& item = item_at(stream_, i);
  switch (item.kind) {
    case Kind::Activation:
      return compare(out_fixed_, env_->activations[item.index].expected,
                     same_raws);
    case Kind::Softmax:
      return compare(out_fixed_, env_->softmax_rows[item.index].expected,
                     same_raws);
    case Kind::Mlp:
      return compare(out_real_, env_->mlp_inputs[item.index].expected,
                     same_bits);
  }
  return {Outcome::Wrong, nullptr};
}

std::size_t CoreLane::elements(std::uint64_t i) const {
  return item_elements(*env_, item_at(stream_, i));
}

// -- reporting --------------------------------------------------------------------

void Totals::add(const PhaseResult& phase) {
  attempted += phase.attempted;
  failed += phase.failures.total();
  wrong += phase.wrong;
  failures.merge(phase.failures);
}

void add_end_to_end(Report& report, const EndToEnd& e2e) {
  const PhaseResult& m = *e2e.measured;
  char disturbed[96];
  std::snprintf(disturbed, sizeof disturbed,
                " (host disturbance %.1f%% in them, %.1f%% in all)",
                100.0 * m.quiet_disturbance(), 100.0 * m.mean_disturbance());
  const std::string quiet = " quartile of the quiet " +
                            std::to_string(m.quiet_slices().size()) + " of " +
                            std::to_string(m.answered_slices.size()) +
                            " time slices";
  report.add("setup_s", median(e2e.setup_s), "s",
             "median of " + std::to_string(e2e.setup_s.size()) +
                 " builds to the first correct answer");
  report.add("throughput_rps", m.sliced_throughput(), "1/s",
             "upper" + quiet + disturbed);
  report.add("latency_p50_us", m.sliced_latency_us(0.50), "us",
             "lower" + quiet);
  report.add("latency_p99_us", m.sliced_latency_us(0.99), "us",
             "whole run " + std::to_string(m.latency.quantile(0.99) / 1e3) +
                 " us, n=" + std::to_string(m.latency.count()));
  report.add("max_rate_rps", e2e.max_rate_rps, "1/s", e2e.max_rate_note);
  report.add("cpu_us_per_req", m.server_cpu_us_per_req(), "us",
             "process CPU minus load threads, per answer");
  report.add("peak_rss_mib", median(e2e.rss_mib), "MiB",
             "median over " + std::to_string(e2e.rss_mib.size()) +
                 " rounds of the peak while serving");
}

namespace {

/// Per-request time of a peeled phase. In an open loop the rate is fixed,
/// so it is the mean latency. In a closed loop it is wall time per answer
/// at the phase's concurrency; for the synchronous engine phase, whose
/// threads also check every answer, it is the time inside the engine call
/// divided by the threads making calls.
double per_request_us(const PhaseResult& phase, bool open_loop,
                      bool synchronous) {
  if (phase.answered == 0) {
    return 0.0;
  }
  if (open_loop) {
    return phase.latency.mean() / 1e3;
  }
  if (synchronous) {
    return phase.enter.mean() / static_cast<double>(phase.threads) / 1e3;
  }
  return phase.wall_s * 1e6 / static_cast<double>(phase.answered);
}

/// Mean ns per call of @p call, repeated for @p seconds.
template <typename Call>
double ns_per_call(double seconds, Call call) {
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::size_t calls = 0;
  Clock::time_point now = start;
  do {
    call(calls++);
    now = Clock::now();
  } while (now < stop);
  return static_cast<double>(ns_between(start, now)) /
         static_cast<double>(calls);
}

}  // namespace

void add_per_layer(Report& report, const Env& env, const Stack& stack,
                   const Peel& peel, double micro_seconds) {
  const nc::BatchNacu& engine = stack.inference->engine();
  const auto q_us = [](const PhaseResult* phase, Histogram PhaseResult::*samples,
                       double q) {
    return phase == nullptr ? 0.0 : (phase->*samples).quantile(q) / 1e3;
  };

  // net
  const PhaseResult* wire = peel.wire;
  const PhaseResult* wire_u = peel.wire_untraced;
  const auto per_answer = [](const PhaseResult* phase, double value) {
    return phase == nullptr || phase->answered == 0
               ? 0.0
               : value / static_cast<double>(phase->answered);
  };
  report.add("net.send_us.p50", q_us(wire, &PhaseResult::enter, 0.50), "us",
             "inside Client::send_*");
  report.add("net.send_us.p99", q_us(wire, &PhaseResult::enter, 0.99), "us");
  for (const double q : {0.50, 0.99}) {
    const double overhead =
        wire == nullptr ? 0.0
                        : q_us(wire, &PhaseResult::latency, q) -
                              q_us(peel.serve, &PhaseResult::latency, q);
    report.add(q == 0.50 ? "net.wire_overhead_us.p50"
                         : "net.wire_overhead_us.p99",
               overhead, "us", "wire round trip minus peeled serve");
  }
  report.add("net.sys_us_per_req",
             per_answer(wire_u, wire_u == nullptr
                                    ? 0.0
                                    : (wire_u->process.sys_s -
                                       wire_u->load.sys_s) * 1e6),
             "us");
  report.add("net.ctx_switches_per_req",
             per_answer(wire_u, wire_u == nullptr
                                    ? 0.0
                                    : wire_u->process.ctx_switches -
                                          wire_u->load.ctx_switches),
             "count");
  report.add("net.threads", wire_u == nullptr ? 0.0 : wire_u->peak_threads,
             "count", "peak process threads under wire load");
  const nacu::net::NetServer::Stats& st = peel.run_stats;
  report.add("net.frames_read", static_cast<double>(st.frames_read), "count");
  report.add("net.responses_written",
             static_cast<double>(st.responses_written), "count");
  report.add("net.immediate_errors", static_cast<double>(st.immediate_errors),
             "count");
  report.add("net.protocol_errors", static_cast<double>(st.protocol_errors),
             "count");
  report.add("net.write_failures", static_cast<double>(st.write_failures),
             "count");

  // serve
  report.add("serve.submit_us.p50", q_us(peel.serve, &PhaseResult::enter, 0.50),
             "us", "inside submit*");
  report.add("serve.submit_us.p99", q_us(peel.serve, &PhaseResult::enter, 0.99),
             "us");
  report.add("serve.complete_us.p50",
             q_us(peel.serve, &PhaseResult::complete, 0.50), "us",
             "submit return to future ready");
  report.add("serve.complete_us.p99",
             q_us(peel.serve, &PhaseResult::complete, 0.99), "us");
  const auto& pc = peel.primary_counters;
  report.add("serve.avg_group",
             pc.dispatches == 0 ? 0.0
                                : static_cast<double>(pc.accepted) /
                                      static_cast<double>(pc.dispatches),
             "count", "accepted / dispatches");
  report.add("serve.steals_per_kreq",
             pc.accepted == 0 ? 0.0
                              : 1e3 * static_cast<double>(pc.steals) /
                                    static_cast<double>(pc.accepted),
             "count");
  const auto& rc = peel.run_counters;
  report.add("serve.rejected",
             static_cast<double>(rc.rejected_overload + rc.rejected_shutdown +
                                 rc.rejected_quota + rc.rejected_deadline +
                                 rc.shed_priority + rc.shed_deadline),
             "count", "rejected plus shed");
  report.add("serve.stalls", static_cast<double>(rc.stalls), "count");
  report.add("serve.retry_exhausted", static_cast<double>(rc.retry_exhausted),
             "count");
  report.add("serve.circuit_opens", static_cast<double>(rc.circuit_opens),
             "count");
  report.add("serve.degraded_requests",
             static_cast<double>(rc.degraded_requests), "count");
  report.add("serve.hedges", static_cast<double>(rc.hedges), "count");
  const double wire_us =
      wire == nullptr ? 0.0 : per_request_us(*wire, peel.open_loop, false);
  const double serve_us = per_request_us(*peel.serve, peel.open_loop, false);
  const double core_us = per_request_us(*peel.core, peel.open_loop, true);
  const double elems_per_req =
      peel.serve->answered == 0
          ? 0.0
          : static_cast<double>(peel.serve->elements) /
                static_cast<double>(peel.serve->answered);
  report.add("serve.overhead_ns_per_elem",
             elems_per_req == 0.0 ? 0.0
                                  : (serve_us - core_us) * 1e3 / elems_per_req,
             "ns", "peeled serve minus core, per element");

  // core / simd: single-threaded calls into the served engine on this
  // workload's own inputs.
  const double slice = micro_seconds / 8.0;
  for (std::size_t f = 0; f < 3; ++f) {
    std::vector<const ActivationCase*> cases;
    std::size_t elems = 0;
    for (const ActivationCase& c : env.activations) {
      if (c.function == kFunctions[f]) {
        cases.push_back(&c);
        elems += c.input.size();
      }
    }
    const double per_elem = static_cast<double>(cases.size()) /
                            static_cast<double>(elems);
    std::vector<Fixed> out(cases.front()->input.size(), cases.front()->input[0]);
    const double fixed_ns = ns_per_call(slice, [&](std::size_t k) {
      const ActivationCase& c = *cases[k % cases.size()];
      engine.evaluate(c.function, c.input, out);
    });
    std::vector<std::int64_t> out_raw(out.size());
    const double raw_ns = ns_per_call(slice, [&](std::size_t k) {
      const ActivationCase& c = *cases[k % cases.size()];
      engine.evaluate_raw(c.function, c.input_raw, out_raw);
    });
    report.add(std::string{"core.evaluate_ns_per_elem."} + kFunctionNames[f],
               fixed_ns * per_elem, "ns");
    report.add(std::string{"core.evaluate_raw_ns_per_elem."} +
                   kFunctionNames[f],
               raw_ns * per_elem, "ns");
  }
  report.add("core.softmax_us_per_row",
             ns_per_call(slice,
                         [&](std::size_t k) {
                           const auto& row =
                               env.softmax_rows[k % env.softmax_rows.size()];
                           (void)engine.softmax(row.logits);
                         }) /
                 1e3,
             "us", "64 logits");
  std::vector<double> warm_s;
  for (int r = 0; r < 3; ++r) {
    const Clock::time_point start = Clock::now();
    const nc::BatchNacu fresh{env.config,
                              serving_options().batch_options};
    for (const Function f : kFunctions) {
      fresh.warm(f);
    }
    warm_s.push_back(seconds_between(start, Clock::now()));
  }
  report.add("core.warm_s", median(warm_s), "s",
             "engine build + sigma/tanh/exp table warm-up");
  std::size_t table_bytes = 0;
  for (const Function f : kFunctions) {
    table_bytes += engine.table_resident_bytes(f);
  }
  report.add("core.table_bytes",
             static_cast<double>(table_bytes * stack.inference->shard_count()),
             "bytes", "resident, all shards");

  // nn
  Histogram forward;
  const Clock::time_point nn_stop =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(slice));
  for (std::size_t k = 0; Clock::now() < nn_stop; ++k) {
    const MlpCase& c = env.mlp_inputs[k % env.mlp_inputs.size()];
    const Clock::time_point start = Clock::now();
    (void)stack.model->predict_proba(c.input);
    forward.add(ns_between(start, Clock::now()));
  }
  report.add("nn.mlp_forward_us.p50", forward.quantile(0.50) / 1e3, "us",
             "n=" + std::to_string(forward.count()));
  report.add("nn.mlp_forward_us.p99", forward.quantile(0.99) / 1e3, "us");
  std::vector<double> quantize_s;
  for (int r = 0; r < 3; ++r) {
    const Clock::time_point start = Clock::now();
    const nacu::nn::QuantizedMlp model{env.float_model, env.config};
    quantize_s.push_back(seconds_between(start, Clock::now()));
  }
  report.add("nn.quantize_s", median(quantize_s), "s");

  // loadgen
  const PhaseResult* primary = peel.primary_untraced;
  report.add("loadgen.late_p50_us", q_us(primary, &PhaseResult::late, 0.50),
             "us", peel.open_loop ? "due to sent" : "closed loop");
  report.add("loadgen.late_p99_us", q_us(primary, &PhaseResult::late, 0.99),
             "us");
  report.add("loadgen.cpu_us_per_req",
             per_answer(primary, primary->load.cpu_s() * 1e6), "us");
  const double untraced = primary->throughput();
  report.add("trace.overhead_frac",
             untraced == 0.0
                 ? 0.0
                 : (untraced - peel.primary_traced->throughput()) / untraced,
             "frac", "untraced vs traced throughput_rps");

  // Layer self time per request, from the peel.
  const double net_self = wire == nullptr ? 0.0 : wire_us - serve_us;
  const double serve_self = serve_us - core_us;
  const double total = wire == nullptr ? serve_us : wire_us;
  report.add("net.self_us_per_req", net_self, "us",
             wire == nullptr ? "absent: no wire on this workload" : "");
  report.add("serve.self_us_per_req", serve_self, "us");
  report.add("core.self_us_per_req", core_us, "us");
  std::printf("  layer self time per request (%s): net %.3f us (%.1f%%), "
              "serve %.3f us (%.1f%%), core %.3f us (%.1f%%)\n",
              peel.open_loop ? "mean latency" : "wall time per answer",
              net_self, 100.0 * net_self / total, serve_self,
              100.0 * serve_self / total, core_us, 100.0 * core_us / total);
}

nacu::serve::InferenceServer::Counters operator-(
    const ns::InferenceServer::Counters& a,
    const ns::InferenceServer::Counters& b) {
  ns::InferenceServer::Counters d;
  d.accepted = a.accepted - b.accepted;
  d.rejected_overload = a.rejected_overload - b.rejected_overload;
  d.rejected_shutdown = a.rejected_shutdown - b.rejected_shutdown;
  d.rejected_quota = a.rejected_quota - b.rejected_quota;
  d.rejected_deadline = a.rejected_deadline - b.rejected_deadline;
  d.shed_priority = a.shed_priority - b.shed_priority;
  d.shed_deadline = a.shed_deadline - b.shed_deadline;
  d.completed = a.completed - b.completed;
  d.dispatches = a.dispatches - b.dispatches;
  d.steals = a.steals - b.steals;
  d.stolen_requests = a.stolen_requests - b.stolen_requests;
  d.detections = a.detections - b.detections;
  d.degraded_requests = a.degraded_requests - b.degraded_requests;
  d.scrubs = a.scrubs - b.scrubs;
  d.scrub_failures = a.scrub_failures - b.scrub_failures;
  d.respawns = a.respawns - b.respawns;
  d.stalls = a.stalls - b.stalls;
  d.retried = a.retried - b.retried;
  d.retry_exhausted = a.retry_exhausted - b.retry_exhausted;
  d.hedges = a.hedges - b.hedges;
  d.hedge_wins = a.hedge_wins - b.hedge_wins;
  d.circuit_opens = a.circuit_opens - b.circuit_opens;
  d.circuit_closes = a.circuit_closes - b.circuit_closes;
  return d;
}

nacu::net::NetServer::Stats operator-(const nacu::net::NetServer::Stats& a,
                                      const nacu::net::NetServer::Stats& b) {
  nacu::net::NetServer::Stats d;
  d.connections = a.connections - b.connections;
  d.frames_read = a.frames_read - b.frames_read;
  d.requests_submitted = a.requests_submitted - b.requests_submitted;
  d.responses_written = a.responses_written - b.responses_written;
  d.immediate_errors = a.immediate_errors - b.immediate_errors;
  d.protocol_errors = a.protocol_errors - b.protocol_errors;
  d.write_failures = a.write_failures - b.write_failures;
  return d;
}

void print_counters(const ns::InferenceServer::Counters& c) {
  std::printf(
      "  serve counters: accepted %llu completed %llu dispatches %llu "
      "steals %llu rejected_overload %llu rejected_shutdown %llu "
      "shed_priority %llu shed_deadline %llu stalls %llu respawns %llu "
      "retried %llu retry_exhausted %llu hedges %llu circuit_opens %llu "
      "degraded_requests %llu\n",
      static_cast<unsigned long long>(c.accepted),
      static_cast<unsigned long long>(c.completed),
      static_cast<unsigned long long>(c.dispatches),
      static_cast<unsigned long long>(c.steals),
      static_cast<unsigned long long>(c.rejected_overload),
      static_cast<unsigned long long>(c.rejected_shutdown),
      static_cast<unsigned long long>(c.shed_priority),
      static_cast<unsigned long long>(c.shed_deadline),
      static_cast<unsigned long long>(c.stalls),
      static_cast<unsigned long long>(c.respawns),
      static_cast<unsigned long long>(c.retried),
      static_cast<unsigned long long>(c.retry_exhausted),
      static_cast<unsigned long long>(c.hedges),
      static_cast<unsigned long long>(c.circuit_opens),
      static_cast<unsigned long long>(c.degraded_requests));
}

void print_stats(const nacu::net::NetServer::Stats& s) {
  std::printf(
      "  net stats: connections %llu frames_read %llu requests_submitted %llu "
      "responses_written %llu immediate_errors %llu protocol_errors %llu "
      "write_failures %llu\n",
      static_cast<unsigned long long>(s.connections),
      static_cast<unsigned long long>(s.frames_read),
      static_cast<unsigned long long>(s.requests_submitted),
      static_cast<unsigned long long>(s.responses_written),
      static_cast<unsigned long long>(s.immediate_errors),
      static_cast<unsigned long long>(s.protocol_errors),
      static_cast<unsigned long long>(s.write_failures));
}

int finish_run(const Env& env, const Report& report, const Totals& totals,
               const Stack& stack, const Trace* trace) {
  const Args& args = env.args;
  // Guests sharing the host take CPU away in spells; a run that lost much
  // of it to steal reads slow, and this line says so.
  const HostTimes host = host_times();
  const double ticks = host.total - env.host_at_start.total;
  std::printf("  host steal %.1f%% of machine CPU time during the run\n",
              ticks > 0.0
                  ? 100.0 * (host.steal - env.host_at_start.steal) / ticks
                  : 0.0);
  std::printf("  %s\n",
              describe_configuration(stack.inference->engine()).c_str());
  std::printf("  fail_frac %.6g (%llu of %llu attempted; causes: %s)\n",
              totals.attempted == 0
                  ? 0.0
                  : static_cast<double>(totals.failed) /
                        static_cast<double>(totals.attempted),
              static_cast<unsigned long long>(totals.failed),
              static_cast<unsigned long long>(totals.attempted),
              totals.failures.describe().c_str());
  std::printf("  wrong_answers %llu\n",
              static_cast<unsigned long long>(totals.wrong));
  print_counters(stack.inference->counters());
  if (stack.net != nullptr) {
    print_stats(stack.net->stats());
  }
  report.print();
  if (trace != nullptr) {
    trace->print_self_times();
    if (!args.trace_file.empty()) {
      if (trace->write_chrome(args.trace_file)) {
        std::printf("  chrome trace written to %s\n", args.trace_file.c_str());
      } else {
        std::fprintf(stderr, "perfbench: could not write %s\n",
                     args.trace_file.c_str());
      }
    }
  }
  report.print_json(totals.wrong == 0, totals.attempted, totals.failed);
  return totals.wrong == 0 ? 0 : 1;
}

}  // namespace perfbench
