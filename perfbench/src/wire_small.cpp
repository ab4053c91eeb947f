// wire_small: a closed loop over loopback TCP. Four connections, each on its
// own thread, keep a window of 16 pipelined 8-element σ/tanh/exp requests in
// flight. The network edge does nearly all the work here and the kernel
// almost none, so wire-path changes show and kernel changes must not.
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kConnections = 4;
constexpr std::size_t kWindow = 16;
constexpr std::size_t kElems = 8;
constexpr std::size_t kCases = 3 * 2048;

}  // namespace

int run_wire_small(const Args& args) {
  Env env{args, kCases, kElems};
  Stack stack;
  std::vector<double> setup_s;
  std::vector<Stream> streams;
  for (std::size_t t = 0; t < kConnections; ++t) {
    streams.push_back(env.activation_stream());
  }
  const auto connect = [&] {
    std::vector<WireLane> lanes;
    for (std::size_t t = 0; t < kConnections; ++t) {
      lanes.emplace_back(env, stack.net->port(), &streams[t]);
      if (!lanes.back().connected()) {
        throw std::runtime_error{"wire_small: could not connect"};
      }
    }
    return lanes;
  };

  Report report;
  Totals totals;
  const double s = args.seconds;
  if (!args.trace) {
    PhaseResult measured;
    std::vector<double> rss_mib;
    for (std::size_t r = 0; r < kRounds; ++r) {
      build_stack(env, true, kBuildsPerRound, stack, setup_s);
      std::vector<WireLane> wire = connect();
      reset_peak_rss();
      measured.append(
          closed_loop(wire, kWindow, s / kRounds, kWireNames, nullptr, "wire"));
      rss_mib.push_back(peak_rss_mib());
    }
    totals.add(measured);
    add_end_to_end(report, {setup_s, &measured, measured.sliced_throughput(),
                            "closed loop: its saturation throughput",
                            rss_mib});
    return finish_run(env, report, totals, stack, nullptr);
  }

  build_stack(env, true, 1, stack, setup_s);
  const auto counters_at_start = stack.inference->counters();
  const auto stats_at_start = stack.net->stats();
  std::vector<WireLane> wire = connect();
  Trace trace{Clock::now()};
  PhaseResult wire_untraced =
      closed_loop(wire, kWindow, 0.15 * s, kWireNames, nullptr, "wire_untraced");
  PhaseResult wire_traced =
      closed_loop(wire, kWindow, 0.30 * s, kWireNames, &trace, "wire");
  const auto after_primary = stack.inference->counters();

  std::vector<ServeLane> serve;
  std::vector<CoreLane> core;
  for (std::size_t t = 0; t < kConnections; ++t) {
    serve.emplace_back(env, *stack.inference, *stack.model, &streams[t],
                       kWindow);
    core.emplace_back(env, stack.inference->engine(), *stack.model,
                      &streams[t]);
  }
  PhaseResult serve_traced =
      closed_loop(serve, kWindow, 0.25 * s, kServeNames, &trace, "serve");
  PhaseResult core_traced =
      closed_loop(core, 1, 0.15 * s, kCoreNames, &trace, "core");
  for (const PhaseResult* p :
       {&wire_untraced, &wire_traced, &serve_traced, &core_traced}) {
    totals.add(*p);
  }

  Peel peel;
  peel.primary_untraced = &wire_untraced;
  peel.primary_traced = &wire_traced;
  peel.wire = &wire_traced;
  peel.wire_untraced = &wire_untraced;
  peel.serve = &serve_traced;
  peel.core = &core_traced;
  peel.primary_counters = after_primary - counters_at_start;
  peel.run_counters = stack.inference->counters() - counters_at_start;
  peel.run_stats = stack.net->stats() - stats_at_start;
  add_per_layer(report, env, stack, peel, 0.15 * s);
  return finish_run(env, report, totals, stack, &trace);
}

}  // namespace perfbench
