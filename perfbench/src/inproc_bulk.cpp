// inproc_bulk: a closed loop straight into InferenceServer::submit, no wire.
// Two threads each keep two 65,536-element requests in flight — past the
// engine's parallel fan-out threshold — so the kernel and the serve
// copy/verify path do the work. At this size a shard can be busy for longer
// than the default 50 ms stall timeout; the resulting ShardFailedError
// answers are counted as failures, not hidden.
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kThreads = 2;
constexpr std::size_t kWindow = 2;
constexpr std::size_t kElems = 65536;
constexpr std::size_t kCases = 3 * 2;

}  // namespace

int run_inproc_bulk(const Args& args) {
  Env env{args, kCases, kElems};
  Stack stack;
  std::vector<double> setup_s;
  std::vector<Stream> streams;
  for (std::size_t t = 0; t < kThreads; ++t) {
    streams.push_back(env.activation_stream());
  }
  const auto lanes = [&] {
    std::vector<ServeLane> serve;
    for (std::size_t t = 0; t < kThreads; ++t) {
      serve.emplace_back(env, *stack.inference, *stack.model, &streams[t],
                         kWindow);
    }
    return serve;
  };

  Report report;
  Totals totals;
  const double s = args.seconds;
  if (!args.trace) {
    PhaseResult measured;
    std::vector<double> rss_mib;
    for (std::size_t r = 0; r < kRounds; ++r) {
      build_stack(env, false, kBuildsPerRound, stack, setup_s);
      std::vector<ServeLane> serve = lanes();
      reset_peak_rss();
      measured.append(closed_loop(serve, kWindow, s / kRounds, kServeNames,
                                  nullptr, "serve"));
      rss_mib.push_back(peak_rss_mib());
    }
    totals.add(measured);
    add_end_to_end(report, {setup_s, &measured, measured.sliced_throughput(),
                            "closed loop: its saturation throughput",
                            rss_mib});
    return finish_run(env, report, totals, stack, nullptr);
  }

  build_stack(env, false, 1, stack, setup_s);
  const auto counters_at_start = stack.inference->counters();
  std::vector<ServeLane> serve = lanes();
  std::vector<CoreLane> core;
  for (std::size_t t = 0; t < kThreads; ++t) {
    core.emplace_back(env, stack.inference->engine(), *stack.model,
                      &streams[t]);
  }
  Trace trace{Clock::now()};
  PhaseResult serve_untraced = closed_loop(serve, kWindow, 0.20 * s,
                                           kServeNames, nullptr,
                                           "serve_untraced");
  PhaseResult serve_traced =
      closed_loop(serve, kWindow, 0.35 * s, kServeNames, &trace, "serve");
  const auto after_primary = stack.inference->counters();
  PhaseResult core_traced =
      closed_loop(core, 1, 0.25 * s, kCoreNames, &trace, "core");
  for (const PhaseResult* p : {&serve_untraced, &serve_traced, &core_traced}) {
    totals.add(*p);
  }

  Peel peel;
  peel.primary_untraced = &serve_untraced;
  peel.primary_traced = &serve_traced;
  peel.serve = &serve_traced;
  peel.core = &core_traced;
  peel.primary_counters = after_primary - counters_at_start;
  peel.run_counters = stack.inference->counters() - counters_at_start;
  add_per_layer(report, env, stack, peel, 0.20 * s);
  return finish_run(env, report, totals, stack, &trace);
}

}  // namespace perfbench
