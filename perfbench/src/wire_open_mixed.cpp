// wire_open_mixed: an open loop over TCP at a fixed absolute arrival rate.
// Two connections, each with a sender and a reader thread, follow a seeded
// Poisson schedule. Most requests are 8-element activations; some are
// 64-logit softmax rows and some are forwards of the hosted QuantizedMlp,
// so heavy and light requests share one micro-batcher and one set of
// shards. Latency runs from each request's scheduled instant.
//
// End-to-end latency, throughput and CPU come from the reference rate,
// below the knee. max_rate_rps is the rate the stack sustains on the same
// mix when the connections keep a bounded window in flight instead of
// following a schedule: a closed loop cannot build a backlog, and its p99
// must stay within kLatencyLimitUs (see saturation_rate).
#include <algorithm>
#include <cmath>

#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kConnections = 2;
constexpr std::size_t kElems = 8;
constexpr std::size_t kCases = 3 * 2048;
constexpr double kSoftmaxShare = 0.06;
constexpr double kMlpShare = 0.04;

constexpr double kReferenceRate = 20000.0;
/// Share of the run spent at the reference rate; the rest measures the
/// saturation rate.
constexpr double kReferenceShare = 0.35;
/// Requests in flight per connection while measuring the saturation rate:
/// enough to keep both shards busy, few enough that the p99 stays far
/// below the limit.
constexpr std::size_t kSaturationWindow = 32;
constexpr double kLatencyLimitUs = 5000.0;

/// One phase's schedule: per connection, the due instants (ns after the
/// phase starts) and the requests.
struct Plan {
  std::vector<std::vector<std::int64_t>> due_ns;
  std::vector<Stream> streams;
};

/// One request of the mix.
Item pick_item(Env& env) {
  const double pick = env.rng.uniform();
  if (pick < kSoftmaxShare) {
    return {Kind::Softmax, static_cast<std::uint32_t>(
                               env.rng.next() % env.softmax_rows.size())};
  }
  if (pick < kSoftmaxShare + kMlpShare) {
    return {Kind::Mlp,
            static_cast<std::uint32_t>(env.rng.next() % env.mlp_inputs.size())};
  }
  return {Kind::Activation,
          static_cast<std::uint32_t>(env.rng.next() % env.activations.size())};
}

Plan make_plan(Env& env, double rate, double seconds) {
  Plan plan;
  const double lane_rate = rate / static_cast<double>(kConnections);
  for (std::size_t l = 0; l < kConnections; ++l) {
    std::vector<std::int64_t> due;
    Stream stream;
    double t = 0.0;
    while (true) {
      t += -std::log(1.0 - env.rng.uniform()) / lane_rate;
      if (t >= seconds) {
        break;
      }
      due.push_back(static_cast<std::int64_t>(t * 1e9));
      stream.push_back(pick_item(env));
    }
    plan.due_ns.push_back(std::move(due));
    plan.streams.push_back(std::move(stream));
  }
  return plan;
}

template <typename Lane>
PhaseResult run_plan(std::vector<Lane>& lanes, const Plan& plan,
                     const LayerNames& names, Trace* trace,
                     const std::string& phase) {
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    lanes[l].set_stream(&plan.streams[l]);
  }
  return open_loop(lanes, plan.due_ns, names, trace, phase);
}

/// max_rate_rps: the saturation throughput of @p saturated when its p99
/// meets kLatencyLimitUs. Otherwise it is scaled down by how far the p99
/// overshoots the limit, so a run that misses reads low rather than 0. A
/// failed request misses any limit, so a run with failures reads 0.
double saturation_rate(const PhaseResult& saturated) {
  const double p99_us = saturated.sliced_latency_us(0.99);
  const bool met = saturated.failures.total() == 0 && saturated.wrong == 0;
  return met ? saturated.sliced_throughput() *
                   std::min(1.0, kLatencyLimitUs / std::max(p99_us, 1.0))
             : 0.0;
}

/// Open-loop serve lanes need one future slot per scheduled request.
std::vector<ServeLane> serve_lanes(Env& env, Stack& stack, const Plan& plan) {
  std::vector<ServeLane> lanes;
  for (std::size_t l = 0; l < kConnections; ++l) {
    lanes.emplace_back(env, *stack.inference, *stack.model, &plan.streams[l],
                       plan.due_ns[l].size());
  }
  return lanes;
}

}  // namespace

int run_wire_open_mixed(const Args& args) {
  Env env{args, kCases, kElems};
  std::printf("  mix: %.0f%% 8-element activations, %.0f%% 64-logit softmax "
              "rows, %.0f%% MLP forwards; reference rate %.0f req/s; "
              "latency limit p99 <= %.0f us\n",
              100.0 * (1.0 - kSoftmaxShare - kMlpShare), 100.0 * kSoftmaxShare,
              100.0 * kMlpShare, kReferenceRate, kLatencyLimitUs);
  Stack stack;
  std::vector<double> setup_s;
  const auto connect = [&] {
    std::vector<WireLane> lanes;
    for (std::size_t l = 0; l < kConnections; ++l) {
      lanes.emplace_back(env, stack.net->port(), nullptr);
      if (!lanes.back().connected()) {
        throw std::runtime_error{"wire_open_mixed: could not connect"};
      }
    }
    return lanes;
  };

  Report report;
  Totals totals;
  const double s = args.seconds;
  if (!args.trace) {
    // One reference segment and one saturation measurement per round, each
    // round on a fresh stack, so both are spread over the whole run.
    const double reference_s = kReferenceShare * s / static_cast<double>(kRounds);
    const double saturation_s =
        (1.0 - kReferenceShare) * s / static_cast<double>(kRounds);
    std::vector<Stream> mixed(kConnections);
    for (Stream& stream : mixed) {
      for (std::size_t i = 0; i < kCases; ++i) {
        stream.push_back(pick_item(env));
      }
    }
    PhaseResult measured;
    PhaseResult saturated;
    std::vector<double> rss_mib;
    for (std::size_t r = 0; r < kRounds; ++r) {
      build_stack(env, true, kBuildsPerRound, stack, setup_s);
      std::vector<WireLane> wire = connect();
      const Plan reference = make_plan(env, kReferenceRate, reference_s);
      reset_peak_rss();
      PhaseResult segment =
          run_plan(wire, reference, kWireNames, nullptr, "reference");
      totals.add(segment);
      measured.append(segment);
      // Memory at the operating point.
      rss_mib.push_back(peak_rss_mib());
      for (std::size_t l = 0; l < kConnections; ++l) {
        wire[l].set_stream(&mixed[l]);
      }
      PhaseResult round = closed_loop(wire, kSaturationWindow, saturation_s,
                                      kWireNames, nullptr, "saturation");
      totals.add(round);
      saturated.append(round);
    }
    std::printf("  saturation: %zu in flight per connection, p99 %.1f us "
                "(limit %.0f us)\n",
                kSaturationWindow, saturated.sliced_latency_us(0.99),
                kLatencyLimitUs);
    add_end_to_end(report,
                   {setup_s, &measured, saturation_rate(saturated),
                    "closed-loop saturation of the mix, p99 within the limit",
                    rss_mib});
    return finish_run(env, report, totals, stack, nullptr);
  }

  build_stack(env, true, 1, stack, setup_s);
  const auto counters_at_start = stack.inference->counters();
  const auto stats_at_start = stack.net->stats();
  std::vector<WireLane> wire = connect();
  Trace trace{Clock::now()};
  const Plan plan = make_plan(env, kReferenceRate, 0.25 * s);
  PhaseResult wire_untraced =
      run_plan(wire, plan, kWireNames, nullptr, "wire_untraced");
  PhaseResult wire_traced = run_plan(wire, plan, kWireNames, &trace, "wire");
  const auto after_primary = stack.inference->counters();
  std::vector<ServeLane> serve = serve_lanes(env, stack, plan);
  PhaseResult serve_traced =
      open_loop(serve, plan.due_ns, kServeNames, &trace, "serve");
  std::vector<CoreLane> core;
  for (std::size_t l = 0; l < kConnections; ++l) {
    core.emplace_back(env, stack.inference->engine(), *stack.model,
                      &plan.streams[l]);
  }
  PhaseResult core_traced =
      closed_loop(core, 1, 0.10 * s, kCoreNames, &trace, "core");
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
  peel.open_loop = true;
  peel.primary_counters = after_primary - counters_at_start;
  peel.run_counters = stack.inference->counters() - counters_at_start;
  peel.run_stats = stack.net->stats() - stats_at_start;
  add_per_layer(report, env, stack, peel, 0.15 * s);
  return finish_run(env, report, totals, stack, &trace);
}

}  // namespace perfbench
