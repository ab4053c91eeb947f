// Self-healing serving coverage (serve/resilience.hpp + server wiring).
//
// Every resilience path runs deterministically: crashes and stalls are
// injected through ResilienceOptions::dispatch_hook, SEUs through a
// fault::FaultInjector armed on a shard engine, and time through the
// injected fake clock — the watchdog thread is disabled (supervise =
// false) and recovery is driven by explicit poke_supervisor() calls, so
// nothing here depends on real timing. The claims under test:
//
//  * supervisor respawn — a dispatcher killed by an exception is joined,
//    its engine rebuilt, its thread respawned, and its orphaned requests
//    transparently requeued (with retry credit) or failed with
//    ShardFailedError (without) — never hung;
//  * retry budget — requeues draw from the server-wide token bucket, so
//    an empty bucket turns retries into fast failures;
//  * stall redistribution — a stalled shard's queued requests move to
//    another shard for free (no retry credit or budget: they never ran),
//    so even default-option requests are served bit-identically;
//  * live SEU scrub-and-recover — an armed single-bit fault in a dense
//    table is detected by verify-before-release on the very request that
//    read the corrupt word, the client still receives correct bits (the
//    scalar-path recompute), the function quarantines, and the
//    supervisor's scrub heals transients (closing the circuit) while
//    stuck-ats stay quarantined-but-correct forever;
//  * circuit breaking — detections trip the breaker at the configured
//    threshold, Open shards are routed around (with the fail-static
//    fallback keeping a 1-shard server serving), cooldown moves Open to
//    HalfOpen, and a clean trial dispatch closes it.
//
// This binary also runs under the CI chaos-smoke TSan job: the hook
// crashes, the supervisor's scrub, and the armed-port reads are the new
// concurrency surface.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/batch_nacu.hpp"
#include "fault/fault_injector.hpp"
#include "serve/server.hpp"

namespace nacu::serve {
namespace {

using core::BatchNacu;
using core::NacuConfig;
using core::config_for_bits;
using fault::Fault;
using fault::FaultInjector;
using fault::FaultModel;
using fault::Surface;
using Function = BatchNacu::Function;

/// Injectable deterministic clock shared by admission + resilience.
struct FakeClock {
  std::shared_ptr<std::atomic<std::int64_t>> ns =
      std::make_shared<std::atomic<std::int64_t>>(std::int64_t{1});

  void advance(std::chrono::nanoseconds d) const { ns->fetch_add(d.count()); }
  [[nodiscard]] std::function<std::chrono::steady_clock::time_point()> fn()
      const {
    auto cell = ns;
    return [cell] {
      return std::chrono::steady_clock::time_point{
          std::chrono::nanoseconds{cell->load()}};
    };
  }
  [[nodiscard]] std::chrono::steady_clock::time_point now() const {
    return fn()();
  }
};

/// Spin (real time) until @p pred holds; false on timeout. Only used for
/// thread-progress conditions (dispatcher died / circuit closed), never
/// for injected-clock logic.
template <typename Pred>
[[nodiscard]] bool eventually(Pred&& pred,
                              std::chrono::milliseconds timeout =
                                  std::chrono::milliseconds{10000}) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds{1});
  }
  return true;
}

std::vector<fp::Fixed> make_input(const NacuConfig& config,
                                  std::initializer_list<std::int64_t> raws) {
  std::vector<fp::Fixed> input;
  input.reserve(raws.size());
  for (const std::int64_t raw : raws) {
    input.push_back(fp::Fixed::from_raw(raw, config.format));
  }
  return input;
}

void expect_bits(const std::vector<fp::Fixed>& got,
                 const std::vector<fp::Fixed>& want, const char* context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].raw(), want[i].raw()) << context << " element " << i;
  }
}

TEST(Resilience, SupervisorRespawnsCrashedDispatcherAndRequeuesOrphans) {
  const NacuConfig config = config_for_bits(16);
  const BatchNacu direct{config};
  std::atomic<bool> kill{false};

  ServerOptions options;
  options.shards = 1;
  options.work_stealing = false;
  options.resilience.supervise = false;
  options.resilience.dispatch_hook = [&kill](std::size_t) {
    if (kill.load(std::memory_order_acquire)) {
      throw std::runtime_error{"chaos: injected dispatcher crash"};
    }
  };
  InferenceServer server{config, options};

  // Warm-up proves the dispatcher is alive before the crash.
  const std::vector<fp::Fixed> warm = make_input(config, {0, 100, -100});
  expect_bits(server.submit(Function::Sigmoid, warm).get(),
              direct.evaluate(Function::Sigmoid, warm), "warm-up");

  kill.store(true, std::memory_order_release);
  ASSERT_TRUE(eventually(
      [&] { return server.shard_health(0).dispatcher_dead; }))
      << "dispatcher never hit the crash barrier";

  // Two requests land in the dead shard's queue (fail-static routing
  // keeps a 1-shard server accepting): one with retry credit, one without.
  const std::vector<fp::Fixed> in = make_input(config, {7, -7, 1234});
  SubmitOptions with_retry;
  with_retry.max_retries = 1;
  auto retried_fut = server.submit(Function::Tanh, in, with_retry);
  auto doomed_fut = server.submit(Function::Tanh, in);  // max_retries = 0

  kill.store(false, std::memory_order_release);
  server.poke_supervisor();

  expect_bits(retried_fut.get(), direct.evaluate(Function::Tanh, in),
              "requeued after respawn");
  EXPECT_THROW(doomed_fut.get(), ShardFailedError);

  const auto health = server.shard_health(0);
  EXPECT_FALSE(health.dispatcher_dead);
  EXPECT_EQ(health.respawns, 1u);
  server.shutdown();
  const auto c = server.counters();
  EXPECT_EQ(c.respawns, 1u);
  EXPECT_EQ(c.retried, 1u);
  EXPECT_EQ(c.retry_exhausted, 1u);
  EXPECT_EQ(c.accepted, c.completed);
}

TEST(Resilience, RetryBudgetBoundsTransparentRequeues) {
  const NacuConfig config = config_for_bits(16);
  const BatchNacu direct{config};
  std::atomic<bool> kill{false};

  ServerOptions options;
  options.shards = 1;
  options.work_stealing = false;
  options.resilience.supervise = false;
  // One token, no refill: the budget admits exactly one requeue ever.
  options.resilience.retry_budget_per_s = 0.0;
  options.resilience.retry_budget_burst = 1.0;
  options.resilience.dispatch_hook = [&kill](std::size_t) {
    if (kill.load(std::memory_order_acquire)) {
      throw std::runtime_error{"chaos: injected dispatcher crash"};
    }
  };
  InferenceServer server{config, options};
  const std::vector<fp::Fixed> warm = make_input(config, {1});
  (void)server.submit(Function::Sigmoid, warm).get();

  kill.store(true, std::memory_order_release);
  ASSERT_TRUE(eventually(
      [&] { return server.shard_health(0).dispatcher_dead; }));

  // Both carry plenty of per-request credit; the shared bucket is the
  // binding constraint. Orphans are requeued in queue order, so the first
  // takes the token and the second fails.
  SubmitOptions generous;
  generous.max_retries = 3;
  const std::vector<fp::Fixed> in = make_input(config, {42, -42});
  auto first = server.submit(Function::Exp, in, generous);
  auto second = server.submit(Function::Exp, in, generous);

  kill.store(false, std::memory_order_release);
  server.poke_supervisor();

  expect_bits(first.get(), direct.evaluate(Function::Exp, in),
              "budgeted retry");
  EXPECT_THROW(second.get(), ShardFailedError);
  server.shutdown();
  const auto c = server.counters();
  EXPECT_EQ(c.retried, 1u);
  EXPECT_EQ(c.retry_exhausted, 1u);
  EXPECT_EQ(c.accepted, c.completed);
}

TEST(Resilience, TransientSeuIsDetectedQuarantinedAndScrubbed) {
  const NacuConfig config = config_for_bits(16);
  const BatchNacu direct{config};
  FaultInjector injector;

  ServerOptions options;
  options.shards = 1;
  options.work_stealing = false;
  options.resilience.supervise = false;
  options.resilience.shard_fault_ports = {&injector};
  InferenceServer server{config, options};

  const std::int64_t target_raw = 100;
  const std::vector<fp::Fixed> in = make_input(config, {target_raw, -5, 0});
  const std::vector<fp::Fixed> want = direct.evaluate(Function::Sigmoid, in);

  // Clean pass through the armed-but-faultless port.
  expect_bits(server.submit(Function::Sigmoid, in).get(), want, "clean");
  EXPECT_EQ(server.counters().detections, 0u);

  // Upset one bit of the very table word the request will read.
  const auto word =
      static_cast<std::size_t>(target_raw - config.format.min_raw());
  injector.arm(Fault{Surface::TableSigmoid, word, 3, FaultModel::TransientSeu});

  // The detecting request itself is served correct bits (scalar-path
  // recompute) — the client never sees the upset.
  expect_bits(server.submit(Function::Sigmoid, in).get(), want,
              "detected + degraded");
  auto c = server.counters();
  EXPECT_GE(c.detections, 1u);
  EXPECT_GE(c.degraded_requests, 1u);
  const auto sigmoid_bit =
      1u << static_cast<unsigned>(Function::Sigmoid);
  EXPECT_NE(server.shard_health(0).quarantined & sigmoid_bit, 0u);

  // Quarantined serving stays correct without touching the table.
  expect_bits(server.submit(Function::Sigmoid, in).get(), want,
              "quarantined");

  // The scrub rewrites the table (healing the transient), re-verifies
  // through the armed read path, and lifts the quarantine.
  server.poke_supervisor();
  EXPECT_EQ(server.shard_health(0).quarantined & sigmoid_bit, 0u);
  EXPECT_EQ(server.shard_health(0).scrubs, 1u);
  EXPECT_FALSE(injector.transient_live());

  const auto degraded_before = server.counters().degraded_requests;
  expect_bits(server.submit(Function::Sigmoid, in).get(), want, "healed");
  EXPECT_EQ(server.counters().degraded_requests, degraded_before)
      << "post-scrub requests must be back on the table path";
  server.shutdown();
  EXPECT_EQ(server.counters().accepted, server.counters().completed);
}

TEST(Resilience, StuckAtFaultStaysQuarantinedAfterFailedScrub) {
  const NacuConfig config = config_for_bits(16);
  const BatchNacu direct{config};
  FaultInjector injector;

  ServerOptions options;
  options.shards = 1;
  options.work_stealing = false;
  options.resilience.supervise = false;
  options.resilience.shard_fault_ports = {&injector};
  InferenceServer server{config, options};

  const std::int64_t target_raw = -300;
  const std::vector<fp::Fixed> in = make_input(config, {target_raw, 12});
  const std::vector<fp::Fixed> want = direct.evaluate(Function::Tanh, in);

  // A stuck-at-1 only corrupts if the clean bit is 0 — pick one.
  const std::int64_t clean_entry = want.front().raw();
  int bit = -1;
  for (int b = 0; b < config.format.width(); ++b) {
    if (((clean_entry >> b) & 1) == 0) {
      bit = b;
      break;
    }
  }
  ASSERT_GE(bit, 0);
  const auto word =
      static_cast<std::size_t>(target_raw - config.format.min_raw());
  injector.arm(Fault{Surface::TableTanh, word, bit, FaultModel::StuckAt1});

  expect_bits(server.submit(Function::Tanh, in).get(), want, "detected");
  EXPECT_GE(server.counters().detections, 1u);

  // The scrub rewrites the word, but the defect survives the rewrite and
  // fails the re-verify: quarantine persists, serving stays correct.
  server.poke_supervisor();
  const auto tanh_bit = 1u << static_cast<unsigned>(Function::Tanh);
  EXPECT_NE(server.shard_health(0).quarantined & tanh_bit, 0u);
  EXPECT_EQ(server.shard_health(0).scrub_failures, 1u);
  EXPECT_EQ(server.shard_health(0).scrubs, 0u);

  const auto degraded_before = server.counters().degraded_requests;
  expect_bits(server.submit(Function::Tanh, in).get(), want,
              "permanently degraded");
  EXPECT_GT(server.counters().degraded_requests, degraded_before);

  // A request past parallel_threshold on the quarantined function is
  // computed on the scalar path in its own buffer, still bit-exact.
  std::vector<fp::Fixed> large;
  for (std::int64_t k = 0; k < 20000; ++k) {
    large.push_back(
        fp::Fixed::from_raw(config.format.min_raw() + 3 * k, config.format));
  }
  const auto degraded_before_large = server.counters().degraded_requests;
  expect_bits(server.submit(Function::Tanh, large).get(),
              direct.evaluate(Function::Tanh, large), "large degraded");
  EXPECT_GT(server.counters().degraded_requests, degraded_before_large);
  server.shutdown();
  EXPECT_EQ(server.counters().accepted, server.counters().completed);
}

TEST(Resilience, CircuitOpensOnDetectionAndClosesAfterScrub) {
  const NacuConfig config = config_for_bits(16);
  const BatchNacu direct{config};
  FaultInjector injector;

  ServerOptions options;
  options.shards = 1;
  options.work_stealing = false;
  options.resilience.supervise = false;
  options.resilience.failure_threshold = 1;  // first detection trips it
  options.resilience.shard_fault_ports = {&injector};
  InferenceServer server{config, options};

  const std::int64_t target_raw = 5;
  const auto word =
      static_cast<std::size_t>(target_raw - config.format.min_raw());
  injector.arm(Fault{Surface::TableExp, word, 1, FaultModel::TransientSeu});

  const std::vector<fp::Fixed> in = make_input(config, {target_raw, -9000});
  const std::vector<fp::Fixed> want = direct.evaluate(Function::Exp, in);

  expect_bits(server.submit(Function::Exp, in).get(), want, "tripping");
  ASSERT_TRUE(eventually([&] {
    return server.shard_health(0).state == CircuitState::Open;
  })) << "one detection at threshold 1 must open the circuit";
  EXPECT_GE(server.counters().circuit_opens, 1u);

  // Open circuit, one shard: fail-static routing keeps accepting, the
  // quarantined function serves correct bits from the scalar path.
  expect_bits(server.submit(Function::Exp, in).get(), want,
              "serving while open");

  server.poke_supervisor();  // scrub heals the transient, closes directly
  EXPECT_EQ(server.shard_health(0).state, CircuitState::Closed);
  EXPECT_EQ(server.shard_health(0).quarantined, 0u);
  EXPECT_GE(server.counters().circuit_closes, 1u);

  expect_bits(server.submit(Function::Exp, in).get(), want, "recovered");
  server.shutdown();
  EXPECT_EQ(server.counters().accepted, server.counters().completed);
}

TEST(Resilience, StallRedistributesQueuedWorkToHealthyShards) {
  const NacuConfig config = config_for_bits(16);
  const BatchNacu direct{config};
  const FakeClock clock;
  std::atomic<bool> gate{true};

  ServerOptions options;
  options.shards = 2;
  options.work_stealing = false;
  options.admission.clock = clock.fn();
  options.resilience.supervise = false;
  options.resilience.clock = clock.fn();
  options.resilience.stall_timeout = std::chrono::milliseconds{50};
  options.resilience.dispatch_hook = [&gate](std::size_t) {
    while (gate.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::microseconds{100});
    }
  };
  InferenceServer server{config, options};
  ASSERT_TRUE(eventually([&] {
    return server.shard_health(0).heartbeat >= 1 &&
           server.shard_health(1).heartbeat >= 1;
  })) << "dispatchers never reached the gate";

  // Both dispatchers are gated; the home shard's inbox accumulates.
  constexpr std::size_t kRequests = 6;
  SubmitOptions with_retry;
  with_retry.max_retries = 1;
  const std::vector<fp::Fixed> in = make_input(config, {64, -64, 2048});
  std::vector<std::future<std::vector<fp::Fixed>>> futures;
  futures.reserve(kRequests);
  for (std::size_t i = 0; i < kRequests; ++i) {
    futures.push_back(server.submit(Function::Sigmoid, in, with_retry));
  }

  server.poke_supervisor();  // records the heartbeat baselines
  clock.advance(std::chrono::milliseconds{60});
  server.poke_supervisor();  // heartbeats frozen past stall_timeout → stall

  const auto mid = server.counters();
  EXPECT_GE(mid.stalls, 1u);
  EXPECT_EQ(mid.retried, kRequests)
      << "every queued request must be redistributed, not dropped";

  gate.store(false, std::memory_order_release);
  const std::vector<fp::Fixed> want = direct.evaluate(Function::Sigmoid, in);
  for (auto& fut : futures) {
    expect_bits(fut.get(), want, "redistributed");
  }
  server.shutdown();
  EXPECT_EQ(server.counters().accepted, server.counters().completed);
}

TEST(Resilience, StallRedistributionNeedsNoRetryCredit) {
  // Default SubmitOptions carry no retry credit. A stalled shard's inbox
  // never ran, so moving it must not be charged as a retry: every request
  // is still served, bit-identically, once the dispatchers resume.
  const NacuConfig config = config_for_bits(16);
  const BatchNacu direct{config};
  const FakeClock clock;
  std::atomic<bool> gate{true};

  ServerOptions options;
  options.shards = 2;
  options.work_stealing = false;
  options.admission.clock = clock.fn();
  options.resilience.supervise = false;
  options.resilience.clock = clock.fn();
  options.resilience.stall_timeout = std::chrono::milliseconds{50};
  options.resilience.dispatch_hook = [&gate](std::size_t) {
    while (gate.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::microseconds{100});
    }
  };
  InferenceServer server{config, options};
  ASSERT_TRUE(eventually([&] {
    return server.shard_health(0).heartbeat >= 1 &&
           server.shard_health(1).heartbeat >= 1;
  })) << "dispatchers never reached the gate";

  constexpr std::size_t kRequests = 6;
  const std::vector<fp::Fixed> in = make_input(config, {-7, 0, 31, 4095});
  std::vector<std::future<std::vector<fp::Fixed>>> futures;
  futures.reserve(kRequests);
  for (std::size_t i = 0; i < kRequests; ++i) {
    futures.push_back(server.submit(Function::Tanh, in));
  }

  server.poke_supervisor();  // records the heartbeat baselines
  clock.advance(std::chrono::milliseconds{60});
  server.poke_supervisor();  // heartbeats frozen past stall_timeout → stall

  const auto mid = server.counters();
  EXPECT_GE(mid.stalls, 1u);
  EXPECT_EQ(mid.retry_exhausted, 0u)
      << "a stall move must not fail queued work for lack of retry credit";

  gate.store(false, std::memory_order_release);
  const std::vector<fp::Fixed> want = direct.evaluate(Function::Tanh, in);
  std::size_t ok = 0;
  for (auto& fut : futures) {
    try {
      expect_bits(fut.get(), want, "redistributed with default options");
      ++ok;
    } catch (const ShardFailedError&) {
      ADD_FAILURE() << "queued request failed by a stall redistribution";
    }
  }
  EXPECT_EQ(ok, kRequests);
  server.shutdown();
  const auto c = server.counters();
  EXPECT_EQ(c.retry_exhausted, 0u);
  EXPECT_EQ(c.accepted, kRequests);
  EXPECT_EQ(c.accepted, c.completed);
}

TEST(Resilience, OpenCircuitHalfOpensAfterCooldownAndClosesOnCleanTrial) {
  const NacuConfig config = config_for_bits(16);
  const BatchNacu direct{config};
  const FakeClock clock;
  std::atomic<bool> kill{false};

  ServerOptions options;
  options.shards = 1;
  options.work_stealing = false;
  options.admission.clock = clock.fn();
  options.resilience.supervise = false;
  options.resilience.clock = clock.fn();
  options.resilience.open_cooldown = std::chrono::milliseconds{5};
  options.resilience.dispatch_hook = [&kill](std::size_t) {
    if (kill.load(std::memory_order_acquire)) {
      throw std::runtime_error{"chaos: injected dispatcher crash"};
    }
  };
  InferenceServer server{config, options};
  (void)server.submit(Function::Sigmoid, make_input(config, {1})).get();

  kill.store(true, std::memory_order_release);
  ASSERT_TRUE(eventually(
      [&] { return server.shard_health(0).dispatcher_dead; }));
  kill.store(false, std::memory_order_release);

  server.poke_supervisor();  // respawn; circuit forced Open
  EXPECT_EQ(server.shard_health(0).state, CircuitState::Open);

  clock.advance(std::chrono::milliseconds{6});
  server.poke_supervisor();  // past the cooldown → HalfOpen probation
  EXPECT_EQ(server.shard_health(0).state, CircuitState::HalfOpen);

  // A HalfOpen shard admits trial traffic; the clean dispatch closes it.
  const std::vector<fp::Fixed> in = make_input(config, {-1, 2, -3});
  expect_bits(server.submit(Function::Sigmoid, in).get(),
              direct.evaluate(Function::Sigmoid, in), "half-open trial");
  ASSERT_TRUE(eventually([&] {
    return server.shard_health(0).state == CircuitState::Closed;
  })) << "a clean trial group must close the circuit";
  server.shutdown();
  const auto c = server.counters();
  EXPECT_GE(c.circuit_opens, 1u);
  EXPECT_GE(c.circuit_closes, 1u);
  EXPECT_EQ(c.accepted, c.completed);
}

TEST(ShardHealthUnit, HalfOpenTrialTokensAreConsumedPerAdmit) {
  ShardHealth health;
  EXPECT_TRUE(health.try_admit());  // Closed admits freely
  const auto t0 = std::chrono::steady_clock::time_point{
      std::chrono::nanoseconds{1000}};
  EXPECT_TRUE(health.force_open(t0));
  EXPECT_FALSE(health.force_open(t0));  // already open
  EXPECT_FALSE(health.try_admit());

  EXPECT_FALSE(health.maybe_half_open(
      t0 + std::chrono::nanoseconds{10}, std::chrono::nanoseconds{100}, 2));
  EXPECT_TRUE(health.maybe_half_open(
      t0 + std::chrono::nanoseconds{200}, std::chrono::nanoseconds{100}, 2));
  EXPECT_EQ(health.state(), CircuitState::HalfOpen);
  EXPECT_TRUE(health.try_admit());
  EXPECT_TRUE(health.try_admit());
  EXPECT_FALSE(health.try_admit()) << "trial tokens must be consumed";

  EXPECT_TRUE(health.record_success());  // trial succeeded → Closed
  EXPECT_EQ(health.state(), CircuitState::Closed);
  EXPECT_FALSE(health.record_success());  // already closed
}

TEST(ShardHealthUnit, FailureThresholdAndHalfOpenReopen) {
  ShardHealth health;
  const auto t = std::chrono::steady_clock::time_point{
      std::chrono::nanoseconds{1}};
  EXPECT_FALSE(health.record_failure(3, t));
  EXPECT_FALSE(health.record_failure(3, t));
  EXPECT_TRUE(health.record_failure(3, t)) << "third consecutive failure";
  EXPECT_EQ(health.state(), CircuitState::Open);

  EXPECT_TRUE(health.maybe_half_open(
      t + std::chrono::seconds{1}, std::chrono::nanoseconds{10}, 1));
  // Any failure during probation re-opens immediately.
  EXPECT_TRUE(health.record_failure(1000, t + std::chrono::seconds{1}));
  EXPECT_EQ(health.state(), CircuitState::Open);
}

TEST(RetryBudgetUnit, RefillsOnTheInjectedClock) {
  const FakeClock clock;
  RetryBudget budget{/*tokens_per_s=*/10.0, /*burst=*/2.0, clock.fn()};
  EXPECT_TRUE(budget.try_draw());
  EXPECT_TRUE(budget.try_draw());
  EXPECT_FALSE(budget.try_draw()) << "burst exhausted";
  clock.advance(std::chrono::milliseconds{100});  // +1 token at 10/s
  EXPECT_TRUE(budget.try_draw());
  EXPECT_FALSE(budget.try_draw());
}

}  // namespace
}  // namespace nacu::serve
