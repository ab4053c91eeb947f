// Self-healing machinery for the sharded serving layer.
//
// PR 2 built the fault subsystem (single-bit SEU/stuck-at injection over
// the datapath's state surfaces, invariant detectors derived from the
// paper's algebra) and PR 5–6 built the sharded server — but a bit flip in
// a shard's dense activation table would silently corrupt every request
// routed to that shard forever. This header is the glue that makes the
// server *self-healing*, four cooperating pieces (wired by server.{hpp,
// cpp}, proven by tests/test_resilience.cpp, measured by bench_chaos):
//
//  * shard supervision — every dispatcher increments a heartbeat per loop
//    pass and runs under a top-level catch; a watchdog thread (or an
//    explicit poke_supervisor() call in fake-clock tests) joins
//    exception-killed dispatchers, sweeps their orphaned requests into
//    retries or ShardFailedError futures, rebuilds the shard's private
//    BatchNacu from the scalar datapath, and respawns the thread. A shard
//    whose heartbeat freezes while work queues (a stall) is not killed —
//    that is never safe in C++ — but its circuit opens and its queued
//    ingress is redistributed to healthy shards;
//
//  * circuit breaking — per-shard Closed/Open/HalfOpen state driven by
//    consecutive failures (detector hits, scrub re-verify failures) and
//    forced open on dispatcher death or stall. Routing skips Open shards
//    (a submitter's home-shard affinity falls through to the probe round);
//    after the cooldown the supervisor moves the circuit to HalfOpen,
//    which admits a bounded number of trial requests — the first cleanly
//    executed dispatch group closes the circuit, a failure re-opens it
//    with a fresh cooldown. When *every* shard is skipped or full, routing
//    falls back to ignoring circuit state entirely (fail-static: a queue
//    that may recover beats a rejection);
//
//  * retry budget — SubmitOptions::max_retries grants a request
//    transparent re-enqueues after its dispatcher dies. Every retry draws
//    from one server-wide RetryBudget token bucket — the same bucket
//    arithmetic as per-tenant admission quotas (admission.hpp TokenBucket,
//    injectable clock) — so a crash-looping shard cannot amplify offered
//    load. A stalled shard's queued requests never ran, so moving them
//    spends neither retry credit nor budget. A request is never
//    duplicated: it owns its one completion and is moved, never copied;
//
//  * live SEU scrub-and-recover — with a fault::BitFaultPort armed on a
//    shard engine (ResilienceOptions::shard_fault_ports), the dispatcher
//    verifies *every* table-path result before releasing it: a table-path
//    activation output raw IS the table entry that produced it, so one
//    parity check per element against InvariantChecker's golden signature
//    (word_intact) catches any single-bit upset in any word actually
//    served, before the promise is fulfilled. On detection the function is
//    quarantined on that shard — subsequent (and the detecting) requests
//    re-execute on the scalar Fig. 2 datapath, which is bit-identical to
//    the table by construction, so clients never see a wrong bit or an
//    error, only latency. The supervisor then scrub-rebuilds the table off
//    the hot path, re-verifies it through the armed read path, and closes
//    the circuit; a stuck-at that survives the scrub leaves the function
//    permanently degraded (still correct, still serving).
//
// Memory-ordering argument for scrub-vs-serve (TSan-proven): only the
// dispatcher reads a shard's tables, and it checks the quarantine mask
// (acquire) before every engine call; the mask bit is set (release) by the
// dispatcher itself at detection, before the scrub request. The supervisor
// observes the scrub request (acquire), rewrites the table, then clears
// the bit (release) — so every dispatcher read of the table is ordered
// before the scrub's writes or after them, never concurrent.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <vector>

#include "core/batch_nacu.hpp"
#include "serve/admission.hpp"

namespace nacu::fault {
class BitFaultPort;
class InvariantChecker;
}  // namespace nacu::fault

namespace nacu::serve {

/// Knobs for the supervisor, circuit breaker, retry budget, and live
/// verification. Defaults keep supervision on (cheap: one mostly-sleeping
/// thread) and per-dispatch verification off unless a fault port is armed.
struct ResilienceOptions {
  /// Run the watchdog thread. Off, the machinery is passive: heartbeats
  /// and health state still update, and poke_supervisor() performs the
  /// same pass on demand (how the fake-clock tests drive recovery).
  bool supervise = true;
  /// Watchdog pass interval (real time — the pass itself uses `clock`).
  std::chrono::microseconds watchdog_interval{500};
  /// A shard whose heartbeat is frozen this long while its queue holds
  /// work is declared stalled: circuit opens, queued ingress redistributes.
  std::chrono::milliseconds stall_timeout{50};
  /// Consecutive shard-level failures (detections, scrub re-verify
  /// failures) that trip the circuit open. Dispatcher death and stalls
  /// force it open immediately.
  std::size_t failure_threshold = 3;
  /// Open → HalfOpen cooldown.
  std::chrono::milliseconds open_cooldown{5};
  /// Requests admitted to a HalfOpen shard before routing skips it again;
  /// the first cleanly executed dispatch group closes the circuit.
  std::size_t half_open_trials = 4;
  /// Server-wide retry budget: sustained tokens per second and burst.
  /// Every transparent requeue of a dead dispatcher's orphan draws one
  /// token; an empty bucket turns a retry into ShardFailedError.
  double retry_budget_per_s = 100.0;
  double retry_budget_burst = 32.0;
  /// Verify every table-path dispatch against the golden parity
  /// signatures even with no fault port armed (the check is cheap — one
  /// popcount per element — but not free). Armed ports enable
  /// verification on their shard regardless.
  bool verify_dispatches = false;
  /// Per-shard fault ports, attached to each shard's engine at
  /// construction and re-attached on rebuild (index = shard; missing or
  /// nullptr = unarmed). Ports must be thread-safe (FaultInjector is).
  /// Attaching a port enables per-dispatch verification on that shard.
  std::vector<fault::BitFaultPort*> shard_fault_ports;
  /// Clock for circuit cooldowns, stall timing, and the retry budget.
  /// Empty → the real steady clock. Injected by tests.
  std::function<std::chrono::steady_clock::time_point()> clock;
  /// Test/chaos seam: called by each dispatcher at the top of every loop
  /// pass (after the heartbeat, holding no requests). Throwing simulates
  /// a dispatcher crash at a point where no group can be lost; blocking
  /// simulates a stall. Must itself be thread-safe.
  std::function<void(std::size_t shard)> dispatch_hook;
};

enum class CircuitState : std::uint8_t { Closed = 0, Open = 1, HalfOpen = 2 };

[[nodiscard]] const char* circuit_state_name(CircuitState s) noexcept;

/// Per-shard health cell: heartbeat, quarantine mask, circuit state, and
/// recovery tallies, all lock-free atomics. Writer roles are fixed — the
/// shard's dispatcher beats/detects, submitters consume HalfOpen trial
/// tokens, the supervisor transitions circuits and clears quarantine —
/// and every cross-thread hand-off is release/acquire (see the file
/// comment for the scrub-vs-serve ordering argument).
class ShardHealth {
 public:
  using Clock = std::chrono::steady_clock;

  // -- dispatcher side -----------------------------------------------------
  void beat() noexcept { heartbeat_.fetch_add(1, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t heartbeat() const noexcept {
    return heartbeat_.load(std::memory_order_relaxed);
  }
  void mark_dead() noexcept {
    dispatcher_dead_.store(true, std::memory_order_release);
  }
  void clear_dead() noexcept {
    dispatcher_dead_.store(false, std::memory_order_release);
  }
  [[nodiscard]] bool dispatcher_dead() const noexcept {
    return dispatcher_dead_.load(std::memory_order_acquire);
  }

  // -- quarantine (bit = static_cast<size_t>(Function)) --------------------
  void quarantine(std::size_t function_index) noexcept {
    quarantined_.fetch_or(1u << function_index, std::memory_order_release);
  }
  void clear_quarantine(std::size_t function_index) noexcept {
    quarantined_.fetch_and(~(1u << function_index), std::memory_order_release);
  }
  [[nodiscard]] std::uint32_t quarantined() const noexcept {
    return quarantined_.load(std::memory_order_acquire);
  }
  void request_scrub() noexcept {
    scrub_wanted_.store(true, std::memory_order_release);
  }
  [[nodiscard]] bool take_scrub_request() noexcept {
    return scrub_wanted_.exchange(false, std::memory_order_acq_rel);
  }

  // -- circuit -------------------------------------------------------------
  [[nodiscard]] CircuitState state() const noexcept {
    return static_cast<CircuitState>(state_.load(std::memory_order_acquire));
  }

  /// Routing gate (any submitter). Closed admits; Open refuses; HalfOpen
  /// admits while trial tokens remain, consuming one per call. A dead
  /// dispatcher refuses regardless (its queue only drains at recovery).
  [[nodiscard]] bool try_admit() noexcept;

  /// Dispatcher: a dispatch group finished with no shard-level failure.
  /// Resets the consecutive-failure count; in HalfOpen, closes the
  /// circuit. Returns true when this call closed it.
  bool record_success() noexcept;

  /// Dispatcher/supervisor: one shard-level failure (detector hit, scrub
  /// re-verify failure). Trips Open at @p threshold consecutive failures,
  /// or immediately when the circuit was HalfOpen (a failed trial).
  /// Returns true when this call opened the circuit.
  bool record_failure(std::size_t threshold, Clock::time_point now) noexcept;

  /// Force the circuit open (dispatcher death, stall). Returns true when
  /// the state actually changed (it was not already Open).
  bool force_open(Clock::time_point now) noexcept;

  /// Supervisor: Open → HalfOpen once @p cooldown has elapsed since the
  /// circuit opened, re-arming @p trials admission tokens. Returns true on
  /// the transition.
  bool maybe_half_open(Clock::time_point now, std::chrono::nanoseconds cooldown,
                       std::size_t trials) noexcept;

  /// Supervisor: close the circuit outright (successful scrub + re-verify).
  void close() noexcept;

  // -- recovery tallies (relaxed; exact per-shard counts for snapshots) ----
  void record_detection() noexcept {
    detections_.fetch_add(1, std::memory_order_relaxed);
  }
  void record_scrub(bool ok) noexcept {
    (ok ? scrubs_ : scrub_failures_).fetch_add(1, std::memory_order_relaxed);
  }
  void record_respawn() noexcept {
    respawns_.fetch_add(1, std::memory_order_relaxed);
  }
  void record_stall() noexcept {
    stalls_.fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t detections() const noexcept {
    return detections_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t scrubs() const noexcept {
    return scrubs_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t scrub_failures() const noexcept {
    return scrub_failures_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t respawns() const noexcept {
    return respawns_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t stalls() const noexcept {
    return stalls_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> heartbeat_{0};
  std::atomic<bool> dispatcher_dead_{false};
  std::atomic<std::uint32_t> quarantined_{0};
  std::atomic<bool> scrub_wanted_{false};
  std::atomic<std::uint8_t> state_{
      static_cast<std::uint8_t>(CircuitState::Closed)};
  std::atomic<std::uint32_t> consecutive_failures_{0};
  std::atomic<std::int64_t> opened_at_ns_{0};  ///< Clock epoch offset
  std::atomic<std::int32_t> half_open_tokens_{0};
  std::atomic<std::uint64_t> detections_{0};
  std::atomic<std::uint64_t> scrubs_{0};
  std::atomic<std::uint64_t> scrub_failures_{0};
  std::atomic<std::uint64_t> respawns_{0};
  std::atomic<std::uint64_t> stalls_{0};
};

/// Point-in-time copy of one shard's health, for tests/benches/ops.
struct ShardHealthSnapshot {
  CircuitState state = CircuitState::Closed;
  std::uint32_t quarantined = 0;  ///< Function bitmask
  bool dispatcher_dead = false;
  std::uint64_t heartbeat = 0;
  std::uint64_t detections = 0;
  std::uint64_t scrubs = 0;
  std::uint64_t scrub_failures = 0;
  std::uint64_t respawns = 0;
  std::uint64_t stalls = 0;
};

/// Server-wide retry budget: one TokenBucket (the admission-layer
/// bucket arithmetic) behind a mutex, read on the injected clock.
class RetryBudget {
 public:
  RetryBudget(double tokens_per_s, double burst,
              std::function<std::chrono::steady_clock::time_point()> clock);

  /// Draw one token (refilled for elapsed time first); false when empty.
  [[nodiscard]] bool try_draw();
  [[nodiscard]] double tokens() const;

 private:
  std::function<std::chrono::steady_clock::time_point()> clock_;
  mutable std::mutex mutex_;
  TokenBucket bucket_;
};

/// Degraded (quarantined) execution: the scalar Fig. 2 datapath, element
/// by element, bypassing the dense table entirely. Bit-identical to the
/// table path by the table's construction — degradation is invisible to
/// clients except as latency. in and out may alias.
void evaluate_degraded(const core::Nacu& unit, core::BatchNacu::Function f,
                       std::span<const fp::Fixed> in, std::span<fp::Fixed> out);

/// Verify a table-path activation evaluation before its results are
/// released: out[k].raw() IS the table entry read for word
/// in[k].raw() − min_raw, so each element costs one parity/range check
/// against the golden signature. Returns false on the first corrupt
/// element (a detection). Also correct (and trivially clean) when the
/// engine served the batch from the scalar path — a scalar output equals
/// the golden entry by construction.
[[nodiscard]] bool verify_activation(const fault::InvariantChecker& checker,
                                     fp::Format fmt,
                                     core::BatchNacu::Function f,
                                     std::span<const fp::Fixed> in,
                                     std::span<const fp::Fixed> out);

/// Verify a softmax row by re-deriving exactly the exp-table words the
/// Fixed-path softmax read (diff = clamp(x − x_max) per element — the
/// fused raw path is disabled whenever a port is armed) and re-reading
/// them through the engine's armed evaluate_raw path. An SRAM upset
/// persists across reads, so a corrupt word fails its parity signature on
/// the re-read. Returns false on detection; trivially true when the exp
/// table is not built (the row never touched a table).
[[nodiscard]] bool verify_softmax(const fault::InvariantChecker& checker,
                                  const core::BatchNacu& engine,
                                  std::span<const fp::Fixed> logits);

}  // namespace nacu::serve
