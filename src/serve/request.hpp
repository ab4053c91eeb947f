// Request/response vocabulary of the async serving layer.
//
// A request is one unit of client work — an element-wise activation batch,
// one softmax row, or a full model forward pass — paired with the
// completion its result is delivered through, plus the admission metadata
// the sharded server schedules it by: a priority class, an optional
// completion deadline, and an optional tenant id for per-tenant quotas.
// Requests are created by the InferenceServer submission API (server.hpp),
// admitted through the AdmissionController (admission.hpp), queued in a
// per-shard ShardQueue (shard_queue.hpp), grouped by that shard's
// MicroBatcher (micro_batcher.hpp), and finished by the shard's dispatcher
// thread. Clients see either a std::future (the promise-setting adapter)
// or their own Completion callback (the network edge's path).
//
// Admission failures are *exceptions from submit*, not broken futures: a
// request that the server cannot accept (every eligible shard at its
// priority's depth limit, quota exhausted, deadline already expired, or
// shutdown already begun) throws before it is enqueued, and its completion
// never runs — so every accepted request is work the server will finish,
// and its completion runs exactly once. The graceful-shutdown drain
// guarantee depends on exactly this. The one post-admission rejection is
// deadline shedding: a request whose deadline expires while it queues is
// never dispatched; its completion receives DeadlineExpiredError instead
// (the drain guarantee still holds — the completion still runs).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <variant>
#include <vector>

#include "core/batch_nacu.hpp"
#include "nn/lstm.hpp"
#include "nn/quantized_mlp.hpp"

namespace nacu::serve {

/// Submission rejected: every shard eligible for the request's priority is
/// at its depth limit (the backpressure high-water mark). Clients should
/// back off and retry; nothing was enqueued.
class OverloadedError : public std::runtime_error {
 public:
  OverloadedError()
      : std::runtime_error{
            "serve: pending queues at their high-water mark, request "
            "rejected"} {}
};

/// Submission rejected: shutdown has begun. Previously accepted requests
/// still complete (the drain guarantee); new work is refused.
class ShutdownError : public std::runtime_error {
 public:
  ShutdownError()
      : std::runtime_error{"serve: server is shutting down, request rejected"} {}
};

/// Submission rejected: the tenant's token bucket is empty (per-tenant
/// quota, AdmissionOptions::quotas). Back off until the bucket refills.
class QuotaExceededError : public std::runtime_error {
 public:
  QuotaExceededError()
      : std::runtime_error{
            "serve: tenant token-bucket quota exhausted, request rejected"} {}
};

/// The request's deadline expired — either already past at submission
/// (thrown from submit) or while the request queued (set on its future;
/// the request is shed, never dispatched).
class DeadlineExpiredError : public std::runtime_error {
 public:
  DeadlineExpiredError()
      : std::runtime_error{"serve: request deadline expired before dispatch"} {}
};

/// The dispatcher shard holding the request died (uncaught exception) or
/// stalled, and the request could not be transparently re-enqueued: it had
/// no retry credit left (SubmitOptions::max_retries, default 0) or the
/// server-wide retry budget was empty (ResilienceOptions). Delivered
/// through the future — the drain guarantee still holds, the future is
/// ready, it just carries this error instead of a value.
class ShardFailedError : public std::runtime_error {
 public:
  ShardFailedError()
      : std::runtime_error{
            "serve: dispatcher shard failed and the request had no retry "
            "credit (SubmitOptions::max_retries / global retry budget)"} {}
};

/// Admission-control priority classes. Under load, lower classes are shed
/// first: each class admits only while the target shard's queue depth is
/// below its configured fraction of capacity (admission.hpp), so
/// best-effort traffic is always rejected before high-priority traffic.
enum class Priority : std::uint8_t {
  High = 0,
  Normal = 1,
  BestEffort = 2,
};
inline constexpr std::size_t kPriorityCount = 3;

/// Per-submission scheduling metadata. Default-constructed options behave
/// exactly like the pre-admission-control server: normal priority, no
/// deadline, unmetered tenant.
struct SubmitOptions {
  Priority priority = Priority::Normal;
  /// Completion deadline. Expired at submit → DeadlineExpiredError from
  /// submit; expired while queued → the future carries DeadlineExpiredError
  /// and the request is never dispatched.
  std::optional<std::chrono::steady_clock::time_point> deadline{};
  /// Tenant id for per-tenant token-bucket quotas. Tenants without a
  /// configured quota (including the default 0) are unmetered.
  std::uint64_t tenant = 0;
  /// Times the server may transparently re-enqueue this request after the
  /// shard holding it fails (dispatcher death or stall). Every retry also
  /// draws one token from the server-wide retry-budget bucket
  /// (ResilienceOptions::retry_budget_per_s) so a crash-looping shard
  /// cannot amplify load; when either is exhausted the future fails with
  /// ShardFailedError. 0 (the default) fails fast on the first loss.
  std::uint32_t max_retries = 0;
  /// Tail-latency hedging: with a deadline set and a fraction in (0, 1],
  /// the supervisor launches a duplicate dispatch on another shard once
  /// this fraction of the submit→deadline interval elapses unfinished.
  /// The first copy to complete wins; results are bit-identical either way
  /// (every shard's tables are built from the same scalar datapath), so
  /// hedging is purely a tail-latency lever. Hedges draw from the same
  /// retry budget. 0 (the default) disables hedging.
  double hedge_fraction = 0.0;
};

/// How an accepted request's outcome is delivered: exactly once, with the
/// value (error null) or with the error (value null). It runs on whichever
/// serving-layer thread finishes the request — a dispatcher, or the
/// supervisor / shutdown sweep that fails orphans — so it must not block
/// and must not throw. The value may be moved from.
template <typename T>
using Completion = std::function<void(T* value, std::exception_ptr error)>;

/// One-shot result cell shared between a request and its retry/hedge
/// copies. The resilience layer may put several copies of one accepted
/// request in flight (a hedge racing a slow shard, a requeue after a shard
/// died); whichever copy finishes first wins — a single atomic exchange
/// decides the winner, so the completion runs exactly once and later
/// completions are dropped, never double-delivered.
template <typename T>
class SharedResult {
 public:
  SharedResult() = default;
  explicit SharedResult(Completion<T> completion)
      : completion_{std::move(completion)} {}

  /// The future adapter: installs a promise-setting completion. Call once,
  /// before the request is enqueued.
  [[nodiscard]] std::future<T> get_future() {
    auto promise = std::make_shared<std::promise<T>>();
    std::future<T> future = promise->get_future();
    completion_ = [promise](T* value, std::exception_ptr error) {
      if (value != nullptr) {
        promise->set_value(std::move(*value));
      } else {
        promise->set_exception(std::move(error));
      }
    };
    return future;
  }
  /// Whether some copy already completed (lets the supervisor skip firing
  /// a hedge whose original has finished).
  [[nodiscard]] bool done() const noexcept {
    return done_.load(std::memory_order_acquire);
  }
  /// True when this call won (ran the completion).
  bool set_value(T value) { return deliver(&value, nullptr); }
  bool set_exception(std::exception_ptr error) {
    return deliver(nullptr, std::move(error));
  }

 private:
  bool deliver(T* value, std::exception_ptr error) {
    if (done_.exchange(true, std::memory_order_acq_rel)) {
      return false;
    }
    // Moved out so whatever it captured is released once it has run, not
    // when the last copy of the request dies.
    const Completion<T> completion = std::move(completion_);
    if (completion) {
      completion(value, std::move(error));
    }
    return true;
  }

  Completion<T> completion_;
  std::atomic<bool> done_{false};
};

/// Element-wise activation over the datapath: out[i] = f(in[i]). These are
/// the requests the micro-batcher *coalesces* — element-wise evaluation is
/// position-independent, so concatenating many requests into one
/// BatchNacu::evaluate call and slicing the output back apart is
/// bit-identical to evaluating each request alone (proven by
/// tests/test_serving.cpp).
struct ActivationRequest {
  core::BatchNacu::Function function = core::BatchNacu::Function::Sigmoid;
  std::vector<fp::Fixed> input;
  std::shared_ptr<SharedResult<std::vector<fp::Fixed>>> result =
      std::make_shared<SharedResult<std::vector<fp::Fixed>>>();
};

/// One Eq. 13 softmax row. Rows are dispatched in the same groups as
/// activations but each row is its own BatchNacu::softmax call — the
/// normalisation couples every element of a row, so rows are never merged.
struct SoftmaxRequest {
  std::vector<fp::Fixed> logits;
  std::shared_ptr<SharedResult<std::vector<fp::Fixed>>> result =
      std::make_shared<SharedResult<std::vector<fp::Fixed>>>();
};

/// Full nn::QuantizedMlp forward pass (predict_proba). The model is
/// borrowed: the caller must keep it alive until the future resolves.
struct MlpRequest {
  const nn::QuantizedMlp* model = nullptr;
  std::vector<double> input;
  std::shared_ptr<SharedResult<std::vector<double>>> result =
      std::make_shared<SharedResult<std::vector<double>>>();
};

/// One nn::LstmFixed cell step. The model is borrowed like MlpRequest's.
struct LstmRequest {
  const nn::LstmFixed* model = nullptr;
  nn::LstmFixed::State state;
  std::vector<double> x;
  std::shared_ptr<SharedResult<nn::LstmFixed::State>> result =
      std::make_shared<SharedResult<nn::LstmFixed::State>>();
};

/// One queued unit of work plus its scheduling metadata: the admission
/// timestamp (feeds the max_wait flush policy and the
/// serve.request_latency_ns enqueue→complete histogram), the priority it
/// was admitted under, and its optional deadline.
struct Request {
  std::variant<ActivationRequest, SoftmaxRequest, MlpRequest, LstmRequest>
      payload;
  std::chrono::steady_clock::time_point enqueued_at{};
  Priority priority = Priority::Normal;
  std::optional<std::chrono::steady_clock::time_point> deadline{};
  /// Remaining transparent re-enqueues after a shard failure
  /// (SubmitOptions::max_retries; decremented per requeue).
  std::uint32_t retries_left = 0;
  /// A supervisor-launched hedge duplicate. Shares the original's
  /// SharedResult but is not client-accepted work: it never counts toward
  /// the completed counter and is silently dropped when orphaned.
  bool hedge_copy = false;
};

/// Deliver @p error through whichever result cell the request carries
/// (deadline shedding / shard-failure sweeps, which never reach
/// execute_one). A no-op when another copy of the request already won.
inline void fail_request(Request& request, std::exception_ptr error) {
  std::visit([&](auto& r) { (void)r.result->set_exception(std::move(error)); },
             request.payload);
}

/// Whether the request's result cell has already been fulfilled by some
/// copy (original or hedge).
[[nodiscard]] inline bool request_done(const Request& request) {
  return std::visit([](const auto& r) { return r.result->done(); },
                    request.payload);
}

}  // namespace nacu::serve
