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

#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <optional>
#include <stdexcept>
#include <type_traits>
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

/// The dispatcher shard holding the request died (uncaught exception) and
/// the request could not be transparently re-enqueued: it had no retry
/// credit left (SubmitOptions::max_retries, default 0) or the server-wide
/// retry budget was empty (ResilienceOptions). Also delivered when a
/// stalled shard's queued request finds no shard to move to. Delivered
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
  /// dispatcher holding it dies. Every retry also draws one token from the
  /// server-wide retry-budget bucket (ResilienceOptions::retry_budget_per_s)
  /// so a crash-looping shard cannot amplify load; when either is exhausted
  /// the future fails with ShardFailedError. 0 (the default) fails fast on
  /// the first loss. Moving a stalled shard's queued work spends neither:
  /// that work never ran.
  std::uint32_t max_retries = 0;
};

/// How an accepted request's outcome is delivered: exactly once, with the
/// value (error null) or with the error (value null). It runs on whichever
/// serving-layer thread finishes the request — a dispatcher, or the
/// supervisor / shutdown sweep that fails orphans — so it must not block
/// and must not throw. The value may be moved from. Each payload owns its
/// completion and a Request is move-only, so no second copy of a request
/// can ever deliver.
template <typename T>
using Completion = std::function<void(T* value, std::exception_ptr error)>;

/// Run @p done with the value (@p value non-null) or the error, leaving it
/// empty. Moved out first, so whatever it captured is released as soon as
/// it has run rather than when the request dies; a second call is a no-op.
template <typename T>
void deliver(Completion<T>& done, std::type_identity_t<T>* value,
             std::exception_ptr error = nullptr) {
  if (const Completion<T> run = std::exchange(done, nullptr)) {
    run(value, std::move(error));
  }
}

/// Element-wise activation over the datapath: out[i] = f(in[i]). Evaluated
/// in place — the dispatcher overwrites `input` with f(input) and delivers
/// that same vector as the result, so serving an activation allocates and
/// copies nothing per request (proven by tests/test_serving.cpp).
struct ActivationRequest {
  core::BatchNacu::Function function = core::BatchNacu::Function::Sigmoid;
  std::vector<fp::Fixed> input;
  Completion<std::vector<fp::Fixed>> done{};
};

/// One Eq. 13 softmax row. Rows are dispatched in the same groups as
/// activations but each row is its own BatchNacu::softmax call — the
/// normalisation couples every element of a row, so rows are never merged.
struct SoftmaxRequest {
  std::vector<fp::Fixed> logits;
  Completion<std::vector<fp::Fixed>> done{};
};

/// Full nn::QuantizedMlp forward pass (predict_proba). The model is
/// borrowed: the caller must keep it alive until the completion runs.
struct MlpRequest {
  const nn::QuantizedMlp* model = nullptr;
  std::vector<double> input;
  Completion<std::vector<double>> done{};
};

/// One nn::LstmFixed cell step. The model is borrowed like MlpRequest's.
struct LstmRequest {
  const nn::LstmFixed* model = nullptr;
  nn::LstmFixed::State state;
  std::vector<double> x;
  Completion<nn::LstmFixed::State> done{};
};

/// One queued unit of work plus its scheduling metadata: the admission
/// timestamp (feeds the max_wait flush policy and the
/// serve.request_latency_ns enqueue→complete histogram), the priority it
/// was admitted under, and its optional deadline. Move-only: the payload's
/// completion is the request's one delivery, so a request is moved between
/// queues, never copied.
struct Request {
  Request() = default;
  Request(Request&&) = default;
  Request& operator=(Request&&) = default;
  Request(const Request&) = delete;
  Request& operator=(const Request&) = delete;

  std::variant<ActivationRequest, SoftmaxRequest, MlpRequest, LstmRequest>
      payload;
  std::chrono::steady_clock::time_point enqueued_at{};
  Priority priority = Priority::Normal;
  std::optional<std::chrono::steady_clock::time_point> deadline{};
  /// Remaining transparent re-enqueues after a shard failure
  /// (SubmitOptions::max_retries; decremented per requeue).
  std::uint32_t retries_left = 0;
};

/// Deliver @p error through the request's completion (deadline shedding /
/// shard-failure sweeps, which never reach execute_one).
inline void fail_request(Request& request, std::exception_ptr error) {
  std::visit([&](auto& r) { deliver(r.done, nullptr, std::move(error)); },
             request.payload);
}

}  // namespace nacu::serve
