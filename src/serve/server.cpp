#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <exception>
#include <future>
#include <limits>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>

#include "fault/detectors.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace nacu::serve {
namespace {

std::size_t resolve_shard_count(std::size_t requested) {
  if (requested > 0) {
    return std::min<std::size_t>(requested, 64);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw == 0 ? 1 : hw, 1, 8);
}

std::size_t resolve_per_shard_capacity(const ServerOptions& options) {
  const std::size_t shards = resolve_shard_count(options.shards);
  const std::size_t total =
      std::max<std::size_t>(1, options.batcher.queue_capacity);
  return (total + shards - 1) / shards;
}

/// The future adapter: point @p done at a fresh promise and return its
/// future.
template <typename T>
std::future<T> fulfil_promise(Completion<T>& done) {
  auto promise = std::make_shared<std::promise<T>>();
  std::future<T> future = promise->get_future();
  done = [promise](T* value, std::exception_ptr error) {
    if (value != nullptr) {
      promise->set_value(std::move(*value));
    } else {
      promise->set_exception(std::move(error));
    }
  };
  return future;
}

}  // namespace

ServerOptions InferenceServer::normalize(ServerOptions options) {
  if (options.clock) {
    if (!options.admission.clock) {
      options.admission.clock = options.clock;
    }
    if (!options.resilience.clock) {
      options.resilience.clock = options.clock;
    }
  }
  return options;
}

InferenceServer::Shard::Shard(const core::NacuConfig& config,
                              const core::BatchNacu::Options& batch_options,
                              const BatcherOptions& batcher_options,
                              std::size_t capacity)
    : engine{std::make_unique<core::BatchNacu>(config, batch_options)},
      queue{capacity},
      batcher{batcher_options} {}

InferenceServer::InferenceServer(const core::NacuConfig& config,
                                 ServerOptions options)
    : options_{normalize(std::move(options))},
      config_{config},
      admission_{options_.admission, resolve_per_shard_capacity(options_)},
      per_shard_capacity_{resolve_per_shard_capacity(options_)},
      stamp_enqueue_time_{options_.batcher.max_wait.count() > 0} {
  const std::size_t shard_count = resolve_shard_count(options_.shards);
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>(
        config, options_.batch_options, options_.batcher,
        per_shard_capacity_));
  }
  const ResilienceOptions& res = options_.resilience;
  bool any_port = false;
  for (std::size_t i = 0; i < shard_count; ++i) {
    if (i < res.shard_fault_ports.size() &&
        res.shard_fault_ports[i] != nullptr) {
      shards_[i]->fault_port = res.shard_fault_ports[i];
      shards_[i]->engine->attach_fault_port(shards_[i]->fault_port);
      any_port = true;
    }
  }
  if ((any_port || res.verify_dispatches) &&
      shards_.front()->engine->table_cacheable()) {
    // One golden-signature checker shared read-only by every shard's
    // verify path. Construction runs the full-domain sweeps once.
    checker_ = std::make_unique<fault::InvariantChecker>(config);
  }
  for (auto& shard : shards_) {
    shard->verify = checker_ != nullptr &&
                    (shard->fault_port != nullptr || res.verify_dispatches);
  }
  retry_budget_ = std::make_unique<RetryBudget>(
      res.retry_budget_per_s, res.retry_budget_burst, res.clock);
  if (options_.warm_tables && shards_.front()->engine->table_cacheable()) {
    for (auto& shard : shards_) {
      shard->engine->warm(Function::Sigmoid);
      shard->engine->warm(Function::Tanh);
      shard->engine->warm(Function::Exp);
    }
  }
  last_heartbeat_.assign(shard_count, 0);
  last_progress_.assign(shard_count, resilience_now());
  obs::gauge("serve.shard.count").set(static_cast<std::int64_t>(shard_count));
  // Cache working set across all shards' engines (plus any other live
  // engines in the process) — the number the table-mode policy budgets
  // against. With HalfRange tables this is about half the dense figure.
  obs::gauge("serve.table.resident_bytes")
      .set(static_cast<std::int64_t>(core::BatchNacu::live_table_bytes()));
  // Dispatchers start only after every shard exists: try_steal walks the
  // whole shard vector.
  for (std::size_t i = 0; i < shard_count; ++i) {
    shards_[i]->dispatcher = std::thread{[this, i] { dispatcher_loop(i); }};
  }
  if (res.supervise) {
    supervisor_ = std::thread{[this] { supervisor_loop(); }};
  }
}

InferenceServer::~InferenceServer() { shutdown(); }

void InferenceServer::shutdown() {
  // Order matters: dispatchers that wake on queue.stop() must already see
  // stopping_ so they flush partial groups immediately instead of waiting
  // out max_wait.
  stopping_.store(true, std::memory_order_release);
  for (auto& shard : shards_) {
    shard->queue.stop();
  }
  supervisor_wake_.notify_all();
  // One caller joins; concurrent callers block here until the drain is
  // complete, so "shutdown returned" always means "every accepted request's
  // completion has run".
  std::call_once(join_once_, [this] {
    if (supervisor_.joinable()) {
      // The supervisor first: it may be mid-respawn, mutating dispatcher
      // thread handles.
      supervisor_.join();
    }
    for (auto& shard : shards_) {
      if (shard->dispatcher.joinable()) {
        shard->dispatcher.join();
      }
    }
    sweep_leftovers();
  });
}

void InferenceServer::sweep_leftovers() {
  // A dispatcher that exited cleanly leaves nothing behind (it only
  // returns on Stopped + empty). Anything still queued belongs to a shard
  // that died or stalled with no supervisor pass left to recover it:
  // fail-or-finish every orphan so the drain guarantee (every accepted
  // request's completion runs) holds unconditionally.
  for (auto& shard : shards_) {
    std::vector<Request> orphans;
    while (!shard->batcher.empty()) {
      std::vector<Request> group = shard->batcher.take_group();
      shard->queue.on_taken(group.size());
      for (Request& r : group) {
        orphans.push_back(std::move(r));
      }
    }
    (void)shard->queue.steal_into(
        [&](Request&& r) { orphans.push_back(std::move(r)); },
        std::numeric_limits<std::size_t>::max());
    for (Request& r : orphans) {
      fail_orphan(r);
    }
  }
}

bool InferenceServer::accepting() const {
  return !stopping_.load(std::memory_order_acquire);
}

std::size_t InferenceServer::pending() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->queue.size();
  }
  return total;
}

const core::BatchNacu& InferenceServer::engine() const noexcept {
  return *shards_.front()->engine;
}

ShardHealthSnapshot InferenceServer::shard_health(
    std::size_t shard_index) const {
  const ShardHealth& h = shards_[shard_index]->health;
  ShardHealthSnapshot s;
  s.state = h.state();
  s.quarantined = h.quarantined();
  s.dispatcher_dead = h.dispatcher_dead();
  s.heartbeat = h.heartbeat();
  s.detections = h.detections();
  s.scrubs = h.scrubs();
  s.scrub_failures = h.scrub_failures();
  s.respawns = h.respawns();
  s.stalls = h.stalls();
  return s;
}

InferenceServer::Counters InferenceServer::counters() const {
  Counters c;
  c.accepted = accepted_.load(std::memory_order_relaxed);
  c.rejected_overload = rejected_overload_.load(std::memory_order_relaxed);
  c.rejected_shutdown = rejected_shutdown_.load(std::memory_order_relaxed);
  c.rejected_quota = rejected_quota_.load(std::memory_order_relaxed);
  c.rejected_deadline = rejected_deadline_.load(std::memory_order_relaxed);
  c.shed_priority = shed_priority_.load(std::memory_order_relaxed);
  c.shed_deadline = shed_deadline_.load(std::memory_order_relaxed);
  c.completed = completed_.load(std::memory_order_relaxed);
  c.dispatches = dispatches_.load(std::memory_order_relaxed);
  c.steals = steals_.load(std::memory_order_relaxed);
  c.stolen_requests = stolen_requests_.load(std::memory_order_relaxed);
  c.detections = detections_.load(std::memory_order_relaxed);
  c.degraded_requests = degraded_requests_.load(std::memory_order_relaxed);
  c.scrubs = scrubs_.load(std::memory_order_relaxed);
  c.scrub_failures = scrub_failures_.load(std::memory_order_relaxed);
  c.respawns = respawns_.load(std::memory_order_relaxed);
  c.stalls = stalls_.load(std::memory_order_relaxed);
  c.retried = retried_.load(std::memory_order_relaxed);
  c.retry_exhausted = retry_exhausted_.load(std::memory_order_relaxed);
  c.circuit_opens = circuit_opens_.load(std::memory_order_relaxed);
  c.circuit_closes = circuit_closes_.load(std::memory_order_relaxed);
  return c;
}

std::size_t InferenceServer::home_shard() const noexcept {
  // Process-global token issuance: each thread draws one token for life,
  // so threads spread round-robin over shards and then stick (affinity).
  static std::atomic<std::uint64_t> next_token{0};
  thread_local const std::uint64_t token =
      next_token.fetch_add(1, std::memory_order_relaxed);
  return static_cast<std::size_t>(token % shards_.size());
}

std::chrono::steady_clock::time_point InferenceServer::resilience_now() const {
  return options_.resilience.clock ? options_.resilience.clock()
                                   : std::chrono::steady_clock::now();
}

template <typename Payload>
void InferenceServer::enqueue(Payload payload,
                              const SubmitOptions& submit_options) {
  static obs::Counter& accepted_m = obs::counter("serve.accepted");
  static obs::Counter& rejected_overload_m =
      obs::counter("serve.rejected_overload");
  static obs::Counter& rejected_shutdown_m =
      obs::counter("serve.rejected_shutdown");
  static obs::Counter& rejected_quota_m =
      obs::counter("serve.admission.rejected_quota");
  static obs::Counter& rejected_deadline_m =
      obs::counter("serve.admission.rejected_deadline");
  static obs::Counter& shed_priority_m =
      obs::counter("serve.admission.shed_priority");
  static obs::Gauge& depth_high_water =
      obs::gauge("serve.queue_depth_high_water");

  if (stopping_.load(std::memory_order_acquire)) {
    rejected_shutdown_.fetch_add(1, std::memory_order_relaxed);
    rejected_shutdown_m.add();
    throw ShutdownError{};
  }
  switch (admission_.preadmit(submit_options)) {
    case AdmissionController::Verdict::RejectDeadline:
      rejected_deadline_.fetch_add(1, std::memory_order_relaxed);
      rejected_deadline_m.add();
      throw DeadlineExpiredError{};
    case AdmissionController::Verdict::RejectQuota:
      rejected_quota_.fetch_add(1, std::memory_order_relaxed);
      rejected_quota_m.add();
      throw QuotaExceededError{};
    case AdmissionController::Verdict::Admit:
      break;
  }

  Request request;
  request.payload = std::move(payload);
  request.priority = submit_options.priority;
  request.deadline = submit_options.deadline;
  request.retries_left = submit_options.max_retries;
  if (stamp_enqueue_time_ || obs::metrics_enabled()) {
    // The stamp feeds the max_wait flush policy and the enqueue→complete
    // latency histogram; with max_wait = 0 and metrics off nothing reads
    // it, so the hot path skips the clock.
    request.enqueued_at = now();
  }

  const std::size_t depth_limit = admission_.depth_limit(submit_options.priority);
  const std::size_t shard_count = shards_.size();
  const std::size_t start = home_shard();
  bool circuit_skipped = false;
  // First pass respects circuit state; when *every* push failed and some
  // shard was skipped for its circuit, a fail-static second pass pushes
  // anyway — a queue that may recover beats rejecting the request.
  const auto try_route = [&](bool respect_circuit) {
    for (std::size_t probe = 0; probe < shard_count; ++probe) {
      Shard& shard = *shards_[(start + probe) % shard_count];
      if (respect_circuit && !shard.health.try_admit()) {
        circuit_skipped = true;
        continue;
      }
      switch (shard.queue.try_push(request, depth_limit)) {
        case ShardQueue::Push::Ok:
          depth_high_water.record_max(
              static_cast<std::int64_t>(shard.queue.size()));
          return true;
        case ShardQueue::Push::Stopped:
          // stop() reaches every queue; seeing one stopped means shutdown.
          rejected_shutdown_.fetch_add(1, std::memory_order_relaxed);
          rejected_shutdown_m.add();
          throw ShutdownError{};
        case ShardQueue::Push::Full:
          break;  // probe the next shard
      }
    }
    return false;
  };
  if (try_route(/*respect_circuit=*/true) ||
      (circuit_skipped && try_route(/*respect_circuit=*/false))) {
    accepted_.fetch_add(1, std::memory_order_relaxed);
    accepted_m.add();
    return;
  }
  if (depth_limit < per_shard_capacity_) {
    // Rejected at a sub-capacity class limit: a higher-priority request
    // would still have been admitted — this is a priority shed.
    shed_priority_.fetch_add(1, std::memory_order_relaxed);
    shed_priority_m.add();
  } else {
    rejected_overload_.fetch_add(1, std::memory_order_relaxed);
    rejected_overload_m.add();
  }
  throw OverloadedError{};
}

template <typename Payload>
auto InferenceServer::enqueue_for_future(Payload payload,
                                         const SubmitOptions& submit_options) {
  auto future = fulfil_promise(payload.done);
  enqueue(std::move(payload), submit_options);
  return future;
}

std::future<std::vector<fp::Fixed>> InferenceServer::submit(
    Function f, std::vector<fp::Fixed> input,
    const SubmitOptions& submit_options) {
  return enqueue_for_future(ActivationRequest{f, std::move(input)},
                            submit_options);
}

std::future<std::vector<fp::Fixed>> InferenceServer::submit_softmax(
    std::vector<fp::Fixed> logits, const SubmitOptions& submit_options) {
  return enqueue_for_future(SoftmaxRequest{std::move(logits)},
                            submit_options);
}

std::future<std::vector<double>> InferenceServer::submit_mlp(
    const nn::QuantizedMlp& model, std::vector<double> input,
    const SubmitOptions& submit_options) {
  return enqueue_for_future(MlpRequest{&model, std::move(input)},
                            submit_options);
}

std::future<nn::LstmFixed::State> InferenceServer::submit_lstm(
    const nn::LstmFixed& model, nn::LstmFixed::State state,
    std::vector<double> x, const SubmitOptions& submit_options) {
  return enqueue_for_future(
      LstmRequest{&model, std::move(state), std::move(x)}, submit_options);
}

void InferenceServer::submit(Function f, std::vector<fp::Fixed> input,
                             const SubmitOptions& submit_options,
                             Completion<std::vector<fp::Fixed>> done) {
  enqueue(ActivationRequest{f, std::move(input), std::move(done)},
          submit_options);
}

void InferenceServer::submit_softmax(std::vector<fp::Fixed> logits,
                                     const SubmitOptions& submit_options,
                                     Completion<std::vector<fp::Fixed>> done) {
  enqueue(SoftmaxRequest{std::move(logits), std::move(done)}, submit_options);
}

void InferenceServer::submit_mlp(const nn::QuantizedMlp& model,
                                 std::vector<double> input,
                                 const SubmitOptions& submit_options,
                                 Completion<std::vector<double>> done) {
  enqueue(MlpRequest{&model, std::move(input), std::move(done)},
          submit_options);
}

bool InferenceServer::try_steal(std::size_t shard_index) {
  static obs::Counter& steals_m = obs::counter("serve.shard.steals");
  static obs::Counter& stolen_m = obs::counter("serve.shard.stolen_requests");
  static obs::Histogram& steal_batch_m =
      obs::histogram("serve.shard.steal_batch");
  Shard& thief = *shards_[shard_index];
  const std::size_t shard_count = shards_.size();
  // Cheap atomic scan for the most loaded victim — advisory, the steal
  // itself re-checks under the victim's lock.
  std::size_t victim = shard_index;
  std::size_t victim_depth = 0;
  for (std::size_t offset = 1; offset < shard_count; ++offset) {
    const std::size_t i = (shard_index + offset) % shard_count;
    const std::size_t depth = shards_[i]->queue.size();
    if (depth > victim_depth) {
      victim = i;
      victim_depth = depth;
    }
  }
  if (victim == shard_index || victim_depth == 0) {
    return false;
  }
  // Take up to half the victim's backlog, bounded by one dispatch group.
  const std::size_t want =
      std::min(std::max<std::size_t>(1, victim_depth / 2),
               thief.batcher.options().max_batch);
  const std::size_t got = shards_[victim]->queue.steal_into(
      [&](Request&& request) { thief.batcher.push(std::move(request)); },
      want);
  if (got == 0) {
    return false;
  }
  thief.queue.adopt(got);
  steals_.fetch_add(1, std::memory_order_relaxed);
  stolen_requests_.fetch_add(got, std::memory_order_relaxed);
  steals_m.add();
  stolen_m.add(got);
  steal_batch_m.record(got);
  return true;
}

void InferenceServer::dispatcher_loop(std::size_t shard_index) {
  static obs::Counter& crashes_m =
      obs::counter("serve.resilience.dispatcher_crashes");
  try {
    dispatcher_run(shard_index);
  } catch (...) {
    // The crash barrier: an escaped exception must not terminate the
    // process. Mark the shard dead; the supervisor joins this thread,
    // sweeps the orphans into retries-or-errors, rebuilds the engine, and
    // respawns.
    crashes_m.add();
    shards_[shard_index]->health.mark_dead();
  }
}

void InferenceServer::dispatcher_run(std::size_t shard_index) {
  static obs::Gauge& depth_g = obs::gauge("serve.queue_depth");
  Shard& shard = *shards_[shard_index];
  const std::size_t max_batch = shard.batcher.options().max_batch;
  const bool stealing =
      options_.work_stealing && shards_.size() > 1;
  for (;;) {
    shard.health.beat();
    if (options_.resilience.dispatch_hook) {
      // Chaos/test seam. Here — after the heartbeat, before draining —
      // the dispatcher holds no requests, so a throw orphans only what
      // the supervisor can reach (queue + batcher), never a taken group.
      options_.resilience.dispatch_hook(shard_index);
    }
    // Top up the private batcher with the oldest ingress — at most one
    // group's worth per pass, so the rest of a burst stays in the inbox
    // where idle neighbours can steal it.
    if (shard.batcher.size() < max_batch) {
      (void)shard.queue.drain_into(
          [&](Request&& request) { shard.batcher.push(std::move(request)); },
          max_batch - shard.batcher.size());
    }
    const bool stopping = stopping_.load(std::memory_order_acquire);
    if (shard.batcher.empty()) {
      if (!stopping && stealing && try_steal(shard_index)) {
        continue;
      }
      std::optional<std::chrono::steady_clock::time_point> poll;
      if (!stopping && (stealing || options_.resilience.dispatch_hook)) {
        // With a dispatch hook armed, bounded waits keep the heartbeat
        // advancing (and the hook observable) even on an idle shard.
        poll = std::chrono::steady_clock::now() + options_.steal_poll;
      }
      switch (shard.queue.wait(poll)) {
        case ShardQueue::Wait::Work:
        case ShardQueue::Wait::Timeout:
          continue;
        case ShardQueue::Wait::Stopped:
          // Stopped with an empty inbox and an empty private deque: every
          // request this shard will ever see has been dispatched.
          return;
      }
    }
    if (!stopping && !shard.batcher.should_flush(now())) {
      // Partial group: sleep until the oldest request ages out or new
      // ingress arrives (which may complete the group). Time only
      // advances through should_flush on the next pass. With an injected
      // clock the flush deadline is a fake-time point that a real
      // condition variable cannot wait until — bound the sleep on the
      // real clock and re-check fake time each wake instead.
      if (options_.clock) {
        (void)shard.queue.wait(std::chrono::steady_clock::now() +
                               options_.steal_poll);
      } else {
        (void)shard.queue.wait(shard.batcher.flush_deadline());
      }
      continue;
    }
    std::vector<Request> group = shard.batcher.take_group();
    shard.queue.on_taken(group.size());
    depth_g.set(static_cast<std::int64_t>(shard.queue.size()));
    execute_group(shard, std::move(group));
  }
}

void InferenceServer::on_detection(Shard& shard, std::size_t function_index) {
  static obs::Counter& detections_m =
      obs::counter("serve.resilience.detections");
  // Order matters for the scrub handshake: publish the quarantine bit
  // (release) before requesting the scrub, so the supervisor's rewrite
  // can never race a table read from this dispatcher — we stop reading
  // the table the moment the bit is set, and only the supervisor clears
  // it after the rewrite.
  shard.health.quarantine(function_index);
  shard.health.request_scrub();
  shard.health.record_detection();
  shard.group_detections += 1;
  detections_.fetch_add(1, std::memory_order_relaxed);
  detections_m.add();
  if (shard.health.record_failure(options_.resilience.failure_threshold,
                                  resilience_now())) {
    circuit_opens_.fetch_add(1, std::memory_order_relaxed);
    obs::counter("serve.resilience.circuit_opens").add();
  }
}

void InferenceServer::execute_group(Shard& shard, std::vector<Request> group) {
  static obs::Counter& dispatches_m = obs::counter("serve.dispatches");
  static obs::Counter& shed_deadline_m =
      obs::counter("serve.admission.shed_deadline");
  static obs::Histogram& group_requests =
      obs::histogram("serve.group_requests");
  static obs::Histogram& dispatch_ns = obs::histogram("serve.dispatch_ns");
  dispatches_.fetch_add(1, std::memory_order_relaxed);
  dispatches_m.add();
  group_requests.record(group.size());
  const obs::ScopedTimer timer{dispatch_ns};
  const obs::TraceSpan span{"InferenceServer::dispatch"};
  shard.group_detections = 0;

  // Deadlines are judged against one reading taken before anything touches
  // the engine: an expired request is never dispatched — its completion
  // carries the error instead.
  const bool any_deadline =
      std::any_of(group.begin(), group.end(),
                  [](const Request& r) { return r.deadline.has_value(); });
  const auto now = any_deadline ? admission_.now()
                                : std::chrono::steady_clock::time_point{};
  for (Request& request : group) {
    if (request.deadline.has_value() && *request.deadline <= now) {
      fail_request(request, std::make_exception_ptr(DeadlineExpiredError{}));
      shed_deadline_.fetch_add(1, std::memory_order_relaxed);
      shed_deadline_m.add();
      finish(request);
      continue;
    }
    // One engine/model call per request; a bad request fails alone. The
    // engine still fans large calls out across the thread pool internally.
    execute_one(shard, request);
    finish(request);
  }
  // A dispatch group with no detections is the circuit's success signal —
  // it resets the failure streak and closes a HalfOpen trial.
  if (shard.group_detections == 0) {
    if (shard.health.record_success()) {
      circuit_closes_.fetch_add(1, std::memory_order_relaxed);
      obs::counter("serve.resilience.circuit_closes").add();
    }
  }
}

bool InferenceServer::execute_activation(Shard& shard,
                                         ActivationRequest& request) {
  const auto fi = static_cast<std::size_t>(request.function);
  std::vector<fp::Fixed>& buffer = request.input;
  if ((shard.health.quarantined() & (1u << fi)) != 0) {
    evaluate_degraded(shard.engine->unit(), request.function, buffer, buffer);
    return true;
  }
  if (!shard.verify) {
    shard.engine->evaluate(request.function, buffer, buffer);
    return false;
  }
  // The parity check reads each input word next to the word served for it,
  // so a verifying shard evaluates into its scratch and releases the
  // result into the request buffer only once it passes.
  std::vector<fp::Fixed>& out = shard.verify_scratch;
  out.resize(buffer.size(), fp::Fixed::zero(shard.engine->format()));
  shard.engine->evaluate(request.function, buffer, out);
  if (verify_activation(*checker_, shard.engine->format(), request.function,
                        buffer, out)) {
    std::copy(out.begin(), out.end(), buffer.begin());
    return false;
  }
  // A served word failed its parity signature. Quarantine first, then
  // recompute on the scalar path — the client gets correct bits, never the
  // corrupt ones.
  on_detection(shard, fi);
  evaluate_degraded(shard.engine->unit(), request.function, buffer, buffer);
  return true;
}

void InferenceServer::execute_one(Shard& shard, Request& request) {
  static obs::Counter& degraded_m =
      obs::counter("serve.resilience.degraded_requests");
  // Counted *before* the completion runs so a client that observed its
  // result also observes the counter (the completion's own
  // synchronisation publishes the sequenced-before increment).
  const auto note_degraded = [this] {
    degraded_requests_.fetch_add(1, std::memory_order_relaxed);
    degraded_m.add();
  };
  std::visit(
      [&](auto& r) {
        using T = std::decay_t<decltype(r)>;
        try {
          if constexpr (std::is_same_v<T, ActivationRequest>) {
            // Evaluated in place: the request's own buffer is its result.
            if (execute_activation(shard, r)) {
              note_degraded();
            }
            deliver(r.done, &r.input);
          } else if constexpr (std::is_same_v<T, SoftmaxRequest>) {
            const auto exp_fi = static_cast<std::size_t>(Function::Exp);
            if ((shard.health.quarantined() & (1u << exp_fi)) != 0) {
              // Softmax reads the exp table; quarantined → the scalar
              // unit's softmax (bit-identical by construction).
              note_degraded();
              std::vector<fp::Fixed> out =
                  shard.engine->unit().softmax(r.logits);
              deliver(r.done, &out);
            } else {
              std::vector<fp::Fixed> out = shard.engine->softmax(r.logits);
              if (shard.verify &&
                  !verify_softmax(*checker_, *shard.engine, r.logits)) {
                on_detection(shard, exp_fi);
                note_degraded();
                out = shard.engine->unit().softmax(r.logits);
              }
              deliver(r.done, &out);
            }
          } else if constexpr (std::is_same_v<T, MlpRequest>) {
            // Model passes run on the model's own engine — outside the
            // shard's fault/verify domain (see src/fault/README.md).
            std::vector<double> out = r.model->predict_proba(r.input);
            deliver(r.done, &out);
          } else {
            static_assert(std::is_same_v<T, LstmRequest>);
            nn::LstmFixed::State out = r.model->step(r.state, r.x);
            deliver(r.done, &out);
          }
        } catch (...) {
          deliver(r.done, nullptr, std::current_exception());
        }
      },
      request.payload);
}

void InferenceServer::finish(const Request& request) {
  static obs::Counter& completed_m = obs::counter("serve.completed");
  static obs::Histogram& latency =
      obs::histogram("serve.request_latency_ns");
  completed_.fetch_add(1, std::memory_order_relaxed);
  completed_m.add();
  if (obs::metrics_enabled() &&
      request.enqueued_at != std::chrono::steady_clock::time_point{}) {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        now() - request.enqueued_at)
                        .count();
    latency.record(static_cast<std::uint64_t>(ns < 0 ? 0 : ns));
  }
}

// ---------------------------------------------------------------------------
// Supervisor
// ---------------------------------------------------------------------------

void InferenceServer::supervisor_loop() {
  std::unique_lock<std::mutex> lock{supervisor_wake_mutex_};
  while (!stopping_.load(std::memory_order_acquire)) {
    supervisor_wake_.wait_for(lock, options_.resilience.watchdog_interval);
    if (stopping_.load(std::memory_order_acquire)) {
      return;
    }
    poke_supervisor();
  }
}

void InferenceServer::poke_supervisor() {
  const std::lock_guard<std::mutex> lock{supervisor_mutex_};
  if (stopping_.load(std::memory_order_acquire)) {
    return;  // shutdown's join + sweep owns recovery from here
  }
  supervisor_pass(resilience_now());
}

void InferenceServer::supervisor_pass(
    std::chrono::steady_clock::time_point now) {
  const ResilienceOptions& res = options_.resilience;
  // Snapshot inbox depths before any recovery runs: requests this pass
  // redistributes from a stalled shard must not count as the *target*
  // shard's long-pending work — its stall window starts next pass.
  std::vector<std::size_t> depth(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    depth[i] = shards_[i]->queue.size();
  }
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = *shards_[i];
    if (shard.health.dispatcher_dead()) {
      recover_dead_shard(i, now);
      continue;
    }
    // Stall detection: heartbeat frozen while work queues. A stalled
    // thread is never killed (never safe); its circuit opens and its
    // *inbox* redistributes — requests already drained into its private
    // batcher stay with it until it resumes. Pointless with one shard
    // (nowhere to redistribute to).
    const std::uint64_t hb = shard.health.heartbeat();
    if (hb != last_heartbeat_[i]) {
      last_heartbeat_[i] = hb;
      last_progress_[i] = now;
    } else if (depth[i] == 0) {
      // A frozen heartbeat with nothing pending is idleness, not a stall:
      // the stall clock measures work-pending-without-progress, so it
      // starts when work arrives.
      last_progress_[i] = now;
    } else if (shards_.size() > 1 &&
               now - last_progress_[i] >= res.stall_timeout) {
      shard.health.record_stall();
      stalls_.fetch_add(1, std::memory_order_relaxed);
      obs::counter("serve.resilience.stalls").add();
      if (shard.health.force_open(now)) {
        circuit_opens_.fetch_add(1, std::memory_order_relaxed);
        obs::counter("serve.resilience.circuit_opens").add();
      }
      std::vector<Request> stranded;
      (void)shard.queue.steal_into(
          [&](Request&& r) { stranded.push_back(std::move(r)); },
          std::numeric_limits<std::size_t>::max());
      for (Request& r : stranded) {
        // Never ran, so moving it spends no retry credit or budget.
        if (!reroute(r)) {
          fail_orphan(r);
        }
      }
      last_progress_[i] = now;  // one redistribution per frozen window
    }
    if (shard.health.take_scrub_request()) {
      scrub_shard(i, now);
    }
    shard.health.maybe_half_open(
        now, std::chrono::duration_cast<std::chrono::nanoseconds>(
                 res.open_cooldown),
        res.half_open_trials);
  }
}

void InferenceServer::recover_dead_shard(
    std::size_t shard_index, std::chrono::steady_clock::time_point now) {
  static obs::Counter& respawns_m = obs::counter("serve.resilience.respawns");
  Shard& shard = *shards_[shard_index];
  if (shard.dispatcher.joinable()) {
    shard.dispatcher.join();  // already exited through the crash barrier
  }
  if (shard.health.force_open(now)) {
    circuit_opens_.fetch_add(1, std::memory_order_relaxed);
    obs::counter("serve.resilience.circuit_opens").add();
  }
  // With the thread joined, the batcher and scratch are supervisor-owned.
  // Sweep everything the dead dispatcher held or would have drained.
  std::vector<Request> orphans;
  while (!shard.batcher.empty()) {
    std::vector<Request> group = shard.batcher.take_group();
    shard.queue.on_taken(group.size());
    for (Request& r : group) {
      orphans.push_back(std::move(r));
    }
  }
  (void)shard.queue.steal_into(
      [&](Request&& r) { orphans.push_back(std::move(r)); },
      std::numeric_limits<std::size_t>::max());
  // Rebuild the engine from the pristine config — tables and all — and
  // re-attach the shard's fault port so chaos campaigns survive respawns.
  shard.engine =
      std::make_unique<core::BatchNacu>(config_, options_.batch_options);
  if (shard.fault_port != nullptr) {
    shard.engine->attach_fault_port(shard.fault_port);
  }
  if (options_.warm_tables && shard.engine->table_cacheable()) {
    shard.engine->warm(Function::Sigmoid);
    shard.engine->warm(Function::Tanh);
    shard.engine->warm(Function::Exp);
  }
  obs::gauge("serve.table.resident_bytes")
      .set(static_cast<std::int64_t>(core::BatchNacu::live_table_bytes()));
  shard.health.clear_dead();
  shard.health.record_respawn();
  respawns_.fetch_add(1, std::memory_order_relaxed);
  respawns_m.add();
  last_heartbeat_[shard_index] = shard.health.heartbeat();
  last_progress_[shard_index] = now;
  if (!stopping_.load(std::memory_order_acquire)) {
    shard.dispatcher =
        std::thread{[this, shard_index] { dispatcher_loop(shard_index); }};
  }
  // Requeue after the respawn so even a one-shard server has a live
  // dispatcher to serve the retries.
  for (Request& r : orphans) {
    requeue_or_fail(std::move(r));
  }
}

void InferenceServer::scrub_shard(std::size_t shard_index,
                                  std::chrono::steady_clock::time_point now) {
  static obs::Counter& scrubs_m = obs::counter("serve.resilience.scrubs");
  static obs::Counter& scrub_failures_m =
      obs::counter("serve.resilience.scrub_failures");
  const obs::TraceSpan span{"InferenceServer::scrub"};
  Shard& shard = *shards_[shard_index];
  const std::int64_t min_raw = shard.engine->format().min_raw();
  std::uint32_t mask = shard.health.quarantined();
  for (std::size_t fi = 0; fi < core::BatchNacu::kFunctionCount; ++fi) {
    if ((mask & (1u << fi)) == 0) {
      continue;
    }
    const auto f = static_cast<Function>(fi);
    if (!shard.engine->table_built(f)) {
      shard.health.clear_quarantine(fi);  // nothing to scrub or serve from
      continue;
    }
    // Rewrite every entry from the scalar datapath (heals transients —
    // on_rewrite marks them spent), then re-verify through the *armed*
    // read path so a stuck-at cell, which survives any rewrite, fails the
    // re-check and keeps the function on the scalar path.
    shard.engine->scrub_table(f);
    bool clean = true;
    if (checker_ != nullptr) {
      const fault::DetectionReport report = checker_->check_table(
          f, [&](std::size_t word) {
            std::int64_t in = min_raw + static_cast<std::int64_t>(word);
            std::int64_t out = 0;
            shard.engine->evaluate_raw(f, std::span<const std::int64_t>{&in, 1},
                                       std::span<std::int64_t>{&out, 1});
            return out;
          });
      clean = !report.flagged();
    }
    shard.health.record_scrub(clean);
    if (clean) {
      shard.health.clear_quarantine(fi);
      scrubs_.fetch_add(1, std::memory_order_relaxed);
      scrubs_m.add();
    } else {
      scrub_failures_.fetch_add(1, std::memory_order_relaxed);
      scrub_failures_m.add();
      if (shard.health.record_failure(options_.resilience.failure_threshold,
                                      now)) {
        circuit_opens_.fetch_add(1, std::memory_order_relaxed);
        obs::counter("serve.resilience.circuit_opens").add();
      }
    }
  }
  if (shard.health.quarantined() == 0 && !shard.health.dispatcher_dead() &&
      shard.health.state() != CircuitState::Closed) {
    // Fully healed: back to full-speed table serving without waiting out
    // the cooldown/half-open probation.
    shard.health.close();
    circuit_closes_.fetch_add(1, std::memory_order_relaxed);
    obs::counter("serve.resilience.circuit_closes").add();
  }
}

bool InferenceServer::reroute(Request& request) {
  static obs::Counter& retried_m = obs::counter("serve.resilience.retried");
  bool circuit_skipped = false;
  for (int round = 0; round < 2; ++round) {
    for (auto& shard : shards_) {
      if (round == 0 && !shard->health.try_admit()) {
        circuit_skipped = true;
        continue;
      }
      if (shard->queue.try_push(request, per_shard_capacity_) ==
          ShardQueue::Push::Ok) {
        retried_.fetch_add(1, std::memory_order_relaxed);
        retried_m.add();
        return true;
      }
    }
    if (!circuit_skipped) {
      break;  // second (fail-static) round could not change the outcome
    }
  }
  return false;
}

void InferenceServer::requeue_or_fail(Request&& request) {
  if (request.retries_left > 0 && retry_budget_->try_draw()) {
    request.retries_left -= 1;
    if (reroute(request)) {
      return;
    }
  }
  fail_orphan(request);
}

void InferenceServer::fail_orphan(Request& request) {
  static obs::Counter& exhausted_m =
      obs::counter("serve.resilience.retry_exhausted");
  fail_request(request, std::make_exception_ptr(ShardFailedError{}));
  retry_exhausted_.fetch_add(1, std::memory_order_relaxed);
  exhausted_m.add();
  finish(request);
}

}  // namespace nacu::serve
