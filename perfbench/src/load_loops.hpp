// Template bodies of the load loops declared in harness.hpp.
#pragma once

#include <algorithm>
#include <exception>
#include <memory>

namespace perfbench {

namespace detail {

/// Root spans take their request id as span id, so children recorded on
/// another thread (the open loop's sender) can name their parent.
inline constexpr std::uint64_t kRootSpan = std::uint64_t{1} << 63;

inline std::uint64_t request_id(std::size_t lane, std::uint64_t i) {
  return (static_cast<std::uint64_t>(lane) << 40) | i;
}

/// The slice an offset of @p ns into a phase of @p slice_ns slices falls in.
inline std::size_t slice_of(std::int64_t ns, double slice_ns) {
  const double k = static_cast<double>(std::max<std::int64_t>(ns, 0)) / slice_ns;
  return std::min(kSlices - 1, static_cast<std::size_t>(k));
}

/// Count a failed request's cause, or a wrong answer; true when answered.
inline bool tally(ThreadResult& r, const Outcome& outcome) {
  if (outcome.kind == Outcome::Failed || outcome.kind == Outcome::Lost) {
    r.failures.add(outcome.cause);
    return false;
  }
  r.wrong += outcome.kind == Outcome::Wrong ? 1 : 0;
  return true;
}

}  // namespace detail

template <typename Body>
PhaseResult run_threads(std::size_t threads, const Slicing& slicing,
                        Trace* trace, const std::string& phase, Body body) {
  std::vector<ThreadResult> results(threads);
  std::vector<Clock::time_point> finished(threads);
  if (trace != nullptr) {
    for (std::size_t t = 0; t < threads; ++t) {
      results[t].spans.enable(static_cast<std::uint32_t>(t), trace->epoch());
    }
  }
  std::atomic<std::size_t> running{threads};
  PhaseResult out;
  out.threads = threads;
  const Usage before = process_usage();
  const Clock::time_point start = Clock::now();
  {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        const Usage own = thread_usage();
        try {
          body(t, results[t]);
        } catch (const std::exception& e) {
          results[t].failures.add(std::string{"load thread: "} + e.what());
        }
        results[t].cpu = thread_usage() - own;
        finished[t] = Clock::now();
        running.fetch_sub(1, std::memory_order_release);
      });
    }
    // Snapshots at the slice boundaries; boundaries the phase ends before
    // are taken at its end.
    std::vector<Snapshot> boundaries;
    const auto take_due = [&](Clock::time_point now) {
      while (boundaries.size() <= kSlices &&
             now >= slicing.boundary(boundaries.size())) {
        boundaries.push_back(snapshot());
      }
    };
    out.peak_threads = process_threads();
    while (running.load(std::memory_order_acquire) > 0) {
      Clock::time_point wake = Clock::now() + std::chrono::milliseconds{5};
      if (boundaries.size() <= kSlices) {
        wake = std::min(wake, slicing.boundary(boundaries.size()));
      }
      std::this_thread::sleep_until(wake);
      take_due(Clock::now());
      out.peak_threads = std::max(out.peak_threads, process_threads());
    }
    for (std::thread& thread : pool) {
      thread.join();
    }
    take_due(Clock::time_point::max());
    for (std::size_t k = 0; k < kSlices; ++k) {
      out.disturbance.push_back(foreign_share(boundaries[k], boundaries[k + 1]));
    }
  }
  out.process = process_usage() - before;
  out.wall_s = seconds_between(
      start, *std::max_element(finished.begin(), finished.end()));
  std::vector<Span> spans;
  std::size_t dropped = 0;
  for (ThreadResult& r : results) {
    out.add(r);
    if (trace != nullptr) {
      spans.insert(spans.end(), r.spans.spans().begin(),
                   r.spans.spans().end());
      dropped += r.spans.dropped();
    }
  }
  if (trace != nullptr) {
    trace->add_phase(phase, std::move(spans), dropped);
  }
  return out;
}

template <typename Lane>
PhaseResult closed_loop(std::vector<Lane>& lanes, std::size_t window,
                        double seconds, const LayerNames& names, Trace* trace,
                        const std::string& phase) {
  const Clock::time_point begin = Clock::now();
  const Clock::time_point deadline =
      begin + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  const double slice_ns = seconds * 1e9 / kSlices;
  PhaseResult out = run_threads(lanes.size(), Slicing{begin, slice_ns}, trace,
                                phase,
                                [&](std::size_t t, ThreadResult& r) {
    Lane& lane = lanes[t];
    struct InFlight {
      std::uint64_t i;
      Clock::time_point start, entered;
    };
    std::deque<InFlight> in_flight;
    std::uint64_t next = 0;
    bool lost = false;
    while (true) {
      while (!lost && in_flight.size() < window && Clock::now() < deadline) {
        lane.prepare(next);
        const Clock::time_point start = Clock::now();
        const Outcome outcome = lane.enter(next);
        const Clock::time_point entered = Clock::now();
        ++r.attempted;
        if (outcome.kind == Outcome::Ok) {
          in_flight.push_back({next, start, entered});
        } else {
          detail::tally(r, outcome);
          lost = outcome.kind == Outcome::Lost;
        }
        ++next;
      }
      if (in_flight.empty()) {
        break;
      }
      const InFlight request = in_flight.front();
      in_flight.pop_front();
      const Clock::time_point waiting = Clock::now();
      Clock::time_point answered{};
      const Outcome outcome = lane.finish(request.i, answered);
      if (outcome.kind == Outcome::Lost) {
        // The connection is gone: this request and everything behind it.
        r.failures.add(outcome.cause, 1 + in_flight.size());
        in_flight.clear();
        lost = true;
        continue;
      }
      if (!detail::tally(r, outcome)) {
        continue;
      }
      r.elements += lane.elements(request.i);
      r.answer(detail::slice_of(ns_between(begin, answered), slice_ns),
               ns_between(request.start, answered));
      r.enter.add(ns_between(request.start, request.entered));
      r.complete.add(ns_between(request.entered, answered));
      if (r.spans.enabled()) {
        const std::uint64_t id = detail::request_id(t, request.i);
        const std::uint64_t root = detail::kRootSpan | id;
        r.spans.add(names.request, request.start, answered, 0, id, root);
        r.spans.add(names.enter, request.start, request.entered, root, id);
        if (names.wait != nullptr) {
          r.spans.add(names.wait, waiting, answered, root, id);
        }
      }
    }
  });
  out.slice_s = seconds / kSlices;
  return out;
}

template <typename Lane>
PhaseResult open_loop(std::vector<Lane>& lanes,
                      const std::vector<std::vector<std::int64_t>>& due_ns,
                      const LayerNames& names, Trace* trace,
                      const std::string& phase) {
  enum : std::uint8_t { kPending = 0, kSent = 1, kNotSent = 2 };
  struct Slot {
    std::atomic<std::uint8_t> state{kPending};
    Clock::time_point sent{};  ///< written before state leaves kPending
    Clock::time_point entered{};
  };
  std::vector<std::unique_ptr<Slot[]>> slots;
  std::int64_t schedule_ns = 1;
  for (const auto& due : due_ns) {
    slots.push_back(std::make_unique<Slot[]>(due.size()));
    if (!due.empty()) {
      schedule_ns = std::max(schedule_ns, due.back() + 1);
    }
  }
  const double slice_ns = static_cast<double>(schedule_ns) / kSlices;
  const std::size_t n_lanes = lanes.size();
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds{5};
  PhaseResult out = run_threads(2 * n_lanes, Slicing{start, slice_ns}, trace,
                                phase,
                                [&](std::size_t t, ThreadResult& r) {
    const std::size_t l = t % n_lanes;
    Lane& lane = lanes[l];
    const std::vector<std::int64_t>& due = due_ns[l];
    Slot* slot = slots[l].get();
    if (t < n_lanes) {
      // Sender: 1 ns timer slack so sleep_until is not rounded up by the
      // default 50 µs; the remaining lateness is reported as loadgen.late.
      set_timer_slack_ns(1);
      bool lost = false;
      for (std::size_t i = 0; i < due.size(); ++i) {
        const Clock::time_point due_at = start + std::chrono::nanoseconds{due[i]};
        Outcome outcome{Outcome::Lost, "send_failed"};
        if (!lost) {
          lane.prepare(i);
          std::this_thread::sleep_until(due_at);
          slot[i].sent = Clock::now();
          outcome = lane.enter(i);
          slot[i].entered = Clock::now();
        }
        ++r.attempted;
        if (outcome.kind == Outcome::Ok) {
          r.late.add(ns_between(due_at, slot[i].sent));
          r.enter.add(ns_between(slot[i].sent, slot[i].entered));
          if (r.spans.enabled()) {
            const std::uint64_t id = detail::request_id(l, i);
            const std::uint64_t root = detail::kRootSpan | id;
            r.spans.add("loadgen.late", due_at, slot[i].sent, root, id);
            r.spans.add(names.enter, slot[i].sent, slot[i].entered, root, id);
          }
        } else {
          detail::tally(r, outcome);
          lost = lost || outcome.kind == Outcome::Lost;
        }
        slot[i].state.store(outcome.kind == Outcome::Ok ? kSent : kNotSent,
                            std::memory_order_release);
        slot[i].state.notify_one();
      }
      return;
    }
    // Receiver: answers arrive in send order.
    for (std::size_t i = 0; i < due.size(); ++i) {
      if constexpr (!Lane::kWaitsOnItsOwn) {
        slot[i].state.wait(kPending, std::memory_order_acquire);
      }
      if (slot[i].state.load(std::memory_order_acquire) == kNotSent) {
        continue;
      }
      const Clock::time_point waiting = Clock::now();
      Clock::time_point answered{};
      const Outcome outcome = lane.finish(i, answered);
      if (outcome.kind == Outcome::Lost) {
        // Everything from here on is unanswerable; the sender counted the
        // attempts, the receiver counts the losses of those it sent.
        for (std::size_t k = i; k < due.size(); ++k) {
          slot[k].state.wait(kPending, std::memory_order_acquire);
          if (slot[k].state.load(std::memory_order_acquire) == kSent) {
            r.failures.add(outcome.cause);
          }
        }
        return;
      }
      // A wire answer can overtake the sender's bookkeeping by a few ns.
      while (slot[i].state.load(std::memory_order_acquire) == kPending) {
        std::this_thread::yield();
      }
      if (!detail::tally(r, outcome)) {
        continue;
      }
      const Clock::time_point due_at = start + std::chrono::nanoseconds{due[i]};
      r.elements += lane.elements(i);
      r.answer(detail::slice_of(due[i], slice_ns), ns_between(due_at, answered));
      r.complete.add(ns_between(slot[i].entered, answered));
      if (r.spans.enabled()) {
        const std::uint64_t id = detail::request_id(l, i);
        const std::uint64_t root = detail::kRootSpan | id;
        r.spans.add(names.request, due_at, answered, 0, id, root);
        if (names.wait != nullptr) {
          r.spans.add(names.wait, waiting, answered, root, id);
        }
      }
    }
  });
  out.slice_s = slice_ns / 1e9;
  return out;
}

}  // namespace perfbench
