// Measurement plumbing shared by every workload: resource usage, sample
// statistics, failure accounting, in-memory trace spans, the metric report,
// and the two load loops (closed loop and open loop).
//
// A load loop pushes one request stream through a "lane" — an object that
// calls into exactly one layer's public entry point (net::Client,
// serve::InferenceServer or core::BatchNacu) — so the same stream can be
// peeled: driven at the wire, then at serve, then at the engine, with the
// differences attributing time to net, serve and core.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <exception>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t ns_between(Clock::time_point from,
                                             Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
      .count();
}
[[nodiscard]] inline double seconds_between(Clock::time_point from,
                                            Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// -- resource usage ---------------------------------------------------------

struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  double ctx_switches = 0.0;  ///< voluntary + involuntary
  [[nodiscard]] double cpu_s() const { return user_s + sys_s; }
};
Usage operator-(const Usage& a, const Usage& b);
Usage operator+(const Usage& a, const Usage& b);

/// getrusage(RUSAGE_SELF): every thread of the process, live or exited.
[[nodiscard]] Usage process_usage();
/// getrusage(RUSAGE_THREAD): the calling thread only.
[[nodiscard]] Usage thread_usage();
/// Peak resident set size (VmHWM) in MiB since the last reset_peak_rss().
[[nodiscard]] double peak_rss_mib();
/// Restart the peak at the current RSS (/proc/self/clear_refs). Without
/// that file the peak stays the process's peak.
void reset_peak_rss();
/// Live threads of this process (/proc/self/status).
[[nodiscard]] int process_threads();

/// CPU time of the whole machine from /proc/stat, in seconds summed over
/// its CPUs: busy (user, nice, system, irq, softirq), the time the
/// hypervisor gave to other guests (steal), and the total.
struct HostTimes {
  double busy = 0.0;
  double steal = 0.0;
  double total = 0.0;
};
[[nodiscard]] HostTimes host_times();

/// The machine and this process at one instant.
struct Snapshot {
  HostTimes host;
  Usage process;
};
[[nodiscard]] Snapshot snapshot();

/// Share of the machine's CPU time between @p from and @p to that went
/// neither to this process nor to idle: other processes of the guest, and
/// steal. It measures how much the host disturbed that interval.
[[nodiscard]] double foreign_share(const Snapshot& from, const Snapshot& to);

// -- statistics -------------------------------------------------------------

[[nodiscard]] double median(std::vector<double> values);
/// Quantile @p q of @p values, interpolated between order statistics.
[[nodiscard]] double quantile_of(std::vector<double> values, double q);

/// Log-linear histogram of nanosecond samples: exact below 128 ns, then 128
/// buckets per octave (under 0.8% wide). Its memory does not grow with the
/// number of samples, so the benchmark's own bookkeeping does not move peak
/// RSS with throughput. Quantiles interpolate inside a bucket.
class Histogram {
 public:
  void add(std::int64_t ns);
  void merge(const Histogram& other);
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double mean() const;
  /// @p q in [0, 1]; 0 when empty.
  [[nodiscard]] double quantile(double q) const;

 private:
  static constexpr int kSubBits = 7;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  static constexpr std::size_t kBuckets = (63 - kSubBits + 1) * kSub;

  std::vector<std::uint64_t> buckets_;  ///< allocated by the first add
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

/// splitmix64: the benchmark's only source of randomness, seeded from the
/// --seed argument so a seed always yields the same inputs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_{seed} {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform in [lo, hi].
  std::int64_t between(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    next() % static_cast<std::uint64_t>(hi - lo + 1));
  }

 private:
  std::uint64_t state_;
};

// -- trace spans ------------------------------------------------------------

/// One completed span. Names are string literals. Times are ns since the
/// trace epoch. Spans of one request share @p request; a child names its
/// parent's id (0 for a root).
struct Span {
  const char* name = nullptr;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  std::uint32_t thread = 0;
};

/// Per-thread span buffer with a fixed capacity: spans past it are counted
/// and dropped, so a long run keeps the first spans of every thread and a
/// bounded amount of memory.
class SpanBuffer {
 public:
  static constexpr std::size_t kCapacity = 8192;

  void enable(std::uint32_t thread, Clock::time_point epoch);
  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Record a span under @p id (0: a fresh per-thread id).
  void add(const char* name, Clock::time_point start, Clock::time_point end,
           std::uint64_t parent, std::uint64_t request, std::uint64_t id = 0);
  [[nodiscard]] std::size_t dropped() const { return dropped_; }
  std::vector<Span>& spans() { return spans_; }

 private:
  bool enabled_ = false;
  std::uint32_t thread_ = 0;
  Clock::time_point epoch_{};
  std::uint64_t next_ = 1;
  std::size_t dropped_ = 0;
  std::vector<Span> spans_;
};

/// Every span of a traced run, grouped by phase. Written once at exit as
/// Chrome trace-event JSON (one process per phase).
class Trace {
 public:
  explicit Trace(Clock::time_point epoch) : epoch_{epoch} {}
  [[nodiscard]] Clock::time_point epoch() const { return epoch_; }
  void add_phase(const std::string& phase, std::vector<Span> spans,
                 std::size_t dropped);
  /// Mean self time per span name in @p phase, in µs: a span's duration
  /// minus the part of it that its children cover.
  [[nodiscard]] std::map<std::string, double> self_time_us(
      const std::string& phase) const;
  [[nodiscard]] bool write_chrome(const std::string& path) const;
  void print_self_times() const;

 private:
  struct Phase {
    std::string name;
    std::vector<Span> spans;
    std::size_t dropped = 0;
  };
  Clock::time_point epoch_;
  std::vector<Phase> phases_;
};

// -- failures ---------------------------------------------------------------

/// Failed requests by cause. A cause names the layer's own error (a wire
/// error code, a serve exception type, a lost connection).
struct Failures {
  std::map<std::string, std::uint64_t> by_cause;
  void add(const std::string& cause, std::uint64_t n = 1) {
    by_cause[cause] += n;
  }
  [[nodiscard]] std::uint64_t total() const;
  void merge(const Failures& other);
  [[nodiscard]] std::string describe() const;
};

/// Name of the serve:: exception in @p error (its wire error-code name),
/// via the network edge's own classification.
[[nodiscard]] const char* exception_cause(std::exception_ptr error);

/// prctl(PR_SET_TIMERSLACK) for the calling thread.
void set_timer_slack_ns(unsigned long ns);

// -- metric report ------------------------------------------------------------

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = {});
  /// Human-readable lines for every metric.
  void print() const;
  /// The final result line: {"correct", "attempted", "failed", "metrics"}.
  void print_json(bool correct, std::uint64_t attempted,
                  std::uint64_t failed) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::string note;
  };
  std::vector<Metric> metrics_;
};

// -- load loops -------------------------------------------------------------

/// What a lane reports for one request. Failed is one request refused or
/// answered with an error; Lost means the connection is gone.
struct Outcome {
  enum Kind : std::uint8_t { Ok, Wrong, Failed, Lost } kind = Ok;
  const char* cause = nullptr;  ///< Failed / Lost: a static string
};

/// Span names of one layer: the whole request, the entry call, the wait for
/// the answer.
struct LayerNames {
  const char* request;
  const char* enter;
  const char* wait;
};

/// A phase is cut into kSlices equal slices of time (completion time in a
/// closed loop, due time in an open loop). The figures come from the quiet
/// slices (PhaseResult::quiet_slices), so spells of host contention do not
/// decide a run's figure.
inline constexpr std::size_t kSlices = 10;
/// A slice is quiet when less than this share of the machine's CPU time
/// went to other processes or to other guests (steal). /proc/stat counts
/// in 10 ms ticks, which are 2.5% of a 100 ms slice of 4 CPUs, so a quiet
/// slice is one in which it counted none.
inline constexpr double kQuietDisturbance = 0.005;

/// Where a phase's slices lie: kSlices slices of @p slice_ns from @p origin.
struct Slicing {
  Clock::time_point origin;
  double slice_ns = 0.0;
  [[nodiscard]] Clock::time_point boundary(std::size_t k) const {
    return origin + std::chrono::nanoseconds{static_cast<std::int64_t>(
                        static_cast<double>(k) * slice_ns)};
  }
};

/// What one thread of a phase measured.
struct ThreadResult {
  Histogram latency;   ///< start (or due) → answer
  Histogram enter;     ///< inside the layer entry call
  Histogram complete;  ///< entry return → answer
  Histogram late;      ///< open loop: due → sent
  std::vector<Histogram> latency_slices = std::vector<Histogram>(kSlices);
  std::vector<std::uint64_t> answered_slices =
      std::vector<std::uint64_t>(kSlices);
  std::uint64_t attempted = 0;
  std::uint64_t answered = 0;  ///< answers received, right or wrong
  std::uint64_t wrong = 0;
  std::uint64_t elements = 0;  ///< input elements of the answered requests
  Failures failures;
  Usage cpu;  ///< RUSAGE_THREAD over the thread's run
  SpanBuffer spans;

  /// Count one answered request finishing in slice @p slice.
  void answer(std::size_t slice, std::int64_t latency_ns);
};

/// A phase's merged result: its threads, or several rounds of one phase.
struct PhaseResult {
  Histogram latency, enter, complete, late;
  std::vector<Histogram> latency_slices;  ///< kSlices per round
  std::vector<std::uint64_t> answered_slices;
  std::vector<double> disturbance;  ///< per slice: its foreign_share
  double slice_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t answered = 0;
  std::uint64_t wrong = 0;
  std::uint64_t elements = 0;
  Failures failures;
  double wall_s = 0.0;
  Usage process;  ///< whole process over the phase
  Usage load;     ///< the load threads' own share
  int peak_threads = 0;
  std::size_t threads = 0;  ///< load threads

  /// Answers per second over the whole phase, drain included.
  [[nodiscard]] double throughput() const {
    return wall_s > 0.0 ? static_cast<double>(answered) / wall_s : 0.0;
  }
  /// The quiet slices, or when fewer than a quarter are quiet, the quarter
  /// that the host disturbed least. A slice counts as disturbed as much as
  /// it or the slice before it in its round, since a stall late in one
  /// slice delays answers into the next.
  [[nodiscard]] std::vector<std::size_t> quiet_slices() const;
  /// The upper quartile over the quiet slices of the answers per second in
  /// each slice. Host stalls too short for /proc/stat to count (a vCPU
  /// descheduled for a millisecond or two) still hit some slices; they only
  /// ever lower a slice's throughput and raise its tail, so the quartile on
  /// the good side reads the program, not the stalls, while fewer than
  /// three quarters of the slices are hit.
  [[nodiscard]] double sliced_throughput() const;
  /// The lower quartile over the quiet slices of each slice's latency
  /// quantile @p q, in µs (see sliced_throughput).
  [[nodiscard]] double sliced_latency_us(double q) const;
  /// Mean foreign_share over all slices and over the quiet ones.
  [[nodiscard]] double mean_disturbance() const;
  [[nodiscard]] double quiet_disturbance() const;
  /// Process CPU minus the load threads' CPU, per answered request, in µs.
  [[nodiscard]] double server_cpu_us_per_req() const;
  void add(const ThreadResult& thread);
  /// Fold in another round of the same phase: counts add, slices append.
  void append(const PhaseResult& round);
};

/// Runs @p body(t, result) on @p threads threads and merges their results.
/// The calling thread samples the process thread count while they run, and
/// a Snapshot at each slice boundary of @p slicing, from which it sets the
/// result's per-slice disturbance. Spans go to @p trace under @p phase when
/// it is non-null.
template <typename Body>
PhaseResult run_threads(std::size_t threads, const Slicing& slicing,
                        Trace* trace, const std::string& phase, Body body);

/// Closed loop: each lane keeps @p window requests in flight until
/// @p seconds pass, then drains. Lane API:
///   void prepare(std::uint64_t i);    // untimed: stage request i's input
///   Outcome enter(std::uint64_t i);   // the layer entry call for request i
///   Outcome finish(std::uint64_t i, Clock::time_point& answered);
///                                     // wait for i's answer (FIFO), set
///                                     // @p answered, check the bits
///   std::size_t elements(std::uint64_t i);  // request i's input size
template <typename Lane>
PhaseResult closed_loop(std::vector<Lane>& lanes, std::size_t window,
                        double seconds, const LayerNames& names, Trace* trace,
                        const std::string& phase);

/// Open loop: each lane has a sender thread that calls enter(i) at
/// @p due_ns[lane][i] (ns after the phase start) and a receiver thread that
/// calls finish(i) in order. Latency runs from the due instant. A lane whose
/// finish() blocks until i was sent (a socket read) sets kWaitsOnItsOwn;
/// otherwise the receiver first waits for the sender to enter i.
template <typename Lane>
PhaseResult open_loop(std::vector<Lane>& lanes,
                      const std::vector<std::vector<std::int64_t>>& due_ns,
                      const LayerNames& names, Trace* trace,
                      const std::string& phase);

}  // namespace perfbench

#include "load_loops.hpp"
