#include "harness.hpp"

#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <unordered_map>
#include <utility>

#include "net/server.hpp"

namespace perfbench {

namespace {

Usage usage_of(int who) {
  rusage ru{};
  getrusage(who, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return {secs(ru.ru_utime), secs(ru.ru_stime),
          static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw)};
}

}  // namespace

Usage operator-(const Usage& a, const Usage& b) {
  return {a.user_s - b.user_s, a.sys_s - b.sys_s,
          a.ctx_switches - b.ctx_switches};
}
Usage operator+(const Usage& a, const Usage& b) {
  return {a.user_s + b.user_s, a.sys_s + b.sys_s,
          a.ctx_switches + b.ctx_switches};
}

Usage process_usage() { return usage_of(RUSAGE_SELF); }
Usage thread_usage() { return usage_of(RUSAGE_THREAD); }

namespace {

/// A "Name:  value" field of /proc/self/status; 0 when absent.
long status_field(const char* name) {
  std::ifstream status{"/proc/self/status"};
  const std::string prefix = std::string{name} + ":";
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::atol(line.c_str() + prefix.size());
    }
  }
  return 0;
}

}  // namespace

double peak_rss_mib() {
  return static_cast<double>(status_field("VmHWM")) / 1024.0;
}

void reset_peak_rss() {
  std::ofstream{"/proc/self/clear_refs"} << "5";
}

int process_threads() { return static_cast<int>(status_field("Threads")); }

namespace {

/// /proc/stat's unit.
const double kTickSeconds = 1.0 / static_cast<double>(sysconf(_SC_CLK_TCK));

}  // namespace

HostTimes host_times() {
  std::ifstream stat{"/proc/stat"};
  std::string cpu;
  stat >> cpu;
  HostTimes times;
  double value = 0.0;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8 && stat >> value; ++field) {
    value *= kTickSeconds;
    times.total += value;
    if (field == 7) {
      times.steal = value;
    } else if (field != 3 && field != 4) {
      times.busy += value;
    }
  }
  return times;
}

Snapshot snapshot() { return {host_times(), process_usage()}; }

double foreign_share(const Snapshot& from, const Snapshot& to) {
  const double total = to.host.total - from.host.total;
  if (total <= 0.0) {
    return 0.0;
  }
  // Each busy field of /proc/stat is truncated to whole ticks, so over an
  // interval the busy time is off by up to a tick or two; that slack keeps
  // the rounding from reading as other processes.
  const double own = (to.process - from.process).cpu_s();
  const double others =
      std::max(0.0, to.host.busy - from.host.busy - own - 2.0 * kTickSeconds);
  return std::clamp((others + to.host.steal - from.host.steal) / total, 0.0,
                    1.0);
}

void set_timer_slack_ns(unsigned long ns) { prctl(PR_SET_TIMERSLACK, ns); }

double median(std::vector<double> values) {
  return quantile_of(std::move(values), 0.5);
}

double quantile_of(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(q, 0.0, 1.0) *
                      static_cast<double>(values.size() - 1);
  const auto below = static_cast<std::size_t>(rank);
  const std::size_t above = std::min(below + 1, values.size() - 1);
  return values[below] +
         (values[above] - values[below]) * (rank - static_cast<double>(below));
}

// -- histogram ----------------------------------------------------------------

void Histogram::add(std::int64_t ns) {
  if (buckets_.empty()) {
    buckets_.resize(kBuckets);
  }
  const auto v = static_cast<std::uint64_t>(std::max<std::int64_t>(ns, 0));
  std::size_t index = v;
  if (v >= kSub) {
    const int octave = 63 - __builtin_clzll(v);
    index = static_cast<std::size_t>(octave - kSubBits + 1) * kSub +
            ((v >> (octave - kSubBits)) - kSub);
  }
  ++buckets_[index];
  ++count_;
  sum_ += static_cast<double>(v);
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) {
    return;
  }
  if (buckets_.empty()) {
    buckets_.resize(kBuckets);
  }
  for (std::size_t i = 0; i < kBuckets; ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

double Histogram::mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double Histogram::quantile(double q) const {
  if (count_ == 0) {
    return 0.0;
  }
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(count_);
  double below = 0.0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const auto n = static_cast<double>(buckets_[i]);
    if (n == 0.0 || below + n < rank) {
      below += n;
      continue;
    }
    double lower = static_cast<double>(i);
    double width = 1.0;
    if (i >= kSub) {
      const int shift = static_cast<int>(i / kSub) - 1;
      lower = std::ldexp(static_cast<double>(kSub + i % kSub), shift);
      width = std::ldexp(1.0, shift);
    }
    return lower + width * std::max(0.0, rank - below) / n;
  }
  return 0.0;
}

// -- spans --------------------------------------------------------------------

void SpanBuffer::enable(std::uint32_t thread, Clock::time_point epoch) {
  enabled_ = true;
  thread_ = thread;
  epoch_ = epoch;
  spans_.reserve(kCapacity);
}

void SpanBuffer::add(const char* name, Clock::time_point start,
                     Clock::time_point end, std::uint64_t parent,
                     std::uint64_t request, std::uint64_t id) {
  if (spans_.size() >= kCapacity) {
    ++dropped_;
    return;
  }
  if (id == 0) {
    id = (static_cast<std::uint64_t>(thread_ + 1) << 40) | next_++;
  }
  spans_.push_back({name, ns_between(epoch_, start), ns_between(epoch_, end),
                    id, parent, request, thread_});
}

void Trace::add_phase(const std::string& phase, std::vector<Span> spans,
                      std::size_t dropped) {
  phases_.push_back({phase, std::move(spans), dropped});
}

std::map<std::string, double> Trace::self_time_us(
    const std::string& phase) const {
  std::map<std::string, double> out;
  for (const Phase& p : phases_) {
    if (p.name != phase) {
      continue;
    }
    std::unordered_map<std::uint64_t, std::size_t> index;
    for (std::size_t s = 0; s < p.spans.size(); ++s) {
      index.emplace(p.spans[s].id, s);
    }
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
        p.spans.size());
    for (const Span& span : p.spans) {
      const auto parent = index.find(span.parent);
      if (span.parent != 0 && parent != index.end()) {
        children[parent->second].emplace_back(span.start_ns, span.end_ns);
      }
    }
    std::map<std::string, std::pair<double, std::size_t>> sums;
    for (std::size_t s = 0; s < p.spans.size(); ++s) {
      const Span& span = p.spans[s];
      auto& kids = children[s];
      std::sort(kids.begin(), kids.end());
      std::int64_t covered = 0;
      std::int64_t reach = span.start_ns;
      for (auto [from, to] : kids) {
        from = std::max(from, reach);
        to = std::min(to, span.end_ns);
        if (to > from) {
          covered += to - from;
          reach = to;
        }
      }
      auto& [total, count] = sums[span.name];
      total += static_cast<double>(span.end_ns - span.start_ns - covered);
      ++count;
    }
    for (const auto& [name, sum] : sums) {
      out[name] = sum.first / static_cast<double>(sum.second) / 1e3;
    }
  }
  return out;
}

void Trace::print_self_times() const {
  for (const Phase& p : phases_) {
    std::printf("  trace phase %-14s %zu spans kept, %zu dropped; self time:",
                p.name.c_str(), p.spans.size(), p.dropped);
    for (const auto& [name, us] : self_time_us(p.name)) {
      std::printf(" %s %.2f us", name.c_str(), us);
    }
    std::printf("\n");
  }
}

bool Trace::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  bool first = true;
  for (std::size_t p = 0; p < phases_.size(); ++p) {
    std::fprintf(f,
                 "%s{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%zu,"
                 "\"args\":{\"name\":\"%s\"}}",
                 first ? "" : ",\n", p + 1, phases_[p].name.c_str());
    first = false;
    for (const Span& s : phases_[p].spans) {
      std::fprintf(f,
                   ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":%zu,\"tid\":%u,"
                   "\"args\":{\"request\":\"%llx\",\"id\":\"%llx\","
                   "\"parent\":\"%llx\"}}",
                   s.name, phases_[p].name.c_str(),
                   static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, p + 1,
                   s.thread, static_cast<unsigned long long>(s.request),
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent));
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

// -- failures -----------------------------------------------------------------

std::uint64_t Failures::total() const {
  std::uint64_t n = 0;
  for (const auto& [cause, count] : by_cause) {
    n += count;
  }
  return n;
}

void Failures::merge(const Failures& other) {
  for (const auto& [cause, count] : other.by_cause) {
    by_cause[cause] += count;
  }
}

std::string Failures::describe() const {
  if (by_cause.empty()) {
    return "none";
  }
  std::string out;
  for (const auto& [cause, count] : by_cause) {
    out += (out.empty() ? "" : ", ") + cause + " " + std::to_string(count);
  }
  return out;
}

const char* exception_cause(std::exception_ptr error) {
  std::string message;
  return nacu::net::error_code_name(
      nacu::net::classify_exception(std::move(error), message));
}

// -- report -------------------------------------------------------------------

void Report::add(const std::string& name, double value,
                 const std::string& unit, const std::string& note) {
  if (!std::isfinite(value)) {
    std::fprintf(stderr, "perfbench: %s is not finite; reported as 0\n",
                 name.c_str());
    value = 0.0;
  }
  metrics_.push_back({name, value, unit, note});
}

void Report::print() const {
  for (const Metric& m : metrics_) {
    std::printf("  %-34s %14.4f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
}

void Report::print_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed) const {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                metrics_[i].value, metrics_[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// -- phases -------------------------------------------------------------------

double PhaseResult::server_cpu_us_per_req() const {
  if (answered == 0) {
    return 0.0;
  }
  return (process.cpu_s() - load.cpu_s()) * 1e6 /
         static_cast<double>(answered);
}

void ThreadResult::answer(std::size_t slice, std::int64_t latency_ns) {
  ++answered;
  ++answered_slices[slice];
  latency.add(latency_ns);
  latency_slices[slice].add(latency_ns);
}

void PhaseResult::add(const ThreadResult& thread) {
  latency_slices.resize(kSlices);
  answered_slices.resize(kSlices);
  latency.merge(thread.latency);
  enter.merge(thread.enter);
  complete.merge(thread.complete);
  late.merge(thread.late);
  for (std::size_t k = 0; k < kSlices; ++k) {
    latency_slices[k].merge(thread.latency_slices[k]);
    answered_slices[k] += thread.answered_slices[k];
  }
  attempted += thread.attempted;
  answered += thread.answered;
  wrong += thread.wrong;
  elements += thread.elements;
  failures.merge(thread.failures);
  load = load + thread.cpu;
}

void PhaseResult::append(const PhaseResult& round) {
  latency.merge(round.latency);
  enter.merge(round.enter);
  complete.merge(round.complete);
  late.merge(round.late);
  latency_slices.insert(latency_slices.end(), round.latency_slices.begin(),
                        round.latency_slices.end());
  answered_slices.insert(answered_slices.end(), round.answered_slices.begin(),
                         round.answered_slices.end());
  disturbance.insert(disturbance.end(), round.disturbance.begin(),
                     round.disturbance.end());
  slice_s = round.slice_s;
  attempted += round.attempted;
  answered += round.answered;
  wrong += round.wrong;
  elements += round.elements;
  failures.merge(round.failures);
  wall_s += round.wall_s;
  process = process + round.process;
  load = load + round.load;
  peak_threads = std::max(peak_threads, round.peak_threads);
  threads = round.threads;
}

std::vector<std::size_t> PhaseResult::quiet_slices() const {
  const std::size_t n = answered_slices.size();
  std::vector<std::pair<double, std::size_t>> ranked;
  for (std::size_t k = 0; k < n; ++k) {
    const double before = k % kSlices == 0 ? 0.0 : disturbance[k - 1];
    ranked.emplace_back(std::max(disturbance[k], before), k);
  }
  std::sort(ranked.begin(), ranked.end());
  std::size_t keep = (n + 3) / 4;
  while (keep < n && ranked[keep].first <= kQuietDisturbance) {
    ++keep;
  }
  std::vector<std::size_t> quiet;
  for (std::size_t k = 0; k < keep; ++k) {
    quiet.push_back(ranked[k].second);
  }
  std::sort(quiet.begin(), quiet.end());
  return quiet;
}

double PhaseResult::sliced_throughput() const {
  std::vector<double> rates;
  for (const std::size_t k : quiet_slices()) {
    rates.push_back(static_cast<double>(answered_slices[k]) / slice_s);
  }
  return quantile_of(std::move(rates), 0.75);
}

double PhaseResult::sliced_latency_us(double q) const {
  std::vector<double> values;
  for (const std::size_t k : quiet_slices()) {
    if (latency_slices[k].count() > 0) {
      values.push_back(latency_slices[k].quantile(q) / 1e3);
    }
  }
  return quantile_of(std::move(values), 0.25);
}

double PhaseResult::mean_disturbance() const {
  double sum = 0.0;
  for (const double d : disturbance) {
    sum += d;
  }
  return disturbance.empty() ? 0.0
                             : sum / static_cast<double>(disturbance.size());
}

double PhaseResult::quiet_disturbance() const {
  const std::vector<std::size_t> quiet = quiet_slices();
  double sum = 0.0;
  for (const std::size_t k : quiet) {
    sum += disturbance[k];
  }
  return quiet.empty() ? 0.0 : sum / static_cast<double>(quiet.size());
}

}  // namespace perfbench
