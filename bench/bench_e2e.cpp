// End-to-end serving benchmark: the full network edge, measured from the
// client side of a real TCP connection.
//
// bench_serving.cpp measures the in-process serving layer (submit() to
// future); this bench adds everything a deployment actually pays for —
// frame encode/decode, kernel socket buffers, the event loops and their
// completion hand-off, response ordering — by driving src/net/ NetServer
// over loopback with the src/net/ Client. Four load shapes plus one
// correctness gate:
//
//   steady  — closed loop: N clients each keep a fixed window of
//             requests in flight and measure per-request round-trip
//             latency from their own clock. Throughput is the classic
//             saturating closed-loop number.
//   burst   — open loop: requests are sent on a precomputed schedule
//             (tight bursts every interval) and latency is measured from
//             the *scheduled* send instant, not the actual one, so a
//             stalled sender cannot hide queueing delay
//             (coordinated-omission aware).
//   diurnal — open loop with a sinusoidal arrival-rate ramp across the
//             run: the smallest honest stand-in for a day of traffic
//             against an autoscaling-free fixed shard count.
//   idle    — the C10K shape: 1,000 connections (200 with --quick) that
//             read their Hello and then sit idle, plus 4 bursty clients
//             that pipeline bursts of requests with idle gaps between.
//             Reports the bursty clients' requests/s and p50/p99 ns, and
//             the server's thread count with every connection open. It
//             is also a GATE: the bench exits 1 if opening the idle
//             connections added more than 2 threads to the server.
//   drain   — closed-loop load with a mid-flight NetServer::shutdown().
//             This is a GATE, not a measurement: the bench exits 1
//             unless every request the server accepted was answered on
//             the wire (stats().requests_submitted ==
//             stats().responses_written with zero write failures), and
//             emits answered_frac (deterministically 1.0) so CI compares
//             it structurally and exactly.
//
//   ./bench_e2e [--trials N] [--quick]   # --quick: CI smoke sizing
//
// Writes BENCH_e2e.json (schema nacu-bench-e2e-v1): one record per
// (shape, clients) cell — requests/s and client-observed p50/p99 ns, plus
// server_threads on the idle cell, which is keyed by its 4 bursty
// clients — plus the drain gate record. Machine-dependent metrics are --ignore'd
// by CI but required structurally via bench_compare.py --require-metric
// (see docs/BENCHMARKS.md).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <latch>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "core/batch_nacu.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "serve/server.hpp"

namespace {

using namespace nacu;
using Function = core::BatchNacu::Function;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kElemsPerRequest = 8;
constexpr std::size_t kWindow = 16;  ///< closed-loop in-flight per client

/// The serving configuration under the edge: the sharded adaptive-batching
/// mode bench_serving.cpp showed winning, sized so the edge (not the
/// datapath) is what this bench exercises.
serve::ServerOptions serving_options() {
  serve::ServerOptions options;
  options.shards = 2;
  options.work_stealing = true;
  options.batcher.max_batch = 256;
  options.batcher.max_wait = std::chrono::microseconds{50};
  options.batcher.queue_capacity = 1 << 16;
  return options;
}

std::vector<fp::Fixed> make_input(const fp::Format& fmt) {
  std::vector<fp::Fixed> input;
  input.reserve(kElemsPerRequest);
  for (std::size_t i = 0; i < kElemsPerRequest; ++i) {
    const std::int64_t raw =
        fmt.min_raw() +
        static_cast<std::int64_t>(
            (i * 1031) %
            static_cast<std::size_t>(fmt.max_raw() - fmt.min_raw() + 1));
    input.push_back(fp::Fixed::from_raw(raw, fmt));
  }
  return input;
}

struct Cell {
  double requests_per_s = 0.0;
  std::uint64_t p50_ns = 0;
  std::uint64_t p99_ns = 0;
};

Cell summarize(std::vector<std::uint64_t>& latencies, double secs) {
  Cell cell;
  if (latencies.empty() || secs <= 0.0) {
    return cell;
  }
  std::sort(latencies.begin(), latencies.end());
  const auto at = [&](double q) {
    const auto idx = static_cast<std::size_t>(
        q * static_cast<double>(latencies.size()));
    return latencies[std::min(idx, latencies.size() - 1)];
  };
  cell.requests_per_s = static_cast<double>(latencies.size()) / secs;
  cell.p50_ns = at(0.50);
  cell.p99_ns = at(0.99);
  return cell;
}

// --- steady: closed loop -------------------------------------------------

/// N clients, each a windowed closed loop over its own connection:
/// keep kWindow requests pipelined, time each send→response round trip.
Cell run_steady(std::uint16_t port, std::size_t clients,
                std::size_t requests_per_client, const fp::Format& fmt) {
  const std::vector<fp::Fixed> input = make_input(fmt);
  std::vector<std::vector<std::uint64_t>> latencies(clients);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  const auto start = Clock::now();
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      net::Client client{port};
      if (!client.valid()) {
        return;
      }
      latencies[c].reserve(requests_per_client);
      std::deque<Clock::time_point> sent_at;
      std::size_t sent = 0;
      std::size_t answered = 0;
      while (answered < requests_per_client) {
        while (sent < requests_per_client && sent_at.size() < kWindow) {
          const auto f = static_cast<Function>((c + sent) % 3);
          if (client.send_submit(f, input) == 0) {
            return;  // connection gone; this client contributes nothing
          }
          sent_at.push_back(Clock::now());
          ++sent;
        }
        const auto response = client.read_response();
        if (!response.has_value() || !response->ok()) {
          return;
        }
        latencies[c].push_back(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - sent_at.front())
                .count()));
        sent_at.pop_front();
        ++answered;
      }
      client.close_send();
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  const double secs =
      std::chrono::duration<double>(Clock::now() - start).count();
  std::vector<std::uint64_t> all;
  for (auto& v : latencies) {
    all.insert(all.end(), v.begin(), v.end());
  }
  return summarize(all, secs);
}

// --- burst / diurnal: open loop ------------------------------------------

/// Open-loop run over a precomputed per-client arrival schedule (ns from
/// start). Each client splits into a sender thread (fires requests at
/// their scheduled instants — or as soon after as the socket allows) and
/// a reader thread; the two halves of the Client touch disjoint state
/// (send path / receive path), which is the one concurrent use the class
/// supports. Latency is measured from the SCHEDULED instant, so send-side
/// stalls count as latency instead of silently thinning the load
/// (coordinated omission).
Cell run_open(std::uint16_t port, std::size_t clients,
              const std::vector<std::int64_t>& schedule_ns,
              const fp::Format& fmt) {
  const std::vector<fp::Fixed> input = make_input(fmt);
  std::vector<std::vector<std::uint64_t>> latencies(clients);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  const auto start = Clock::now();
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      net::Client client{port};
      if (!client.valid()) {
        return;
      }
      std::thread sender{[&] {
        for (std::size_t i = 0; i < schedule_ns.size(); ++i) {
          std::this_thread::sleep_until(
              start + std::chrono::nanoseconds{schedule_ns[i]});
          const auto f = static_cast<Function>((c + i) % 3);
          if (client.send_submit(f, input) == 0) {
            return;
          }
        }
      }};
      latencies[c].reserve(schedule_ns.size());
      for (std::size_t i = 0; i < schedule_ns.size(); ++i) {
        const auto response = client.read_response();
        if (!response.has_value() || !response->ok()) {
          break;
        }
        const auto intended =
            start + std::chrono::nanoseconds{schedule_ns[i]};
        latencies[c].push_back(static_cast<std::uint64_t>(std::max<
            std::int64_t>(
            0, std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - intended)
                   .count())));
      }
      sender.join();
      client.close_send();
      while (client.read_response().has_value()) {
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  const double secs =
      std::chrono::duration<double>(Clock::now() - start).count();
  std::vector<std::uint64_t> all;
  for (auto& v : latencies) {
    all.insert(all.end(), v.begin(), v.end());
  }
  return summarize(all, secs);
}

/// Bursts of @p burst requests back to back every @p interval.
std::vector<std::int64_t> burst_schedule(std::size_t total, std::size_t burst,
                                         std::chrono::nanoseconds interval) {
  std::vector<std::int64_t> schedule;
  schedule.reserve(total);
  std::int64_t t = 0;
  while (schedule.size() < total) {
    for (std::size_t k = 0; k < burst && schedule.size() < total; ++k) {
      schedule.push_back(t);
    }
    t += interval.count();
  }
  return schedule;
}

/// Sinusoidal rate ramp: rate(t) = base * (1 + 0.8 sin(2πt/period)), one
/// full period across the run — the trough-to-peak-to-trough "day".
std::vector<std::int64_t> diurnal_schedule(std::size_t total,
                                           double base_rate_per_s,
                                           std::chrono::nanoseconds period) {
  std::vector<std::int64_t> schedule;
  schedule.reserve(total);
  double t_s = 0.0;
  const double period_s =
      std::chrono::duration<double>(period).count();
  for (std::size_t i = 0; i < total; ++i) {
    schedule.push_back(static_cast<std::int64_t>(t_s * 1e9));
    const double rate =
        base_rate_per_s *
        (1.0 + 0.8 * std::sin(2.0 * M_PI * t_s / period_s));
    t_s += 1.0 / std::max(rate, 1.0);
  }
  return schedule;
}

// --- idle: the C10K shape -------------------------------------------------

/// The process's thread count (/proc/self/status "Threads:"), 0 if unread.
std::size_t process_threads() {
  std::ifstream status{"/proc/self/status"};
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::stoul(line.substr(8));
    }
  }
  return 0;
}

struct IdleCell {
  Cell cell;
  std::size_t server_threads = 0;  ///< with every connection open
  bool threads_flat = false;  ///< idle connections added <= 2 threads
};

/// @p idle connections that read their Hello and then sit open, plus
/// @p bursty clients, each sending @p bursts bursts of kWindow pipelined
/// requests with a 1 ms pause between bursts. Latency is per request from
/// its send; requests/s counts the pauses. The server's threads are the
/// process's minus this bench's own (main + bursty clients), sampled once
/// every connection is open and the bursty clients are running.
IdleCell run_idle(std::uint16_t port, std::size_t idle, std::size_t bursty,
                  std::size_t bursts, const fp::Format& fmt) {
  IdleCell out;
  const std::size_t own_threads = 1 + bursty;
  const std::size_t threads_before = process_threads() - 1;
  std::vector<std::unique_ptr<net::Client>> sleepers;
  sleepers.reserve(idle);
  for (std::size_t i = 0; i < idle; ++i) {
    sleepers.push_back(std::make_unique<net::Client>(port));
  }
  const std::vector<fp::Fixed> input = make_input(fmt);
  std::vector<std::vector<std::uint64_t>> latencies(bursty);
  std::latch connected{static_cast<std::ptrdiff_t>(bursty)};
  std::vector<std::thread> threads;
  const auto start = Clock::now();
  for (std::size_t c = 0; c < bursty; ++c) {
    threads.emplace_back([&, c] {
      net::Client client{port};
      connected.count_down();
      if (!client.valid()) {
        return;
      }
      std::deque<Clock::time_point> sent_at;
      for (std::size_t b = 0; b < bursts; ++b) {
        for (std::size_t k = 0; k < kWindow; ++k) {
          if (client.send_submit(static_cast<Function>((c + k) % 3), input) ==
              0) {
            return;
          }
          sent_at.push_back(Clock::now());
        }
        for (std::size_t k = 0; k < kWindow; ++k) {
          const auto response = client.read_response();
          if (!response.has_value() || !response->ok()) {
            return;
          }
          latencies[c].push_back(static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  Clock::now() - sent_at.front())
                  .count()));
          sent_at.pop_front();
        }
        std::this_thread::sleep_for(std::chrono::milliseconds{1});
      }
    });
  }
  connected.wait();
  out.server_threads = process_threads() - own_threads;
  out.threads_flat = out.server_threads <= threads_before + 2;
  for (std::thread& t : threads) {
    t.join();
  }
  const double secs =
      std::chrono::duration<double>(Clock::now() - start).count();
  std::size_t valid = 0;
  for (const auto& sleeper : sleepers) {
    valid += sleeper->valid() ? 1 : 0;
  }
  out.threads_flat = out.threads_flat && valid == idle;
  std::vector<std::uint64_t> all;
  for (auto& v : latencies) {
    all.insert(all.end(), v.begin(), v.end());
  }
  out.cell = summarize(all, secs);
  return out;
}

// --- drain: the correctness gate ------------------------------------------

/// Closed-loop load with a shutdown fired mid-flight. Returns true when
/// the drain guarantee held ON THE WIRE: the server wrote a response for
/// every request it accepted (clients keep their sockets open until EOF,
/// so nothing can be excused as a write failure).
bool run_drain_gate(const core::NacuConfig& config, std::size_t clients,
                    benchjson::Writer& writer) {
  serve::InferenceServer inference{config, serving_options()};
  net::NetServer server{inference};
  const std::vector<fp::Fixed> input = make_input(config.format);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  std::vector<std::size_t> answered(clients, 0);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      net::Client client{server.port()};
      if (!client.valid()) {
        return;
      }
      std::size_t in_flight = 0;
      bool sending = true;
      while (true) {
        while (sending && in_flight < kWindow) {
          if (client.send_submit(static_cast<Function>(in_flight % 3),
                                 input) == 0) {
            sending = false;
            break;
          }
          ++in_flight;
        }
        const auto response = client.read_response();
        if (!response.has_value()) {
          break;  // EOF: the server drained us and closed
        }
        ++answered[c];
        if (in_flight > 0) {
          --in_flight;
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds{200});
  server.shutdown();
  for (std::thread& t : threads) {
    t.join();
  }
  const net::NetServer::Stats stats = server.stats();
  const serve::InferenceServer::Counters counters = inference.counters();
  const bool wire_drained = stats.write_failures == 0 &&
                            stats.requests_submitted == stats.responses_written;
  const bool serve_drained = counters.accepted == counters.completed;
  const double answered_frac =
      stats.requests_submitted == 0
          ? 0.0
          : static_cast<double>(stats.responses_written) /
                static_cast<double>(stats.requests_submitted);
  std::printf(
      "  drain   %4zu clients: accepted %llu, answered on wire %llu "
      "(answered_frac %.3f) -> %s\n",
      clients, static_cast<unsigned long long>(stats.requests_submitted),
      static_cast<unsigned long long>(stats.responses_written), answered_frac,
      wire_drained && serve_drained ? "OK" : "FAILED");
  writer.add(benchjson::Record{}
                 .add("bench", "e2e_drain")
                 .add("clients", clients)
                 .add("answered_frac", answered_frac));
  return wire_drained && serve_drained && stats.requests_submitted > 0;
}

void add_cell(benchjson::Writer& writer, const char* shape,
              std::size_t clients, const Cell& cell) {
  writer.add(benchjson::Record{}
                 .add("bench", std::string{"e2e_"} + shape)
                 .add("clients", clients)
                 .add("requests_per_s", cell.requests_per_s)
                 .add("p50_ns", static_cast<std::size_t>(cell.p50_ns))
                 .add("p99_ns", static_cast<std::size_t>(cell.p99_ns)));
}

void print_cell(const char* shape, std::size_t clients, const Cell& cell) {
  std::printf("  %-7s %4zu clients: %9.0f req/s   p50 %8lluns   p99 %8lluns\n",
              shape, clients, cell.requests_per_s,
              static_cast<unsigned long long>(cell.p50_ns),
              static_cast<unsigned long long>(cell.p99_ns));
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t trials = 3;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg{argv[i]};
    if (arg == "--trials" && i + 1 < argc) {
      const long parsed = std::strtol(argv[++i], nullptr, 10);
      if (parsed > 0) {
        trials = static_cast<std::size_t>(parsed);
      }
    } else if (arg == "--quick") {
      quick = true;
    }
  }
  const core::NacuConfig config = core::config_for_bits(16);
  benchjson::Writer writer{"nacu-bench-e2e-v1"};
  std::printf("End-to-end TCP serving (%zu-element requests, window %zu, "
              "best of %zu%s)\n\n",
              kElemsPerRequest, kWindow, trials, quick ? ", quick" : "");

  // One server instance per shape keeps the shapes independent; steady
  // trials share one server (a trial is a fresh set of connections).
  const std::vector<std::size_t> steady_clients =
      quick ? std::vector<std::size_t>{1, 4} : std::vector<std::size_t>{1, 4, 8};
  const std::size_t steady_requests = quick ? 200 : 2000;
  {
    serve::InferenceServer inference{config, serving_options()};
    net::NetServer server{inference};
    for (const std::size_t clients : steady_clients) {
      Cell best;
      for (std::size_t t = 0; t < trials; ++t) {
        const Cell cell = run_steady(server.port(), clients, steady_requests,
                                     config.format);
        if (cell.requests_per_s > best.requests_per_s) {
          best = cell;
        }
      }
      print_cell("steady", clients, best);
      add_cell(writer, "steady", clients, best);
    }
    server.shutdown();
  }

  const std::size_t open_clients = 4;
  const std::size_t open_requests = quick ? 150 : 1500;
  {
    serve::InferenceServer inference{config, serving_options()};
    net::NetServer server{inference};
    const std::vector<std::int64_t> schedule = burst_schedule(
        open_requests, 32, std::chrono::milliseconds{quick ? 10 : 20});
    const Cell cell = run_open(server.port(), open_clients, schedule,
                               config.format);
    print_cell("burst", open_clients, cell);
    add_cell(writer, "burst", open_clients, cell);
    server.shutdown();
  }
  {
    serve::InferenceServer inference{config, serving_options()};
    net::NetServer server{inference};
    const auto period = std::chrono::milliseconds{quick ? 300 : 2000};
    const double base_rate =
        static_cast<double>(open_requests) /
        std::chrono::duration<double>(period).count();
    const std::vector<std::int64_t> schedule =
        diurnal_schedule(open_requests, base_rate, period);
    const Cell cell = run_open(server.port(), open_clients, schedule,
                               config.format);
    print_cell("diurnal", open_clients, cell);
    add_cell(writer, "diurnal", open_clients, cell);
    server.shutdown();
  }

  bool idle_flat = false;
  {
    serve::InferenceServer inference{config, serving_options()};
    net::NetServer server{inference};
    const std::size_t idle = quick ? 200 : 1000;
    const IdleCell idle_cell = run_idle(server.port(), idle, 4,
                                        quick ? 50 : 200, config.format);
    print_cell("idle", idle, idle_cell.cell);
    std::printf("  idle    server threads with %zu connections open: %zu "
                "-> %s\n",
                idle + 4, idle_cell.server_threads,
                idle_cell.threads_flat ? "OK" : "FAILED");
    // Keyed by the 4 bursty clients, so the --quick run (200 idle) and
    // the full baseline (1,000 idle) compare as one record.
    writer.add(benchjson::Record{}
                   .add("bench", "e2e_idle")
                   .add("clients", std::size_t{4})
                   .add("requests_per_s", idle_cell.cell.requests_per_s)
                   .add("p50_ns", static_cast<std::size_t>(idle_cell.cell.p50_ns))
                   .add("p99_ns", static_cast<std::size_t>(idle_cell.cell.p99_ns))
                   .add("server_threads", idle_cell.server_threads));
    idle_flat = idle_cell.threads_flat;
    server.shutdown();
  }

  const bool drained = run_drain_gate(config, 4, writer);

  if (!writer.write("BENCH_e2e.json")) {
    std::fprintf(stderr, "error: could not write BENCH_e2e.json\n");
    return 1;
  }
  std::printf("\nwrote BENCH_e2e.json\n");
  if (!drained) {
    std::fprintf(stderr,
                 "error: drain gate failed — accepted requests went "
                 "unanswered on the wire\n");
    return 1;
  }
  if (!idle_flat) {
    std::fprintf(stderr,
                 "error: idle gate failed — idle connections cost server "
                 "threads (or could not connect)\n");
    return 1;
  }
  return 0;
}
