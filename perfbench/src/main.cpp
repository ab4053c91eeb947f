// NACU serving benchmark: the command-line entry point.
//
//   nacu_perfbench --workload <wire_small|wire_open_mixed|inproc_bulk>
//                  --seed <n> --seconds <s> --trace <0|1> [--trace-file <path>]
//
// --trace 0 measures the end-to-end metrics; --trace 1 makes a separate
// traced run that peels the same request stream layer by layer and reports
// the per-layer metrics, writing its spans as Chrome-trace JSON. The last
// line of stdout is the JSON result. Exit code 0 means every answer was
// bit-exact; 1 a wrong answer or an error; 2 bad arguments; 3 the run
// overran its time limit.
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <string_view>
#include <thread>

#include "workloads.hpp"

namespace {

using namespace perfbench;

constexpr std::chrono::seconds kTimeLimit{170};

bool parse(int argc, char** argv, Args& args) {
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag{argv[i]};
    const std::string value{argv[i + 1]};
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0) || args.seconds > 120.0) {
        return false;
      }
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      args.trace = value == "1";
    } else if (flag == "--trace-file") {
      args.trace_file = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && have_trace && args.seconds > 0.0 &&
         !args.workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <wire_small|wire_open_mixed|"
                 "inproc_bulk> --seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-file <path>]\n",
                 argv[0]);
    return 2;
  }
  int (*run)(const Args&) = nullptr;
  if (args.workload == "wire_small") {
    run = run_wire_small;
  } else if (args.workload == "wire_open_mixed") {
    run = run_wire_open_mixed;
  } else if (args.workload == "inproc_bulk") {
    run = run_inproc_bulk;
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  if (args.trace && args.trace_file.empty()) {
    args.trace_file = ".bench_build/perfbench/trace-" + args.workload + ".json";
  }

  // A hung layer must not hang the benchmark: past the limit, report and
  // exit without a result.
  std::mutex mutex;
  std::condition_variable done_cv;
  bool done = false;
  std::thread watchdog{[&] {
    std::unique_lock lock{mutex};
    if (!done_cv.wait_for(lock, kTimeLimit, [&] { return done; })) {
      std::fprintf(stderr, "perfbench: run exceeded %lld s\n",
                   static_cast<long long>(kTimeLimit.count()));
      std::_Exit(3);
    }
  }};

  std::printf("perfbench %s seed %llu seconds %g trace %d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  int code = 1;
  try {
    code = run(args);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    code = 1;
  }
  {
    std::lock_guard lock{mutex};
    done = true;
  }
  done_cv.notify_one();
  watchdog.join();
  return code;
}
