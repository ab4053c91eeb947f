// The benchmark's workloads. Each runs one seeded request stream against a
// freshly built stack, prints its metrics and the JSON result line, and
// returns the process exit code.
#pragma once

#include <cstdio>
#include <stdexcept>

#include "stack.hpp"

namespace perfbench {

/// Workloads measure their --seconds in this many rounds, each on a freshly
/// built stack with fresh load threads and connections, and report medians
/// over the quiet time slices of all rounds: one unlucky placement of the
/// server's threads on the host then does not set a run's figure.
inline constexpr std::size_t kRounds = 10;

int run_wire_small(const Args& args);
int run_wire_open_mixed(const Args& args);
int run_inproc_bulk(const Args& args);

}  // namespace perfbench
