// Layer probes: direct calls into one layer's public functions at the
// workload's exact shapes (its N, its parameter count P, its Linear widths).
#pragma once

#include <string>
#include <vector>

#include "jobs.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Runs every probe at `bench`'s shapes. Starts and joins its own threads
/// and forks only through open_transport, so call it while no other thread
/// of the process runs.
std::vector<Metric> run_probes(const BenchJob& bench);

/// Median of `v` (0 when empty).
double median(std::vector<double> v);

}  // namespace perfbench
