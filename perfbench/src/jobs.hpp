// The benchmark's three workloads and the digest that checks their outputs.
#pragma once

#include <cstdint>
#include <string>

#include "core/config.hpp"
#include "core/metrics.hpp"

namespace perfbench {

/// One workload: the job run_training executes, built from the seed.
struct BenchJob {
  selsync::TrainJob job;
  /// Host threads the ranks' compute runs on: 1 under DES (all fibers share
  /// the calling thread), N under the thread engine and the tcp transport.
  size_t lanes = 1;
  /// Rows of the dominant Linear layer's activations, its in and out width.
  size_t batch = 0, width_in = 0, width_out = 0;
};

/// Synthesizes the workload's data from `seed` and builds the job. Throws
/// std::invalid_argument on an unknown name.
BenchJob make_bench_job(const std::string& name, uint64_t seed);

/// Everything the output check compares, as one string. Doubles print as
/// hex floats, so equal strings mean bit-identical outputs.
std::string run_digest(const selsync::TrainResult& result);

}  // namespace perfbench
