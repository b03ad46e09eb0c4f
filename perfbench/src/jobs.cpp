#include "jobs.hpp"

#include <cstdio>
#include <stdexcept>

#include "core/workloads.hpp"
#include "data/synthetic.hpp"

namespace perfbench {

using namespace selsync;

namespace {

/// Per-worker steps of one measured run. Short runs give many samples in a
/// measuring window, so their median shrugs off bursts of host noise. Each
/// BSP step at N=1024 runs the shared allreduce over all ranks and takes
/// about a second; 500 SelSync steps still cover ten evals and give an LSSR
/// inside the paper's 0.73-0.97 band.
constexpr uint64_t kDesIterations = 2;
constexpr uint64_t kSelSyncIterations = 500;

/// The tiny job of the fig1a measured sweep (engine_sweep_job in
/// bench/fig1a_scaling.cpp): a resnet-MLP with 16 inputs, 16 hidden units
/// and one block (about 1K parameters), batch 8, final eval only. Compute
/// is negligible, so the collectives and the event loop do the work.
BenchJob des_bsp_n1024(uint64_t seed) {
  constexpr size_t kWorkers = 1024;
  SyntheticClassConfig data_cfg;
  data_cfg.train_samples = kWorkers * 8;
  data_cfg.test_samples = 128;
  data_cfg.classes = 10;
  data_cfg.feature_dim = 16;
  data_cfg.seed = seed;
  const SyntheticClassData data = make_synthetic_classification(data_cfg);

  BenchJob b;
  b.lanes = 1;
  b.batch = 8;
  b.width_in = 16;
  b.width_out = 16;
  TrainJob& job = b.job;
  job.strategy = StrategyKind::kBsp;
  job.engine = EngineKind::kDes;
  job.workers = kWorkers;
  job.batch_size = 8;
  job.max_iterations = kDesIterations;
  job.eval_interval = 1000;
  job.seed = seed;
  job.train_data = data.train;
  job.test_data = data.test;
  job.model_factory = [](uint64_t model_seed) {
    ClassifierConfig cfg;
    cfg.input_dim = 16;
    cfg.classes = 10;
    cfg.hidden = 16;
    cfg.resnet_blocks = 1;
    return make_resnet_mlp(cfg, model_seed);
  };
  job.optimizer_factory = [] {
    return std::make_unique<Sgd>(std::make_shared<ConstantLr>(0.05),
                                 SgdOptions{.momentum = 0.9});
  };
  return b;
}

/// The ResNet101 analogue of make_job on 4 workers (one per core): SelSync
/// with parameter aggregation at delta 0.03, shared backend, eval every 50
/// steps. The data has the shape of workload_resnet()'s, drawn from `seed`.
BenchJob selsync_n4(uint64_t seed, TransportKind transport) {
  SyntheticClassConfig data_cfg;
  data_cfg.train_samples = 4096;
  data_cfg.test_samples = 768;
  data_cfg.classes = 10;
  data_cfg.feature_dim = 48;
  data_cfg.class_separation = 2.0;
  data_cfg.noise_stddev = 1.0;
  data_cfg.seed = seed;
  const SyntheticClassData data = make_synthetic_classification(data_cfg);

  Workload w = workload_resnet();
  w.train = data.train;
  w.test = data.test;

  BenchJob b;
  b.lanes = 4;
  b.batch = w.batch_size;
  b.width_in = 48;
  b.width_out = 48;
  b.job = make_job(w, StrategyKind::kSelSync, 4, kSelSyncIterations);
  b.job.seed = seed;
  b.job.selsync.delta = 0.03;
  b.job.selsync.aggregation = AggregationMode::kParameters;
  b.job.transport = transport;
  return b;
}

uint64_t fnv1a(uint64_t h, const void* data, size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

BenchJob make_bench_job(const std::string& name, uint64_t seed) {
  if (name == "des-bsp-n1024") return des_bsp_n1024(seed);
  if (name == "threads-selsync-n4")
    return selsync_n4(seed, TransportKind::kInproc);
  if (name == "tcp-selsync-n4") return selsync_n4(seed, TransportKind::kTcp);
  throw std::invalid_argument("unknown workload: " + name);
}

std::string run_digest(const TrainResult& result) {
  uint64_t history = 0xcbf29ce484222325ULL;
  for (const EvalPoint& p : result.eval_history) {
    history = fnv1a(history, &p.iteration, sizeof p.iteration);
    for (double v : {p.epoch, p.sim_time_s, p.loss, p.top1, p.top5,
                     p.perplexity})
      history = fnv1a(history, &v, sizeof v);
  }
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "iterations=%llu sync=%llu local=%llu sim_time_s=%a "
                "loss=%a top1=%a history=%016llx",
                static_cast<unsigned long long>(result.iterations),
                static_cast<unsigned long long>(result.sync_steps),
                static_cast<unsigned long long>(result.local_steps),
                result.sim_time_s, result.final_eval.loss,
                result.final_eval.top1,
                static_cast<unsigned long long>(history));
  return buf;
}

}  // namespace perfbench
