// perfbench_runner: runs one benchmark workload through run_training and
// prints its metrics. perfbench/run.py builds it and is the entry point;
// see perfbench/README.md for the metrics and the workloads.
//
//   perfbench_runner --workload W --seed S --seconds T --trace 0|1
//                    --scratch DIR [--expect DIGEST]
//   perfbench_runner --workload W --seed S --digest [--iterations I]
//   perfbench_runner --workload W --seed S --wrapcheck [--iterations I]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// runs traced and untraced runs in turn and then the layer probes, and
// prints the per-layer metrics. Every run's outputs are checked: against
// --expect when given, else against the first run of the same job. The
// last stdout line is the result object; the line before it is a report
// with sample counts, percentiles and build metadata.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/trainer.hpp"
#include "jobs.hpp"
#include "probes.hpp"
#include "trace.hpp"
#include "util/json.hpp"

using namespace selsync;
using namespace perfbench;
using Clock = std::chrono::steady_clock;

namespace {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string scratch = ".";
  std::string expect;
  uint64_t iterations = 0;  // --digest/--wrapcheck; 0 = the workload's budget
  bool digest = false;
  bool wrapcheck = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "perfbench_runner: %s\n", why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") o.workload = value();
    else if (flag == "--seed") o.seed = std::stoull(value());
    else if (flag == "--seconds") o.seconds = std::stod(value());
    else if (flag == "--trace") o.trace = std::stoi(value());
    else if (flag == "--scratch") o.scratch = value();
    else if (flag == "--expect") o.expect = value();
    else if (flag == "--iterations") o.iterations = std::stoull(value());
    else if (flag == "--digest") o.digest = true;
    else if (flag == "--wrapcheck") o.wrapcheck = true;
    else usage("unknown flag " + flag);
  }
  if (o.workload.empty()) usage("--workload is required");
  if (o.trace != 0 && o.trace != 1) usage("--trace takes 0 or 1");
  return o;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU seconds (user + system) of this process and its reaped children.
double cpu_seconds() {
  double total = 0.0;
  for (int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage u{};
    getrusage(who, &u);
    total += static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
             1e-6 * static_cast<double>(u.ru_utime.tv_usec +
                                        u.ru_stime.tv_usec);
  }
  return total;
}

/// Highest of a fixed percentile ladder with at least ten samples above it;
/// returns {percentile, value}, or {0, 0} with fewer than 11 samples.
std::pair<double, double> tail(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (n * (1.0 - p / 100.0) < 10.0) continue;
    const size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
    return {p, v[std::max<size_t>(rank, 1) - 1]};
  }
  return {0.0, 0.0};
}

std::vector<double> widen(const std::vector<float>& v) {
  return {v.begin(), v.end()};
}

double sum(const std::vector<float>& v) {
  double s = 0.0;
  for (float x : v) s += x;
  return s;
}

/// Runs the job, checks its digest and keeps the books. The first run of a
/// checker sets its reference unless an expected digest was given.
class Checker {
 public:
  explicit Checker(std::string expect) : reference_(std::move(expect)) {}

  struct Run {
    bool ok = false;
    double wall_s = 0.0;
    TrainResult result;
  };

  Run run(const TrainJob& job) {
    ++attempted_;
    Run r;
    const Clock::time_point t0 = Clock::now();
    try {
      r.result = run_training(job);
      r.wall_s = seconds_since(t0);
      const std::string digest = run_digest(r.result);
      if (reference_.empty()) reference_ = digest;
      r.ok = digest == reference_;
      if (!r.ok)
        std::fprintf(stderr, "output check failed:\n  got    %s\n  wanted %s\n",
                     digest.c_str(), reference_.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "run failed: %s\n", e.what());
    }
    if (!r.ok) ++failed_;
    return r;
  }

  /// Adds another checker's attempts and failures to this one's.
  void absorb(const Checker& other) {
    attempted_ += other.attempted_;
    failed_ += other.failed_;
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::string& reference() const { return reference_; }

 private:
  std::string reference_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

struct Result {
  std::vector<Metric> metrics;
  JsonValue report = JsonValue::object();
};

void print_result(const Options& o, const Result& res, uint64_t attempted,
                  uint64_t failed) {
  JsonValue report = res.report;
  report.set("workload", o.workload);
  report.set("seed", static_cast<unsigned long long>(o.seed));
  report.set("trace", o.trace);
  report.set("build_type", PERFBENCH_BUILD_TYPE);
  report.set("cxx_flags", PERFBENCH_CXX_FLAGS);
  report.set("compiler", PERFBENCH_COMPILER);
  report.set("fail_frac", attempted ? static_cast<double>(failed) /
                                          static_cast<double>(attempted)
                                    : 1.0);
  std::printf("%s\n", report.dump().c_str());

  std::string line = "{\"correct\": ";
  line += failed == 0 && attempted > 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < res.metrics.size(); ++i) {
    const Metric& m = res.metrics[i];
    char value[40];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    line += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

uint64_t worker_steps(const BenchJob& b, const TrainResult& r) {
  return static_cast<uint64_t>(b.job.workers) * r.iterations;
}

/// --trace 0: set-up, a discarded warm-up, then timed runs for `seconds`.
Result measure(const Options& o, Checker& check) {
  BenchJob bench = make_bench_job(o.workload, o.seed);
  const bool tcp = bench.job.transport == TransportKind::kTcp;
  if (tcp) report_children_to(bench.job, o.scratch);

  // Set-up: synthesize the data, build and validate the job, and run it
  // for one iteration (replica construction, fiber or thread launch, and
  // on tcp the fork and Hello handshake).
  const size_t setups = bench.job.engine == EngineKind::kDes ? 5 : 7;
  Checker setup_check("");
  std::vector<double> setup_s;
  std::map<size_t, long> child_rss_kb;  // per rank, max over runs
  auto note_children = [&] {
    if (!tcp) return;
    for (const ChildReport& c : collect_child_reports(o.scratch))
      child_rss_kb[c.rank] = std::max(child_rss_kb[c.rank], c.max_rss_kb);
  };
  for (size_t i = 0; i < setups; ++i) {
    const Clock::time_point t0 = Clock::now();
    BenchJob b = make_bench_job(o.workload, o.seed);
    b.job.max_iterations = 1;
    if (tcp) report_children_to(b.job, o.scratch);
    b.job.validate();
    const Checker::Run r = setup_check.run(b.job);
    setup_s.push_back(seconds_since(t0));
    note_children();
    if (!r.ok) break;
  }

  check.run(bench.job);  // warm-up, discarded
  note_children();

  std::vector<double> steps_per_s;
  uint64_t steps = 0;
  const double cpu0 = cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  while (check.failed() == 0 && (steps_per_s.empty() ||
                                 seconds_since(t0) < o.seconds)) {
    const Checker::Run r = check.run(bench.job);
    note_children();
    if (!r.ok) break;
    steps += worker_steps(bench, r.result);
    steps_per_s.push_back(static_cast<double>(worker_steps(bench, r.result)) /
                          r.wall_s);
  }
  const double cpu = cpu_seconds() - cpu0;

  long rss_kb = own_max_rss_kb();
  for (const auto& [rank, kb] : child_rss_kb) rss_kb += kb;

  Result res;
  res.metrics = {
      {"steps_per_s", median(steps_per_s), "steps/s"},
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mb", static_cast<double>(rss_kb) / 1024.0, "MiB"},
      {"cpu_ms_per_step",
       steps ? cpu * 1e3 / static_cast<double>(steps) : 0.0, "ms"},
  };
  const auto [pct, tail_value] = tail(steps_per_s);
  JsonValue& rep = res.report;
  JsonValue samples = JsonValue::array();
  for (double sps : steps_per_s) samples.push(sps);
  rep.set("steps_per_s_runs", std::move(samples));
  // With fewer than 11 samples no percentile has ten samples beyond it.
  rep.set("steps_per_s_tail_pct", pct > 0.0 ? JsonValue(pct) : JsonValue());
  rep.set("steps_per_s_tail",
          pct > 0.0 ? JsonValue(tail_value) : JsonValue());
  rep.set("setup_samples", static_cast<unsigned long long>(setup_s.size()));
  rep.set("digest", check.reference());
  // Set-up runs are checked against each other and count as attempts.
  check.absorb(setup_check);
  return res;
}

/// --trace 1: untraced and traced runs in turn for `seconds` after a
/// discarded warm-up, then the layer probes at the workload's shapes.
Result trace(const Options& o, Checker& check) {
  BenchJob bench = make_bench_job(o.workload, o.seed);
  const bool tcp = bench.job.transport == TransportKind::kTcp;
  TrainJob plain = bench.job;
  TrainJob traced = traced_job(bench.job);
  if (tcp) {
    report_children_to(plain, o.scratch);
    report_children_to(traced, o.scratch);
  }
  // On tcp the replicas, and so the decorated model and datasets, live in
  // the forked workers; their spans come back in the child reports.
  auto drain = [&] {
    SpanSet spans = take_spans();
    if (tcp)
      for (ChildReport& c : collect_child_reports(o.scratch))
        merge_spans(spans, std::move(c.spans));
    return spans;
  };

  check.run(plain);  // warm-up, discarded
  drain();

  SpanSet spans;
  double traced_wall_s = 0.0;
  std::vector<double> plain_sps, traced_sps, measured_sync_s;
  TrainResult last;
  const Clock::time_point t0 = Clock::now();
  while (check.failed() == 0 &&
         (traced_sps.empty() || seconds_since(t0) < o.seconds)) {
    const Checker::Run p = check.run(plain);
    drain();
    if (!p.ok) break;
    plain_sps.push_back(
        static_cast<double>(worker_steps(bench, p.result)) / p.wall_s);
    const Checker::Run t = check.run(traced);
    merge_spans(spans, drain());
    if (!t.ok) break;
    traced_sps.push_back(
        static_cast<double>(worker_steps(bench, t.result)) / t.wall_s);
    traced_wall_s += t.wall_s;
    measured_sync_s.push_back(t.result.sync_cost.measured_sync_s);
    last = t.result;
  }

  Result res;
  std::vector<Metric>& m = res.metrics;
  const std::vector<float>& steps = spans[size_t(SpanKind::kTrainStep)];
  const std::vector<float>& evals = spans[size_t(SpanKind::kEvalBatch)];
  const std::vector<float>& batches = spans[size_t(SpanKind::kMakeBatch)];
  // Shares of the host time the ranks had: the traced runs' wall time on
  // each lane (one host thread under DES, one thread or process per rank
  // otherwise).
  const double lane_us =
      static_cast<double>(bench.lanes) * traced_wall_s * 1e6;
  auto share = [&](const std::vector<float>& v) {
    return lane_us > 0.0 ? sum(v) / lane_us : 0.0;
  };
  const auto [step_pct, step_tail] = tail(widen(steps));
  const double runs =
      static_cast<double>(std::max<size_t>(traced_sps.size(), 1));
  m.push_back({"nn.train_step.us", median(widen(steps)), "us"});
  m.push_back({"nn.train_step.tail_us", step_tail, "us"});
  m.push_back({"nn.train_step.calls",
               static_cast<double>(steps.size()) / runs, "count"});
  m.push_back({"nn.train_step.share", share(steps), "ratio"});
  m.push_back({"nn.eval.share", share(evals), "ratio"});
  m.push_back({"data.make_batch.us", median(widen(batches)), "us"});
  m.push_back({"data.make_batch.share", share(batches), "ratio"});
  m.push_back({"core.residual.share",
               1.0 - share(steps) - share(evals) - share(batches), "ratio"});
  m.push_back({"comm.wire.measured_sync_s", median(measured_sync_s), "s"});
  m.push_back({"comm.wire.frame_bytes", last.sync_cost.measured_wire_bytes,
               "bytes"});
  m.push_back({"core.sync_rounds", static_cast<double>(last.sync_steps),
               "count"});
  m.push_back({"core.lssr", last.lssr(), "ratio"});
  const double plain_median = median(plain_sps);
  m.push_back({"trace.overhead",
               plain_median > 0.0 ? 1.0 - median(traced_sps) / plain_median
                                  : 0.0,
               "ratio"});
  if (check.failed() == 0)
    for (Metric& probe : run_probes(bench)) m.push_back(std::move(probe));

  JsonValue& rep = res.report;
  rep.set("traced_runs", static_cast<unsigned long long>(traced_sps.size()));
  rep.set("untraced_steps_per_s", plain_median);
  rep.set("traced_steps_per_s", median(traced_sps));
  rep.set("train_step_tail_pct",
          step_pct > 0.0 ? JsonValue(step_pct) : JsonValue());
  rep.set("train_step_samples", static_cast<unsigned long long>(steps.size()));
  rep.set("digest", check.reference());
  return res;
}

/// --wrapcheck: the decorators must leave params() order and the run's
/// outputs unchanged.
int wrapcheck(const Options& o) {
  BenchJob bench = make_bench_job(o.workload, o.seed);
  if (o.iterations) bench.job.max_iterations = o.iterations;
  const TrainJob traced = traced_job(bench.job);

  std::unique_ptr<Model> plain_model = bench.job.model_factory(o.seed);
  std::unique_ptr<Model> traced_model = traced.model_factory(o.seed);
  const std::vector<Param*>& a = plain_model->params();
  const std::vector<Param*>& b = traced_model->params();
  bool params_equal = a.size() == b.size();
  for (size_t i = 0; params_equal && i < a.size(); ++i)
    params_equal = a[i]->name == b[i]->name &&
                   a[i]->value.shape() == b[i]->value.shape();
  params_equal = params_equal && plain_model->get_flat_params() ==
                                     traced_model->get_flat_params();

  const std::string plain_digest = run_digest(run_training(bench.job));
  const std::string traced_digest = run_digest(run_training(traced));
  const bool spans_recorded =
      !take_spans()[size_t(SpanKind::kTrainStep)].empty();

  JsonValue out = JsonValue::object();
  out.set("workload", o.workload);
  out.set("params", static_cast<unsigned long long>(a.size()));
  out.set("params_equal", params_equal);
  out.set("digest_equal", plain_digest == traced_digest);
  out.set("spans_recorded", spans_recorded);
  out.set("digest", plain_digest);
  std::printf("%s\n", out.dump().c_str());
  return params_equal && plain_digest == traced_digest && spans_recorded ? 0
                                                                         : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "perfbench_runner: built as %s; numbers are only reported "
                 "from the pinned Release build\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  try {
    if (o.wrapcheck) return wrapcheck(o);
    if (o.digest) {
      BenchJob bench = make_bench_job(o.workload, o.seed);
      if (o.iterations) bench.job.max_iterations = o.iterations;
      std::printf("%s\n", run_digest(run_training(bench.job)).c_str());
      return 0;
    }
    Checker check(o.expect);
    const Result res = o.trace ? trace(o, check) : measure(o, check);
    print_result(o, res, check.attempted(), check.failed());
    return check.failed() == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
    return 1;
  }
}
