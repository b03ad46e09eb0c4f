#include "trace.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <stdexcept>

#include "core/replica.hpp"

namespace perfbench {

using namespace selsync;

namespace {

/// Owns every thread's buffer for the life of the process, so a thread's
/// cached pointer never dangles and a finished thread's spans survive it.
struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<SpanSet>> buffers;  // guarded by mu
};

Registry& registry() {
  static Registry r;
  return r;
}

SpanSet& thread_buffer() {
  thread_local SpanSet* mine = nullptr;
  if (!mine) {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.buffers.push_back(std::make_unique<SpanSet>());
    mine = r.buffers.back().get();
  }
  return *mine;
}

class Span {
 public:
  explicit Span(SpanKind kind)
      : kind_(kind), start_(std::chrono::steady_clock::now()) {}
  ~Span() {
    const std::chrono::duration<float, std::micro> d =
        std::chrono::steady_clock::now() - start_;
    record_span(kind_, d.count());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanKind kind_;
  std::chrono::steady_clock::time_point start_;
};

class TimedModel final : public Model {
 public:
  explicit TimedModel(std::unique_ptr<Model> inner)
      : inner_(std::move(inner)) {}

  float train_step(const Batch& batch) override {
    Span span(SpanKind::kTrainStep);
    return inner_->train_step(batch);
  }
  EvalStats eval_batch(const Batch& batch) override {
    Span span(SpanKind::kEvalBatch);
    return inner_->eval_batch(batch);
  }
  void set_training(bool training) override { inner_->set_training(training); }
  bool is_language_model() const override {
    return inner_->is_language_model();
  }

 protected:
  void collect_model_params(std::vector<Param*>& out) override {
    const std::vector<Param*>& inner = inner_->params();
    out.insert(out.end(), inner.begin(), inner.end());
  }

 private:
  std::unique_ptr<Model> inner_;
};

class TimedDataset final : public Dataset {
 public:
  explicit TimedDataset(DatasetPtr inner) : inner_(std::move(inner)) {}

  size_t size() const override { return inner_->size(); }
  Batch make_batch(const std::vector<size_t>& indices) const override {
    Span span(SpanKind::kMakeBatch);
    return inner_->make_batch(indices);
  }
  int label_of(size_t index) const override { return inner_->label_of(index); }
  size_t num_classes() const override { return inner_->num_classes(); }
  size_t sample_bytes() const override { return inner_->sample_bytes(); }

 private:
  DatasetPtr inner_;
};

void write_report(const std::string& dir, const ChildReport& report) {
  const std::string path =
      dir + "/child-" + std::to_string(::getpid()) + ".bin";
  std::ofstream out(path + ".tmp", std::ios::binary);
  auto put = [&out](const void* p, size_t n) {
    out.write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
  };
  const uint64_t rank = report.rank;
  const int64_t rss = report.max_rss_kb;
  put(&rank, sizeof rank);
  put(&rss, sizeof rss);
  for (const std::vector<float>& v : report.spans) {
    const uint64_t n = v.size();
    put(&n, sizeof n);
    put(v.data(), n * sizeof(float));
  }
  out.close();
  if (!out) throw std::runtime_error("cannot write " + path + ".tmp");
  std::filesystem::rename(path + ".tmp", path);
}

ChildReport read_report(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  auto get = [&in](void* p, size_t n) {
    in.read(static_cast<char*>(p), static_cast<std::streamsize>(n));
  };
  ChildReport report;
  uint64_t rank = 0;
  int64_t rss = 0;
  get(&rank, sizeof rank);
  get(&rss, sizeof rss);
  report.rank = rank;
  report.max_rss_kb = rss;
  for (std::vector<float>& v : report.spans) {
    uint64_t n = 0;
    get(&n, sizeof n);
    if (!in || n > (uint64_t{1} << 28))
      throw std::runtime_error("corrupt child report " + path.string());
    v.resize(n);
    get(v.data(), n * sizeof(float));
  }
  if (!in) throw std::runtime_error("truncated child report " + path.string());
  return report;
}

}  // namespace

long own_max_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

void record_span(SpanKind kind, float micros) {
  thread_buffer()[static_cast<size_t>(kind)].push_back(micros);
}

SpanSet take_spans() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  SpanSet out;
  for (const std::unique_ptr<SpanSet>& buffer : r.buffers) {
    merge_spans(out, std::move(*buffer));
    for (std::vector<float>& v : *buffer) v.clear();
  }
  return out;
}

void merge_spans(SpanSet& into, SpanSet&& from) {
  for (size_t k = 0; k < kSpanKinds; ++k)
    into[k].insert(into[k].end(), from[k].begin(), from[k].end());
}

TrainJob traced_job(const TrainJob& job) {
  TrainJob out = job;
  out.model_factory = [inner = job.model_factory](uint64_t seed) {
    return std::unique_ptr<Model>(std::make_unique<TimedModel>(inner(seed)));
  };
  out.train_data = std::make_shared<TimedDataset>(job.train_data);
  out.test_data = std::make_shared<TimedDataset>(job.test_data);
  return out;
}

void report_children_to(TrainJob& job, const std::string& dir) {
  job.tcp.child_main = [dir](const TrainJob& child_job, size_t rank,
                             uint16_t port) {
    // The child's buffers are copies of the parent's at fork time.
    take_spans();
    serve_tcp_worker(child_job, rank, "127.0.0.1", port);
    ChildReport report;
    report.rank = rank;
    report.spans = take_spans();
    report.max_rss_kb = own_max_rss_kb();
    write_report(dir, report);
  };
}

std::vector<ChildReport> collect_child_reports(const std::string& dir) {
  std::vector<ChildReport> out;
  std::vector<std::filesystem::path> done;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".bin") continue;
    out.push_back(read_report(entry.path()));
    done.push_back(entry.path());
  }
  for (const auto& path : done) std::filesystem::remove(path);
  return out;
}

}  // namespace perfbench
