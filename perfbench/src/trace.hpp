// Span recording for the traced benchmark run.
//
// The benchmark records spans from its own files only: decorators wrap the
// job's injection seams (TrainJob::model_factory, train_data, test_data) and
// time each call into the nn and data layers. The program itself is not
// instrumented.
//
// Each host thread appends to its own buffer (the registry hands one out on
// the thread's first span), so the hot path takes no lock. On the thread
// engine that is one buffer per rank; on the DES engine every rank runs on
// the one host thread; on the tcp transport each forked replica records into
// its copy of the buffers and writes them to a file when it exits.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "core/config.hpp"

namespace perfbench {

enum class SpanKind : size_t { kTrainStep, kEvalBatch, kMakeBatch, kCount };
inline constexpr size_t kSpanKinds = static_cast<size_t>(SpanKind::kCount);

/// Span durations in microseconds, one vector per kind.
using SpanSet = std::array<std::vector<float>, kSpanKinds>;

/// Appends one span to the calling thread's buffer.
void record_span(SpanKind kind, float micros);

/// Moves every thread's spans out and clears the buffers. Call only while
/// no worker thread is running (between run_training calls).
SpanSet take_spans();

/// Appends `from` to `into`, kind by kind.
void merge_spans(SpanSet& into, SpanSet&& from);

/// The job with its model factory and datasets wrapped in timing
/// decorators. The wrapped model exposes the inner model's params() in the
/// same order, so the run's outputs are unchanged.
selsync::TrainJob traced_job(const selsync::TrainJob& job);

/// Peak resident set of the calling process, in KiB.
long own_max_rss_kb();

/// What a forked tcp replica reports back when it exits.
struct ChildReport {
  size_t rank = 0;
  long max_rss_kb = 0;
  SpanSet spans;
};

/// Installs a TcpTransportConfig::child_main that runs the default replica
/// body (serve_tcp_worker) and then writes a ChildReport into `dir`.
void report_children_to(selsync::TrainJob& job, const std::string& dir);

/// Reads and deletes every ChildReport file in `dir`.
std::vector<ChildReport> collect_child_reports(const std::string& dir);

}  // namespace perfbench
