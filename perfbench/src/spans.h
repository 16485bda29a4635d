#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/timer.h"

namespace perfbench {

/// \brief The layer boundaries the traced run records, each named
/// "<layer>.<call>" after the public function the span times.
enum class SpanName : uint8_t {
  kRunBatch = 0,       ///< engine.run_batch: one closed-loop client call
  kReplayQuery,        ///< replay.query: the bare-layer replay of one query
  kPrepare,            ///< reliability.prepare: PrepareForNextQuery
  kEstimate,           ///< reliability.estimate: s-t DispatchWorkload
  kSweep,              ///< reliability.sweep: EstimateFromSource
  kDistance,           ///< reliability.distance: distance DispatchWorkload
  kIndexBuild,         ///< reliability.index_build: MakeEstimator
  kResultLookup,       ///< engine.result_cache.lookup
  kResultInsert,       ///< engine.result_cache.insert
  kSweepLookup,        ///< engine.sweep_cache.lookup
  kFlush,              ///< persist.flush: QueryEngine::FlushWarmState
  kSnapshotOpen,       ///< persist.snapshot_open: SnapshotReader::Open
  kCrc32c,             ///< common.crc32c: Crc32c over one buffer
  kFillBernoulli,      ///< common.fill_bernoulli: FillBernoulliWords
  kHistogramRecord,    ///< obs.histogram_record: a batch of Record calls
  kMakeDataset,        ///< graph.make_dataset: MakeDataset
  kAdjacencyScan,      ///< graph.adjacency_scan: every OutEdges range once
  kGenerateQueries,    ///< eval.generate_queries: GenerateQueries
};
inline constexpr size_t kNumSpanNames =
    static_cast<size_t>(SpanName::kGenerateQueries) + 1;

const char* SpanNameString(SpanName name);

inline constexpr uint64_t kNoSpan = 0;
inline constexpr uint64_t kNoQuery = ~uint64_t{0};

struct Span {
  uint64_t id = kNoSpan;
  uint64_t parent = kNoSpan;
  /// Stream index of the query the span serves; the engine call and the
  /// replay of one query share it. kNoQuery for layer probes.
  uint64_t query = kNoQuery;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  SpanName name = SpanName::kRunBatch;
};

/// \brief The spans of one thread, kept in memory until the run ends. A
/// full log drops further spans and counts them.
class SpanLog {
 public:
  SpanLog(uint32_t log_id, size_t capacity);

  /// Opens a span; returns its id, or kNoSpan when the log is full.
  uint64_t Begin(SpanName name, uint64_t parent, uint64_t query);
  void End(uint64_t id);

  /// Records a span whose interval was timed by the caller.
  uint64_t Add(SpanName name, uint64_t parent, uint64_t query,
               uint64_t start_ns, uint64_t end_ns);

  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

 private:
  uint64_t log_id_;
  size_t capacity_;
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
};

/// RAII span; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, SpanName name, uint64_t parent = kNoSpan,
             uint64_t query = kNoQuery)
      : log_(log), id_(log == nullptr ? kNoSpan : log->Begin(name, parent, query)) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  SpanLog* log_;
  uint64_t id_;
};

/// Self time of every span of one name: its duration minus the part its
/// child spans cover.
struct SpanSummary {
  uint64_t count = 0;
  double self_p50_ns = 0.0;
  double self_total_ns = 0.0;
};

/// Summaries indexed by SpanName, over the spans of every log.
std::vector<SpanSummary> SummarizeSpans(const std::vector<const SpanLog*>& logs);

/// Writes every span as one tab-separated line (id, parent, query, name,
/// start_ns, end_ns) under a header.
relcomp::Status WriteSpans(const std::vector<const SpanLog*>& logs,
                           const std::string& path);

}  // namespace perfbench
