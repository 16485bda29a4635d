#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "stats.h"

namespace perfbench {

const char* SpanNameString(SpanName name) {
  static const char* const kNames[kNumSpanNames] = {
      "engine.run_batch",
      "replay.query",
      "reliability.prepare",
      "reliability.estimate",
      "reliability.sweep",
      "reliability.distance",
      "reliability.index_build",
      "engine.result_cache.lookup",
      "engine.result_cache.insert",
      "engine.sweep_cache.lookup",
      "persist.flush",
      "persist.snapshot_open",
      "common.crc32c",
      "common.fill_bernoulli",
      "obs.histogram_record",
      "graph.make_dataset",
      "graph.adjacency_scan",
      "eval.generate_queries",
  };
  return kNames[static_cast<size_t>(name)];
}

SpanLog::SpanLog(uint32_t log_id, size_t capacity)
    : log_id_(log_id), capacity_(capacity) {
  spans_.reserve(capacity);
}

uint64_t SpanLog::Begin(SpanName name, uint64_t parent, uint64_t query) {
  return Add(name, parent, query, relcomp::StopwatchNs::Now(), 0);
}

void SpanLog::End(uint64_t id) {
  if (id == kNoSpan) return;
  spans_[(id & 0xffffffffULL) - 1].end_ns = relcomp::StopwatchNs::Now();
}

uint64_t SpanLog::Add(SpanName name, uint64_t parent, uint64_t query,
                      uint64_t start_ns, uint64_t end_ns) {
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return kNoSpan;
  }
  Span span;
  span.id = (log_id_ << 32) | (spans_.size() + 1);
  span.parent = parent;
  span.query = query;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.name = name;
  spans_.push_back(span);
  return span.id;
}

std::vector<SpanSummary> SummarizeSpans(
    const std::vector<const SpanLog*>& logs) {
  // Children never overlap one another (a span's children run on its own
  // thread, one after the other), so their summed durations are the part of
  // the parent they cover.
  std::unordered_map<uint64_t, uint64_t> child_ns;
  for (const SpanLog* log : logs) {
    for (const Span& span : log->spans()) {
      if (span.parent != kNoSpan) {
        child_ns[span.parent] += span.end_ns - span.start_ns;
      }
    }
  }
  std::vector<std::vector<double>> self(kNumSpanNames);
  for (const SpanLog* log : logs) {
    for (const Span& span : log->spans()) {
      const uint64_t duration = span.end_ns - span.start_ns;
      const auto it = child_ns.find(span.id);
      const uint64_t covered = it == child_ns.end() ? 0 : it->second;
      self[static_cast<size_t>(span.name)].push_back(
          static_cast<double>(duration - std::min(duration, covered)));
    }
  }
  std::vector<SpanSummary> summaries(kNumSpanNames);
  for (size_t n = 0; n < kNumSpanNames; ++n) {
    SpanSummary& summary = summaries[n];
    summary.count = self[n].size();
    for (const double ns : self[n]) summary.self_total_ns += ns;
    summary.self_p50_ns = Quantile(self[n], 0.5);
  }
  return summaries;
}

relcomp::Status WriteSpans(const std::vector<const SpanLog*>& logs,
                           const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return relcomp::Status::IOError("cannot write spans to " + path);
  }
  std::fprintf(file, "id\tparent\tquery\tname\tstart_ns\tend_ns\n");
  for (const SpanLog* log : logs) {
    for (const Span& span : log->spans()) {
      std::fprintf(file, "%llu\t%llu\t%lld\t%s\t%llu\t%llu\n",
                   static_cast<unsigned long long>(span.id),
                   static_cast<unsigned long long>(span.parent),
                   span.query == kNoQuery ? -1LL
                                          : static_cast<long long>(span.query),
                   SpanNameString(span.name),
                   static_cast<unsigned long long>(span.start_ns),
                   static_cast<unsigned long long>(span.end_ns));
    }
  }
  if (std::fclose(file) != 0) {
    return relcomp::Status::IOError("cannot finish writing " + path);
  }
  return relcomp::Status::OK();
}

}  // namespace perfbench
