#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "graph/datasets.h"
#include "reliability/estimator_factory.h"
#include "reliability/workload.h"

namespace perfbench {

/// The graph is fixed: a run's inputs vary only through the workload seed,
/// so the spread across seeds measures the query mix, not the graph.
inline constexpr uint64_t kDatasetSeed = 1;

/// \brief One benchmark workload: the graph, the engine configuration and
/// the shape of the query stream the closed-loop clients send.
struct WorkloadSpec {
  std::string_view name;
  relcomp::DatasetId dataset;
  relcomp::EstimatorKind kind;
  uint32_t num_samples = 1000;
  uint32_t num_strata = 1;
  /// Serve with persist_dir set: set-up restarts from a published snapshot
  /// and the warm journal is flushed while queries run.
  bool persist = false;
  /// Stream queries sent, untimed, before the timed phase starts.
  uint64_t warmup_queries = 0;
  /// The timed phase runs on past its time (up to 3x) until this many calls
  /// completed: enough for p99 and for the oracle's sample.
  uint64_t min_timed_calls = 0;
  /// rss_peak_mb is read when the timed phase completes this many calls, so
  /// it measures the memory a fixed amount of serving takes, not how much a
  /// run got through (caches and per-call records grow with each query).
  uint64_t rss_at_calls = 0;
  /// Distinct scalar answers the accuracy oracle checks: the first ones in
  /// stream order, all sent by any run that completes its minimum calls.
  uint32_t oracle_sample = 0;
};

/// st-distinct, mixed-zipf, bfs-restart (in that order).
const std::vector<WorkloadSpec>& AllWorkloads();

/// nullptr for an unknown name.
const WorkloadSpec* FindWorkload(std::string_view name);

/// \brief The deterministic query stream of one workload: query `index` is a
/// pure function of (workload, graph, seed, index), so every run with one
/// seed sends the same queries in the same order, however many it gets
/// through in its time.
class QueryStream {
 public:
  static relcomp::Result<QueryStream> Make(const WorkloadSpec& spec,
                                           const relcomp::UncertainGraph& graph,
                                           uint64_t seed);

  relcomp::EngineQuery At(uint64_t index) const;

  /// Queries the stream can hand out before it runs dry (a stream of
  /// distinct queries is finite).
  uint64_t size() const { return size_; }

 private:
  enum class Shape { kDistinct, kZipf, kList };

  relcomp::EngineQuery ColdItem(uint64_t index) const;

  Shape shape_ = Shape::kDistinct;
  uint64_t seed_ = 0;
  uint64_t size_ = 0;
  /// Every s-t pair at hop distance 2-3, shuffled: st-distinct's queries and
  /// mixed-zipf's cold scalar queries.
  std::vector<relcomp::ReliabilityQuery> fresh_pairs_;
  /// eval/query_gen's GenerateMixedWorkload output: mixed-zipf's hot
  /// catalogue (by rank) and bfs-restart's whole stream.
  std::vector<relcomp::EngineQuery> catalogue_;
  /// mixed-zipf: cumulative popularity of catalogue rank r.
  std::vector<double> zipf_cdf_;
  /// mixed-zipf: sources of the catalogue's sweep-kind queries, whose sweeps
  /// the warm-up caches.
  std::vector<relcomp::NodeId> swept_sources_;
};

}  // namespace perfbench
