#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "engine/lru_cache.h"
#include "graph/uncertain_graph.h"
#include "obs/metrics.h"
#include "reliability/estimator_factory.h"
#include "reliability/workload.h"

namespace relcomp {

/// \brief Full identity of a cacheable workload result. Two engine calls
/// with equal keys are guaranteed (by the determinism contract of Estimator)
/// to produce bit-identical answers, so serving one from cache is
/// semantically invisible. The workload tag lives inside `query`, so two
/// workload kinds over the same nodes can never collide.
struct ResultCacheKey {
  EngineQuery query;
  EstimatorKind kind = EstimatorKind::kMonteCarlo;
  uint32_t num_samples = 0;
  uint64_t seed = 0;

  bool operator==(const ResultCacheKey& other) const {
    return query == other.query && kind == other.kind &&
           num_samples == other.num_samples && seed == other.seed;
  }

  /// SplitMix-chained hash over every field (workload tag included); also
  /// selects the shard.
  uint64_t Hash() const {
    uint64_t h = HashWorkloadQuery(seed, query);
    h = HashCombineSeed(h, static_cast<uint64_t>(kind));
    return HashCombineSeed(h, num_samples);
  }
};

/// \brief Cached payload: either a successful answer (scalar reliability for
/// st/distance, ranked targets for top-k/reliable-set, plus the sample count
/// consumed) or — when `status` is non-OK — a cached estimator failure
/// (negative caching: a hot failing key stops recomputing on every miss).
struct ResultCacheValue {
  ResultCacheValue() = default;
  /// Scalar payload (st / distance answers); status OK, no targets.
  ResultCacheValue(double reliability, uint32_t num_samples)
      : reliability(reliability), num_samples(num_samples) {}

  double reliability = 0.0;
  uint32_t num_samples = 0;
  /// Non-OK marks a negative entry; the payload fields are meaningless then.
  Status status;
  /// Top-k / reliable-set answers.
  std::vector<ReliableTarget> targets;

  bool negative() const { return !status.ok(); }
};

/// Per-value rules of the result cache (see CacheValueTraits).
template <>
struct CacheValueTraits<ResultCacheValue> {
  /// ResultCache::EntryBytes.
  static size_t Bytes(const ResultCacheValue& value);
  /// Transient failures (Unavailable / DeadlineExceeded / Cancelled) are
  /// refused: they describe the attempt, not the key, and negative-caching
  /// one would make a momentary condition sticky for the backoff TTL.
  static bool Admit(const ResultCacheValue& value) {
    return !IsTransientStatusCode(value.status.code());
  }
  static bool Negative(const ResultCacheValue& value) {
    return value.negative();
  }
};

using ResultCacheStats = LruCacheStats;

/// \brief Sharded LRU cache for workload results.
///
/// Positive answers carry no deadline: they are content-deterministic, so
/// an entry never goes stale. Negative entries (non-OK value status) are how
/// the engine backs off a hot failing key; they are inserted with the
/// backoff TTL, served like hits but counted separately (`negative_hits`),
/// and never exported to the journal.
///
/// Admission is size-aware when `max_bytes` > 0: every entry is charged its
/// real payload bytes (EntryBytes — a top-k entry carrying k ranked targets
/// costs ~k× an s-t scalar).
class ResultCache : public LruCache<ResultCacheKey, ResultCacheValue> {
 public:
  /// `capacity` = total entries across all shards; `num_shards` and
  /// `max_bytes` (0 = unlimited) as in LruCache. Instruments are named
  /// `result_cache_*`.
  explicit ResultCache(size_t capacity, size_t num_shards = 8,
                       size_t max_bytes = 0,
                       obs::MetricsRegistry* registry = nullptr)
      : LruCache("result_cache", capacity, num_shards, max_bytes, registry) {}

  /// Charged bytes for caching `value`: the entry framing plus the ranked-
  /// target payload and any status message.
  static size_t EntryBytes(const ResultCacheValue& value) {
    return sizeof(Entry) + value.targets.size() * sizeof(ReliableTarget) +
           value.status.message().size();
  }
};

/// One cached result as exported for the persistence journal.
using ResultCacheExport = ResultCache::Exported;

inline size_t CacheValueTraits<ResultCacheValue>::Bytes(
    const ResultCacheValue& value) {
  return ResultCache::EntryBytes(value);
}

}  // namespace relcomp
