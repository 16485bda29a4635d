#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "engine/lru_cache.h"
#include "graph/uncertain_graph.h"
#include "obs/metrics.h"
#include "reliability/estimator_factory.h"

namespace relcomp {

/// \brief Identity of one memoized per-source reliability sweep.
///
/// `seed` is the engine's *sweep seed* — derived from the source (not from
/// k or eta, and not from the workload tag), so every top-k(s, ·) and
/// reliable-set(s, ·) query over one source maps to the same key. For BFS
/// Sharing the seed also determines the index generation the sweep ran over
/// (the engine re-arms with a tagged derivative of it), which is why the key
/// needs no separate generation field.
struct SweepCacheKey {
  EstimatorKind kind = EstimatorKind::kMonteCarlo;
  NodeId source = kInvalidNode;
  uint32_t num_samples = 0;
  uint64_t seed = 0;

  bool operator==(const SweepCacheKey& other) const {
    return kind == other.kind && source == other.source &&
           num_samples == other.num_samples && seed == other.seed;
  }

  /// SplitMix-chained hash over every field.
  uint64_t Hash() const {
    uint64_t h = HashCombineSeed(seed, static_cast<uint64_t>(kind));
    h = HashCombineSeed(h, source);
    return HashCombineSeed(h, num_samples);
  }
};

using SweepVector = std::shared_ptr<const std::vector<double>>;

/// Per-value rules of the sweep cache (see CacheValueTraits): a sweep is
/// charged its payload doubles, a null sweep is refused, and no sweep is
/// negative.
template <>
struct CacheValueTraits<SweepVector> {
  static size_t Bytes(const SweepVector& sweep) {
    return sweep == nullptr ? 0 : sweep->size() * sizeof(double);
  }
  static bool Admit(const SweepVector& sweep) { return sweep != nullptr; }
  static bool Negative(const SweepVector&) { return false; }
};

using SweepCacheStats = LruCacheStats;

/// \brief Size-aware LRU memo of per-source reliability sweeps.
///
/// One sweep is n doubles — orders of magnitude heavier than a scalar result
/// entry — so the cache is LruCache with one shard, no entry cap and a byte
/// budget: it evicts least-recently-used sweeps until the budget holds, and
/// rejects a sweep larger than the whole budget. Sweeps never expire. Values
/// are handed out as `shared_ptr<const>` so eviction never invalidates a
/// reader mid-derivation.
class SweepCache : public LruCache<SweepCacheKey, SweepVector> {
 public:
  /// `max_bytes` counts payload bytes (vector data); >= 1 enforced.
  /// Instruments are named `sweep_cache_*`.
  explicit SweepCache(size_t max_bytes,
                      obs::MetricsRegistry* registry = nullptr)
      : LruCache("sweep_cache", std::numeric_limits<size_t>::max(),
                 /*num_shards=*/1, max_bytes == 0 ? 1 : max_bytes, registry) {}

  /// Returns the memoized sweep and refreshes its recency, or nullptr.
  SweepVector Lookup(const SweepCacheKey& key, bool record_stats = true) {
    return LruCache::Lookup(key, record_stats).value_or(nullptr);
  }
};

/// One warm sweep as exported for the persistence journal.
using SweepCacheExport = SweepCache::Exported;

}  // namespace relcomp
