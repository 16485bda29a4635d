#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

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
  uint64_t Hash() const;
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

/// Outcome of a stale-tolerant lookup (LookupStale).
struct StaleLookupResult {
  /// The entry (fresh or stale); nullopt on a true miss.
  std::optional<ResultCacheValue> value;
  /// True when `value` is TTL-expired but within the stale window — the
  /// caller should surface it flagged as stale.
  bool stale = false;
  /// True for exactly one caller per stale episode: that caller owns kicking
  /// off the background refresh. Reset by the next Insert on the key, or by
  /// ClearRefreshPending if the refresh could not run.
  bool refresh_owner = false;
};

/// One cached result as exported for the persistence journal: the full key,
/// the value, and the TTL remaining at export time (0 = immortal). Negative
/// entries and expired entries are never exported — a restart must not
/// resurrect a cached failure or extend a deadline.
struct ResultCacheExport {
  ResultCacheKey key;
  ResultCacheValue value;
  double ttl_seconds = 0.0;
};

/// Monotonic counters; a snapshot type so callers can diff two points in
/// time.
struct ResultCacheStats {
  uint64_t hits = 0;           ///< positive entries served
  uint64_t negative_hits = 0;  ///< cached failures served (failure backoff)
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  uint64_t expired = 0;   ///< entries dropped because their TTL elapsed
  uint64_t rejected = 0;  ///< entries larger than a whole shard's byte budget
  uint64_t stale_served = 0;  ///< expired entries served inside a stale window
  size_t bytes_in_use = 0;  ///< charged bytes resident at snapshot time

  uint64_t lookups() const { return hits + negative_hits + misses; }
  double hit_rate() const {
    const uint64_t n = lookups();
    return n == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(n);
  }
};

/// \brief Sharded LRU cache for workload results.
///
/// Each shard owns a mutex, an intrusive LRU list, and a hash map, so
/// concurrent lookups on different keys mostly touch different locks. The
/// capacity is split evenly across shards; eviction is LRU per shard.
/// Entries may carry a TTL (0 = immortal): an expired entry is dropped on
/// the lookup that discovers it (counted in `expired`) and the lookup
/// proceeds as a miss. Negative entries (non-OK value status) are how the
/// engine backs off a hot failing key; they are served like hits but
/// counted separately (`negative_hits`).
///
/// Admission is size-aware when `max_bytes` > 0: every entry is charged its
/// real payload bytes (EntryBytes — a top-k entry carrying k ranked targets
/// costs ~k× an s-t scalar), the byte budget is split across shards like the
/// entry capacity, and a shard evicts LRU entries until *both* its entry and
/// byte budgets hold. An entry larger than a whole shard's byte budget is
/// rejected outright (counted in `rejected`) — admitting it would flush the
/// shard for an entry that cannot amortize.
class ResultCache {
 public:
  /// `capacity` = total entries across all shards (>= 1 enforced);
  /// `num_shards` is rounded up to a power of two; `max_bytes` = total
  /// charged-byte budget across all shards (0 = unlimited, entry-count
  /// eviction only). `registry` (optional, not owned, must outlive the
  /// cache) receives the result_cache_* instruments so one engine-wide
  /// scrape covers the cache; when nullptr a private registry is owned.
  explicit ResultCache(size_t capacity, size_t num_shards = 8,
                       size_t max_bytes = 0,
                       obs::MetricsRegistry* registry = nullptr);

  /// Charged bytes for caching `value`: the entry framing plus the ranked-
  /// target payload and any status message.
  static size_t EntryBytes(const ResultCacheValue& value);

  /// Returns the cached value and refreshes its recency, or nullopt.
  /// A returned value with non-OK `status` is a negative entry (cached
  /// failure). `record_stats` = false makes the probe invisible to Stats() —
  /// for internal double-checks (the engine's single-flight rendezvous
  /// re-probes under its flight lock) that would otherwise count one
  /// user-level query as two lookups.
  std::optional<ResultCacheValue> Lookup(const ResultCacheKey& key,
                                         bool record_stats = true);

  /// True when a live (unexpired) entry exists for `key`. Touches neither
  /// recency nor stats and copies no payload — a pure probe, for the
  /// engine's load-shedding gate deciding whether a query can be served
  /// without a worker.
  bool Contains(const ResultCacheKey& key) const;

  /// Stale-while-revalidate lookup. Fresh entries behave exactly like
  /// Lookup(). A TTL-expired *positive* entry whose deadline elapsed less
  /// than `max_stale_seconds` ago is served anyway with `stale` set, and the
  /// first such observer gets `refresh_owner` = true (the entry's pending
  /// flag debounces the refresh to one owner per stale episode). Because
  /// every cached payload is content-derived and immutable, a stale entry is
  /// byte-identical to what recomputation would produce — staleness here is
  /// purely a TTL-policy fact, not a data-freshness risk. Negative entries
  /// are never stale-served (a cached failure must not outlive its backoff);
  /// past the stale window the entry is dropped and the lookup is a miss.
  StaleLookupResult LookupStale(const ResultCacheKey& key,
                                double max_stale_seconds,
                                bool record_stats = true);

  /// Releases the refresh-pending flag on `key`, re-arming LookupStale to
  /// elect a new refresh owner. For owners whose background refresh could
  /// not be scheduled (pool saturated / shutting down).
  void ClearRefreshPending(const ResultCacheKey& key);

  /// Inserts (or refreshes) `value` under `key`, evicting the shard's LRU
  /// entry if the shard is full. `ttl_seconds` > 0 puts a deadline on the
  /// entry; 0 means it never expires. Values carrying a *transient* failure
  /// status (Unavailable / DeadlineExceeded / Cancelled) are refused:
  /// caching "try again later" as a negative entry would convert a momentary
  /// condition into a sticky failure.
  void Insert(const ResultCacheKey& key, const ResultCacheValue& value,
              double ttl_seconds = 0.0);

  /// Snapshot of every live *positive* entry for the persistence journal
  /// (shard by shard, most-recent first within a shard). Negative entries
  /// (cached failures) are excluded — their backoff must not survive a
  /// restart — and TTL'd entries carry their remaining TTL; entries past
  /// their deadline are skipped (a const probe; nothing is reaped).
  std::vector<ResultCacheExport> ExportEntries() const;

  /// Drops every entry (stats are kept).
  void Clear();

  ResultCacheStats Stats() const;
  size_t size() const;
  size_t capacity() const { return capacity_; }
  /// Total charged-byte budget (0 = unlimited).
  size_t max_bytes() const { return max_bytes_; }
  /// Charged bytes currently resident across all shards.
  size_t bytes_in_use() const;
  size_t num_shards() const { return shards_.size(); }

 private:
  /// Key paired with its precomputed hash: Hash() runs once per cache
  /// operation (shard pick + map probe reuse it).
  struct HashedKey {
    ResultCacheKey key;
    uint64_t hash;
  };
  struct Entry {
    HashedKey key;
    ResultCacheValue value;
    /// Expiry deadline as an absolute StopwatchNs::Now() reading;
    /// meaningful only when `expires` is true.
    uint64_t deadline_ns = 0;
    bool expires = false;
    /// A stale-while-revalidate refresh is already owned for this entry.
    bool refresh_pending = false;
    /// Charged bytes (EntryBytes at insertion), subtracted on removal.
    size_t bytes = 0;
  };
  struct KeyHash {
    size_t operator()(const HashedKey& k) const {
      return static_cast<size_t>(k.hash);
    }
  };
  struct KeyEq {
    bool operator()(const HashedKey& a, const HashedKey& b) const {
      return a.key == b.key;
    }
  };
  struct Shard {
    std::mutex mutex;
    std::list<Entry> lru;  ///< front = most recent
    std::unordered_map<HashedKey, std::list<Entry>::iterator, KeyHash, KeyEq>
        index;
    size_t capacity = 0;
    /// Byte budget (0 = unlimited) and current charge.
    size_t byte_budget = 0;
    size_t bytes = 0;
  };

  Shard& ShardFor(uint64_t hash) {
    return *shards_[hash & (shards_.size() - 1)];
  }

  /// Removes `it`'s entry from `shard` (caller holds the shard mutex).
  void RemoveEntry(Shard& shard,
                   std::unordered_map<HashedKey, std::list<Entry>::iterator,
                                      KeyHash, KeyEq>::iterator it);

  size_t capacity_;
  size_t max_bytes_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Private fallback when no shared registry was handed in.
  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  obs::Counter* hits_;
  obs::Counter* negative_hits_;
  obs::Counter* misses_;
  obs::Counter* insertions_;
  obs::Counter* evictions_;
  obs::Counter* expired_;
  obs::Counter* rejected_;
  obs::Counter* stale_served_;
  /// Live charged-byte occupancy, mirrored for scrapes (the exact value is
  /// still summed from the shards in Stats()).
  obs::Gauge* bytes_gauge_;
};

}  // namespace relcomp
