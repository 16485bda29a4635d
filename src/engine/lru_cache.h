#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "common/timer.h"
#include "obs/metrics.h"

namespace relcomp {

/// Monotonic counters plus point-in-time occupancy of one LruCache; a
/// snapshot type so callers can diff two points in time.
struct LruCacheStats {
  uint64_t hits = 0;           ///< positive entries served
  uint64_t negative_hits = 0;  ///< cached failures served (failure backoff)
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  uint64_t expired = 0;   ///< entries dropped because their deadline elapsed
  uint64_t rejected = 0;  ///< entries larger than a whole shard's byte budget
  size_t bytes_in_use = 0;  ///< charged bytes resident at snapshot time
  size_t entries = 0;       ///< entries resident at snapshot time

  uint64_t lookups() const { return hits + negative_hits + misses; }
  double hit_rate() const {
    const uint64_t n = lookups();
    return n == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(n);
  }
};

/// Per-value rules of an LruCache, specialized once per cached value type:
/// - `static size_t Bytes(const Value&)` — the charge against the byte
///   budget;
/// - `static bool Admit(const Value&)` — false refuses the insert outright;
/// - `static bool Negative(const Value&)` — a cached failure: counted as a
///   negative hit when served, never exported.
template <class Value>
struct CacheValueTraits;

/// \brief Sharded, byte-budgeted LRU cache: the one implementation behind
/// ResultCache and SweepCache.
///
/// Each shard owns a mutex, an LRU list, and a hash map, so concurrent
/// operations on different keys mostly touch different locks. The entry
/// capacity and the byte budget are split evenly across shards; a shard
/// evicts LRU entries until *both* hold. An entry larger than a whole
/// shard's byte budget is rejected outright (counted in `rejected`) —
/// admitting it would flush the shard for an entry that cannot amortize.
/// An entry may carry a deadline (Insert's `ttl_seconds`): the lookup that
/// finds it elapsed drops it (counted in `expired`) and misses.
///
/// `Key` provides `operator==` and `uint64_t Hash() const`; `Value` has a
/// CacheValueTraits specialization.
template <class Key, class Value>
class LruCache {
 public:
  /// One entry as exported for the persistence journal.
  struct Exported {
    Key key;
    Value value;
  };

  /// `name` prefixes the instruments (`<name>_hits_total`, ...,
  /// `<name>_bytes`, `<name>_entries`). `capacity` = total entries across
  /// all shards (>= 1 enforced); `num_shards` is rounded up to a power of
  /// two, then down to at most `capacity`; `max_bytes` = total byte budget
  /// (0 = unlimited, entry-count eviction only). `registry` (optional, not
  /// owned, must outlive the cache) receives the instruments so one
  /// engine-wide scrape covers the cache; when nullptr a private registry
  /// is owned.
  LruCache(const std::string& name, size_t capacity, size_t num_shards,
           size_t max_bytes, obs::MetricsRegistry* registry)
      : capacity_(capacity == 0 ? 1 : capacity), max_bytes_(max_bytes) {
    if (registry == nullptr) {
      owned_registry_ = std::make_unique<obs::MetricsRegistry>();
      registry = owned_registry_.get();
    }
    hits_ = registry->GetCounter(name + "_hits_total");
    negative_hits_ = registry->GetCounter(name + "_negative_hits_total");
    misses_ = registry->GetCounter(name + "_misses_total");
    insertions_ = registry->GetCounter(name + "_insertions_total");
    evictions_ = registry->GetCounter(name + "_evictions_total");
    expired_ = registry->GetCounter(name + "_expired_total");
    rejected_ = registry->GetCounter(name + "_rejected_total");
    bytes_gauge_ = registry->GetGauge(name + "_bytes");
    entries_gauge_ = registry->GetGauge(name + "_entries");
    size_t shards = 1;
    while (shards < num_shards) shards <<= 1;
    // No more shards than entries, or some shards could never hold anything.
    while (shards > 1 && shards > capacity_) shards >>= 1;
    shards_.reserve(shards);
    for (size_t i = 0; i < shards; ++i) {
      auto shard = std::make_unique<Shard>();
      shard->capacity = capacity_ / shards + (i < capacity_ % shards ? 1 : 0);
      if (max_bytes_ > 0) {
        // A per-shard budget below the smallest possible charge would
        // reject every insert and silently disable the shard; floor it so
        // tiny budgets degrade to "hold one smallest entry" per shard.
        shard->byte_budget =
            std::max(max_bytes_ / shards + (i < max_bytes_ % shards ? 1 : 0),
                     Traits::Bytes(Value{}));
      }
      shards_.push_back(std::move(shard));
    }
  }

  /// Returns the cached value and refreshes its recency, or nullopt. A
  /// served negative entry counts as a negative hit. `record_stats` = false
  /// makes the probe invisible to Stats() — for the engine's under-lock
  /// double checks in its single-flight rendezvous, which would otherwise
  /// count one query as two lookups.
  std::optional<Value> Lookup(const Key& key, bool record_stats = true) {
    const HashedKey hashed{key, key.Hash()};
    Shard& shard = ShardFor(hashed.hash);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.index.find(hashed);
    if (it != shard.index.end() && Expired(*it->second)) {
      // Lazy expiry, counted even on uncounted probes: the entry really is
      // gone either way.
      RemoveEntry(shard, it);
      expired_->Inc();
      it = shard.index.end();
    }
    if (it == shard.index.end()) {
      if (record_stats) misses_->Inc();
      return std::nullopt;
    }
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    if (record_stats) {
      (Traits::Negative(it->second->value) ? negative_hits_ : hits_)->Inc();
    }
    return it->second->value;
  }

  /// True when a live (unexpired) entry exists for `key`. Touches neither
  /// recency nor stats and copies no payload — a pure probe, for the
  /// engine's load-shedding gate.
  bool Contains(const Key& key) const {
    const HashedKey hashed{key, key.Hash()};
    Shard& shard = ShardFor(hashed.hash);
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.index.find(hashed);
    return it != shard.index.end() && !Expired(*it->second);
  }

  /// Inserts (or replaces) `value` under `key`, then evicts LRU entries
  /// until the shard's budgets hold. `ttl_seconds` > 0 puts a deadline on
  /// the entry; 0 means it never expires, and so does a TTL beyond the
  /// clock's range (the deadline saturates). Values the traits refuse, and
  /// inserts hit by an injected allocation failure, are dropped — which the
  /// cache contract already allows (any entry may be evicted or rejected at
  /// any time), so correctness is unaffected.
  void Insert(const Key& key, Value value, double ttl_seconds = 0.0) {
    if (!Traits::Admit(value)) return;
    const HashedKey hashed{key, key.Hash()};
    if (FaultInjector::Global().enabled() &&
        FaultInjector::Global().ShouldInject(FaultSite::kAllocFailure,
                                             hashed.hash)) {
      return;
    }
    const size_t bytes = Traits::Bytes(value);
    const uint64_t deadline_ns = DeadlineAfter(ttl_seconds);
    Shard& shard = ShardFor(hashed.hash);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.index.find(hashed);
    if (shard.byte_budget > 0 && bytes > shard.byte_budget) {
      // The key's older incarnation is outdated next to the rejected one;
      // drop it rather than keep serving it.
      if (it != shard.index.end()) {
        RemoveEntry(shard, it);
        evictions_->Inc();
      }
      rejected_->Inc();
      return;
    }
    if (it != shard.index.end()) {
      Entry& entry = *it->second;
      shard.bytes = shard.bytes - entry.bytes + bytes;
      bytes_gauge_->Add(static_cast<double>(bytes) -
                        static_cast<double>(entry.bytes));
      entry.value = std::move(value);
      entry.deadline_ns = deadline_ns;
      entry.bytes = bytes;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    } else {
      shard.lru.push_front(Entry{hashed, std::move(value), deadline_ns, bytes});
      shard.index.emplace(hashed, shard.lru.begin());
      shard.bytes += bytes;
      bytes_gauge_->Add(static_cast<double>(bytes));
      entries_gauge_->Add(1.0);
      insertions_->Inc();
    }
    // The freshly touched entry is at the front and (having passed
    // admission) fits the byte budget alone, so the loop always stops
    // before evicting it.
    while ((shard.lru.size() > shard.capacity ||
            (shard.byte_budget > 0 && shard.bytes > shard.byte_budget)) &&
           shard.lru.size() > 1) {
      RemoveEntry(shard, shard.index.find(shard.lru.back().key));
      evictions_->Inc();
    }
  }

  /// Every live entry a restart may bring back, shard by shard, most
  /// recent first. Negative entries and entries carrying a deadline are
  /// skipped: a restart must not resurrect a cached failure or extend a
  /// deadline.
  std::vector<Exported> ExportEntries() const {
    std::vector<Exported> out;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mutex);
      for (const Entry& entry : shard->lru) {
        if (entry.deadline_ns != kNoDeadline || Traits::Negative(entry.value)) {
          continue;
        }
        out.push_back(Exported{entry.key.key, entry.value});
      }
    }
    return out;
  }

  /// Drops every entry (counters are kept).
  void Clear() {
    for (auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mutex);
      bytes_gauge_->Add(-static_cast<double>(shard->bytes));
      entries_gauge_->Add(-static_cast<double>(shard->lru.size()));
      shard->lru.clear();
      shard->index.clear();
      shard->bytes = 0;
    }
  }

  LruCacheStats Stats() const {
    LruCacheStats stats;
    stats.hits = hits_->Value();
    stats.negative_hits = negative_hits_->Value();
    stats.misses = misses_->Value();
    stats.insertions = insertions_->Value();
    stats.evictions = evictions_->Value();
    stats.expired = expired_->Value();
    stats.rejected = rejected_->Value();
    stats.bytes_in_use = bytes_in_use();
    stats.entries = size();
    return stats;
  }

  size_t size() const {
    size_t total = 0;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mutex);
      total += shard->lru.size();
    }
    return total;
  }

  /// Charged bytes currently resident across all shards.
  size_t bytes_in_use() const {
    size_t total = 0;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mutex);
      total += shard->bytes;
    }
    return total;
  }

  size_t capacity() const { return capacity_; }
  /// Total byte budget (0 = unlimited).
  size_t max_bytes() const { return max_bytes_; }
  size_t num_shards() const { return shards_.size(); }

 protected:
  static constexpr uint64_t kNoDeadline = std::numeric_limits<uint64_t>::max();

  /// Key paired with its precomputed hash: Hash() runs once per cache
  /// operation (shard pick and map probe reuse it).
  struct HashedKey {
    Key key;
    uint64_t hash;
  };
  struct Entry {
    HashedKey key;
    Value value;
    /// Absolute StopwatchNs::Now() reading; kNoDeadline = never expires.
    uint64_t deadline_ns = kNoDeadline;
    /// Traits::Bytes at insertion, subtracted on removal.
    size_t bytes = 0;
  };

 private:
  using Traits = CacheValueTraits<Value>;
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
  using Index = std::unordered_map<HashedKey,
                                   typename std::list<Entry>::iterator,
                                   KeyHash, KeyEq>;
  struct Shard {
    std::mutex mutex;
    std::list<Entry> lru;  ///< front = most recent
    Index index;
    size_t capacity = 0;
    /// Byte budget (0 = unlimited) and current charge.
    size_t byte_budget = 0;
    size_t bytes = 0;
  };

  /// `ttl_seconds` from now as an absolute deadline. No TTL (<= 0, NaN) and
  /// a TTL past the clock's range both saturate to kNoDeadline.
  static uint64_t DeadlineAfter(double ttl_seconds) {
    if (!(ttl_seconds > 0.0)) return kNoDeadline;
    const uint64_t now = StopwatchNs::Now();
    const uint64_t room = kNoDeadline - now;
    const double ttl_ns = ttl_seconds * 1e9;
    if (!(ttl_ns < static_cast<double>(room))) return kNoDeadline;
    return now + std::min(static_cast<uint64_t>(ttl_ns), room);
  }

  static bool Expired(const Entry& entry) {
    return entry.deadline_ns != kNoDeadline &&
           StopwatchNs::Now() >= entry.deadline_ns;
  }

  Shard& ShardFor(uint64_t hash) const {
    return *shards_[hash & (shards_.size() - 1)];
  }

  /// Removes `it`'s entry from `shard` (caller holds the shard mutex).
  void RemoveEntry(Shard& shard, typename Index::iterator it) {
    shard.bytes -= it->second->bytes;
    bytes_gauge_->Add(-static_cast<double>(it->second->bytes));
    entries_gauge_->Add(-1.0);
    shard.lru.erase(it->second);
    shard.index.erase(it);
  }

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
  /// Live occupancy, mirrored for scrapes (Stats() sums the shards).
  obs::Gauge* bytes_gauge_;
  obs::Gauge* entries_gauge_;
};

}  // namespace relcomp
