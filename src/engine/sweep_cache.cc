#include "engine/sweep_cache.h"

#include <utility>

#include "common/fault_injection.h"
#include "common/rng.h"

namespace relcomp {

uint64_t SweepCacheKey::Hash() const {
  uint64_t h = HashCombineSeed(seed, static_cast<uint64_t>(kind));
  h = HashCombineSeed(h, source);
  h = HashCombineSeed(h, num_samples);
  return h;
}

SweepCache::SweepCache(size_t max_bytes, obs::MetricsRegistry* registry)
    : max_bytes_(max_bytes == 0 ? 1 : max_bytes) {
  if (registry == nullptr) {
    owned_registry_ = std::make_unique<obs::MetricsRegistry>();
    registry = owned_registry_.get();
  }
  hits_ = registry->GetCounter("sweep_cache_hits_total");
  misses_ = registry->GetCounter("sweep_cache_misses_total");
  insertions_ = registry->GetCounter("sweep_cache_insertions_total");
  evictions_ = registry->GetCounter("sweep_cache_evictions_total");
  rejected_ = registry->GetCounter("sweep_cache_rejected_total");
  bytes_gauge_ = registry->GetGauge("sweep_cache_bytes");
  entries_gauge_ = registry->GetGauge("sweep_cache_entries");
}

void SweepCache::SyncGaugesLocked() {
  bytes_gauge_->Set(static_cast<double>(bytes_in_use_));
  entries_gauge_->Set(static_cast<double>(lru_.size()));
}

std::shared_ptr<const std::vector<double>> SweepCache::Lookup(
    const SweepCacheKey& key, bool record_stats) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    if (record_stats) misses_->Inc();
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  if (record_stats) hits_->Inc();
  return it->second->sweep;
}

bool SweepCache::Contains(const SweepCacheKey& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return index_.count(key) != 0;
}

void SweepCache::Insert(const SweepCacheKey& key,
                        std::shared_ptr<const std::vector<double>> sweep) {
  if (sweep == nullptr) return;
  if (FaultInjector::Global().enabled() &&
      FaultInjector::Global().ShouldInject(FaultSite::kAllocFailure,
                                           key.Hash())) {
    // Injected allocation failure: dropping an insert is always legal (any
    // entry may be rejected or evicted), so answers must be unaffected.
    return;
  }
  const size_t bytes = SweepBytes(*sweep);
  if (bytes > max_bytes_) {
    // Oversized: admitting it would flush the whole cache for one entry.
    rejected_->Inc();
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    bytes_in_use_ -= it->second->bytes;
    it->second->sweep = std::move(sweep);
    it->second->bytes = bytes;
    bytes_in_use_ += bytes;
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    lru_.push_front(Entry{key, std::move(sweep), bytes});
    index_.emplace(key, lru_.begin());
    bytes_in_use_ += bytes;
    insertions_->Inc();
  }
  // Evict LRU sweeps until the budget holds (never the one just touched:
  // bytes <= max_bytes_ guarantees the loop stops at size 1 at the latest).
  while (bytes_in_use_ > max_bytes_ && lru_.size() > 1) {
    const Entry& victim = lru_.back();
    bytes_in_use_ -= victim.bytes;
    index_.erase(victim.key);
    lru_.pop_back();
    evictions_->Inc();
  }
  SyncGaugesLocked();
}

std::vector<SweepCacheExport> SweepCache::ExportEntries() const {
  std::vector<SweepCacheExport> out;
  std::lock_guard<std::mutex> lock(mutex_);
  out.reserve(lru_.size());
  for (const Entry& entry : lru_) {
    out.push_back(SweepCacheExport{entry.key, entry.sweep});
  }
  return out;
}

void SweepCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  lru_.clear();
  index_.clear();
  bytes_in_use_ = 0;
  SyncGaugesLocked();
}

SweepCacheStats SweepCache::Stats() const {
  SweepCacheStats stats;
  stats.hits = hits_->Value();
  stats.misses = misses_->Value();
  stats.insertions = insertions_->Value();
  stats.evictions = evictions_->Value();
  stats.rejected = rejected_->Value();
  std::lock_guard<std::mutex> lock(mutex_);
  stats.bytes_in_use = bytes_in_use_;
  stats.entries = lru_.size();
  return stats;
}

size_t SweepCache::bytes_in_use() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_in_use_;
}

size_t SweepCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

}  // namespace relcomp
