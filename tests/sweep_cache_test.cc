// Unit coverage for the size-aware per-source sweep memo (engine/sweep_cache)
// and the byte-budget admission of the result cache: LRU-by-bytes eviction,
// oversized-entry rejection, and stats accounting.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "engine/result_cache.h"
#include "engine/sweep_cache.h"

namespace relcomp {
namespace {

SweepCacheKey Key(NodeId source, uint64_t seed = 7) {
  SweepCacheKey key;
  key.kind = EstimatorKind::kMonteCarlo;
  key.source = source;
  key.num_samples = 100;
  key.seed = seed;
  return key;
}

std::shared_ptr<const std::vector<double>> Sweep(size_t n, double fill) {
  return std::make_shared<const std::vector<double>>(n, fill);
}

TEST(SweepCacheTest, LookupReturnsInsertedVectorByIdentity) {
  SweepCache cache(1 << 20);
  EXPECT_EQ(cache.Lookup(Key(1)), nullptr);
  EXPECT_FALSE(cache.Contains(Key(1)));
  auto sweep = Sweep(64, 0.5);
  cache.Insert(Key(1), sweep);
  EXPECT_TRUE(cache.Contains(Key(1)));  // a pure probe: no stats, no recency
  const auto hit = cache.Lookup(Key(1));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit.get(), sweep.get());  // shared, not copied
  EXPECT_EQ(cache.bytes_in_use(), 64 * sizeof(double));

  const SweepCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(SweepCacheTest, DistinctKeyFieldsDoNotAlias) {
  SweepCache cache(1 << 20);
  cache.Insert(Key(1, 7), Sweep(8, 0.1));
  EXPECT_EQ(cache.Lookup(Key(2, 7)), nullptr);   // other source
  EXPECT_EQ(cache.Lookup(Key(1, 8)), nullptr);   // other seed / generation
  SweepCacheKey other_kind = Key(1, 7);
  other_kind.kind = EstimatorKind::kBfsSharing;
  EXPECT_EQ(cache.Lookup(other_kind), nullptr);
  SweepCacheKey other_budget = Key(1, 7);
  other_budget.num_samples = 200;
  EXPECT_EQ(cache.Lookup(other_budget), nullptr);
  EXPECT_NE(cache.Lookup(Key(1, 7)), nullptr);
}

TEST(SweepCacheTest, EvictsLeastRecentlyUsedUnderBytePressure) {
  // Budget of 3 sweeps of 10 doubles each.
  SweepCache cache(3 * 10 * sizeof(double));
  cache.Insert(Key(1), Sweep(10, 0.1));
  cache.Insert(Key(2), Sweep(10, 0.2));
  cache.Insert(Key(3), Sweep(10, 0.3));
  EXPECT_EQ(cache.size(), 3u);
  // Touch 1 so 2 becomes the LRU victim.
  EXPECT_NE(cache.Lookup(Key(1)), nullptr);
  cache.Insert(Key(4), Sweep(10, 0.4));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.Lookup(Key(2)), nullptr);  // evicted
  EXPECT_NE(cache.Lookup(Key(1)), nullptr);
  EXPECT_NE(cache.Lookup(Key(3)), nullptr);
  EXPECT_NE(cache.Lookup(Key(4)), nullptr);
  EXPECT_EQ(cache.Stats().evictions, 1u);
  EXPECT_LE(cache.bytes_in_use(), cache.max_bytes());
}

TEST(SweepCacheTest, BigSweepEvictsManySmallOnes) {
  SweepCache cache(100 * sizeof(double));
  cache.Insert(Key(1), Sweep(40, 0.1));
  cache.Insert(Key(2), Sweep(40, 0.2));
  // 90 doubles only fit alongside neither of the 40s.
  cache.Insert(Key(3), Sweep(90, 0.3));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_NE(cache.Lookup(Key(3)), nullptr);
  EXPECT_EQ(cache.Stats().evictions, 2u);
  EXPECT_LE(cache.bytes_in_use(), cache.max_bytes());
}

TEST(SweepCacheTest, RejectsSweepLargerThanWholeBudget) {
  SweepCache cache(10 * sizeof(double));
  cache.Insert(Key(1), Sweep(5, 0.1));
  cache.Insert(Key(2), Sweep(11, 0.2));  // larger than the whole budget
  EXPECT_EQ(cache.Lookup(Key(2)), nullptr);
  EXPECT_NE(cache.Lookup(Key(1)), nullptr);  // untouched by the rejection
  EXPECT_EQ(cache.Stats().rejected, 1u);
  EXPECT_EQ(cache.Stats().evictions, 0u);
}

TEST(SweepCacheTest, ReinsertReplacesAndReaccountsBytes) {
  SweepCache cache(1 << 20);
  cache.Insert(Key(1), Sweep(10, 0.1));
  cache.Insert(Key(1), Sweep(30, 0.2));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.bytes_in_use(), 30 * sizeof(double));
  EXPECT_EQ(cache.Stats().insertions, 1u);  // refresh, not a new entry
  const auto hit = cache.Lookup(Key(1));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->size(), 30u);
}

TEST(SweepCacheTest, EvictionNeverInvalidatesAHandedOutSweep) {
  SweepCache cache(10 * sizeof(double));
  cache.Insert(Key(1), Sweep(10, 0.25));
  const auto held = cache.Lookup(Key(1));
  ASSERT_NE(held, nullptr);
  cache.Insert(Key(2), Sweep(10, 0.5));  // evicts key 1
  EXPECT_EQ(cache.Lookup(Key(1)), nullptr);
  // The reader's shared_ptr keeps the vector alive and intact.
  EXPECT_EQ(held->size(), 10u);
  EXPECT_DOUBLE_EQ(held->front(), 0.25);
}

TEST(SweepCacheTest, ClearDropsEntriesKeepsCounters) {
  SweepCache cache(1 << 20);
  cache.Insert(Key(1), Sweep(10, 0.1));
  ASSERT_NE(cache.Lookup(Key(1)), nullptr);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes_in_use(), 0u);
  EXPECT_EQ(cache.Lookup(Key(1)), nullptr);
  EXPECT_EQ(cache.Stats().hits, 1u);  // counters survive Clear
}

// ---------------------------------------------------------------------------
// ResultCache byte-budget admission
// ---------------------------------------------------------------------------

ResultCacheKey RcKey(NodeId source, uint32_t k) {
  ResultCacheKey key;
  key.query = EngineQuery::TopK(source, k);
  key.kind = EstimatorKind::kMonteCarlo;
  key.num_samples = 100;
  key.seed = 42;
  return key;
}

ResultCacheValue RankedValue(size_t num_targets) {
  ResultCacheValue value;
  value.num_samples = 100;
  value.targets.resize(num_targets);
  for (size_t i = 0; i < num_targets; ++i) {
    value.targets[i] = ReliableTarget{static_cast<NodeId>(i), 0.5};
  }
  return value;
}

TEST(ResultCacheBytesTest, RankedPayloadChargedRealBytes) {
  const ResultCacheValue scalar(0.5, 100);
  const ResultCacheValue ranked = RankedValue(50);
  EXPECT_EQ(ResultCache::EntryBytes(ranked) - ResultCache::EntryBytes(scalar),
            50 * sizeof(ReliableTarget));

  ResultCache cache(1024, 1, /*max_bytes=*/1 << 20);
  cache.Insert(RcKey(0, 50), ranked);
  EXPECT_EQ(cache.bytes_in_use(), ResultCache::EntryBytes(ranked));
}

TEST(ResultCacheBytesTest, EvictsByBytesNotEntryCount) {
  // Entry capacity is huge; the byte budget holds ~3 of the 50-target
  // payloads. Eviction must kick in on bytes alone.
  const size_t entry_bytes = ResultCache::EntryBytes(RankedValue(50));
  ResultCache cache(1024, 1, 3 * entry_bytes);
  for (uint32_t i = 0; i < 6; ++i) {
    cache.Insert(RcKey(i, 50), RankedValue(50));
  }
  EXPECT_LE(cache.bytes_in_use(), cache.max_bytes());
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.Stats().evictions, 3u);
  // Most-recent survive, oldest were evicted.
  EXPECT_TRUE(cache.Lookup(RcKey(5, 50)).has_value());
  EXPECT_FALSE(cache.Lookup(RcKey(0, 50)).has_value());
}

TEST(ResultCacheBytesTest, UnlimitedBytesKeepsEntryCountSemantics) {
  ResultCache cache(4, 1);  // max_bytes = 0: entry-count LRU only
  for (uint32_t i = 0; i < 6; ++i) {
    cache.Insert(RcKey(i, 50), RankedValue(50));
  }
  EXPECT_EQ(cache.size(), 4u);
}

TEST(ResultCacheBytesTest, RejectsEntryLargerThanShardBudget) {
  const size_t small_bytes = ResultCache::EntryBytes(RankedValue(2));
  ResultCache cache(1024, 1, 2 * small_bytes);
  cache.Insert(RcKey(0, 2), RankedValue(2));
  cache.Insert(RcKey(1, 500), RankedValue(500));  // outweighs the budget
  EXPECT_FALSE(cache.Lookup(RcKey(1, 500)).has_value());
  EXPECT_TRUE(cache.Lookup(RcKey(0, 2)).has_value());
  EXPECT_EQ(cache.Stats().rejected, 1u);
}

}  // namespace
}  // namespace relcomp
