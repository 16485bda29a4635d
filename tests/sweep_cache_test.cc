// Unit coverage for the size-aware per-source sweep memo (engine/sweep_cache)
// and the byte-budget path both caches share (engine/lru_cache): LRU-by-bytes
// eviction, oversized-entry rejection, and stats accounting, run once per
// cache type.

#include <algorithm>
#include <memory>
#include <optional>
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

TEST(ResultCacheBytesTest, UnlimitedBytesKeepsEntryCountSemantics) {
  ResultCache cache(4, 1);  // max_bytes = 0: entry-count LRU only
  for (uint32_t i = 0; i < 6; ++i) {
    cache.Insert(RcKey(i, 50), RankedValue(50));
  }
  EXPECT_EQ(cache.size(), 4u);
}

// ---------------------------------------------------------------------------
// Byte-budget path of LruCache, for both caches
// ---------------------------------------------------------------------------

/// Drives one cache type through the shared byte-budget path: `Make` builds
/// a one-shard cache whose only binding limit is `max_bytes`, `Value(n)` is
/// a payload of size n charged `Bytes(n)`, and `Size` reads a served
/// payload's size back (0 on a miss).
struct SweepCacheCase {
  static std::unique_ptr<SweepCache> Make(size_t max_bytes) {
    return std::make_unique<SweepCache>(max_bytes);
  }
  static SweepCacheKey KeyOf(NodeId i) { return Key(i); }
  static SweepVector Value(size_t n) { return Sweep(n, 0.5); }
  static size_t Bytes(size_t n) { return n * sizeof(double); }
  static size_t Size(SweepCache& cache, NodeId i) {
    const SweepVector hit = cache.Lookup(Key(i));
    return hit == nullptr ? 0 : hit->size();
  }
};

struct ResultCacheCase {
  static std::unique_ptr<ResultCache> Make(size_t max_bytes) {
    return std::make_unique<ResultCache>(1024, 1, max_bytes);
  }
  static ResultCacheKey KeyOf(NodeId i) { return RcKey(i, 50); }
  static ResultCacheValue Value(size_t n) { return RankedValue(n); }
  static size_t Bytes(size_t n) { return ResultCache::EntryBytes(Value(n)); }
  static size_t Size(ResultCache& cache, NodeId i) {
    const std::optional<ResultCacheValue> hit = cache.Lookup(KeyOf(i));
    return hit.has_value() ? hit->targets.size() : 0;
  }
};

template <class Case>
class ByteBudgetTest : public ::testing::Test {};
using CacheCases = ::testing::Types<SweepCacheCase, ResultCacheCase>;
TYPED_TEST_SUITE(ByteBudgetTest, CacheCases);

TYPED_TEST(ByteBudgetTest, EvictsLeastRecentlyUsedByBytes) {
  // Budget of 3 payloads of 10; the entry capacity never binds.
  auto cache = TypeParam::Make(3 * TypeParam::Bytes(10));
  for (NodeId i = 1; i <= 3; ++i) {
    cache->Insert(TypeParam::KeyOf(i), TypeParam::Value(10));
  }
  EXPECT_EQ(cache->size(), 3u);
  // Touch 1 so 2 becomes the LRU victim.
  EXPECT_EQ(TypeParam::Size(*cache, 1), 10u);
  cache->Insert(TypeParam::KeyOf(4), TypeParam::Value(10));
  EXPECT_EQ(cache->size(), 3u);
  EXPECT_EQ(TypeParam::Size(*cache, 2), 0u);  // evicted
  EXPECT_EQ(TypeParam::Size(*cache, 1), 10u);
  EXPECT_EQ(TypeParam::Size(*cache, 3), 10u);
  EXPECT_EQ(TypeParam::Size(*cache, 4), 10u);
  EXPECT_EQ(cache->Stats().evictions, 1u);
  EXPECT_LE(cache->bytes_in_use(), cache->max_bytes());
}

TYPED_TEST(ByteBudgetTest, BigEntryEvictsManySmallOnes) {
  // 90 fits alone but alongside neither 40.
  auto cache = TypeParam::Make(
      std::max(TypeParam::Bytes(90), 2 * TypeParam::Bytes(40)));
  cache->Insert(TypeParam::KeyOf(1), TypeParam::Value(40));
  cache->Insert(TypeParam::KeyOf(2), TypeParam::Value(40));
  cache->Insert(TypeParam::KeyOf(3), TypeParam::Value(90));
  EXPECT_EQ(cache->size(), 1u);
  EXPECT_EQ(TypeParam::Size(*cache, 3), 90u);
  EXPECT_EQ(cache->Stats().evictions, 2u);
  EXPECT_LE(cache->bytes_in_use(), cache->max_bytes());
}

TYPED_TEST(ByteBudgetTest, RejectsEntryLargerThanBudget) {
  auto cache = TypeParam::Make(TypeParam::Bytes(10));
  cache->Insert(TypeParam::KeyOf(1), TypeParam::Value(5));
  cache->Insert(TypeParam::KeyOf(2), TypeParam::Value(11));  // outweighs it
  EXPECT_EQ(TypeParam::Size(*cache, 2), 0u);
  EXPECT_EQ(TypeParam::Size(*cache, 1), 5u);  // untouched by the rejection
  EXPECT_EQ(cache->Stats().rejected, 1u);
  EXPECT_EQ(cache->Stats().evictions, 0u);
  // An oversized re-insert drops the key's older incarnation.
  cache->Insert(TypeParam::KeyOf(1), TypeParam::Value(11));
  EXPECT_EQ(TypeParam::Size(*cache, 1), 0u);
  EXPECT_EQ(cache->Stats().rejected, 2u);
  EXPECT_EQ(cache->Stats().evictions, 1u);
  EXPECT_EQ(cache->bytes_in_use(), 0u);
}

TYPED_TEST(ByteBudgetTest, ReinsertReplacesAndReaccountsBytes) {
  auto cache = TypeParam::Make(size_t{1} << 20);
  cache->Insert(TypeParam::KeyOf(1), TypeParam::Value(10));
  cache->Insert(TypeParam::KeyOf(1), TypeParam::Value(30));
  EXPECT_EQ(cache->size(), 1u);
  EXPECT_EQ(cache->bytes_in_use(), TypeParam::Bytes(30));
  EXPECT_EQ(cache->Stats().insertions, 1u);  // refresh, not a new entry
  EXPECT_EQ(TypeParam::Size(*cache, 1), 30u);
}

TYPED_TEST(ByteBudgetTest, ClearDropsEntriesKeepsCounters) {
  auto cache = TypeParam::Make(size_t{1} << 20);
  cache->Insert(TypeParam::KeyOf(1), TypeParam::Value(10));
  ASSERT_EQ(TypeParam::Size(*cache, 1), 10u);
  cache->Clear();
  EXPECT_EQ(cache->size(), 0u);
  EXPECT_EQ(cache->bytes_in_use(), 0u);
  EXPECT_EQ(TypeParam::Size(*cache, 1), 0u);
  EXPECT_EQ(cache->Stats().hits, 1u);  // counters survive Clear
}

}  // namespace
}  // namespace relcomp
