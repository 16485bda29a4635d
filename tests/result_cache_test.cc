#include "engine/result_cache.h"

#include <limits>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace relcomp {
namespace {

ResultCacheKey Key(NodeId s, NodeId t, uint64_t seed = 7,
                   uint32_t k = 1000,
                   EstimatorKind kind = EstimatorKind::kMonteCarlo) {
  return ResultCacheKey{EngineQuery::St(s, t), kind, k, seed};
}

TEST(ResultCacheTest, MissThenHit) {
  ResultCache cache(8, 1);
  EXPECT_FALSE(cache.Lookup(Key(0, 1)).has_value());
  cache.Insert(Key(0, 1), {0.5, 1000});
  const auto hit = cache.Lookup(Key(0, 1));
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->reliability, 0.5);
  EXPECT_EQ(hit->num_samples, 1000u);

  const ResultCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(ResultCacheTest, KeyDistinguishesEveryField) {
  ResultCache cache(16, 1);
  cache.Insert(Key(0, 1), {0.5, 1000});
  EXPECT_FALSE(cache.Lookup(Key(1, 0)).has_value());         // swapped s-t
  EXPECT_FALSE(cache.Lookup(Key(0, 1, 8)).has_value());      // other seed
  EXPECT_FALSE(cache.Lookup(Key(0, 1, 7, 500)).has_value()); // other K
  EXPECT_FALSE(
      cache.Lookup(Key(0, 1, 7, 1000, EstimatorKind::kRecursive)).has_value());
  EXPECT_TRUE(cache.Lookup(Key(0, 1)).has_value());
}

TEST(ResultCacheTest, EvictsLeastRecentlyUsed) {
  ResultCache cache(2, 1);  // one shard so the LRU order is global
  cache.Insert(Key(0, 1), {0.1, 10});
  cache.Insert(Key(0, 2), {0.2, 10});
  ASSERT_TRUE(cache.Lookup(Key(0, 1)).has_value());  // refresh (0,1)
  cache.Insert(Key(0, 3), {0.3, 10});                // evicts (0,2)
  EXPECT_TRUE(cache.Lookup(Key(0, 1)).has_value());
  EXPECT_FALSE(cache.Lookup(Key(0, 2)).has_value());
  EXPECT_TRUE(cache.Lookup(Key(0, 3)).has_value());
  EXPECT_EQ(cache.Stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ResultCacheTest, ReinsertRefreshesInsteadOfDuplicating) {
  ResultCache cache(2, 1);
  cache.Insert(Key(0, 1), {0.1, 10});
  cache.Insert(Key(0, 1), {0.9, 20});
  EXPECT_EQ(cache.size(), 1u);
  const auto hit = cache.Lookup(Key(0, 1));
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->reliability, 0.9);
}

TEST(ResultCacheTest, ClearDropsEntriesKeepsStats) {
  ResultCache cache(8, 2);
  cache.Insert(Key(0, 1), {0.1, 10});
  ASSERT_TRUE(cache.Lookup(Key(0, 1)).has_value());
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Lookup(Key(0, 1)).has_value());
  EXPECT_EQ(cache.Stats().hits, 1u);
}

TEST(ResultCacheTest, ShardCountRoundsUpAndCapsAtCapacity) {
  EXPECT_EQ(ResultCache(100, 3).num_shards(), 4u);
  EXPECT_EQ(ResultCache(2, 8).num_shards(), 2u);   // shards <= capacity
  EXPECT_EQ(ResultCache(0, 0).num_shards(), 1u);   // degenerate clamps
  EXPECT_EQ(ResultCache(0, 0).capacity(), 1u);
}

TEST(ResultCacheTest, CapacityHoldsAcrossShards) {
  ResultCache cache(64, 8);
  for (NodeId i = 0; i < 1000; ++i) cache.Insert(Key(i, i + 1), {0.5, 10});
  EXPECT_LE(cache.size(), 64u);
  EXPECT_GE(cache.Stats().evictions, 1000u - 64u);
}

TEST(ResultCacheTest, WorkloadTagIsolatesKeys) {
  // Four workload kinds over the same nodes/parameters: four distinct keys.
  ResultCache cache(16, 1);
  const ResultCacheKey st{EngineQuery::St(0, 5),
                          EstimatorKind::kMonteCarlo, 1000, 7};
  const ResultCacheKey topk{EngineQuery::TopK(0, 5),
                            EstimatorKind::kMonteCarlo, 1000, 7};
  const ResultCacheKey set{EngineQuery::ReliableSet(0, 0.5),
                           EstimatorKind::kMonteCarlo, 1000, 7};
  const ResultCacheKey dist{EngineQuery::Distance(0, 5, 5),
                            EstimatorKind::kMonteCarlo, 1000, 7};
  cache.Insert(st, {0.1, 10});
  EXPECT_FALSE(cache.Lookup(topk).has_value());
  EXPECT_FALSE(cache.Lookup(set).has_value());
  EXPECT_FALSE(cache.Lookup(dist).has_value());
  cache.Insert(topk, {0.2, 10});
  cache.Insert(set, {0.3, 10});
  cache.Insert(dist, {0.4, 10});
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_DOUBLE_EQ(cache.Lookup(st)->reliability, 0.1);
  EXPECT_DOUBLE_EQ(cache.Lookup(dist)->reliability, 0.4);
}

TEST(ResultCacheTest, EntriesExpireAfterTtl) {
  ResultCache cache(8, 1);
  cache.Insert(Key(0, 1), {0.5, 10}, /*ttl_seconds=*/1e-9);
  cache.Insert(Key(0, 2), {0.7, 10});  // immortal
  // The tiny TTL has certainly elapsed by now: the entry is dropped on the
  // lookup that discovers it and the lookup is a miss.
  EXPECT_FALSE(cache.Lookup(Key(0, 1)).has_value());
  EXPECT_TRUE(cache.Lookup(Key(0, 2)).has_value());
  const ResultCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(cache.size(), 1u);

  // A long TTL keeps the entry alive.
  cache.Insert(Key(0, 3), {0.9, 10}, /*ttl_seconds=*/3600.0);
  EXPECT_TRUE(cache.Lookup(Key(0, 3)).has_value());
  // Reinsert refreshes the deadline (and can remove it).
  cache.Insert(Key(0, 1), {0.5, 10}, /*ttl_seconds=*/3600.0);
  cache.Insert(Key(0, 1), {0.6, 10});
  EXPECT_DOUBLE_EQ(cache.Lookup(Key(0, 1))->reliability, 0.6);
}

TEST(ResultCacheTest, TtlBeyondClockRangeSaturatesToNeverExpire) {
  ResultCache cache(8, 1);
  ResultCacheValue failure;
  failure.status = Status::InvalidArgument("K exceeds L");
  cache.Insert(Key(0, 1), failure, /*ttl_seconds=*/1e300);
  cache.Insert(Key(0, 2), failure,
               std::numeric_limits<double>::infinity());
  EXPECT_TRUE(cache.Lookup(Key(0, 1)).has_value());
  EXPECT_TRUE(cache.Lookup(Key(0, 2)).has_value());
  EXPECT_EQ(cache.Stats().expired, 0u);
}

TEST(ResultCacheTest, NegativeEntriesCountSeparately) {
  ResultCache cache(8, 1);
  ResultCacheValue failure;
  failure.status = Status::InvalidArgument("K exceeds L");
  cache.Insert(Key(0, 1), failure);
  const auto hit = cache.Lookup(Key(0, 1));
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->negative());
  EXPECT_EQ(hit->status.code(), StatusCode::kInvalidArgument);
  const ResultCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.negative_hits, 1u);
  EXPECT_EQ(stats.lookups(), 1u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.0);
}

TEST(ResultCacheTest, CachesRankedTargetPayloads) {
  ResultCache cache(8, 1);
  ResultCacheValue value;
  value.num_samples = 500;
  value.targets = {{3, 0.9}, {7, 0.4}};
  const ResultCacheKey key{EngineQuery::TopK(0, 2),
                           EstimatorKind::kMonteCarlo, 500, 7};
  cache.Insert(key, value);
  const auto hit = cache.Lookup(key);
  ASSERT_TRUE(hit.has_value());
  ASSERT_EQ(hit->targets.size(), 2u);
  EXPECT_EQ(hit->targets[0].node, 3u);
  EXPECT_DOUBLE_EQ(hit->targets[0].reliability, 0.9);
  EXPECT_EQ(hit->targets[1].node, 7u);
}

TEST(ResultCacheTest, TransientStatusesAreNeverCached) {
  // Regression: kUnavailable / kDeadlineExceeded / kCancelled describe the
  // *submission* (shed, expired, cancelled), not the answer. Negative-caching
  // one would fail future deadline-free queries for the whole backoff TTL.
  ResultCache cache(8, 1);
  for (const Status& transient :
       {Status::Unavailable("shed"), Status::DeadlineExceeded("expired"),
        Status::Cancelled("caller gave up")}) {
    ResultCacheValue value;
    value.status = transient;
    cache.Insert(Key(0, 1), value, /*ttl_seconds=*/3600.0);
    EXPECT_FALSE(cache.Lookup(Key(0, 1)).has_value())
        << StatusCodeName(transient.code());
  }
  EXPECT_EQ(cache.Stats().insertions, 0u);
  EXPECT_EQ(cache.size(), 0u);

  // Genuine per-query failures still negative-cache (engine_workload_test
  // depends on kInvalidArgument backoff).
  ResultCacheValue invalid;
  invalid.status = Status::InvalidArgument("K exceeds L");
  cache.Insert(Key(0, 1), invalid, /*ttl_seconds=*/3600.0);
  ASSERT_TRUE(cache.Lookup(Key(0, 1)).has_value());
}

TEST(ResultCacheTest, ConcurrentMixedWorkloadIsSafe) {
  ResultCache cache(256, 8);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&cache, t] {
      for (NodeId i = 0; i < 2000; ++i) {
        const NodeId s = (i + static_cast<NodeId>(t)) % 97;
        cache.Insert(Key(s, s + 1), {static_cast<double>(s) / 97.0, 10});
        const auto hit = cache.Lookup(Key(s, s + 1));
        if (hit.has_value()) {
          EXPECT_DOUBLE_EQ(hit->reliability, static_cast<double>(s) / 97.0);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_LE(cache.size(), 256u);
  EXPECT_EQ(cache.Stats().lookups(), 8u * 2000u);
}

}  // namespace
}  // namespace relcomp
