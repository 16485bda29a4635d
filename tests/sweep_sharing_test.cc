// Engine-level coverage of the sweep-sharing layer: one same-source mixed
// batch executes exactly one EstimateFromSource per distinct source
// (stats-verified), derived top-k / reliable-set answers are bit-identical to
// the standalone APIs, the SweepCache evicts under byte pressure without
// changing answers, and answers are deterministic at 1/2/8 threads.

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "engine/query_engine.h"
#include "reliability/reliable_set.h"
#include "reliability/top_k.h"
#include "test_util.h"

namespace relcomp {
namespace {

using ::relcomp::testing::RandomSmallGraph;

EngineOptions BaseOptions(size_t threads, EstimatorKind kind) {
  EngineOptions options;
  options.num_threads = threads;
  options.kind = kind;
  options.num_samples = 200;
  options.seed = 20190412;
  return options;
}

/// The hot pattern the sweep layer exists for: many parameterizations of a
/// few sources — top-k at several k, reliable-set at several eta, plus an
/// s-t query — each repeated, interleaved across sources.
std::vector<EngineQuery> SameSourceMix(const std::vector<NodeId>& sources,
                                       size_t repeats) {
  std::vector<EngineQuery> queries;
  for (size_t r = 0; r < repeats; ++r) {
    for (const NodeId s : sources) {
      queries.push_back(EngineQuery::TopK(s, 5));
      queries.push_back(EngineQuery::TopK(s, 10));
      queries.push_back(EngineQuery::ReliableSet(s, 0.2));
      queries.push_back(EngineQuery::ReliableSet(s, 0.6));
      queries.push_back(EngineQuery::St(s, (s + 3) % 20));
    }
  }
  return queries;
}

void ExpectBitIdentical(const std::vector<EngineResult>& a,
                        const std::vector<EngineResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(a[i].query.Describe());
    EXPECT_EQ(a[i].status.code(), b[i].status.code());
    EXPECT_EQ(std::memcmp(&a[i].reliability, &b[i].reliability,
                          sizeof(double)),
              0);
    ASSERT_EQ(a[i].targets.size(), b[i].targets.size());
    for (size_t j = 0; j < a[i].targets.size(); ++j) {
      EXPECT_EQ(a[i].targets[j].node, b[i].targets[j].node);
      EXPECT_EQ(std::memcmp(&a[i].targets[j].reliability,
                            &b[i].targets[j].reliability, sizeof(double)),
                0);
    }
  }
}

TEST(SweepSharingTest, SameSourceMixedBatchRunsOneSweepPerSource) {
  const UncertainGraph graph = RandomSmallGraph(20, 60, 0.3, 0.9, 51);
  const std::vector<NodeId> sources = {2, 7, 11};
  const std::vector<EngineQuery> queries = SameSourceMix(sources, 4);

  for (const EstimatorKind kind :
       {EstimatorKind::kMonteCarlo, EstimatorKind::kBfsSharing}) {
    SCOPED_TRACE(EstimatorKindName(kind));
    for (const bool cache : {true, false}) {
      SCOPED_TRACE(cache);
      EngineOptions options = BaseOptions(4, kind);
      options.enable_cache = cache;
      auto engine = QueryEngine::Create(graph, options).MoveValue();
      const std::vector<EngineResult> results =
          engine->RunBatch(queries).MoveValue();
      for (const EngineResult& r : results) ASSERT_TRUE(r.ok()) << r.status;

      // The gate: with the sweep memo on, at most one EstimateFromSource
      // per distinct (source, generation) — generations are per-source here,
      // so per distinct source — no matter how many k / eta / repeats ask.
      const EngineStatsSnapshot snapshot = engine->StatsSnapshot();
      EXPECT_LE(snapshot.sweep_executed, sources.size());
      const uint64_t sweep_queries =
          snapshot.queries_of(WorkloadKind::kTopK) +
          snapshot.queries_of(WorkloadKind::kReliableSet);
      EXPECT_EQ(sweep_queries, 16 * sources.size());
      // Partition invariant: every sweep-kind query that reached the
      // compute path (neither a cache hit nor query-level coalesced)
      // resolved through exactly one of the three sweep outcomes.
      uint64_t compute_path_sweeps = 0;
      for (const EngineResult& r : results) {
        if (IsSweepWorkload(r.query.workload) && !r.cache_hit &&
            !r.coalesced) {
          ++compute_path_sweeps;
        }
      }
      EXPECT_EQ(snapshot.sweep_hits + snapshot.sweep_coalesced +
                    snapshot.sweep_executed,
                compute_path_sweeps);
    }
  }
}

TEST(SweepSharingTest, DerivedAnswersMatchStandaloneApisBitwise) {
  const UncertainGraph graph = RandomSmallGraph(20, 60, 0.3, 0.9, 52);
  EngineOptions options = BaseOptions(4, EstimatorKind::kMonteCarlo);
  auto engine = QueryEngine::Create(graph, options).MoveValue();
  const std::vector<EngineQuery> queries = SameSourceMix({3, 9}, 2);
  const std::vector<EngineResult> results =
      engine->RunBatch(queries).MoveValue();

  for (size_t i = 0; i < queries.size(); ++i) {
    const EngineQuery& query = queries[i];
    ASSERT_TRUE(results[i].ok()) << results[i].status;
    if (query.workload == WorkloadKind::kTopK) {
      const std::vector<ReliableTarget> expected =
          TopKReliableTargetsMonteCarlo(graph, query.source, query.k,
                                        options.num_samples,
                                        engine->QuerySeed(query))
              .MoveValue();
      ASSERT_EQ(results[i].targets.size(), expected.size());
      for (size_t j = 0; j < expected.size(); ++j) {
        EXPECT_EQ(results[i].targets[j].node, expected[j].node);
        EXPECT_EQ(std::memcmp(&results[i].targets[j].reliability,
                              &expected[j].reliability, sizeof(double)),
                  0);
      }
    } else if (query.workload == WorkloadKind::kReliableSet) {
      const ReliableSetResult expected =
          ReliableSetMonteCarlo(graph, query.source, query.eta,
                                options.num_samples, engine->QuerySeed(query))
              .MoveValue();
      ASSERT_EQ(results[i].targets.size(), expected.members.size());
      for (size_t j = 0; j < expected.members.size(); ++j) {
        EXPECT_EQ(results[i].targets[j].node, expected.members[j].node);
        EXPECT_EQ(std::memcmp(&results[i].targets[j].reliability,
                              &expected.members[j].reliability,
                              sizeof(double)),
                  0);
      }
    }
  }
  // The sharing actually happened (not just correct answers): 2 sources,
  // many parameterizations, <= 2 sweeps.
  EXPECT_LE(engine->StatsSnapshot().sweep_executed, 2u);
}

TEST(SweepSharingTest, SweepSeedIgnoresParametersButNotSourceOrBudget) {
  const UncertainGraph graph = RandomSmallGraph(20, 60, 0.3, 0.9, 53);
  auto engine =
      QueryEngine::Create(graph, BaseOptions(2, EstimatorKind::kMonteCarlo))
          .MoveValue();
  EXPECT_EQ(engine->QuerySeed(EngineQuery::TopK(4, 5)),
            engine->QuerySeed(EngineQuery::TopK(4, 99)));
  EXPECT_EQ(engine->QuerySeed(EngineQuery::TopK(4, 5)),
            engine->QuerySeed(EngineQuery::ReliableSet(4, 0.7)));
  EXPECT_EQ(engine->QuerySeed(EngineQuery::TopK(4, 5)), engine->SweepSeed(4));
  EXPECT_NE(engine->SweepSeed(4), engine->SweepSeed(5));

  // Different sample budgets are different sweeps (and different engines'
  // master seeds never alias, as before).
  EngineOptions other = BaseOptions(2, EstimatorKind::kMonteCarlo);
  other.num_samples = 500;
  auto other_engine = QueryEngine::Create(graph, other).MoveValue();
  EXPECT_NE(engine->SweepSeed(4), other_engine->SweepSeed(4));
}

TEST(SweepSharingTest, DeterministicAcrossThreadsCachesAndSweepToggles) {
  const UncertainGraph graph = RandomSmallGraph(20, 60, 0.3, 0.9, 54);
  const std::vector<EngineQuery> queries = SameSourceMix({1, 6, 13}, 3);

  for (const EstimatorKind kind :
       {EstimatorKind::kMonteCarlo, EstimatorKind::kBfsSharing}) {
    SCOPED_TRACE(EstimatorKindName(kind));
    EngineOptions reference_options = BaseOptions(1, kind);
    reference_options.enable_sweep_cache = false;
    reference_options.enable_coalescing = false;
    auto reference_engine =
        QueryEngine::Create(graph, reference_options).MoveValue();
    const std::vector<EngineResult> reference =
        reference_engine->RunBatch(queries).MoveValue();

    for (const size_t threads : {1u, 2u, 8u}) {
      for (const bool sweep_cache : {true, false}) {
        SCOPED_TRACE(threads);
        SCOPED_TRACE(sweep_cache);
        EngineOptions options = BaseOptions(threads, kind);
        options.enable_sweep_cache = sweep_cache;
        auto engine = QueryEngine::Create(graph, options).MoveValue();
        ExpectBitIdentical(reference, engine->RunBatch(queries).MoveValue());
      }
    }
  }
}

TEST(SweepSharingTest, SweepCacheEvictionUnderBytePressureKeepsAnswers) {
  const UncertainGraph graph = RandomSmallGraph(20, 60, 0.3, 0.9, 55);
  const std::vector<EngineQuery> queries = SameSourceMix({0, 5, 10, 15}, 2);

  EngineOptions roomy = BaseOptions(2, EstimatorKind::kMonteCarlo);
  auto roomy_engine = QueryEngine::Create(graph, roomy).MoveValue();
  const std::vector<EngineResult> expected =
      roomy_engine->RunBatch(queries).MoveValue();

  // Budget of ~1.5 sweeps (20 nodes * 8 bytes = 160 bytes each): constant
  // eviction churn across the 4 sources, answers unchanged.
  EngineOptions tight = roomy;
  tight.enable_cache = false;  // force every repeat back through the memo
  tight.sweep_cache_max_bytes = 240;
  auto tight_engine = QueryEngine::Create(graph, tight).MoveValue();
  ExpectBitIdentical(expected, tight_engine->RunBatch(queries).MoveValue());
  const SweepCacheStats stats = tight_engine->sweep_cache()->Stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes_in_use, tight.sweep_cache_max_bytes);
  // Churn costs sweeps: more than one per source, but still every answer
  // bit-identical (checked above).
  EXPECT_GE(tight_engine->StatsSnapshot().sweep_executed, 4u);
}

TEST(SweepSharingTest, ConcurrentDistinctParamsCoalesceAtSweepLevel) {
  // 32 different-k top-k queries + 32 different-eta reliable-set queries for
  // ONE source, submitted at once: distinct result-cache keys (no query-level
  // coalescing possible), yet at most one sweep executes when the memo and
  // sweep flights are on.
  const UncertainGraph graph = RandomSmallGraph(30, 90, 0.3, 0.9, 56);
  std::vector<EngineQuery> queries;
  for (uint32_t k = 1; k <= 32; ++k) queries.push_back(EngineQuery::TopK(9, k));
  for (uint32_t i = 0; i < 32; ++i) {
    queries.push_back(EngineQuery::ReliableSet(9, i / 32.0));
  }
  auto engine =
      QueryEngine::Create(graph, BaseOptions(8, EstimatorKind::kMonteCarlo))
          .MoveValue();
  const std::vector<EngineResult> results =
      engine->RunBatch(queries).MoveValue();
  for (const EngineResult& r : results) ASSERT_TRUE(r.ok()) << r.status;
  const EngineStatsSnapshot snapshot = engine->StatsSnapshot();
  EXPECT_EQ(snapshot.sweep_executed, 1u);
  // The leader ran the sweep; the other 63 queries shared it.
  EXPECT_EQ(snapshot.sweep_hits + snapshot.sweep_coalesced, 63u);
  EXPECT_EQ(snapshot.executed, 64u);  // every query derived its own payload
}

TEST(SweepSharingTest, SweepAndDistanceQueriesReportPeakMemory) {
  // The MemoryTracker plumbing: WorkloadResult::peak_memory_bytes (and thus
  // the engine's peak-mem stat) must be non-zero for sweep and distance
  // queries, not just s-t.
  const UncertainGraph graph = RandomSmallGraph(20, 60, 0.3, 0.9, 58);
  for (const EstimatorKind kind :
       {EstimatorKind::kMonteCarlo, EstimatorKind::kBfsSharing}) {
    SCOPED_TRACE(EstimatorKindName(kind));
    auto engine = QueryEngine::Create(graph, BaseOptions(2, kind)).MoveValue();
    std::vector<EngineQuery> queries = {EngineQuery::TopK(0, 5),
                                        EngineQuery::ReliableSet(1, 0.3)};
    if (kind == EstimatorKind::kMonteCarlo) {
      queries.push_back(EngineQuery::Distance(2, 9, 3));
    }
    const std::vector<EngineResult> results =
        engine->RunBatch(queries).MoveValue();
    for (const EngineResult& r : results) ASSERT_TRUE(r.ok()) << r.status;
    EXPECT_GT(engine->StatsSnapshot().peak_memory_bytes, 0u);
  }
}

TEST(SweepSharingTest, StreamSharesSweepsLikeBatches) {
  const UncertainGraph graph = RandomSmallGraph(20, 60, 0.3, 0.9, 59);
  const std::vector<EngineQuery> queries = SameSourceMix({4, 8}, 3);
  auto batch_engine =
      QueryEngine::Create(graph, BaseOptions(3, EstimatorKind::kMonteCarlo))
          .MoveValue();
  const std::vector<EngineResult> batch =
      batch_engine->RunBatch(queries).MoveValue();
  auto stream_engine =
      QueryEngine::Create(graph, BaseOptions(3, EstimatorKind::kMonteCarlo))
          .MoveValue();
  for (const EngineQuery& query : queries) {
    ASSERT_TRUE(stream_engine->Submit(query).ok());
  }
  ExpectBitIdentical(batch, stream_engine->Drain().MoveValue());
  EXPECT_LE(stream_engine->StatsSnapshot().sweep_executed, 2u);
}

}  // namespace
}  // namespace relcomp
