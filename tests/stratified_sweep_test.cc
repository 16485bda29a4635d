// Coverage of the intra-query stratified-sweep layer: the stratum helpers,
// the MC and BFS Sharing stratified cores (stratum merges bit-identical to
// serial stratified calls; BFS Sharing slice-invariance), the engine's
// stratum scheduler (bit-identical at 1/2/8 threads x S in {1, 4, 16},
// stealing-vs-blocking parity, steal counters), shared prepared state, and
// stratified-vs-unstratified accuracy.

#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "common/rng.h"
#include "engine/query_engine.h"
#include "reliability/bfs_sharing.h"
#include "reliability/mc_sampling.h"
#include "reliability/reliable_set.h"
#include "reliability/top_k.h"
#include "test_util.h"

namespace relcomp {
namespace {

using ::relcomp::testing::RandomSmallGraph;

EngineOptions BaseOptions(size_t threads, EstimatorKind kind,
                          uint32_t num_strata) {
  EngineOptions options;
  options.num_threads = threads;
  options.kind = kind;
  options.num_samples = 200;
  options.num_strata = num_strata;
  options.seed = 20260730;
  return options;
}

void ExpectBitIdentical(const std::vector<EngineResult>& a,
                        const std::vector<EngineResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(a[i].query.Describe());
    EXPECT_EQ(a[i].status.code(), b[i].status.code());
    EXPECT_EQ(
        std::memcmp(&a[i].reliability, &b[i].reliability, sizeof(double)), 0);
    ASSERT_EQ(a[i].targets.size(), b[i].targets.size());
    for (size_t j = 0; j < a[i].targets.size(); ++j) {
      EXPECT_EQ(a[i].targets[j].node, b[i].targets[j].node);
      EXPECT_EQ(std::memcmp(&a[i].targets[j].reliability,
                            &b[i].targets[j].reliability, sizeof(double)),
                0);
    }
  }
}

TEST(StratifiedSweepTest, StratumHelpersPartitionTheBudget) {
  // Counts tile [0, K) exactly, for even and ragged splits.
  for (const uint32_t total : {1u, 7u, 16u, 203u}) {
    for (const uint32_t strata : {1u, 3u, 4u, 16u, 300u}) {
      uint32_t sum = 0;
      for (uint32_t j = 0; j < strata; ++j) {
        EXPECT_EQ(StratumSampleOffset(total, strata, j), sum);
        sum += StratumSampleCount(total, strata, j);
      }
      EXPECT_EQ(sum, total);
    }
  }
  // S = 1 is the legacy path: the seed passes through untouched.
  EXPECT_EQ(StratumSeed(42, 0, 1), 42u);
  EXPECT_EQ(StratumSeed(42, 0, 0), 42u);
  // S > 1 derives distinct per-stratum streams.
  EXPECT_EQ(StratumSeed(42, 3, 8), HashCombineSeed(42, 3));
  EXPECT_NE(StratumSeed(42, 0, 8), StratumSeed(42, 1, 8));
}

TEST(StratifiedSweepTest, McSingleStratumMatchesLegacySweep) {
  // The S = 1 sweep is bit-identical to the pre-strata behaviour (same RNG
  // stream, same division), so existing seeds reproduce exactly.
  const UncertainGraph graph = RandomSmallGraph(24, 70, 0.3, 0.9, 71);
  const std::vector<double> legacy =
      MonteCarloReliabilityFromSource(graph, 3, 500, 99).MoveValue();
  const std::vector<double> one_stratum =
      MonteCarloReliabilityFromSource(graph, 3, 500, 99, 1).MoveValue();
  ASSERT_EQ(legacy.size(), one_stratum.size());
  for (size_t v = 0; v < legacy.size(); ++v) {
    EXPECT_EQ(std::memcmp(&legacy[v], &one_stratum[v], sizeof(double)), 0);
  }
}

TEST(StratifiedSweepTest, McStratumMergeMatchesSerialStratifiedSweep) {
  // The engine contract: run each stratum on its own (fresh) replica, merge
  // hit counts in stratum order, divide by K — bit-identical to one serial
  // EstimateFromSource with the same num_strata. Ragged K exercises the
  // uneven budget split.
  const UncertainGraph graph = RandomSmallGraph(24, 70, 0.3, 0.9, 72);
  const uint32_t kSamples = 203;
  const uint64_t kSeed = 0xFEED;
  for (const uint32_t strata : {1u, 4u, 16u}) {
    SCOPED_TRACE(strata);
    const std::vector<double> serial =
        MonteCarloReliabilityFromSource(graph, 5, kSamples, kSeed, strata)
            .MoveValue();
    std::vector<uint32_t> totals(graph.num_nodes(), 0);
    for (uint32_t j = 0; j < strata; ++j) {
      // A fresh estimator per stratum mimics strata landing on different
      // engine workers (each with private scratch).
      MonteCarloEstimator replica(graph);
      EstimateOptions options;
      options.num_samples = kSamples;
      options.seed = kSeed;
      const std::vector<uint32_t> hits =
          replica.EstimateSweepStratumHits(5, j, strata, options).MoveValue();
      ASSERT_EQ(hits.size(), graph.num_nodes());
      for (size_t v = 0; v < hits.size(); ++v) totals[v] += hits[v];
    }
    for (size_t v = 0; v < totals.size(); ++v) {
      const double merged =
          static_cast<double>(totals[v]) / static_cast<double>(kSamples);
      EXPECT_EQ(std::memcmp(&merged, &serial[v], sizeof(double)), 0)
          << "node " << v;
    }
  }
}

TEST(StratifiedSweepTest, BfsSharingStrataAreSliceInvariant) {
  // BFS Sharing strata are world slices of ONE generation: per-world
  // independence makes slice counts sum exactly to the whole-range counts,
  // so the merged sweep is bit-identical to the serial sweep for EVERY
  // stratum count — provided each participant prepared to the same seed.
  const UncertainGraph graph = RandomSmallGraph(24, 70, 0.3, 0.9, 73);
  BfsSharingOptions bfs;
  bfs.index_samples = 257;  // deliberately not word-aligned
  const uint32_t kSamples = 193;
  const uint64_t kPrepare = 0xABCD;

  auto serial = BfsSharingEstimator::Create(graph, bfs, 1).MoveValue();
  ASSERT_TRUE(serial->PrepareForNextQuery(kPrepare).ok());
  const std::vector<double> whole =
      serial->ReliabilityFromSource(0, kSamples).MoveValue();

  for (const uint32_t strata : {1u, 3u, 8u}) {
    SCOPED_TRACE(strata);
    std::vector<uint32_t> totals(graph.num_nodes(), 0);
    for (uint32_t j = 0; j < strata; ++j) {
      auto replica = BfsSharingEstimator::Create(graph, bfs, 1).MoveValue();
      ASSERT_TRUE(replica->PrepareForNextQuery(kPrepare).ok());
      EstimateOptions options;
      options.num_samples = kSamples;
      const std::vector<uint32_t> hits =
          replica->EstimateSweepStratumHits(0, j, strata, options)
              .MoveValue();
      for (size_t v = 0; v < hits.size(); ++v) totals[v] += hits[v];
    }
    for (size_t v = 0; v < totals.size(); ++v) {
      const double merged =
          static_cast<double>(totals[v]) / static_cast<double>(kSamples);
      EXPECT_EQ(std::memcmp(&merged, &whole[v], sizeof(double)), 0)
          << "node " << v;
    }
  }
}

TEST(StratifiedSweepTest, McStratifiedStEstimateIsCanonicalInS) {
  // Plain s-t DoEstimate shares the stratified core: S = 1 is legacy, S > 1
  // changes the sampling plan but stays deterministic per (content, S).
  const UncertainGraph graph = RandomSmallGraph(24, 70, 0.3, 0.9, 74);
  MonteCarloEstimator a(graph);
  MonteCarloEstimator b(graph);
  for (const uint32_t strata : {1u, 4u, 16u}) {
    EstimateOptions options;
    options.num_samples = 300;
    options.seed = 7;
    options.num_strata = strata;
    const double first =
        a.Estimate(ReliabilityQuery{0, 9}, options).MoveValue().reliability;
    const double second =
        b.Estimate(ReliabilityQuery{0, 9}, options).MoveValue().reliability;
    EXPECT_EQ(std::memcmp(&first, &second, sizeof(double)), 0);
  }
}

/// Distinct parameterizations of one hot source: the stratified scheduler's
/// bread and butter (no query-level coalescing possible, every query needs
/// the same sweep).
std::vector<EngineQuery> HotSourceMix(NodeId source, uint32_t queries) {
  std::vector<EngineQuery> mix;
  for (uint32_t k = 1; k <= queries; ++k) {
    mix.push_back(EngineQuery::TopK(source, k));
  }
  return mix;
}

TEST(StratifiedSweepTest, EngineBitIdenticalAcrossThreadsAndSchedulers) {
  // The acceptance matrix: threads in {1, 2, 8} x S in {1, 4, 16} x
  // stealing-vs-blocking (coalescing on/off) — every config bit-identical
  // to the 1-thread serial reference *for the same S*.
  const UncertainGraph graph = RandomSmallGraph(24, 70, 0.3, 0.9, 75);
  std::vector<EngineQuery> queries = HotSourceMix(2, 6);
  const std::vector<EngineQuery> second_source = HotSourceMix(11, 4);
  queries.insert(queries.end(), second_source.begin(), second_source.end());
  queries.push_back(EngineQuery::ReliableSet(2, 0.3));
  queries.push_back(EngineQuery::St(2, 17));

  for (const EstimatorKind kind :
       {EstimatorKind::kMonteCarlo, EstimatorKind::kBfsSharing}) {
    SCOPED_TRACE(EstimatorKindName(kind));
    for (const uint32_t strata : {1u, 4u, 16u}) {
      SCOPED_TRACE(strata);
      EngineOptions reference_options = BaseOptions(1, kind, strata);
      reference_options.enable_coalescing = false;
      auto reference_engine =
          QueryEngine::Create(graph, reference_options).MoveValue();
      const std::vector<EngineResult> reference =
          reference_engine->RunBatch(queries).MoveValue();
      for (const EngineResult& r : reference) ASSERT_TRUE(r.ok()) << r.status;

      for (const size_t threads : {1u, 2u, 8u}) {
        for (const bool coalescing : {true, false}) {
          SCOPED_TRACE(threads);
          SCOPED_TRACE(coalescing);
          EngineOptions options = BaseOptions(threads, kind, strata);
          options.enable_coalescing = coalescing;
          auto engine = QueryEngine::Create(graph, options).MoveValue();
          ExpectBitIdentical(reference, engine->RunBatch(queries).MoveValue());
        }
      }
    }
  }
}

TEST(StratifiedSweepTest, BfsSharingSweepsIgnoreStratumCount) {
  // The slice-invariance carries to the engine: BFS Sharing answers are
  // bit-identical across different S (MC answers deliberately are not).
  const UncertainGraph graph = RandomSmallGraph(24, 70, 0.3, 0.9, 76);
  const std::vector<EngineQuery> queries = HotSourceMix(4, 5);
  std::vector<EngineResult> reference;
  for (const uint32_t strata : {1u, 4u, 16u}) {
    SCOPED_TRACE(strata);
    auto engine =
        QueryEngine::Create(graph,
                            BaseOptions(4, EstimatorKind::kBfsSharing, strata))
            .MoveValue();
    std::vector<EngineResult> results = engine->RunBatch(queries).MoveValue();
    for (const EngineResult& r : results) ASSERT_TRUE(r.ok()) << r.status;
    if (reference.empty()) {
      reference = std::move(results);
    } else {
      ExpectBitIdentical(reference, results);
    }
  }
}

TEST(StratifiedSweepTest, StrataAreCountedAndStolenUnderConcurrency) {
  const UncertainGraph graph = RandomSmallGraph(40, 150, 0.3, 0.9, 77);
  EngineOptions options = BaseOptions(8, EstimatorKind::kMonteCarlo, 16);
  options.num_samples = 2000;
  options.enable_cache = false;
  // A sweep heavy enough to overlap claims: every claimed stratum sleeps
  // 2 ms first (induced latency changes no answer), so the leader cannot
  // drain all 16 strata before the other workers join its flight. Without
  // it a stratum of this small graph runs in microseconds and the leader
  // often finishes alone.
  FaultPlan plan;
  plan.probability[static_cast<size_t>(FaultSite::kInducedLatency)] = 1.0;
  plan.latency_us = 2000;
  FaultInjector::Global().Configure(plan);
  struct InjectorGuard {
    ~InjectorGuard() { FaultInjector::Global().Disable(); }
  } guard;
  auto engine = QueryEngine::Create(graph, options).MoveValue();
  const std::vector<EngineResult> results =
      engine->RunBatch(HotSourceMix(1, 16)).MoveValue();
  FaultInjector::Global().Disable();
  for (const EngineResult& r : results) ASSERT_TRUE(r.ok()) << r.status;
  const EngineStatsSnapshot snapshot = engine->StatsSnapshot();
  // One sweep, all 16 strata executed through the scheduler.
  EXPECT_EQ(snapshot.sweep_executed, 1u);
  EXPECT_EQ(snapshot.strata_executed, 16u);
  EXPECT_LE(snapshot.strata_stolen, snapshot.strata_executed);
  // Per-sweep latency was sampled.
  EXPECT_GT(snapshot.sweep_p95_ms, 0.0);
  if (std::thread::hardware_concurrency() >= 2) {
    // With real parallelism the 15 coalesced waiters overwhelmingly steal
    // at least one of the 16 strata instead of all blocking.
    EXPECT_GT(snapshot.strata_stolen, 0u);
  }
}

TEST(StratifiedSweepTest, StratifiedMcMatchesUnstratifiedWithinTolerance) {
  // Stratification re-plans the sampling but not the estimand: S = 8 and
  // S = 1 sweeps over the same budget agree within MC convergence bounds
  // (each node's difference of two independent K-sample proportions).
  const UncertainGraph graph = RandomSmallGraph(30, 100, 0.3, 0.9, 80);
  const uint32_t kSamples = 4000;
  const std::vector<double> flat =
      MonteCarloReliabilityFromSource(graph, 0, kSamples, 555, 1).MoveValue();
  const std::vector<double> stratified =
      MonteCarloReliabilityFromSource(graph, 0, kSamples, 555, 8).MoveValue();
  ASSERT_EQ(flat.size(), stratified.size());
  for (size_t v = 0; v < flat.size(); ++v) {
    // z = 5 on the two-estimate difference: sqrt(2 * p(1-p) / K) <=
    // sqrt(0.5 / K).
    const double bound =
        5.0 * std::sqrt(0.5 / static_cast<double>(kSamples)) + 1e-9;
    EXPECT_NEAR(flat[v], stratified[v], bound) << "node " << v;
  }
  // Engine parity: the engine's stratified answer equals the standalone API
  // given the same stratum count (the reproduction contract).
  EngineOptions options = BaseOptions(4, EstimatorKind::kMonteCarlo, 8);
  auto engine = QueryEngine::Create(graph, options).MoveValue();
  const EngineQuery query = EngineQuery::TopK(0, 10);
  const std::vector<EngineResult> results =
      engine->RunBatch(std::vector<EngineQuery>{query}).MoveValue();
  ASSERT_TRUE(results[0].ok()) << results[0].status;
  const std::vector<ReliableTarget> expected =
      TopKReliableTargetsMonteCarlo(graph, 0, 10, options.num_samples,
                                    engine->QuerySeed(query),
                                    options.num_strata)
          .MoveValue();
  ASSERT_EQ(results[0].targets.size(), expected.size());
  for (size_t j = 0; j < expected.size(); ++j) {
    EXPECT_EQ(results[0].targets[j].node, expected[j].node);
    EXPECT_EQ(std::memcmp(&results[0].targets[j].reliability,
                          &expected[j].reliability, sizeof(double)),
              0);
  }
}

TEST(StratifiedSweepTest, SharedPreparedStateReproducesSweepBitwise) {
  // The stratum-thief fast path: instead of re-running the leader's O(L·m)
  // prepare, a sibling replica adopts the leader's generation snapshot in
  // O(1) and reads literally the same worlds.
  const UncertainGraph graph = RandomSmallGraph(20, 60, 0.3, 0.9, 83);
  BfsSharingOptions bfs;
  bfs.index_samples = 128;
  auto leader = BfsSharingEstimator::Create(graph, bfs, 1).MoveValue();
  ASSERT_TRUE(leader->PrepareForNextQuery(0xBEEF).ok());
  const std::vector<double> expected =
      leader->ReliabilityFromSource(2, 100).MoveValue();

  auto thief = BfsSharingEstimator::Create(graph, bfs, 99).MoveValue();
  ASSERT_TRUE(thief->SupportsSharedPreparedState());
  std::shared_ptr<const PreparedGeneration> state =
      leader->ShareCurrentPreparedState().MoveValue();
  ASSERT_NE(state, nullptr);
  ASSERT_TRUE(thief->AdoptSharedPreparedState(state).ok());
  // Literally the same generation object, not a bit-identical rebuild.
  EXPECT_EQ(thief->SharedIndexIdentity(), leader->SharedIndexIdentity());
  const std::vector<double> adopted =
      thief->ReliabilityFromSource(2, 100).MoveValue();
  ASSERT_EQ(adopted.size(), expected.size());
  for (size_t v = 0; v < expected.size(); ++v) {
    EXPECT_EQ(std::memcmp(&adopted[v], &expected[v], sizeof(double)), 0);
  }
  // The sharer's next inline prepare must not refill the shared worlds
  // under the thief: it swaps to a fresh generation instead.
  const void* shared_generation = leader->SharedIndexIdentity();
  ASSERT_TRUE(leader->PrepareForNextQuery(0xF00D).ok());
  EXPECT_NE(leader->SharedIndexIdentity(), shared_generation);
  EXPECT_EQ(thief->SharedIndexIdentity(), shared_generation);

  // MC has no shared prepared state (its prepare is a no-op already).
  MonteCarloEstimator mc(graph);
  EXPECT_FALSE(mc.SupportsSharedPreparedState());
}

TEST(StratifiedSweepTest, FlightPeakMemoryReachesEveryParticipant) {
  // Every flight participant — the leader and any joiner — reports the
  // sweep's tracked working-set peak, not just its own derivation scan
  // (sweep queries report the sweep's footprint). Sweep cache off forces
  // every query through a flight (no memo hits), so at least the flight
  // leaders carry the full peak whatever the thread interleaving.
  const UncertainGraph graph = RandomSmallGraph(20, 60, 0.3, 0.9, 84);
  EngineOptions options = BaseOptions(2, EstimatorKind::kMonteCarlo, 4);
  options.enable_cache = false;
  options.enable_sweep_cache = false;
  auto engine = QueryEngine::Create(graph, options).MoveValue();
  const std::vector<EngineResult> results =
      engine->RunBatch(HotSourceMix(3, 8)).MoveValue();
  for (const EngineResult& r : results) ASSERT_TRUE(r.ok()) << r.status;
  // The MC stratum working set (hit counts + epoch marks + BFS queue,
  // 3 x uint32 per node) exceeds the bare derivation scan (n doubles).
  const size_t derive_only = graph.num_nodes() * sizeof(double);
  EXPECT_GT(engine->StatsSnapshot().peak_memory_bytes, derive_only);
}

}  // namespace
}  // namespace relcomp
