// Micro-benchmarks (google-benchmark): per-query cost of each estimator at
// fixed K on the LastFM analogue, plus the core primitives (possible-world
// sampling, BFS Sharing bit-vector propagation, ProbTree query-graph
// extraction, BFS Sharing index resampling). Complements the table benches
// with tight per-op numbers.

#include <benchmark/benchmark.h>

#include <vector>

#include "common/bitvector.h"
#include "common/rng.h"
#include "eval/query_gen.h"
#include "graph/datasets.h"
#include "graph/possible_world.h"
#include "reliability/bfs_sharing.h"
#include "reliability/estimator_factory.h"

namespace relcomp {
namespace {

struct Fixture {
  Dataset dataset;
  std::vector<ReliabilityQuery> queries;

  static const Fixture& Get() {
    static const Fixture* fixture = [] {
      auto* f = new Fixture();
      f->dataset = MakeDataset(DatasetId::kLastFm, Scale::kTiny, 7).MoveValue();
      QueryGenOptions options;
      options.num_pairs = 8;
      options.seed = 11;
      f->queries = GenerateQueries(f->dataset.graph, options).MoveValue();
      return f;
    }();
    return *fixture;
  }
};

void BM_Estimator(benchmark::State& state, EstimatorKind kind) {
  const Fixture& fixture = Fixture::Get();
  FactoryOptions factory;
  factory.bfs_sharing.index_samples = 2048;
  auto estimator = MakeEstimator(kind, fixture.dataset.graph, factory);
  if (!estimator.ok()) {
    state.SkipWithError(estimator.status().ToString().c_str());
    return;
  }
  const uint32_t k = static_cast<uint32_t>(state.range(0));
  size_t qi = 0;
  uint64_t seed = 1;
  for (auto _ : state) {
    EstimateOptions opts;
    opts.num_samples = k;
    opts.seed = ++seed;
    const auto result =
        (*estimator)->Estimate(fixture.queries[qi % fixture.queries.size()], opts);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(result->reliability);
    ++qi;
  }
  state.counters["samples_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * k, benchmark::Counter::kIsRate);
}

BENCHMARK_CAPTURE(BM_Estimator, MC, EstimatorKind::kMonteCarlo)
    ->Arg(250)->Arg(1000);
BENCHMARK_CAPTURE(BM_Estimator, BFSSharing, EstimatorKind::kBfsSharing)
    ->Arg(250)->Arg(1000);
BENCHMARK_CAPTURE(BM_Estimator, ProbTree, EstimatorKind::kProbTree)
    ->Arg(250)->Arg(1000);
BENCHMARK_CAPTURE(BM_Estimator, LPplus, EstimatorKind::kLazyPropagationPlus)
    ->Arg(250)->Arg(1000);
BENCHMARK_CAPTURE(BM_Estimator, RHH, EstimatorKind::kRecursive)
    ->Arg(250)->Arg(1000);
BENCHMARK_CAPTURE(BM_Estimator, RSS, EstimatorKind::kRecursiveStratified)
    ->Arg(250)->Arg(1000);

void BM_SampleWorld(benchmark::State& state) {
  const Fixture& fixture = Fixture::Get();
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SampleWorld(fixture.dataset.graph, rng));
  }
  state.counters["edges_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * fixture.dataset.graph.num_edges()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SampleWorld);

void BM_HopDistances(benchmark::State& state) {
  const Fixture& fixture = Fixture::Get();
  NodeId s = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(HopDistances(fixture.dataset.graph, s));
    s = (s + 1) % fixture.dataset.graph.num_nodes();
  }
}
BENCHMARK(BM_HopDistances);

// Index sampling layer: one edge's Bernoulli(p) world bits. Arg = p x 1000,
// covering both the geometric-skip path (p < 0.25) and the per-bit path.
void BM_FillBernoulliWords(benchmark::State& state) {
  const double p = static_cast<double>(state.range(0)) / 1000.0;
  constexpr size_t kBits = 1500;
  std::vector<uint64_t> words((kBits + 63) / 64);
  Rng rng(17);
  for (auto _ : state) {
    BitVector::FillBernoulliWords(words.data(), kBits, p, rng);
    benchmark::DoNotOptimize(words.data());
    benchmark::ClobberMemory();
  }
  state.counters["ns_per_bit"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kBits,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_FillBernoulliWords)->Arg(1)->Arg(10)->Arg(100)->Arg(500);

// The BFS-Sharing prepare stage: refill worlds [0, K) of every edge of an
// L = 1500 index on the NetHEPT analogue (small scale), as the engine does
// before each query with K = the plan's budget.
void BM_BfsSharingResample(benchmark::State& state) {
  static const Dataset* nethept =
      new Dataset(MakeDataset(DatasetId::kNetHept, Scale::kSmall, 1).MoveValue());
  const UncertainGraph& graph = nethept->graph;
  BfsSharingOptions options;
  options.index_samples = 1500;
  auto index = BfsSharingIndex::Build(graph, options, 1).MoveValue();
  const uint32_t k = static_cast<uint32_t>(state.range(0));
  uint64_t seed = 1;
  for (auto _ : state) {
    index->Resample(graph, ++seed, k);
    benchmark::DoNotOptimize(index->edge_words(0));
    benchmark::ClobberMemory();
  }
  state.counters["ns_per_bit"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * k * graph.num_edges(),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_BfsSharingResample)
    ->Arg(1000)
    ->Arg(1500)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace relcomp

BENCHMARK_MAIN();
