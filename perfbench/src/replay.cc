#include "replay.h"

#include <unordered_set>

#include "common/bitvector.h"
#include "common/crc32c.h"
#include "common/rng.h"
#include "engine/result_cache.h"
#include "engine/sweep_cache.h"
#include "eval/query_gen.h"
#include "obs/metrics.h"
#include "persist/snapshot.h"

namespace perfbench {

using relcomp::EngineQuery;

namespace {

constexpr int kProbeRepeats = 9;
constexpr uint64_t kMaxCacheKeys = 50000;
constexpr size_t kCrcBytes = size_t{4} << 20;
constexpr uint64_t kHistogramBatch = 10000;
constexpr uint32_t kGeneratedPairs = 2000;

/// Makes the probed call's output observable, so the optimiser keeps it.
void KeepAlive(const void* p) { asm volatile("" : : "g"(p) : "memory"); }

/// Re-runs one engine-computed query on `replica` under the engine's plan
/// and seeds; returns false when the answer differs from the engine's.
relcomp::Result<bool> Recompute(const relcomp::QueryEngine& engine,
                                relcomp::Estimator& replica,
                                const EngineQuery& query, const Answer& answer,
                                uint64_t index, uint64_t parent,
                                SpanLog& log) {
  const relcomp::QueryPlan plan = engine.PlanFor(query);
  {
    ScopedSpan span(&log, SpanName::kPrepare, parent, index);
    RELCOMP_RETURN_NOT_OK(replica.PrepareForNextQuery(engine.PrepareSeed(query)));
  }
  relcomp::EstimateOptions options;
  options.num_samples = plan.num_samples;
  options.num_strata = plan.num_strata;
  options.seed = engine.QuerySeed(query);
  if (relcomp::IsSweepWorkload(query.workload)) {
    std::vector<double> sweep;
    {
      ScopedSpan span(&log, SpanName::kSweep, parent, index);
      RELCOMP_ASSIGN_OR_RETURN(sweep,
                               replica.EstimateFromSource(query.source, options));
    }
    const relcomp::WorkloadResult derived =
        relcomp::DeriveFromSweep(query, sweep, plan.num_samples);
    const bool same_top =
        derived.targets.empty()
            ? answer.num_targets == 0
            : derived.targets.front().node == answer.top_node &&
                  derived.targets.front().reliability == answer.top_reliability;
    return derived.targets.size() == answer.num_targets && same_top;
  }
  relcomp::WorkloadResult result;
  {
    ScopedSpan span(&log,
                    query.workload == relcomp::WorkloadKind::kDistance
                        ? SpanName::kDistance
                        : SpanName::kEstimate,
                    parent, index);
    RELCOMP_ASSIGN_OR_RETURN(result,
                             relcomp::DispatchWorkload(replica, query, options));
  }
  return result.reliability == answer.reliability &&
         result.num_samples == answer.num_samples;
}

/// Feeds the traced phase's key stream to a standalone ResultCache and
/// SweepCache sized like the engine's.
uint64_t ReplayCaches(const ReplayInputs& in, SpanLog& log) {
  const relcomp::EngineOptions& options = in.engine->options();
  relcomp::ResultCache results(options.cache_capacity, options.cache_shards,
                               options.cache_max_bytes);
  relcomp::SweepCache sweeps(options.sweep_cache_max_bytes);
  // Sweep entries are charged by size; their contents never matter here.
  const auto sweep_vector = std::make_shared<const std::vector<double>>(
      in.graph->num_nodes(), 0.0);
  uint64_t keys = 0;
  for (uint64_t i = in.first_index; i < in.end_index && keys < kMaxCacheKeys;
       ++i, ++keys) {
    const EngineQuery query = in.stream->At(i);
    const relcomp::QueryPlan plan = in.engine->PlanFor(query);
    const uint64_t seed = in.engine->QuerySeed(query);
    const relcomp::ResultCacheKey key{query, plan.kind, plan.num_samples, seed};
    bool hit = false;
    {
      ScopedSpan span(&log, SpanName::kResultLookup, kNoSpan, i);
      hit = results.Lookup(key).has_value();
    }
    if (relcomp::IsSweepWorkload(query.workload)) {
      const relcomp::SweepCacheKey sweep_key{plan.kind, query.source,
                                             plan.num_samples, seed};
      bool sweep_hit = false;
      {
        ScopedSpan span(&log, SpanName::kSweepLookup, kNoSpan, i);
        sweep_hit = sweeps.Lookup(sweep_key) != nullptr;
      }
      if (!sweep_hit) sweeps.Insert(sweep_key, sweep_vector);
    }
    if (hit) continue;
    relcomp::ResultCacheValue value(0.0, plan.num_samples);
    if (const Answer* answer = in.answers->Find(i)) {
      value.reliability = answer->reliability;
      value.targets.resize(answer->num_targets);
    }
    ScopedSpan span(&log, SpanName::kResultInsert, kNoSpan, i);
    results.Insert(key, value);
  }
  return keys;
}

}  // namespace

relcomp::Result<ReplayReport> RunReplay(const ReplayInputs& in, SpanLog& log) {
  ReplayReport report;
  const relcomp::UncertainGraph& graph = *in.graph;

  // reliability: one bare replica built with the engine's factory options,
  // re-running only the queries the engine computed itself.
  std::unique_ptr<relcomp::Estimator> replica;
  {
    ScopedSpan span(&log, SpanName::kIndexBuild);
    RELCOMP_ASSIGN_OR_RETURN(
        replica, relcomp::MakeEstimator(in.spec->kind, graph,
                                        in.engine->options().factory));
  }
  // The engine runs one sweep per source and derives every later sweep-kind
  // query over that source from it; sources swept before the traced phase
  // are in its sweep cache already.
  std::unordered_set<relcomp::NodeId> swept;
  for (uint64_t i = 0; i < in.first_index; ++i) {
    const EngineQuery query = in.stream->At(i);
    if (relcomp::IsSweepWorkload(query.workload)) swept.insert(query.source);
  }
  const relcomp::StopwatchNs budget;
  for (uint64_t i = in.first_index;
       i < in.end_index && budget.ElapsedSeconds() < in.compute_budget_seconds;
       ++i) {
    const Answer* logged = in.answers->Find(i);
    if (logged == nullptr) break;
    const Answer& answer = *logged;
    if (!answer.answered || answer.cache_hit || answer.coalesced) continue;
    const EngineQuery query = in.stream->At(i);
    if (relcomp::IsSweepWorkload(query.workload) &&
        !swept.insert(query.source).second) {
      continue;
    }
    ScopedSpan root(&log, SpanName::kReplayQuery, kNoSpan, i);
    RELCOMP_ASSIGN_OR_RETURN(
        const bool same,
        Recompute(*in.engine, *replica, query, answer, i, root.id(), log));
    ++report.recomputed;
    if (!same) ++report.mismatches;
  }

  // engine: the caches on their own, fed the workload's key stream.
  report.cache_keys = ReplayCaches(in, log);

  // persist, common, obs, graph: one public call each, repeated.
  for (int r = 0; r < kProbeRepeats; ++r) {
    ScopedSpan span(&log, SpanName::kSnapshotOpen);
    RELCOMP_RETURN_NOT_OK(
        relcomp::SnapshotReader::Open(in.snapshot_path).status());
  }
  std::vector<uint8_t> bytes(kCrcBytes);
  relcomp::Rng rng(0xC4C);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.NextU64());
  uint32_t crc = 0;
  for (int r = 0; r < kProbeRepeats; ++r) {
    ScopedSpan span(&log, SpanName::kCrc32c);
    crc ^= relcomp::Crc32c(bytes.data(), bytes.size());
  }
  report.crc_bytes = kCrcBytes;
  // One BFS Sharing resample draws L bits per edge; probe 64 per edge.
  const size_t bits = graph.num_edges() * 64;
  std::vector<uint64_t> words((bits + 63) / 64);
  const double p = graph.ProbStats().mean;
  for (int r = 0; r < kProbeRepeats; ++r) {
    ScopedSpan span(&log, SpanName::kFillBernoulli);
    relcomp::BitVector::FillBernoulliWords(words.data(), bits, p, rng);
  }
  report.bernoulli_bits = bits;
  relcomp::obs::Histogram histogram;
  for (int r = 0; r < 2 * kProbeRepeats; ++r) {
    ScopedSpan span(&log, SpanName::kHistogramRecord);
    for (uint64_t v = 0; v < kHistogramBatch; ++v) {
      histogram.Record((v * 2654435761ULL) >> 8);
    }
  }
  report.histogram_batch = kHistogramBatch;
  double probability_sum = 0.0;
  for (int r = 0; r < kProbeRepeats; ++r) {
    ScopedSpan span(&log, SpanName::kAdjacencyScan);
    for (relcomp::NodeId v = 0; v < graph.num_nodes(); ++v) {
      for (const relcomp::AdjEntry& entry : graph.OutEdges(v)) {
        probability_sum += entry.prob;
      }
    }
  }
  report.scanned_edges = graph.num_edges();
  relcomp::QueryGenOptions generate;
  generate.num_pairs = kGeneratedPairs;
  for (int r = 0; r < kProbeRepeats; ++r) {
    generate.seed = static_cast<uint64_t>(r);
    ScopedSpan span(&log, SpanName::kGenerateQueries);
    RELCOMP_ASSIGN_OR_RETURN(const auto pairs,
                             relcomp::GenerateQueries(graph, generate));
    report.generated_pairs = pairs.size();
  }
  KeepAlive(&crc);
  KeepAlive(words.data());
  KeepAlive(&probability_sum);
  return report;
}

}  // namespace perfbench
