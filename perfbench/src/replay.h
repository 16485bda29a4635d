#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/query_engine.h"
#include "serve.h"
#include "spans.h"
#include "workload.h"

namespace perfbench {

/// What the traced run replays against bare layer objects.
struct ReplayInputs {
  const WorkloadSpec* spec = nullptr;
  const relcomp::UncertainGraph* graph = nullptr;
  /// Source of the plans and seeds (QuerySeed / PrepareSeed / SweepSeed),
  /// so the replay repeats exactly the work the engine did.
  const relcomp::QueryEngine* engine = nullptr;
  const QueryStream* stream = nullptr;
  const AnswerLog* answers = nullptr;
  /// Stream indices the traced phase sent.
  uint64_t first_index = 0;
  uint64_t end_index = 0;
  /// Wall-clock budget for re-computing the engine's computed queries.
  double compute_budget_seconds = 1.0;
  /// Snapshot file SnapshotReader::Open is timed on.
  std::string snapshot_path;
};

struct ReplayReport {
  /// Engine-computed queries re-run on the bare estimator replica.
  uint64_t recomputed = 0;
  /// Of those, answers that differ from the engine's (must be 0: the engine
  /// promises bit-identical answers from its published seeds).
  uint64_t mismatches = 0;
  /// Keys fed to the standalone ResultCache / SweepCache.
  uint64_t cache_keys = 0;
  /// Bytes per Crc32c call and bits per FillBernoulliWords call, and
  /// records per obs.histogram_record span.
  uint64_t crc_bytes = 0;
  uint64_t bernoulli_bits = 0;
  uint64_t histogram_batch = 0;
  uint64_t scanned_edges = 0;
  /// s-t pairs per GenerateQueries call.
  uint64_t generated_pairs = 0;
};

/// Runs the replay, recording its spans into `log`.
relcomp::Result<ReplayReport> RunReplay(const ReplayInputs& inputs,
                                        SpanLog& log);

}  // namespace perfbench
