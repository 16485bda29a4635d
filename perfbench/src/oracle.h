#pragma once

#include <cstdint>
#include <vector>

#include "graph/uncertain_graph.h"
#include "serve.h"
#include "workload.h"

namespace perfbench {

/// \brief Accuracy of the engine's scalar (s-t and distance) answers against
/// a standalone high-budget Monte Carlo reference R_ref.
struct OracleReport {
  uint64_t sample = 0;  ///< distinct scalar answers checked
  /// Checked answers whose reported sample count differs from the
  /// workload's budget. Printed, not failed: σ always uses the configured
  /// budget, so an answer computed at a smaller one shows as error.
  uint64_t budget_mismatches = 0;
  /// Of those, answers whose reference R_ref lies well inside (0, 1): the
  /// ones err_ratio is taken over.
  uint64_t informative = 0;
  /// RMS over the informative answers of z = (R̂ − R_ref) / σ, where
  /// σ² = R_ref (1 − R_ref) (1/K + 1/K_ref) is the sampling variance of the
  /// difference, K being the workload's configured budget (never the count
  /// the engine reports): ≈ 1 for an unbiased estimator at budget K; a
  /// budget cut, hidden or reported, or a bias raises it. Every answer weighs the same,
  /// so a few high-variance pairs cannot dominate the figure.
  double err_ratio = 0.0;
  /// Answers with |z| > 3 against the number a correct estimator may show.
  uint64_t violations = 0;
  double allowed_violations = 0.0;
  bool pass = false;
};

/// Checks the first `sample_size` distinct scalar answers in stream order (a
/// fixed sample for a given seed, whatever the run's speed). The reference
/// runs on `threads` threads outside any timed phase. `budget` is the
/// workload's configured samples per query. `perturb` is added to every
/// checked answer (0 in a real run).
OracleReport RunOracle(const relcomp::UncertainGraph& graph,
                       const QueryStream& stream,
                       const AnswerLog& answers, size_t sample_size,
                       uint32_t budget, size_t threads, double perturb);

}  // namespace perfbench
