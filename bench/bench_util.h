#pragma once

// Shared boilerplate for the per-table / per-figure benchmark binaries.
//
// Every binary prints the experiment id, the paper's reported shape, and the
// measured table, honoring the RELCOMP_* environment knobs (see
// BenchConfig). Exact magnitudes differ from the paper (synthetic analogue
// datasets, laptop scale); compare shapes, not values.

#include <cstdio>
#include <string>

#include "common/format.h"
#include "eval/experiment.h"
#include "eval/table.h"

namespace relcomp::bench {

inline void PrintHeader(const char* experiment, const char* claim,
                        const BenchConfig& config) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment);
  std::printf("Paper's finding: %s\n", claim);
  std::printf("Config: %s\n", config.Describe().c_str());
  std::printf("==============================================================\n");
}

inline void PrintTable(const TextTable& table, const std::string& csv_name) {
  std::printf("%s\n", table.ToString().c_str());
  const Status csv = MaybeWriteCsv(table, csv_name);
  if (!csv.ok()) {
    std::fprintf(stderr, "warning: CSV export failed: %s\n",
                 csv.ToString().c_str());
  }
}

/// Abort-on-error helper for bench drivers (benches are executables; a
/// failed precondition should fail loudly, not limp on).
template <typename T>
T Unwrap(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what, result.status().ToString().c_str());
    std::exit(1);
  }
  return result.MoveValue();
}

inline void Check(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

inline std::string Fmt(double v, const char* fmt = "%.4f") {
  return StrFormat(fmt, v);
}

}  // namespace relcomp::bench
