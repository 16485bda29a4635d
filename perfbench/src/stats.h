#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

namespace perfbench {

/// Nearest-rank quantile of `values` (sorted in place); 0 when empty.
template <typename T>
double Quantile(std::vector<T>& values, double q) {
  if (values.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const size_t index = rank == 0 ? 0 : std::min(rank, values.size()) - 1;
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return static_cast<double>(values[index]);
}

/// Quantile `q` of `values` (sorted in place), interpolated between the two
/// nearest ranks as Python's statistics.quantiles(method="inclusive") does;
/// 0 when empty.
inline double Interpolated(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double at = q * static_cast<double>(values.size() - 1);
  const size_t below = static_cast<size_t>(at);
  if (below + 1 >= values.size()) return values.back();
  const double frac = at - static_cast<double>(below);
  return values[below] + frac * (values[below + 1] - values[below]);
}

}  // namespace perfbench
