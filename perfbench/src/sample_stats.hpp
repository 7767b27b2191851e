#pragma once

// Percentiles with their sample counts. A tail percentile should have at
// least kMinTailSamples samples ranked above it; the benchmark's header
// line prints how many it has.

#include <cstddef>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kMinTailSamples = 10;

struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;  ///< n
  std::size_t beyond = 0;   ///< samples ranked strictly above `value`
};

/// Nearest-rank percentile: the ceil(pct * n / 100)-th smallest sample
/// (pct in 1..100). An empty input gives a zero result.
Percentile percentile(std::vector<double> values, int pct);

}  // namespace perfbench
