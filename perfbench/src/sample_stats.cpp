#include "sample_stats.hpp"

#include <algorithm>

namespace perfbench {

namespace {

std::size_t rank_of(std::size_t n, int pct) {
  return (static_cast<std::size_t>(pct) * n + 99) / 100;  // ceil, 1-based
}

}  // namespace

Percentile percentile(std::vector<double> values, int pct) {
  Percentile p;
  p.samples = values.size();
  if (values.empty()) return p;
  const std::size_t rank = std::max<std::size_t>(1, rank_of(values.size(), pct));
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  p.value = values[rank - 1];
  p.beyond = values.size() - rank;
  return p;
}

}  // namespace perfbench
