#include "harness/stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double TailLevel(size_t n) {
  if (n < 20) return 0.5;
  return std::min(0.99, 1.0 - 10.0 / static_cast<double>(n));
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  const double n = static_cast<double>(values.size());
  // The tolerance keeps q * n from rounding up past an exact rank
  // (0.99 * 1000 is 990.0000000000001 in binary floating point).
  size_t rank = static_cast<size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<size_t>(rank, 1, values.size());
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

LatencySummary Summarize(const std::vector<double>& values) {
  LatencySummary s;
  s.count = values.size();
  s.p50 = Quantile(values, 0.5);
  s.tail_level = TailLevel(values.size());
  s.tail = Quantile(values, s.tail_level);
  return s;
}

}  // namespace perfbench
