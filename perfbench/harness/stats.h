#ifndef PERFBENCH_HARNESS_STATS_H_
#define PERFBENCH_HARNESS_STATS_H_

#include <cstddef>
#include <vector>

namespace perfbench {

/// Percentile level reported as a class's "p99": 0.99 when at least 1000
/// samples exist, otherwise the highest level that still leaves ten samples
/// beyond it (1 - 10/n). Below 20 samples no level above the median has ten
/// samples beyond it, and the median (0.5) is returned.
double TailLevel(size_t n);

/// Nearest-rank quantile: the ceil(q * n)-th smallest sample. 0 when empty.
double Quantile(std::vector<double> values, double q);

double Median(std::vector<double> values);

/// Median and tail of one latency class, with the sample count and the
/// level the tail was taken at.
struct LatencySummary {
  size_t count = 0;
  double p50 = 0;
  double tail = 0;
  double tail_level = 0;
};

LatencySummary Summarize(const std::vector<double>& values);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_STATS_H_
