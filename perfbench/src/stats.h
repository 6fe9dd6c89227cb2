#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

/// \file
/// Order statistics for latency samples and repeated timings.

#include <cstddef>
#include <vector>

namespace perfbench {

struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
  /// Samples strictly above the percentile's rank.
  std::size_t beyond = 0;
  /// A percentile is only reported with at least ten samples beyond it.
  bool supported() const { return beyond >= 10; }
};

/// Nearest-rank percentile \p q (0 < q <= 100) of \p samples: the value
/// at 1-based rank ceil(q/100 * n) of the sorted samples.
Percentile PercentileOf(std::vector<double> samples, double q);

/// Median (mean of the two middle values for even counts); 0 if empty.
double Median(std::vector<double> samples);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
