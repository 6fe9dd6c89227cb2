#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

Percentile PercentileOf(std::vector<double> samples, double q) {
  Percentile result;
  result.samples = samples.size();
  if (samples.empty()) return result;
  std::sort(samples.begin(), samples.end());
  const double exact = q / 100.0 * static_cast<double>(samples.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  result.value = samples[rank - 1];
  result.beyond = samples.size() - rank;
  return result;
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  if (samples.size() % 2 == 1) return samples[mid];
  return 0.5 * (samples[mid - 1] + samples[mid]);
}

}  // namespace perfbench
