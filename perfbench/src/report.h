#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

/// \file
/// Named metrics and the result line the benchmark ends with.

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Printed beside the value in the human-readable lines (e.g. the
  /// sample count of a percentile); not part of the JSON.
  std::string note = "";
};

/// One line per metric, then the JSON object
/// {"correct", "attempted", "failed", "metrics"} as the last line.
void PrintResult(const std::vector<Metric>& metrics, bool correct,
                 std::uint64_t attempted, std::uint64_t failed,
                 std::ostream& out);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
