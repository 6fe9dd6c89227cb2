#include "report.h"

#include <cmath>
#include <cstdio>

namespace perfbench {
namespace {

std::string Number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

void PrintResult(const std::vector<Metric>& metrics, bool correct,
                 std::uint64_t attempted, std::uint64_t failed,
                 std::ostream& out) {
  for (const Metric& metric : metrics) {
    out << metric.name << " = " << Number(metric.value) << " " << metric.unit;
    if (!metric.note.empty()) out << " (" << metric.note << ")";
    out << "\n";
  }
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
        << "\": {\"value\": " << Number(metrics[i].value) << ", \"unit\": \""
        << metrics[i].unit << "\"}";
  }
  out << "}}\n";
  out.flush();
}

}  // namespace perfbench
