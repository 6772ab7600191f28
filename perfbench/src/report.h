#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Metrics of an untraced run, identical in name and unit on every
/// workload (each workload states what its unit of work is).
extern const std::vector<MetricSpec> kEndToEndMetrics;
/// Metrics of a traced run. A layer a workload bypasses reports 0.
extern const std::vector<MetricSpec> kLayerMetrics;

/// What one benchmark run measured, plus the operation counts and the
/// verdict of the output checks.
struct RunResult {
  std::map<std::string, double> values;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Human-readable reasons for every failed check.
  std::vector<std::string> check_failures;
  /// Context lines printed above the metric table.
  std::vector<std::string> notes;

  void Set(const std::string& name, double value) { values[name] = value; }
  /// Records a failed check covering `operations` failed operations.
  void Fail(const std::string& why, int64_t operations = 1) {
    check_failures.push_back(why);
    failed += operations;
  }
  bool correct() const { return check_failures.empty(); }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Orders `result.values` by `specs`. A missing or non-finite value is a
/// failed check when `required`, and 0 otherwise (bypassed layer).
std::vector<Metric> Collect(RunResult* result,
                            const std::vector<MetricSpec>& specs,
                            bool required);

/// The final machine-readable line: {"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}}, values with every digit (%.17g).
std::string ResultJson(const RunResult& result,
                       const std::vector<Metric>& metrics);

/// Prints notes, check failures and the metric table, then the JSON line.
void PrintRun(const RunResult& result, const std::vector<Metric>& metrics,
              std::FILE* out);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
