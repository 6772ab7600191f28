#ifndef TRACER_BENCH_MICRO_MAIN_H_
#define TRACER_BENCH_MICRO_MAIN_H_

// Shared main() for the google-benchmark micro harnesses (micro_tensor,
// micro_model). Behaves exactly like benchmark_main — console output,
// --benchmark_* flags — and additionally captures every finished benchmark
// case so the run can be written as a BENCH_<name>.json artifact when
// TRACER_BENCH_JSON is set (see bench_util.h BenchArtifact for the schema).

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace tracer {
namespace bench {

/// ConsoleReporter that also records each per-iteration run (aggregates and
/// errored runs excluded) for the JSON artifact.
class ArtifactReporter : public benchmark::ConsoleReporter {
 public:
  struct Row {
    std::string name;
    double wall_time_s = 0.0;
    double ops_per_sec = 0.0;
    int64_t iterations = 0;
  };

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      Row row;
      row.name = run.benchmark_name();
      row.wall_time_s = run.real_accumulated_time;
      row.iterations = static_cast<int64_t>(run.iterations);
      // SetItemsProcessed surfaces as the "items_per_second" counter; the
      // runner has already normalised it to a rate by the time reporters
      // see it (Counter::Finish runs in BenchmarkRunner).
      const auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) {
        row.ops_per_sec = it->second.value;
      }
      rows_.push_back(std::move(row));
    }
    benchmark::ConsoleReporter::ReportRuns(reports);
  }

  const std::vector<Row>& rows() const { return rows_; }

 private:
  std::vector<Row> rows_;
};

/// Routes benchmark rows whose name starts with `prefix` into their own
/// BENCH_<artifact_name>.json, so one harness binary can feed several
/// independent perf trajectories (micro_tensor splits its GEMM sweep out as
/// BENCH_gemm.json). Splits only separate cleanly when TRACER_BENCH_JSON
/// names a directory; a literal ".json" path makes the artifacts overwrite
/// each other.
struct ArtifactSplit {
  std::string prefix;
  std::string artifact_name;
};

/// Drop-in main() body for a micro harness: runs the registered benchmarks
/// through ArtifactReporter and emits BENCH_<name>.json when requested,
/// plus one BENCH_<split>.json per matching ArtifactSplit.
inline int RunMicroBenchmarks(const std::string& name, int argc, char** argv,
                              const std::vector<ArtifactSplit>& splits = {}) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ArtifactReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  BenchArtifact artifact(name);
  artifact.AddConfig("harness", "google-benchmark");
  std::vector<BenchArtifact> split_artifacts;
  std::vector<bool> split_has_rows(splits.size(), false);
  split_artifacts.reserve(splits.size());
  for (const ArtifactSplit& split : splits) {
    split_artifacts.emplace_back(split.artifact_name);
    split_artifacts.back().AddConfig("harness", "google-benchmark");
  }
  for (const ArtifactReporter::Row& row : reporter.rows()) {
    size_t target = splits.size();  // default: the main artifact
    for (size_t i = 0; i < splits.size(); ++i) {
      if (row.name.rfind(splits[i].prefix, 0) == 0) {
        target = i;
        break;
      }
    }
    BenchArtifact& dest =
        target < splits.size() ? split_artifacts[target] : artifact;
    if (target < splits.size()) split_has_rows[target] = true;
    dest.AddSection(row.name, row.wall_time_s, row.ops_per_sec,
                    row.iterations);
  }
  artifact.WriteIfRequested();
  for (size_t i = 0; i < split_artifacts.size(); ++i) {
    // A filtered run (--benchmark_filter) may leave a split empty; don't
    // clobber a previous artifact with a rowless file.
    if (split_has_rows[i]) split_artifacts[i].WriteIfRequested();
  }
  return 0;
}

}  // namespace bench
}  // namespace tracer

#endif  // TRACER_BENCH_MICRO_MAIN_H_
