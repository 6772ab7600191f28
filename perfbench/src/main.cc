// Repository benchmark. One run: one workload, one seed, one mode.
//
//   perfbench --workload train_gemm|train_dist|serve_mix --seed N
//             --seconds S --trace 0|1 [--workdir DIR]
//
// Prints context lines, the metric table and, as its last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics when untraced, the per-layer metrics when traced. Exits 1 when
// an output check failed, 2 on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "report.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload train_gemm|train_dist|serve_mix "
               "--seed N --seconds S --trace 0|1 [--workdir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--dist-worker") == 0) {
    return perfbench::DistWorkerMain(argc - 2, argv + 2);
  }
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || !(options.seconds > 0.0)) return Usage();

  perfbench::RunResult result;
  if (options.workload == "train_gemm") {
    result = perfbench::RunTrainGemm(options);
  } else if (options.workload == "train_dist") {
    result = perfbench::RunTrainDist(options);
  } else if (options.workload == "serve_mix") {
    result = perfbench::RunServeMix(options);
  } else {
    return Usage();
  }
  if (result.attempted == 0) result.Fail("no operation ran");
  const std::vector<perfbench::Metric> metrics =
      options.trace
          ? perfbench::Collect(&result, perfbench::kLayerMetrics, false)
          : perfbench::Collect(&result, perfbench::kEndToEndMetrics, true);
  perfbench::PrintRun(result, metrics, stdout);
  return result.correct() ? 0 : 1;
}
