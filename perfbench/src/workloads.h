#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "report.h"

namespace perfbench {

/// Command-line settings of one benchmark run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  /// Traced run: measure untraced, then again with spans and the autograd
  /// profiler on; report per-layer metrics and the tracing overhead.
  bool trace = false;
  /// Scratch directory for sockets, run states and trace files.
  std::string workdir = ".bench_build/run";
};

/// Set-up runs this many times and its median is reported, so one slow
/// page-in does not move setup_s.
constexpr int kSetupRepeats = 3;

RunResult RunTrainGemm(const Options& options);
RunResult RunTrainDist(const Options& options);
RunResult RunServeMix(const Options& options);

/// Entry point of a train_dist worker process (argv after the flag).
int DistWorkerMain(int argc, char** argv);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
