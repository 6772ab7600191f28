#ifndef PERFBENCH_SCHEDULE_H_
#define PERFBENCH_SCHEDULE_H_

#include <cstdint>
#include <vector>

namespace perfbench {

/// Traffic mix of the open-loop serving workload.
struct MixSpec {
  double rate_per_s = 1000.0;
  double seconds = 1.0;
  /// Share of requests that ask for an integrated-gradients explanation.
  double explain_share = 0.05;
  /// Share of requests from newly admitted patients, whose histories hold
  /// 1 .. max_windows-1 windows instead of the full max_windows.
  double short_history_share = 0.30;
  int max_windows = 7;
};

/// One request of the schedule: when it is due (relative to the start of
/// the run), what it asks for, and which prefix of which patient it sends.
struct Arrival {
  uint64_t due_ns = 0;
  bool explain = false;
  int patient = 0;
  int windows = 0;
};

/// Poisson arrivals (exponential gaps at `spec.rate_per_s`) over
/// `spec.seconds`, with request kinds, patients and history lengths drawn
/// from the same seeded stream. Depends only on its arguments, so a seed
/// names one schedule.
std::vector<Arrival> MakeSchedule(const MixSpec& spec, int num_patients,
                                  uint64_t seed);

/// Outcome of one sent request, as the SLO accounting sees it.
struct RequestOutcome {
  bool explain = false;
  /// Completed with an OK status (and passed the output check).
  bool ok = false;
  /// Completion time minus due time.
  double latency_ms = 0.0;
};

/// Share of sent requests that completed OK within their class's latency
/// limit. Shed, failed, expired and mis-answered requests are in the
/// denominator and never in the numerator.
double SloAttained(const std::vector<RequestOutcome>& outcomes,
                   double score_limit_ms, double explain_limit_ms);

}  // namespace perfbench

#endif  // PERFBENCH_SCHEDULE_H_
