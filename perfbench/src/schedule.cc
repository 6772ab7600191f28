#include "schedule.h"

#include <cmath>
#include <cstdint>

namespace perfbench {
namespace {

/// SplitMix64: the benchmark's own generator, so the schedule a seed names
/// does not move when the library's Rng changes.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  int UniformInt(int n) {
    return static_cast<int>(Next() % static_cast<uint64_t>(n));
  }

 private:
  uint64_t state_;
};

}  // namespace

std::vector<Arrival> MakeSchedule(const MixSpec& spec, int num_patients,
                                  uint64_t seed) {
  SplitMix rng(seed);
  std::vector<Arrival> schedule;
  schedule.reserve(static_cast<size_t>(spec.rate_per_s * spec.seconds * 1.1));
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.Uniform()) / spec.rate_per_s;
    if (t >= spec.seconds) break;
    Arrival a;
    a.due_ns = static_cast<uint64_t>(t * 1e9);
    a.explain = rng.Uniform() < spec.explain_share;
    a.patient = rng.UniformInt(num_patients);
    a.windows = rng.Uniform() < spec.short_history_share
                    ? 1 + rng.UniformInt(spec.max_windows - 1)
                    : spec.max_windows;
    schedule.push_back(a);
  }
  return schedule;
}

double SloAttained(const std::vector<RequestOutcome>& outcomes,
                   double score_limit_ms, double explain_limit_ms) {
  if (outcomes.empty()) return 0.0;
  int64_t met = 0;
  for (const RequestOutcome& o : outcomes) {
    const double limit = o.explain ? explain_limit_ms : score_limit_ms;
    if (o.ok && o.latency_ms <= limit) ++met;
  }
  return static_cast<double>(met) / static_cast<double>(outcomes.size());
}

}  // namespace perfbench
