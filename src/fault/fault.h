#ifndef TRACER_FAULT_FAULT_H_
#define TRACER_FAULT_FAULT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_annotations.h"

/// Compile-time fault-injection level, mirroring TRACER_OBS: 0 compiles
/// every TRACER_FAULT_POINT probe down to a constant `false` the optimizer
/// deletes; 1 (the default) compiles probes in behind a runtime armed flag
/// (one relaxed atomic load when no faults are configured). Set from the
/// build system with -DTRACER_FAULT=0.
#ifndef TRACER_FAULT
#define TRACER_FAULT 1
#endif

namespace tracer {
namespace fault {

/// Deterministic, seedable fault-injection registry. Production code marks
/// failure-prone operations with TRACER_FAULT_POINT("name"); chaos tests and
/// the TRACER_FAULTS env knob arm a subset of those points with a firing
/// probability and an optional budget:
///
///   TRACER_FAULTS="ckpt.write:0.2:0,serve.score:1:5" ./build/serve_test
///
/// arms "ckpt.write" to fail 20% of hits forever and "serve.score" to fail
/// its first 5 hits then heal (count 0 = unlimited). Draws come from one
/// seedable xoshiro256** stream (TRACER_FAULTS_SEED, default 42), so a given
/// spec + seed produces the same fire pattern on every run — chaos findings
/// reproduce.
///
/// Every point name must be listed in fault/fault_points.h; Configure
/// rejects unknown names and lint rule fault-point-registry enforces the
/// same invariant statically.
class FaultRegistry {
 public:
  /// Process-wide instance. First use parses the TRACER_FAULTS /
  /// TRACER_FAULTS_SEED environment variables.
  static FaultRegistry& Global();

  /// Replaces the active configuration from a "name:prob:count,..." spec
  /// ("" disarms everything) and re-seeds the draw stream. Validates every
  /// name against KnownPoints(), probabilities against [0,1] and counts
  /// against >= 0; on error the previous configuration is left untouched.
  Status Configure(const std::string& spec, uint64_t seed = 42);

  /// Disarms every fault point (including ones armed from the environment).
  void Clear();

  /// True when at least one point is armed. This is the only cost on the
  /// hot path while faults are off: a relaxed atomic load.
  bool Armed() const { return armed_.load(std::memory_order_relaxed); }

  /// Draws for one hit of `point`; true means the caller must fail.
  /// Unconfigured points never fire. Thread-safe.
  bool ShouldFail(const char* point);

  /// Times `point` has actually fired since the last Configure/Clear.
  int64_t FireCount(const std::string& point) const;

  /// Total fires across all points since the last Configure/Clear.
  int64_t TotalFired() const;

  /// Every registered point name (from fault/fault_points.h), sorted.
  static const std::vector<std::string>& KnownPoints();

 private:
  FaultRegistry();

  struct Rule {
    double probability = 0.0;
    int64_t budget = 0;  // remaining fires; <0 = unlimited
    int64_t fired = 0;
  };

  mutable common::Mutex mutex_;
  std::atomic<bool> armed_{false};
  std::unordered_map<std::string, Rule> rules_ TRACER_GUARDED_BY(mutex_);
  Rng rng_ TRACER_GUARDED_BY(mutex_){42};
};

}  // namespace fault
}  // namespace tracer

#if TRACER_FAULT == 0
#define TRACER_FAULT_POINT(point) (false)
#else
/// Marks a failure-prone operation. Evaluates to true when the named fault
/// is armed and fires for this hit; the surrounding code must then take its
/// real error path (return a non-OK Status, reject the task, ...). Costs a
/// single relaxed atomic load when no faults are configured; compiles to
/// `false` under -DTRACER_FAULT=0.
#define TRACER_FAULT_POINT(point)                      \
  (::tracer::fault::FaultRegistry::Global().Armed() && \
   ::tracer::fault::FaultRegistry::Global().ShouldFail(point))
#endif

#endif  // TRACER_FAULT_FAULT_H_
