#ifndef TRACER_OBS_AUTOGRAD_PROFILER_H_
#define TRACER_OBS_AUTOGRAD_PROFILER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/obs.h"
#include "tensor/arena.h"

namespace tracer {
namespace obs {

/// Accumulated wall-time and call counts for one autograd op kind, keyed by
/// the op name recorded on the tape node (autograd::Node::op).
struct OpProfile {
  std::string op;
  int64_t forward_calls = 0;
  uint64_t forward_ns = 0;
  int64_t backward_calls = 0;
  uint64_t backward_ns = 0;
  /// Flops the op self-reported (compute ops only; 0 when unknown).
  int64_t forward_flops = 0;
  int64_t backward_flops = 0;
  /// Heap allocations observed inside the op's spans (tensor buffers that
  /// missed the arena). Zero in steady state once the arena is warmed up.
  int64_t forward_heap_allocs = 0;
  int64_t backward_heap_allocs = 0;
  uint64_t total_ns() const { return forward_ns + backward_ns; }
  /// Achieved forward GFLOP/s (0 when the op reports no flops).
  double forward_gflops() const {
    return forward_ns > 0 ? static_cast<double>(forward_flops) /
                                static_cast<double>(forward_ns)
                          : 0.0;
  }
  double backward_gflops() const {
    return backward_ns > 0 ? static_cast<double>(backward_flops) /
                                 static_cast<double>(backward_ns)
                           : 0.0;
  }
};

/// Per-op autograd profiler. Disabled by default; when enabled, every
/// differentiable op in autograd/ops.cc times its forward compute
/// (ScopedOpTimer) and Variable::Backward times each node's backward
/// closure, both attributed to the tape's op name. Aggregation is a mutex
/// plus a map — acceptable because the profiler is an opt-in diagnosis
/// tool, and each sample already paid for a clock read.
class AutogradProfiler {
 public:
  static AutogradProfiler& Global();

  /// Profiler-local switch, independent of obs::Enabled() so a training run
  /// can profile without turning on the whole telemetry stack. Always false
  /// when compiled with TRACER_OBS=0.
  bool enabled() const {
#if TRACER_OBS == 0
    return false;
#else
    return enabled_.load(std::memory_order_relaxed);
#endif
  }
  void SetEnabled(bool enabled);

  void RecordForward(const char* op, uint64_t ns, int64_t flops = 0,
                     int64_t heap_allocs = 0);
  void RecordBackward(const char* op, uint64_t ns, int64_t heap_allocs = 0);
  /// Flops attribution for backward closures: the closure knows its shapes
  /// but Variable::Backward owns the timing, so flops arrive separately.
  void AddBackwardFlops(const char* op, int64_t flops);

  /// Per-op profiles sorted by total (forward+backward) time, descending.
  std::vector<OpProfile> Snapshot() const;

  /// Sum of all recorded forward+backward nanoseconds.
  uint64_t TotalNs() const;

  /// Fraction of recorded time spent in the GEMM-backed "matmul" op,
  /// forward and backward combined. 0 when nothing has been recorded. The
  /// fig14 scalability bench reports this to show training is GEMM-bound.
  double GemmShare() const;

  /// Human-readable sorted table, one op per line.
  std::string ReportTable() const;

  void Reset();

 private:
  struct Cell {
    int64_t forward_calls = 0;
    uint64_t forward_ns = 0;
    int64_t backward_calls = 0;
    uint64_t backward_ns = 0;
    int64_t forward_flops = 0;
    int64_t backward_flops = 0;
    int64_t forward_heap_allocs = 0;
    int64_t backward_heap_allocs = 0;
  };

  std::atomic<bool> enabled_{false};
  mutable common::Mutex mutex_;
  std::map<std::string, Cell> cells_ TRACER_GUARDED_BY(mutex_);
};

/// Times one forward op when the profiler is enabled; a relaxed atomic load
/// and nothing else when it is not. `op` must be a string literal. Compute
/// ops call SetFlops with their arithmetic cost so the profile reports
/// achieved GFLOP/s next to the wall time.
class ScopedOpTimer {
 public:
  explicit ScopedOpTimer(const char* op)
      : op_(op), active_(AutogradProfiler::Global().enabled()) {
    if (active_) {
      start_ns_ = MonotonicNowNs();
      start_heap_allocs_ = ThreadAllocCounters().heap_allocs;
    }
  }
  ~ScopedOpTimer() {
    if (active_) {
      AutogradProfiler::Global().RecordForward(
          op_, MonotonicNowNs() - start_ns_, flops_,
          ThreadAllocCounters().heap_allocs - start_heap_allocs_);
    }
  }

  /// Flops performed inside this span (e.g. 2·m·n·k for a matmul).
  void SetFlops(int64_t flops) { flops_ = flops; }

  /// Whether the profiler is recording this span — lets callers skip
  /// computing flop counts when nobody is listening.
  bool active() const { return active_; }

  ScopedOpTimer(const ScopedOpTimer&) = delete;
  ScopedOpTimer& operator=(const ScopedOpTimer&) = delete;

 private:
  const char* op_;
  bool active_;
  uint64_t start_ns_ = 0;
  int64_t start_heap_allocs_ = 0;
  int64_t flops_ = 0;
};

}  // namespace obs
}  // namespace tracer

#endif  // TRACER_OBS_AUTOGRAD_PROFILER_H_
