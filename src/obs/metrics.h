#ifndef TRACER_OBS_METRICS_H_
#define TRACER_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace tracer {
namespace obs {

// Thread-safe process-wide metrics: monotonically increasing counters,
// settable gauges, and log-bucketed histograms, looked up by name from a
// global registry and exportable as Prometheus text or JSONL. Metric names
// follow the repo convention `tracer_<layer>_<name>` (see DESIGN.md
// "Observability"); update paths are single relaxed atomics so probes can
// sit on hot paths behind obs::Enabled().

/// Monotonically increasing integer metric.
class Counter {
 public:
  void Increment(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Last-write-wins floating-point metric (queue depths, rates, sizes).
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  void Add(double delta) {
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Log-bucketed histogram for latency-style values with unknown range: 16
/// geometric buckets per decade spanning [1, 1e12) (1 ns … ~17 min when fed
/// nanoseconds), plus an underflow bucket (< 1, including negatives) and an
/// overflow bucket. No hand-picked bounds, and any quantile is off by at
/// most one bucket width (~15% relative) — accurate enough for p99 tail
/// tracking. Each bucket keeps
/// one *exemplar* id (last sample's trace id) so a p99 bucket links back to
/// a concrete trace. Updates are single relaxed atomics.
class LogHistogram {
 public:
  static constexpr int kBucketsPerDecade = 16;
  static constexpr int kDecades = 12;
  /// Interior buckets + underflow (index 0) + overflow (last index).
  static constexpr int kBucketCount = kBucketsPerDecade * kDecades + 2;

  struct Bucket {
    double lower = 0.0;      // inclusive; 0 for the underflow bucket
    double upper = 0.0;      // exclusive; +Inf for the overflow bucket
    int64_t count = 0;
    uint64_t exemplar = 0;   // last nonzero exemplar id observed, 0 if none
  };

  LogHistogram();

  /// Records `value`; `exemplar_id` (usually a trace id, 0 = none) replaces
  /// the containing bucket's exemplar when nonzero.
  void Observe(double value, uint64_t exemplar_id = 0);

  /// Streaming quantile estimate for q in [0,1]: the geometric midpoint of
  /// the bucket holding the q-th sample. Returns 0 when empty.
  double Quantile(double q) const;

  /// Exemplar id of the bucket that `value` would land in (0 if none) —
  /// how a quantile estimate is tied back to a concrete trace.
  uint64_t ExemplarNear(double value) const;

  /// Buckets with nonzero counts, in ascending value order.
  std::vector<Bucket> NonzeroBuckets() const;

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  void Reset();

 private:
  static int BucketIndex(double value);
  static double BucketLower(int index);
  static double BucketUpper(int index);

  std::vector<std::atomic<int64_t>> buckets_;
  std::vector<std::atomic<uint64_t>> exemplars_;
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Name → metric registry. GetOrCreate* return stable pointers that remain
/// valid for the process lifetime; creation is mutex-serialized, updates via
/// the returned handles are lock-free. A metric name maps to exactly one
/// kind — re-requesting it with a different kind is a programming error.
class MetricsRegistry {
 public:
  /// Process-wide instance used by all built-in instrumentation.
  static MetricsRegistry& Global();

  Counter* GetOrCreateCounter(const std::string& name)
      TRACER_EXCLUDES(mutex_);
  Gauge* GetOrCreateGauge(const std::string& name) TRACER_EXCLUDES(mutex_);
  LogHistogram* GetOrCreateLogHistogram(const std::string& name)
      TRACER_EXCLUDES(mutex_);

  /// Prometheus text exposition format (one `# TYPE` line per metric).
  std::string ExportPrometheus() const TRACER_EXCLUDES(mutex_);
  /// One JSON object per line: {"metric":...,"type":...,"value":...} for
  /// counters/gauges; histograms add "sum","count","buckets".
  std::string ExportJsonl() const TRACER_EXCLUDES(mutex_);

  /// Zeroes every registered metric in place. Handles stay valid (hot
  /// paths cache them in function-local statics), names stay registered.
  void ResetForTest() TRACER_EXCLUDES(mutex_);

 private:
  enum class Kind { kCounter, kGauge, kLogHistogram };
  struct Entry {
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<LogHistogram> log_histogram;
  };

  mutable common::Mutex mutex_;
  std::map<std::string, Entry> entries_ TRACER_GUARDED_BY(mutex_);
};

}  // namespace obs
}  // namespace tracer

#endif  // TRACER_OBS_METRICS_H_
