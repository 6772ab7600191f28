#include "obs/metrics.h"

#include <cmath>
#include <limits>

#include "common/macros.h"
#include "obs/json.h"

namespace tracer {
namespace obs {

LogHistogram::LogHistogram()
    : buckets_(kBucketCount), exemplars_(kBucketCount) {}

int LogHistogram::BucketIndex(double value) {
  if (!(value >= 1.0)) return 0;  // < 1, negative, and NaN → underflow
  const int interior = static_cast<int>(std::log10(value) *
                                        static_cast<double>(kBucketsPerDecade));
  if (interior >= kBucketsPerDecade * kDecades) return kBucketCount - 1;
  return interior + 1;
}

double LogHistogram::BucketLower(int index) {
  if (index <= 0) return 0.0;
  if (index >= kBucketCount - 1) {
    return std::pow(10.0, static_cast<double>(kDecades));
  }
  return std::pow(10.0, static_cast<double>(index - 1) /
                            static_cast<double>(kBucketsPerDecade));
}

double LogHistogram::BucketUpper(int index) {
  if (index <= 0) return 1.0;
  if (index >= kBucketCount - 1) {
    return std::numeric_limits<double>::infinity();
  }
  return std::pow(10.0, static_cast<double>(index) /
                            static_cast<double>(kBucketsPerDecade));
}

void LogHistogram::Observe(double value, uint64_t exemplar_id) {
  const int index = BucketIndex(value);
  buckets_[index].fetch_add(1, std::memory_order_relaxed);
  if (exemplar_id != 0) {
    exemplars_[index].store(exemplar_id, std::memory_order_relaxed);
  }
  count_.fetch_add(1, std::memory_order_relaxed);
  double current = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(current, current + value,
                                     std::memory_order_relaxed)) {
  }
}

double LogHistogram::Quantile(double q) const {
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Snapshot the counts first so one pass decides the target rank and a
  // second pass walks to it over the same data (relaxed counters may move
  // under us otherwise and the walk could run off the end).
  int64_t counts[kBucketCount];
  int64_t total = 0;
  for (int i = 0; i < kBucketCount; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  if (total == 0) return 0.0;
  const int64_t rank =
      static_cast<int64_t>(q * static_cast<double>(total - 1)) + 1;
  int64_t seen = 0;
  for (int i = 0; i < kBucketCount; ++i) {
    seen += counts[i];
    if (seen >= rank && counts[i] > 0) {
      if (i == 0) return 0.5;  // underflow: below the representable range
      if (i == kBucketCount - 1) return BucketLower(i);
      // Geometric midpoint of the bucket — at most half a bucket (~7%
      // relative) from any true sample in it.
      return std::pow(10.0,
                      (static_cast<double>(i - 1) + 0.5) /
                          static_cast<double>(kBucketsPerDecade));
    }
  }
  return BucketLower(kBucketCount - 1);
}

uint64_t LogHistogram::ExemplarNear(double value) const {
  return exemplars_[BucketIndex(value)].load(std::memory_order_relaxed);
}

std::vector<LogHistogram::Bucket> LogHistogram::NonzeroBuckets() const {
  std::vector<Bucket> out;
  for (int i = 0; i < kBucketCount; ++i) {
    const int64_t n = buckets_[i].load(std::memory_order_relaxed);
    if (n == 0) continue;
    Bucket b;
    b.lower = BucketLower(i);
    b.upper = BucketUpper(i);
    b.count = n;
    b.exemplar = exemplars_[i].load(std::memory_order_relaxed);
    out.push_back(b);
  }
  return out;
}

void LogHistogram::Reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  for (auto& exemplar : exemplars_) {
    exemplar.store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetOrCreateCounter(const std::string& name) {
  common::MutexLock lock(&mutex_);
  Entry& entry = entries_[name];
  if (entry.counter == nullptr) {
    TRACER_CHECK(entry.gauge == nullptr)
        << name << " already registered with a different metric kind";
    entry.kind = Kind::kCounter;
    entry.counter = std::make_unique<Counter>();
  }
  return entry.counter.get();
}

Gauge* MetricsRegistry::GetOrCreateGauge(const std::string& name) {
  common::MutexLock lock(&mutex_);
  Entry& entry = entries_[name];
  if (entry.gauge == nullptr) {
    TRACER_CHECK(entry.counter == nullptr)
        << name << " already registered with a different metric kind";
    entry.kind = Kind::kGauge;
    entry.gauge = std::make_unique<Gauge>();
  }
  return entry.gauge.get();
}

LogHistogram* MetricsRegistry::GetOrCreateLogHistogram(
    const std::string& name) {
  common::MutexLock lock(&mutex_);
  Entry& entry = entries_[name];
  if (entry.log_histogram == nullptr) {
    TRACER_CHECK(entry.counter == nullptr && entry.gauge == nullptr)
        << name << " already registered with a different metric kind";
    entry.kind = Kind::kLogHistogram;
    entry.log_histogram = std::make_unique<LogHistogram>();
  }
  return entry.log_histogram.get();
}

std::string MetricsRegistry::ExportPrometheus() const {
  common::MutexLock lock(&mutex_);
  std::string out;
  for (const auto& [name, entry] : entries_) {
    switch (entry.kind) {
      case Kind::kCounter:
        out += "# TYPE " + name + " counter\n";
        out += name + " " + std::to_string(entry.counter->value()) + "\n";
        break;
      case Kind::kGauge:
        out += "# TYPE " + name + " gauge\n";
        out += name + " " + JsonNumber(entry.gauge->value()) + "\n";
        break;
      case Kind::kLogHistogram: {
        // Exposed summary-style: the bucket layout is an internal detail;
        // quantiles are what dashboards want from a tail-latency metric.
        const LogHistogram& h = *entry.log_histogram;
        out += "# TYPE " + name + " summary\n";
        for (double q : {0.5, 0.95, 0.99}) {
          out += name + "{quantile=\"" + JsonNumber(q) + "\"} " +
                 JsonNumber(h.Quantile(q)) + "\n";
        }
        out += name + "_sum " + JsonNumber(h.sum()) + "\n";
        out += name + "_count " + std::to_string(h.count()) + "\n";
        break;
      }
    }
  }
  return out;
}

std::string MetricsRegistry::ExportJsonl() const {
  common::MutexLock lock(&mutex_);
  std::string out;
  for (const auto& [name, entry] : entries_) {
    JsonObject line;
    line.Add("metric", name);
    switch (entry.kind) {
      case Kind::kCounter:
        line.Add("type", "counter");
        line.Add("value", entry.counter->value());
        break;
      case Kind::kGauge:
        line.Add("type", "gauge");
        line.Add("value", entry.gauge->value());
        break;
      case Kind::kLogHistogram: {
        const LogHistogram& h = *entry.log_histogram;
        line.Add("type", "log_histogram");
        line.Add("sum", h.sum());
        line.Add("count", h.count());
        line.Add("p50", h.Quantile(0.5));
        line.Add("p95", h.Quantile(0.95));
        line.Add("p99", h.Quantile(0.99));
        std::string buckets = "[";
        bool first = true;
        for (const LogHistogram::Bucket& b : h.NonzeroBuckets()) {
          if (!first) buckets += ",";
          first = false;
          JsonObject bucket;
          bucket.Add("lower", b.lower);
          bucket.Add("upper", b.upper);
          bucket.Add("count", b.count);
          bucket.Add("exemplar", static_cast<int64_t>(b.exemplar));
          buckets += bucket.Build();
        }
        buckets += "]";
        line.AddRaw("buckets", buckets);
        break;
      }
    }
    out += line.Build() + "\n";
  }
  return out;
}

void MetricsRegistry::ResetForTest() {
  common::MutexLock lock(&mutex_);
  for (auto& [name, entry] : entries_) {
    switch (entry.kind) {
      case Kind::kCounter:
        entry.counter->Reset();
        break;
      case Kind::kGauge:
        entry.gauge->Reset();
        break;
      case Kind::kLogHistogram:
        entry.log_histogram->Reset();
        break;
    }
  }
}

}  // namespace obs
}  // namespace tracer
