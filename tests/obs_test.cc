// Tests for the observability stack (src/obs/): metrics registry under
// concurrency, log-histogram bucket semantics, exporter round-trips, trace span
// nesting/ordering, the ring-buffer sink, and the per-op autograd profiler.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "common/rng.h"
#include "obs/autograd_profiler.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"
#include "tests/json_check.h"

namespace tracer {
namespace obs {
namespace {

// Every test in this file mutates process-global observability state; this
// fixture restores the quiescent default (everything off, everything zeroed)
// around each test so ordering cannot leak between tests.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override { ResetAll(); }
  void TearDown() override { ResetAll(); }

  static void ResetAll() {
    SetEnabled(false);
    AutogradProfiler::Global().SetEnabled(false);
    AutogradProfiler::Global().Reset();
    MetricsRegistry::Global().ResetForTest();
    TraceSink::Global().SetCapacity(4096);  // also clears
  }
};

TEST_F(ObsTest, CounterGaugeBasics) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter* counter = registry.GetOrCreateCounter("tracer_test_basic_total");
  counter->Increment();
  counter->Increment(41);
  EXPECT_EQ(counter->value(), 42);
  // Same name returns the same handle.
  EXPECT_EQ(registry.GetOrCreateCounter("tracer_test_basic_total"), counter);

  Gauge* gauge = registry.GetOrCreateGauge("tracer_test_basic_depth");
  gauge->Set(3.5);
  gauge->Add(-1.0);
  EXPECT_DOUBLE_EQ(gauge->value(), 2.5);
}

TEST_F(ObsTest, RegistryConcurrencyHammer) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  constexpr int kThreads = 8;
  constexpr int kIncrementsPerTask = 10000;
  Counter* counter = registry.GetOrCreateCounter("tracer_test_hammer_total");
  {
    parallel::ThreadPool pool(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      pool.Submit([&registry, counter] {
        for (int i = 0; i < kIncrementsPerTask; ++i) {
          counter->Increment();
          if (i % 1000 == 0) {
            // Hammer creation too: lookups of an existing name must be safe
            // concurrently with updates and must return the same handle.
            EXPECT_EQ(
                registry.GetOrCreateCounter("tracer_test_hammer_total"),
                counter);
          }
        }
      });
    }
    pool.WaitAll();
  }
  EXPECT_EQ(counter->value(), kThreads * kIncrementsPerTask);
}

TEST_F(ObsTest, LogHistogramBucketPlacementAndQuantiles) {
  LogHistogram histogram;
  // Underflow: negatives, zero, sub-1 values and NaN all land below the
  // first decade.
  histogram.Observe(-5.0);
  histogram.Observe(0.0);
  histogram.Observe(0.5);
  histogram.Observe(std::numeric_limits<double>::quiet_NaN());
  // Interior decades.
  for (int i = 0; i < 96; ++i) histogram.Observe(1000.0);
  // Overflow: beyond the last decade.
  histogram.Observe(1e13);
  EXPECT_EQ(histogram.count(), 101);

  const std::vector<LogHistogram::Bucket> buckets =
      histogram.NonzeroBuckets();
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_EQ(buckets[0].count, 4);  // the underflow bucket
  EXPECT_EQ(buckets[0].lower, 0.0);
  EXPECT_EQ(buckets[1].count, 96);
  // 1000 sits inside [lower, upper) of its log bucket.
  EXPECT_LE(buckets[1].lower, 1000.0);
  EXPECT_GT(buckets[1].upper, 1000.0);
  EXPECT_EQ(buckets[2].count, 1);  // overflow

  // The bulk of the mass is at 1000; the log-bucket estimate must land
  // within one bucket width (~15% relative error).
  EXPECT_NEAR(histogram.Quantile(0.5), 1000.0, 160.0);
  // p0 is in the underflow bucket, p100 in the overflow bucket.
  EXPECT_LT(histogram.Quantile(0.0), 1.0);
  EXPECT_GE(histogram.Quantile(1.0), 1e12);
  // Empty histogram: quantiles degrade to 0.
  histogram.Reset();
  EXPECT_EQ(histogram.count(), 0);
  EXPECT_EQ(histogram.Quantile(0.99), 0.0);
  EXPECT_TRUE(histogram.NonzeroBuckets().empty());
}

TEST_F(ObsTest, LogHistogramQuantileAccuracyOnUniformSpread) {
  LogHistogram histogram;
  // 1..100000 uniformly: every estimated quantile must be within one
  // log-bucket (10^(1/16) ~ 1.155x) of the exact order statistic.
  for (int i = 1; i <= 100000; ++i) {
    histogram.Observe(static_cast<double>(i));
  }
  for (double q : {0.5, 0.9, 0.95, 0.99, 0.999}) {
    const double exact = q * 100000.0;
    const double estimate = histogram.Quantile(q);
    EXPECT_GT(estimate, exact / 1.2) << "q=" << q;
    EXPECT_LT(estimate, exact * 1.2) << "q=" << q;
  }
}

TEST_F(ObsTest, LogHistogramKeepsExemplarsPerBucket) {
  LogHistogram histogram;
  histogram.Observe(100.0, /*exemplar_id=*/111);
  histogram.Observe(1e6, /*exemplar_id=*/222);
  // Same bucket, later sample wins.
  histogram.Observe(101.0, /*exemplar_id=*/333);
  // Zero exemplars never overwrite a real one.
  histogram.Observe(102.0, /*exemplar_id=*/0);
  EXPECT_EQ(histogram.ExemplarNear(100.0), 333u);
  EXPECT_EQ(histogram.ExemplarNear(1e6), 222u);
  // A bucket that never saw an exemplar reports 0.
  EXPECT_EQ(histogram.ExemplarNear(1e9), 0u);
}

TEST_F(ObsTest, LogHistogramRegistryAndExports) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  LogHistogram* histogram =
      registry.GetOrCreateLogHistogram("tracer_test_log_ns");
  EXPECT_EQ(registry.GetOrCreateLogHistogram("tracer_test_log_ns"),
            histogram);
  for (int i = 0; i < 100; ++i) {
    histogram->Observe(1000.0 + i, /*exemplar_id=*/7000 + i);
  }

  // Prometheus: exported as a summary with streaming quantiles.
  const std::string text = registry.ExportPrometheus();
  EXPECT_NE(text.find("# TYPE tracer_test_log_ns summary"),
            std::string::npos);
  EXPECT_NE(text.find("tracer_test_log_ns{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("tracer_test_log_ns{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(text.find("tracer_test_log_ns_count 100"), std::string::npos);

  // JSONL: one valid object carrying quantiles and exemplar-tagged buckets.
  const std::string jsonl = registry.ExportJsonl();
  std::istringstream lines(jsonl);
  std::string line;
  bool found = false;
  while (std::getline(lines, line)) {
    if (line.find("\"metric\":\"tracer_test_log_ns\"") == std::string::npos) {
      continue;
    }
    found = true;
    ASSERT_TRUE(testutil::IsValidJson(line)) << line;
    EXPECT_NE(line.find("\"type\":\"log_histogram\""), std::string::npos);
    for (const char* key :
         {"\"p50\":", "\"p95\":", "\"p99\":", "\"buckets\":",
          "\"exemplar\":"}) {
      EXPECT_NE(line.find(key), std::string::npos) << key;
    }
  }
  EXPECT_TRUE(found);

  // ResetForTest zeroes the metric in place; the handle stays valid.
  registry.ResetForTest();
  EXPECT_EQ(
      registry.GetOrCreateLogHistogram("tracer_test_log_ns")->count(), 0);
}

TEST_F(ObsTest, LogHistogramConcurrentObserveIsLossless) {
  LogHistogram histogram;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  {
    parallel::ThreadPool pool(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      pool.Submit([&histogram, t] {
        for (int i = 0; i < kPerThread; ++i) {
          histogram.Observe(static_cast<double>(1 + (t * kPerThread + i) % 9),
                            /*exemplar_id=*/static_cast<uint64_t>(t + 1));
        }
      });
    }
    pool.WaitAll();
  }
  EXPECT_EQ(histogram.count(), kThreads * kPerThread);
  int64_t bucket_total = 0;
  for (const LogHistogram::Bucket& bucket : histogram.NonzeroBuckets()) {
    bucket_total += bucket.count;
  }
  EXPECT_EQ(bucket_total, kThreads * kPerThread);
}

TEST_F(ObsTest, PrometheusExportRoundTrip) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetOrCreateCounter("tracer_test_export_total")->Increment(7);
  registry.GetOrCreateGauge("tracer_test_export_depth")->Set(2.5);

  const std::string text = registry.ExportPrometheus();
  // Parse the exposition text back: TYPE declarations and sample lines.
  std::map<std::string, std::string> types;   // metric -> declared type
  std::map<std::string, std::string> samples; // sample name -> value
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty()) << "blank line in exposition text";
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream fields(line.substr(7));
      std::string metric, type;
      fields >> metric >> type;
      types[metric] = type;
      continue;
    }
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    samples[line.substr(0, space)] = line.substr(space + 1);
  }
  EXPECT_EQ(types["tracer_test_export_total"], "counter");
  EXPECT_EQ(types["tracer_test_export_depth"], "gauge");
  EXPECT_EQ(samples["tracer_test_export_total"], "7");
  EXPECT_DOUBLE_EQ(std::stod(samples["tracer_test_export_depth"]), 2.5);
}

TEST_F(ObsTest, JsonlExportRoundTrip) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetOrCreateCounter("tracer_test_jsonl_total")->Increment(3);
  registry.GetOrCreateGauge("tracer_test_jsonl_depth")->Set(-1.25);
  registry.GetOrCreateLogHistogram("tracer_test_jsonl_ns")->Observe(500.0);

  const std::string jsonl = registry.ExportJsonl();
  std::istringstream lines(jsonl);
  std::string line;
  std::set<std::string> seen_types;
  int parsed = 0;
  while (std::getline(lines, line)) {
    ASSERT_TRUE(testutil::IsValidJson(line)) << line;
    const std::vector<std::string> keys = testutil::JsonObjectKeys(line);
    ASSERT_GE(keys.size(), 2u) << line;
    EXPECT_EQ(keys[0], "metric");
    EXPECT_EQ(keys[1], "type");
    if (line.find("\"type\":\"log_histogram\"") != std::string::npos) {
      seen_types.insert("log_histogram");
      for (const char* key : {"sum", "count", "p99", "buckets"}) {
        EXPECT_NE(std::find(keys.begin(), keys.end(), key), keys.end())
            << key;
      }
    } else {
      EXPECT_NE(std::find(keys.begin(), keys.end(), "value"), keys.end());
      if (line.find("\"type\":\"counter\"") != std::string::npos) {
        seen_types.insert("counter");
      }
      if (line.find("\"type\":\"gauge\"") != std::string::npos) {
        seen_types.insert("gauge");
      }
    }
    ++parsed;
  }
  EXPECT_GE(parsed, 3);
  EXPECT_TRUE(seen_types.count("counter"));
  EXPECT_TRUE(seen_types.count("gauge"));
  EXPECT_TRUE(seen_types.count("log_histogram"));
}

TEST_F(ObsTest, SpanNestingRecordsParentAndDepth) {
  SetEnabled(true);
  TraceSink& sink = TraceSink::Global();
  sink.Clear();
  {
    TRACER_SPAN("test.outer");
    {
      TRACER_SPAN("test.inner");
    }
  }
  const std::vector<SpanRecord> spans = sink.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // Completion order: the inner span closes (and records) first.
  EXPECT_STREQ(spans[0].name, "test.inner");
  EXPECT_STREQ(spans[0].parent, "test.outer");
  EXPECT_EQ(spans[0].depth, 1);
  EXPECT_STREQ(spans[1].name, "test.outer");
  EXPECT_STREQ(spans[1].parent, "");
  EXPECT_EQ(spans[1].depth, 0);
  // The parent encloses the child in time.
  EXPECT_LE(spans[1].start_ns, spans[0].start_ns);
  EXPECT_GE(spans[1].duration_ns, spans[0].duration_ns);
  EXPECT_GT(spans[0].thread_id, 0);
  // And the dump is one valid JSON array.
  EXPECT_TRUE(testutil::IsValidJson(sink.DumpJson()));
}

TEST_F(ObsTest, SpansAreInertWhenDisabled) {
  ASSERT_FALSE(Enabled());
  TraceSink& sink = TraceSink::Global();
  sink.Clear();
  {
    TRACER_SPAN("test.disabled");
  }
  EXPECT_EQ(sink.Snapshot().size(), 0u);
  EXPECT_EQ(sink.recorded(), 0u);
}

TEST_F(ObsTest, TraceSinkRingOverwritesOldest) {
  SetEnabled(true);
  TraceSink& sink = TraceSink::Global();
  sink.SetCapacity(3);
  static const char* kNames[] = {"s.0", "s.1", "s.2", "s.3", "s.4"};
  for (const char* name : kNames) {
    Span span(name);
  }
  EXPECT_EQ(sink.recorded(), 5u);
  EXPECT_EQ(sink.dropped(), 2u);
  const std::vector<SpanRecord> spans = sink.Snapshot();
  ASSERT_EQ(spans.size(), 3u);
  // Oldest-first among the surviving records.
  EXPECT_STREQ(spans[0].name, "s.2");
  EXPECT_STREQ(spans[1].name, "s.3");
  EXPECT_STREQ(spans[2].name, "s.4");
}

TEST_F(ObsTest, ThreadPoolExportsMetricsWhenEnabled) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter* tasks = registry.GetOrCreateCounter("tracer_pool_tasks_total");
  const int64_t disabled_baseline = tasks->value();
  {
    parallel::ThreadPool pool(2);
    for (int i = 0; i < 10; ++i) pool.Submit([] {});
    pool.WaitAll();
  }
  // Disabled: the pool must not touch the metrics.
  EXPECT_EQ(tasks->value(), disabled_baseline);

  SetEnabled(true);
  {
    parallel::ThreadPool pool(2);
    for (int i = 0; i < 10; ++i) pool.Submit([] {});
    pool.WaitAll();
  }
  EXPECT_EQ(tasks->value(), disabled_baseline + 10);
}

TEST_F(ObsTest, AutogradProfilerAttributesForwardAndBackward) {
  AutogradProfiler& profiler = AutogradProfiler::Global();
  profiler.SetEnabled(true);

  Rng rng(5);
  autograd::Variable a = autograd::Variable::Parameter(
      Tensor::Randn({4, 8}, rng));
  autograd::Variable b = autograd::Variable::Parameter(
      Tensor::Randn({8, 3}, rng));
  autograd::Variable loss =
      autograd::MeanAll(autograd::Sigmoid(autograd::MatMul(a, b)));
  loss.Backward();
  profiler.SetEnabled(false);

  const std::vector<OpProfile> profiles = profiler.Snapshot();
  ASSERT_FALSE(profiles.empty());
  std::map<std::string, OpProfile> by_op;
  for (const OpProfile& p : profiles) by_op[p.op] = p;
  for (const char* op : {"matmul", "sigmoid", "mean_all"}) {
    ASSERT_TRUE(by_op.count(op)) << op << " missing from profile";
    EXPECT_EQ(by_op[op].forward_calls, 1) << op;
    EXPECT_EQ(by_op[op].backward_calls, 1) << op;
  }
  // Snapshot is sorted by total time, descending.
  for (size_t i = 1; i < profiles.size(); ++i) {
    EXPECT_GE(profiles[i - 1].total_ns(), profiles[i].total_ns());
  }
  EXPECT_GT(profiler.TotalNs(), 0u);
  const std::string table = profiler.ReportTable();
  EXPECT_NE(table.find("matmul"), std::string::npos);

  profiler.Reset();
  EXPECT_EQ(profiler.TotalNs(), 0u);
  EXPECT_TRUE(profiler.Snapshot().empty());
}

TEST_F(ObsTest, AutogradProfilerOffByDefaultRecordsNothing) {
  AutogradProfiler& profiler = AutogradProfiler::Global();
  ASSERT_FALSE(profiler.enabled());
  Rng rng(6);
  autograd::Variable a = autograd::Variable::Parameter(
      Tensor::Randn({2, 2}, rng));
  autograd::Variable loss = autograd::SumAll(autograd::Tanh(a));
  loss.Backward();
  EXPECT_EQ(profiler.TotalNs(), 0u);
  EXPECT_TRUE(profiler.Snapshot().empty());
}

TEST_F(ObsTest, JsonEscapingSurvivesRoundTrip) {
  JsonObject obj;
  obj.Add("text", std::string("quote\" slash\\ newline\n tab\t ctrl\x01"));
  obj.Add("nan", std::numeric_limits<double>::quiet_NaN());
  obj.Add("inf", std::numeric_limits<double>::infinity());
  const std::string json = obj.Build();
  EXPECT_TRUE(testutil::IsValidJson(json)) << json;
  // Non-finite numbers must degrade to null, not invalid JSON tokens.
  EXPECT_NE(json.find("\"nan\":null"), std::string::npos);
  EXPECT_NE(json.find("\"inf\":null"), std::string::npos);
}

TEST_F(ObsTest, ThreadIdsAreSmallAndStable) {
  const int id_first = ThreadId();
  const int id_second = ThreadId();
  EXPECT_EQ(id_first, id_second);
  EXPECT_GT(id_first, 0);
  const uint64_t t0 = MonotonicNowNs();
  const uint64_t t1 = MonotonicNowNs();
  EXPECT_GE(t1, t0);
}

}  // namespace
}  // namespace obs
}  // namespace tracer
