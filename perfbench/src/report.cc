#include "report.h"

#include <cmath>

namespace perfbench {

const std::vector<MetricSpec> kEndToEndMetrics = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"quality", "ratio"},
    {"cpu_ms_per_op", "ms"},
};

const std::vector<MetricSpec> kLayerMetrics = {
    {"throughput_per_s", "1/s"},
    {"p50_ms", "ms"},
    {"p90_ms", "ms"},
    {"heavy_p50_ms", "ms"},
    {"heavy_p90_ms", "ms"},
    {"tensor.gemm_ms_per_step", "ms"},
    {"tensor.gemm_gflops", "GFLOP/s"},
    {"tensor.gemm_share", "ratio"},
    {"tensor.heap_allocs_per_step", "count"},
    {"autograd.nongemm_ms_per_step", "ms"},
    {"autograd.ops_per_step", "count"},
    {"autograd.backward_ms", "ms"},
    {"nn.forward_ms", "ms"},
    {"train.step_ms", "ms"},
    {"train.update_ms", "ms"},
    {"train.validate_ms", "ms"},
    {"train.unaccounted_share", "ratio"},
    {"dist.allreduce_ms", "ms"},
    {"dist.allreduce_share", "ratio"},
    {"dist.bytes_per_step", "B"},
    {"dist.evals_per_shard", "ratio"},
    {"dist.retries", "count"},
    {"dist.evictions", "count"},
    {"serve.queue_us.p50", "us"},
    {"serve.queue_us.p90", "us"},
    {"serve.batch_wait_us.p50", "us"},
    {"serve.batch_wait_us.p90", "us"},
    {"serve.compute_us.p50", "us"},
    {"serve.compute_us.p90", "us"},
    {"interpret.explain_compute_us.p50", "us"},
    {"interpret.explain_compute_us.p90", "us"},
    {"serve.batch_size_mean", "count"},
    {"serve.batches", "count"},
    {"serve.shed", "count"},
    {"serve.expired", "count"},
    {"serve.gen_late_us.p99", "us"},
    {"serve.gen_late_us.max", "us"},
    {"datagen.cohort_s", "s"},
    {"data.prepare_s", "s"},
    {"trace.overhead_throughput_share", "ratio"},
    {"trace.overhead_p50_ms", "ms"},
};

std::vector<Metric> Collect(RunResult* result,
                            const std::vector<MetricSpec>& specs,
                            bool required) {
  std::vector<Metric> metrics;
  metrics.reserve(specs.size());
  for (const MetricSpec& spec : specs) {
    const auto it = result->values.find(spec.name);
    double value = 0.0;
    if (it != result->values.end() && std::isfinite(it->second)) {
      value = it->second;
    } else if (required) {
      result->Fail(std::string(spec.name) + " was not measured");
    }
    metrics.push_back({spec.name, value, spec.unit});
  }
  return metrics;
}

std::string ResultJson(const RunResult& result,
                       const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += result.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  char number[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(number, sizeof(number), "%.17g", metrics[i].value);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + number +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  return json;
}

void PrintRun(const RunResult& result, const std::vector<Metric>& metrics,
              std::FILE* out) {
  for (const std::string& note : result.notes) {
    std::fprintf(out, "# %s\n", note.c_str());
  }
  for (const std::string& why : result.check_failures) {
    std::fprintf(out, "CHECK FAILED: %s\n", why.c_str());
  }
  for (const Metric& m : metrics) {
    std::fprintf(out, "%-36s %16.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  std::fprintf(out, "%s\n", ResultJson(result, metrics).c_str());
  std::fflush(out);
}

}  // namespace perfbench
