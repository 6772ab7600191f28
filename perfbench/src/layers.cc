#include "layers.h"

#include <sys/resource.h>
#include <time.h>

#include <filesystem>
#include <fstream>

#include "obs/autograd_profiler.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "tensor/arena.h"

namespace perfbench {
namespace {

double Ms(uint64_t from_ns, uint64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e6;
}

double ClockMs(clockid_t clock) {
  timespec t{};
  clock_gettime(clock, &t);
  return static_cast<double>(t.tv_sec) * 1e3 +
         static_cast<double>(t.tv_nsec) / 1e6;
}

int64_t ThreadAllocs() {
  const tracer::AllocCounters c = tracer::ThreadAllocCounters();
  return c.heap_allocs + c.arena_blocks;
}

}  // namespace

TimedModel::TimedModel(tracer::nn::SequenceModel* inner, FitPlan plan,
                       bool traced)
    : inner_(inner), plan_(plan), traced_(traced) {
  AddSubmodule("model", inner_);
}

void TimedModel::Begin() {
  begin_ns_ = tracer::obs::MonotonicNowNs();
  begin_cpu_ms_ = ProcessCpuMs();
  if (traced_) trace_id_ = tracer::obs::NewTraceId();
}

void TimedModel::CloseStep(uint64_t now) {
  if (!in_step_) return;
  in_step_ = false;
  timeline_.step_ms.push_back(Ms(step_start_ns_, now));
  if (traced_) {
    timeline_.heap_allocs += ThreadAllocs() - step_allocs_start_;
    Span("bench.step", "bench.epoch", trace_id_, step_start_ns_, now);
  }
}

tracer::autograd::Variable TimedModel::Forward(
    const std::vector<tracer::autograd::Variable>& xs) {
  const uint64_t now = tracer::obs::MonotonicNowNs();
  const int64_t train_calls =
      static_cast<int64_t>(plan_.steps_per_epoch) * plan_.calls_per_step;
  const int64_t pos = calls_ % (train_calls + plan_.val_calls_per_epoch);
  ++calls_;
  if (pos >= train_calls) {
    if (pos == train_calls) {
      CloseStep(now);
      in_validate_ = true;
      validate_start_ns_ = now;
      if (traced_) tracer::obs::AutogradProfiler::Global().SetEnabled(false);
    }
    return inner_->Forward(xs);
  }
  if (pos == 0) {
    if (in_validate_) {
      in_validate_ = false;
      timeline_.validate_ms.push_back(Ms(validate_start_ns_, now));
      timeline_.epoch_ms.push_back(Ms(epoch_start_ns_, now));
      if (traced_) {
        Span("bench.validate", "bench.epoch", trace_id_, validate_start_ns_,
             now);
        Span("bench.epoch", "bench.fit", trace_id_, epoch_start_ns_, now);
      }
    }
    epoch_start_ns_ = calls_ == 1 ? begin_ns_ : now;
    if (traced_) tracer::obs::AutogradProfiler::Global().SetEnabled(true);
  }
  if (pos % plan_.calls_per_step == 0) {
    CloseStep(now);
    in_step_ = true;
    step_start_ns_ = now;
    if (traced_) step_allocs_start_ = ThreadAllocs();
  }
  tracer::autograd::Variable out = inner_->Forward(xs);
  const uint64_t done = tracer::obs::MonotonicNowNs();
  timeline_.forward_ms += Ms(now, done);
  if (traced_) Span("nn.forward", "bench.step", trace_id_, now, done);
  return out;
}

void TimedModel::End() {
  const uint64_t now = tracer::obs::MonotonicNowNs();
  CloseStep(now);
  if (in_validate_) {
    in_validate_ = false;
    timeline_.validate_ms.push_back(Ms(validate_start_ns_, now));
    timeline_.epoch_ms.push_back(Ms(epoch_start_ns_, now));
    if (traced_) {
      Span("bench.validate", "bench.epoch", trace_id_, validate_start_ns_,
           now);
      Span("bench.epoch", "bench.fit", trace_id_, epoch_start_ns_, now);
    }
  }
  timeline_.fit_ms = Ms(begin_ns_, now);
  timeline_.cpu_ms = ProcessCpuMs() - begin_cpu_ms_;
  timeline_.forward_calls = calls_;
  timeline_.planned_calls =
      static_cast<int64_t>(plan_.epochs) *
      (static_cast<int64_t>(plan_.steps_per_epoch) * plan_.calls_per_step +
       plan_.val_calls_per_epoch);
  if (traced_) {
    tracer::obs::AutogradProfiler::Global().SetEnabled(false);
    Span("bench.fit", "", trace_id_, begin_ns_, now);
  }
}

TimedReducer::TimedReducer(tracer::dist::SocketReducer* inner)
    : inner_(inner) {}

tracer::Result<float> TimedReducer::ReduceStep(
    uint64_t step_id, const std::vector<int>& batch_indices,
    const std::vector<tracer::autograd::Variable>& params,
    const std::function<float(const std::vector<int>&)>& eval) {
  const uint64_t start = tracer::obs::MonotonicNowNs();
  const auto timed_eval = [&](const std::vector<int>& sub) {
    const uint64_t t0 = tracer::obs::MonotonicNowNs();
    const float loss = eval(sub);
    const uint64_t t1 = tracer::obs::MonotonicNowNs();
    totals_.eval_ms += Ms(t0, t1);
    ++totals_.evals;
    Span("train.shard_eval", "dist.reduce_step", 0, t0, t1);
    return loss;
  };
  tracer::Result<float> reduced =
      inner_->ReduceStep(step_id, batch_indices, params, timed_eval);
  const uint64_t end = tracer::obs::MonotonicNowNs();
  totals_.reduce_ms += Ms(start, end);
  ++totals_.steps;
  totals_.owned += static_cast<int64_t>(inner_->shards().size());
  Span("dist.reduce_step", "bench.step", 0, start, end);
  return reduced;
}

tracer::Status TimedReducer::EpochFence(int next_epoch, bool stopping) {
  const uint64_t start = tracer::obs::MonotonicNowNs();
  tracer::Status status = inner_->EpochFence(next_epoch, stopping);
  const uint64_t end = tracer::obs::MonotonicNowNs();
  Span("dist.epoch_fence", "bench.validate", 0, start, end);
  return status;
}

OpTotals SnapshotProfile() {
  OpTotals totals;
  for (const tracer::obs::OpProfile& p :
       tracer::obs::AutogradProfiler::Global().Snapshot()) {
    const double ms = static_cast<double>(p.total_ns()) / 1e6;
    if (p.op == "matmul" || p.op == "batch_matmul") {
      totals.gemm_ms += ms;
      totals.gemm_gflop +=
          static_cast<double>(p.forward_flops + p.backward_flops) / 1e9;
    } else {
      totals.nongemm_ms += ms;
    }
    totals.backward_ms += static_cast<double>(p.backward_ns) / 1e6;
    totals.op_calls += p.forward_calls + p.backward_calls;
    totals.heap_allocs += p.forward_heap_allocs + p.backward_heap_allocs;
  }
  return totals;
}

double ProcessCpuMs() { return ClockMs(CLOCK_PROCESS_CPUTIME_ID); }

double ThreadCpuMs() { return ClockMs(CLOCK_THREAD_CPUTIME_ID); }

double PeakRssMb(bool children) {
  struct rusage usage {};
  getrusage(children ? RUSAGE_CHILDREN : RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void Span(const char* name, const char* parent, uint64_t trace_id,
          uint64_t start_ns, uint64_t end_ns) {
  tracer::obs::RecordSpan(name, parent, trace_id, tracer::obs::NextSpanId(),
                          0, start_ns, end_ns);
}

void StartTracing() {
  tracer::obs::SetEnabled(true);
  tracer::obs::TraceSink::Global().SetCapacity(1 << 16);
  tracer::obs::AutogradProfiler::Global().Reset();
}

bool WriteTrace(const std::string& path) {
  std::error_code ignored;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ignored);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << tracer::obs::TraceSink::Global().DumpChromeTrace();
  return static_cast<bool>(out);
}

}  // namespace perfbench
