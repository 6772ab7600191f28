#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

// Outside-in instruments for the library's layers: decorators around the
// public SequenceModel and GradReducer interfaces, a reduction of the
// autograd profiler's snapshot, and span recording. Nothing here reaches
// into library internals; every number is a timing of a public call.

#include <cstdint>
#include <string>
#include <vector>

#include "dist/worker.h"
#include "nn/sequence_model.h"
#include "train/trainer.h"

namespace perfbench {

/// Shape of one Fit as seen through Forward calls: every epoch makes
/// `steps_per_epoch` × `calls_per_step` training calls (one per evaluated
/// sub-batch), then `val_calls_per_epoch` validation calls. The position of
/// a call in that cycle tells which stage it belongs to, so a fit that makes
/// any other number of calls has its timings misattributed; the timeline
/// records both counts and the phase checks them (FitTimeline).
struct FitPlan {
  int epochs = 0;
  int steps_per_epoch = 0;
  int calls_per_step = 1;
  int val_calls_per_epoch = 0;
};

/// Per-fit wall-clock ledger. A step runs from its first training Forward
/// to the next step's first training Forward (so it holds backward, the
/// all-reduce, the optimizer update and the next batch's assembly); the
/// last step of an epoch ends where validation begins. An epoch runs from
/// its first step to the next epoch's first step, or to the fit's end.
struct FitTimeline {
  std::vector<double> step_ms;
  std::vector<double> epoch_ms;
  std::vector<double> validate_ms;
  /// Sum of training Forward call durations.
  double forward_ms = 0.0;
  /// Heap allocations plus arena block mallocs on the training thread,
  /// summed over step windows (counted only when traced).
  int64_t heap_allocs = 0;
  double fit_ms = 0.0;
  /// CPU time of this process, all threads, over the fit.
  double cpu_ms = 0.0;
  /// Forward calls the fit made, and the count its FitPlan predicts. The
  /// ledger above is valid only when they are equal.
  int64_t forward_calls = 0;
  int64_t planned_calls = 0;
};

/// Timing decorator over a SequenceModel. When `traced`, it also records
/// "bench.step"/"nn.forward"/"bench.validate" spans and switches the
/// autograd profiler on for training steps and off for validation, so the
/// profile covers exactly the step windows.
class TimedModel : public tracer::nn::SequenceModel {
 public:
  TimedModel(tracer::nn::SequenceModel* inner, FitPlan plan, bool traced);

  /// Brackets the Fit call.
  void Begin();
  void End();

  tracer::autograd::Variable Forward(
      const std::vector<tracer::autograd::Variable>& xs) override;
  std::string name() const override { return inner_->name(); }

  const FitTimeline& timeline() const { return timeline_; }

 private:
  void CloseStep(uint64_t now);

  tracer::nn::SequenceModel* inner_;
  const FitPlan plan_;
  const bool traced_;
  FitTimeline timeline_;
  int64_t calls_ = 0;
  uint64_t begin_ns_ = 0;
  double begin_cpu_ms_ = 0.0;
  uint64_t epoch_start_ns_ = 0;
  uint64_t step_start_ns_ = 0;
  uint64_t validate_start_ns_ = 0;
  int64_t step_allocs_start_ = 0;
  bool in_step_ = false;
  bool in_validate_ = false;
  uint64_t trace_id_ = 0;
};

/// Timing decorator over the worker side of the elastic runtime. Time in
/// ReduceStep not spent inside shard evaluations is the all-reduce: frame
/// encoding, socket round trips and waiting for the peer.
class TimedReducer : public tracer::train::GradReducer {
 public:
  explicit TimedReducer(tracer::dist::SocketReducer* inner);

  tracer::Result<float> ReduceStep(
      uint64_t step_id, const std::vector<int>& batch_indices,
      const std::vector<tracer::autograd::Variable>& params,
      const std::function<float(const std::vector<int>&)>& eval) override;
  tracer::Status EpochFence(int next_epoch, bool stopping) override;

  struct Totals {
    int64_t steps = 0;
    double reduce_ms = 0.0;  // inside ReduceStep
    double eval_ms = 0.0;    // inside shard evaluations
    int64_t evals = 0;       // shard evaluations run
    int64_t owned = 0;       // shard evaluations this worker owed
  };
  const Totals& totals() const { return totals_; }

 private:
  tracer::dist::SocketReducer* inner_;
  Totals totals_;
};

/// Reduction of the autograd profiler's snapshot to layer totals.
struct OpTotals {
  double gemm_ms = 0.0;      // "matmul" + "batch_matmul", forward + backward
  double nongemm_ms = 0.0;   // every other op, forward + backward
  double backward_ms = 0.0;  // all backward closures
  double gemm_gflop = 0.0;
  int64_t op_calls = 0;      // forward + backward calls
  int64_t heap_allocs = 0;   // tensor buffers that missed the arena
};
OpTotals SnapshotProfile();

/// CPU time consumed so far by every thread of this process, and by the
/// calling thread alone, in ms. Unlike wall time, neither counts the time a
/// thread was ready but not running, which on a shared VM comes and goes in
/// spells that can stretch a run's wall time by a third.
double ProcessCpuMs();
double ThreadCpuMs();

/// Largest resident set of this process, or of its largest waited-for
/// child when `children`, in MiB.
double PeakRssMb(bool children);

/// Records a benchmark span [start_ns, end_ns) under `trace_id` (no-op when
/// observability is off). `name` and `parent` must be string literals.
void Span(const char* name, const char* parent, uint64_t trace_id,
          uint64_t start_ns, uint64_t end_ns);

/// Enables the observability runtime, clears the autograd profiler and
/// sizes the span ring for a traced run.
void StartTracing();
/// Writes the span ring as a Chrome/Perfetto trace to `path`.
bool WriteTrace(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
