#include "train/trainer.h"

#include <chrono>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "autograd/graph_check.h"
#include "autograd/ops.h"
#include "common/logging.h"
#include "metrics/metrics.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optim/early_stopping.h"
#include "optim/optimizer.h"
#include "train/run_state.h"
#include "train/signal_guard.h"

namespace tracer {
namespace train {

namespace {

autograd::Variable BatchLoss(nn::SequenceModel* model,
                             const data::Batch& batch, data::TaskType task) {
  autograd::Variable raw =
      model->Forward(nn::SequenceModel::ToVariables(batch));
  if (task == data::TaskType::kBinaryClassification) {
    return autograd::BinaryCrossEntropyWithLogits(raw, batch.labels);
  }
  // Regression: apply the model's output calibration (set by Fit from the
  // training-label statistics) so the loss is taken in the target's scale.
  autograd::Variable pred = autograd::AddScalar(
      autograd::Scale(raw, model->output_scale()), model->output_offset());
  return autograd::MeanSquaredError(pred, batch.labels);
}

void RecordNonfiniteBatch() {
  if (!obs::Enabled()) return;
  obs::MetricsRegistry::Global()
      .GetOrCreateCounter("tracer_train_nonfinite_batches")
      ->Increment();
}

void RecordRunStateWrite(bool ok) {
  if (!obs::Enabled()) return;
  obs::MetricsRegistry::Global()
      .GetOrCreateCounter(ok ? "tracer_train_resume_checkpoints_total"
                             : "tracer_train_resume_checkpoint_failures_total")
      ->Increment();
}

void RecordResume() {
  if (!obs::Enabled()) return;
  obs::MetricsRegistry::Global()
      .GetOrCreateCounter("tracer_train_resume_total")
      ->Increment();
}

/// Shared implementation behind the free Fit() and Trainer::Fit/Resume.
/// `ckpt` enables run-state checkpointing when non-null with a path;
/// `resume` seeds the loop from a persisted RunState (already validated by
/// Trainer::Resume against the model architecture and shuffle stream).
TrainResult FitInternal(nn::SequenceModel* model,
                        const data::TimeSeriesDataset& train_set,
                        const data::TimeSeriesDataset& val_set,
                        const TrainConfig& config,
                        const CheckpointOptions* ckpt,
                        const RunState* resume) {
  TRACER_CHECK_GT(train_set.num_samples(), 0);
  TRACER_CHECK_GT(val_set.num_samples(), 0);
  TRACER_SPAN("train.fit");
  // Arm the graceful-shutdown latch for the duration of the fit; the
  // batch loop polls it after every completed batch.
  std::optional<SignalGuard> signal_guard;
  if (config.graceful_shutdown) signal_guard.emplace();
  const bool telemetry = config.telemetry || obs::Enabled();
  const bool checkpointing = ckpt != nullptr && !ckpt->path.empty();
  const auto start = std::chrono::steady_clock::now();
#if defined(__GLIBC__)
  // Every step frees its whole tape at once. Under glibc's default 128 KiB
  // trim threshold that free can hand the heap top back to the kernel, and
  // the next step faults the same pages in again; whether it does depends
  // on heap layout (on the train_dist benchmark it cost 6x the page faults
  // and 9% more CPU per sample). Keep up to 64 MiB of freed heap for reuse
  // instead. This is a process-wide malloc setting; repeating it is a no-op.
  mallopt(M_TRIM_THRESHOLD, 64 << 20);
#endif

  if (train_set.task() == data::TaskType::kRegression) {
    // Standardise regression targets through the model's output transform:
    // the network then learns a zero-mean unit-variance quantity.
    double mean = 0.0;
    for (float y : train_set.labels()) mean += y;
    mean /= train_set.num_samples();
    double var = 0.0;
    for (float y : train_set.labels()) var += (y - mean) * (y - mean);
    var /= train_set.num_samples();
    const float stddev = var > 1e-12 ? std::sqrt(var) : 1.0f;
    model->SetOutputTransform(static_cast<float>(stddev),
                              static_cast<float>(mean));
  }

  Rng rng(config.seed);
  data::Batcher batcher(train_set, config.batch_size, rng);
  optim::Adam optimizer(model->Parameters(), config.learning_rate, 0.9f,
                        0.999f, 1e-8f, config.weight_decay);
  optim::EarlyStopping stopper(config.patience > 0 ? config.patience
                                                   : config.max_epochs + 1,
                               /*higher_is_better=*/false);

  TrainResult result;
  result.best_state = model->StateDict();

  // Per-epoch accumulators, hoisted so a resumed run can seed them
  // mid-epoch; reset at each epoch start otherwise.
  double loss_sum = 0.0;
  double grad_norm_sum = 0.0;
  int64_t seen = 0;
  int64_t batches_done = 0;
  int64_t epoch_nonfinite = 0;
  int consecutive_nonfinite = 0;
  int start_epoch = 0;
  int resume_batch = 0;
  bool seeded = false;

  if (resume != nullptr) {
    model->LoadStateDict(resume->model_state);
    optimizer.RestoreState(resume->adam_m, resume->adam_v,
                           resume->adam_step_count);
    optimizer.set_lr(resume->lr);
    stopper.Restore(resume->stopper_best, resume->stopper_best_epoch,
                    resume->stopper_epochs, resume->stopper_stale);
    result.train_loss = resume->train_loss;
    result.val_loss = resume->val_loss;
    result.best_epoch = resume->best_epoch;
    result.epochs_run = resume->epochs_run;
    result.best_state = resume->best_state;
    result.nonfinite_batches = resume->nonfinite_batches;
    result.lr_halvings = resume->lr_halvings;
    loss_sum = resume->loss_sum;
    grad_norm_sum = resume->grad_norm_sum;
    seen = resume->seen;
    batches_done = resume->batches;
    epoch_nonfinite = resume->epoch_nonfinite;
    consecutive_nonfinite = resume->consecutive_nonfinite;
    start_epoch = resume->epoch;
    resume_batch = resume->next_batch;
    seeded = true;
    // Replay the shuffles the interrupted run already performed so the
    // resumed epoch draws the identical batch order from the same stream
    // position (Batcher reshuffles its running order in place each epoch).
    for (int e = 0; e < start_epoch; ++e) batcher.EpochBatches();
  }

  // Snapshot of everything a fresh process needs to continue from the
  // cursor (state_epoch, state_next_batch); written through the retry
  // policy, and non-fatal on persistent failure — training outlives its
  // checkpoint stream, it just resumes from an older point.
  const auto write_run_state = [&](int state_epoch, int state_next_batch,
                                   const std::vector<uint64_t>& rng_words,
                                   bool completed) {
    RunState s;
    s.completed = completed;
    s.epoch = state_epoch;
    s.next_batch = state_next_batch;
    s.rng_state = rng_words;
    s.loss_sum = loss_sum;
    s.grad_norm_sum = grad_norm_sum;
    s.seen = seen;
    s.batches = batches_done;
    s.epoch_nonfinite = epoch_nonfinite;
    s.adam_step_count = optimizer.step_count();
    s.lr = optimizer.lr();
    s.adam_m = optimizer.first_moments();
    s.adam_v = optimizer.second_moments();
    s.stopper_best = stopper.best();
    s.stopper_best_epoch = stopper.best_epoch();
    s.stopper_epochs = stopper.epochs_recorded();
    s.stopper_stale = stopper.epochs_since_best();
    s.train_loss = result.train_loss;
    s.val_loss = result.val_loss;
    s.best_epoch = result.best_epoch;
    s.epochs_run = result.epochs_run;
    s.nonfinite_batches = result.nonfinite_batches;
    s.consecutive_nonfinite = consecutive_nonfinite;
    s.lr_halvings = result.lr_halvings;
    s.model_state = model->StateDict();
    s.best_state = result.best_state;
    const Status written = CallWithRetry(
        ckpt->retry, [&] { return SaveRunState(ckpt->path, s); });
    RecordRunStateWrite(written.ok());
    if (!written.ok()) {
      TRACER_LOG(Warning) << "run-state checkpoint failed (training "
                          << "continues): " << written.ToString();
    }
  };

  if (checkpointing) {
    // Anchor the stream: with a state on disk from batch zero, a crash at
    // any point of the run has something to resume from. (On resume this
    // rewrites the state just loaded — the RNG is positioned pre-shuffle of
    // start_epoch after the replay above, so the cursor is identical.)
    write_run_state(start_epoch, resume_batch, rng.SaveState(),
                    /*completed=*/false);
  }

  int64_t processed_this_run = 0;
  for (int epoch = start_epoch; epoch < config.max_epochs; ++epoch) {
    TRACER_SPAN("train.epoch");
    const auto epoch_start = std::chrono::steady_clock::now();
    int first_batch = 0;
    if (seeded) {
      // First epoch of a resumed run: accumulators came from the run state
      // and the leading batches were already consumed before the crash.
      first_batch = resume_batch;
      seeded = false;
    } else {
      loss_sum = 0.0;
      grad_norm_sum = 0.0;
      seen = 0;
      batches_done = 0;
      epoch_nonfinite = 0;
    }
    const std::vector<uint64_t> epoch_rng = rng.SaveState();
    const std::vector<std::vector<int>> epoch_batches = batcher.EpochBatches();
    for (size_t bi = static_cast<size_t>(first_batch);
         bi < epoch_batches.size(); ++bi) {
      const std::vector<int>& idx = epoch_batches[bi];
      // `eval` is the per-sub-batch forward+backward shared by the local
      // and distributed paths: after it returns, the params' grads hold
      // the sub-batch's mean gradient. A non-finite loss short-circuits
      // before validation/backward (mirroring the local guard order); the
      // reduced loss then carries the non-finiteness to every worker so
      // they all skip the step identically.
      const auto eval = [&](const std::vector<int>& sub) -> float {
        const data::Batch batch = data::MakeBatch(train_set, sub);
        optimizer.ZeroGrad();
        autograd::Variable loss = BatchLoss(model, batch, train_set.task());
        const float loss_value = loss.value()[0];
        if (!(config.nonfinite_guard && !std::isfinite(loss_value))) {
          if (config.validate_graph) {
            // Catches silent corruption (shape drift, NaN/Inf, severed
            // gradient flow) before it can reach the optimizer state; see
            // TrainConfig::validate_graph.
            autograd::ValidateOptions validate_options;
            validate_options.check_nonfinite = true;
            autograd::CheckGraph(loss, validate_options);
          }
          loss.Backward();
        }
        return loss_value;
      };
      float loss_value = 0.0f;
      if (config.grad_reducer != nullptr) {
        // Distributed step: the reducer computes this worker's shards via
        // `eval`, all-reduces in canonical shard order, and installs the
        // bitwise-deterministic whole-batch gradient.
        const uint64_t step_id =
            (static_cast<uint64_t>(epoch) << 32) | static_cast<uint64_t>(bi);
        Result<float> reduced = config.grad_reducer->ReduceStep(
            step_id, idx, optimizer.params(), eval);
        if (!reduced.ok()) {
          TRACER_LOG(Warning) << "distributed step aborted: "
                              << reduced.status().ToString();
          result.status = reduced.status();
          result.interrupted = true;
          result.seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
          return result;
        }
        loss_value = std::move(reduced).value();
      } else {
        loss_value = eval(idx);
      }
      bool skip = config.nonfinite_guard && !std::isfinite(loss_value);
      float grad_norm = 0.0f;
      if (!skip) {
        if (config.clip_norm > 0.0f) {
          grad_norm = optimizer.ClipGradNorm(config.clip_norm);
        } else if (telemetry || config.nonfinite_guard) {
          grad_norm = optim::GlobalGradNorm(optimizer.params());
        }
        skip = config.nonfinite_guard && !std::isfinite(grad_norm);
      }
      if (skip) {
        // Non-finite guard: drop the batch before it can poison the
        // parameters or Adam moments, and back the LR off if the
        // instability persists.
        ++epoch_nonfinite;
        ++result.nonfinite_batches;
        ++consecutive_nonfinite;
        RecordNonfiniteBatch();
        if (config.nonfinite_lr_patience > 0 &&
            consecutive_nonfinite >= config.nonfinite_lr_patience) {
          const float new_lr = optimizer.lr() * 0.5f;
          optimizer.set_lr(new_lr);
          ++result.lr_halvings;
          consecutive_nonfinite = 0;
          TRACER_LOG(Warning)
              << model->name() << ": " << config.nonfinite_lr_patience
              << " consecutive non-finite batches; lr halved to " << new_lr;
        }
      } else {
        consecutive_nonfinite = 0;
        optimizer.Step();
        grad_norm_sum += grad_norm;
        loss_sum += static_cast<double>(loss_value) * idx.size();
        seen += static_cast<int64_t>(idx.size());
        ++batches_done;
      }
      ++processed_this_run;
      if (ckpt != nullptr && ckpt->stop_after_batches > 0 &&
          processed_this_run >= ckpt->stop_after_batches) {
        // Crash simulation: abandon the run exactly here, with whatever
        // checkpoint (if any) the cadence below last wrote.
        result.interrupted = true;
        result.seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
        return result;
      }
      if (checkpointing && ckpt->every_batches > 0 &&
          processed_this_run % ckpt->every_batches == 0) {
        write_run_state(epoch, static_cast<int>(bi) + 1, epoch_rng,
                        /*completed=*/false);
      }
      if (config.graceful_shutdown && SignalGuard::ShutdownRequested()) {
        // Orchestrated preemption: the batch just finished cleanly, so
        // persist the exact cursor and leave — Resume continues the run
        // bit-identically from here.
        TRACER_LOG(Info) << model->name()
                         << ": shutdown signal received; writing final "
                         << "run state and exiting";
        if (checkpointing) {
          write_run_state(epoch, static_cast<int>(bi) + 1, epoch_rng,
                          /*completed=*/false);
        }
        result.interrupted = true;
        result.seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
        return result;
      }
    }
    const double epoch_loss =
        seen > 0 ? loss_sum / static_cast<double>(seen)
                 : std::numeric_limits<double>::quiet_NaN();
    const double val_loss = DatasetLoss(model, val_set, 256);
    result.train_loss.push_back(epoch_loss);
    result.val_loss.push_back(val_loss);
    result.epochs_run = epoch + 1;
    const double epoch_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      epoch_start)
            .count();
    if (telemetry) {
      obs::JsonObject record;
      record.Add("event", "epoch");
      record.Add("model", model->name());
      record.Add("epoch", epoch + 1);
      record.Add("train_loss", epoch_loss);
      record.Add("val_loss", val_loss);
      record.Add("grad_norm",
                 grad_norm_sum / static_cast<double>(batches_done));
      record.Add("examples_per_sec",
                 epoch_seconds > 0.0
                     ? static_cast<double>(seen) / epoch_seconds
                     : 0.0);
      record.Add("epoch_seconds", epoch_seconds);
      record.Add("batches", batches_done);
      record.Add("nonfinite_batches", epoch_nonfinite);
      result.telemetry.push_back(record.Build());
      if (obs::Enabled()) {
        TRACER_LOG(Info) << result.telemetry.back();
        obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
        registry.GetOrCreateCounter("tracer_train_batches_total")
            ->Increment(batches_done);
        registry.GetOrCreateCounter("tracer_train_examples_total")
            ->Increment(seen);
        registry
            .GetOrCreateHistogram("tracer_train_epoch_seconds",
                                  {0.01, 0.1, 0.5, 1, 5, 30, 120, 600})
            ->Observe(epoch_seconds);
      }
    }
    if (config.verbose) {
      TRACER_LOG(Info) << model->name() << " epoch " << epoch + 1
                       << " train_loss=" << epoch_loss
                       << " val_loss=" << val_loss;
    }
    if (stopper.Update(static_cast<float>(val_loss))) {
      result.best_epoch = epoch + 1;
      result.best_state = model->StateDict();
    }
    const bool stop =
        stopper.ShouldStop() || epoch + 1 == config.max_epochs;
    if (checkpointing) {
      // Epoch boundary: the next cursor is (epoch + 1, batch 0) with fresh
      // accumulators and the RNG positioned before the next shuffle.
      loss_sum = 0.0;
      grad_norm_sum = 0.0;
      seen = 0;
      batches_done = 0;
      epoch_nonfinite = 0;
      write_run_state(epoch + 1, 0, rng.SaveState(), stop);
    }
    if (config.grad_reducer != nullptr) {
      // Membership fence: runs after the (epoch + 1, 0) run_state write so
      // a joiner admitted here can be served that exact snapshot.
      const Status fence = config.grad_reducer->EpochFence(epoch + 1, stop);
      if (!fence.ok()) {
        TRACER_LOG(Warning) << "distributed epoch fence failed: "
                            << fence.ToString();
        result.status = fence;
        result.interrupted = true;
        result.seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
        return result;
      }
    }
    if (stopper.ShouldStop()) break;
  }
  model->LoadStateDict(result.best_state);
  const auto end = std::chrono::steady_clock::now();
  result.seconds =
      std::chrono::duration<double>(end - start).count();
  return result;
}

}  // namespace

double DatasetLoss(nn::SequenceModel* model,
                   const data::TimeSeriesDataset& dataset, int batch_size) {
  TRACER_CHECK_GT(dataset.num_samples(), 0);
  double total = 0.0;
  int64_t counted = 0;
  for (int begin = 0; begin < dataset.num_samples(); begin += batch_size) {
    const int end = std::min(dataset.num_samples(), begin + batch_size);
    std::vector<int> idx(end - begin);
    for (int i = begin; i < end; ++i) idx[i - begin] = i;
    const data::Batch batch = data::MakeBatch(dataset, idx);
    const autograd::Variable loss = BatchLoss(model, batch, dataset.task());
    total += static_cast<double>(loss.value()[0]) * (end - begin);
    counted += end - begin;
  }
  return total / static_cast<double>(counted);
}

TrainResult Fit(nn::SequenceModel* model,
                const data::TimeSeriesDataset& train_set,
                const data::TimeSeriesDataset& val_set,
                const TrainConfig& config) {
  return FitInternal(model, train_set, val_set, config, /*ckpt=*/nullptr,
                     /*resume=*/nullptr);
}

Trainer::Trainer(TrainConfig config, CheckpointOptions checkpoint)
    : config_(std::move(config)), checkpoint_(std::move(checkpoint)) {}

TrainResult Trainer::Fit(nn::SequenceModel* model,
                         const data::TimeSeriesDataset& train_set,
                         const data::TimeSeriesDataset& val_set) const {
  return FitInternal(model, train_set, val_set, config_, &checkpoint_,
                     /*resume=*/nullptr);
}

Result<TrainResult> Trainer::Resume(
    nn::SequenceModel* model, const data::TimeSeriesDataset& train_set,
    const data::TimeSeriesDataset& val_set) const {
  if (checkpoint_.path.empty()) {
    return Status::FailedPrecondition(
        "Resume requires CheckpointOptions::path");
  }
  Result<RunState> loaded = LoadRunState(checkpoint_.path);
  if (!loaded.ok()) return loaded.status();
  RunState state = std::move(loaded).value();
  RecordResume();

  // The state must describe this exact model architecture; a mismatch is a
  // caller error, not data loss.
  const std::vector<Tensor> dict = model->StateDict();
  if (state.model_state.size() != dict.size() ||
      state.best_state.size() != dict.size()) {
    return Status::InvalidArgument(
        "run state does not match the model's parameter count");
  }
  for (size_t i = 0; i < dict.size(); ++i) {
    if (!state.model_state[i].SameShape(dict[i]) ||
        !state.best_state[i].SameShape(dict[i])) {
      return Status::InvalidArgument(
          "run state does not match the model's parameter shapes");
    }
  }
  const size_t param_count = model->Parameters().size();
  if (state.adam_m.size() != param_count ||
      state.adam_v.size() != param_count) {
    return Status::InvalidArgument(
        "run state does not match the optimizer's parameter count");
  }

  if (state.completed) {
    // Nothing left to train: reconstruct the result and restore the best
    // checkpoint, exactly what the finished run left behind.
    model->LoadStateDict(state.best_state);
    TrainResult result;
    result.train_loss = state.train_loss;
    result.val_loss = state.val_loss;
    result.best_epoch = state.best_epoch;
    result.epochs_run = state.epochs_run;
    result.best_state = std::move(state.best_state);
    result.nonfinite_batches = state.nonfinite_batches;
    result.lr_halvings = state.lr_halvings;
    return result;
  }

  if (state.epoch >= config_.max_epochs) {
    return Status::InvalidArgument(
        "run state cursor is beyond TrainConfig::max_epochs");
  }
  const int batches_per_epoch =
      (train_set.num_samples() + config_.batch_size - 1) /
      config_.batch_size;
  if (state.next_batch > batches_per_epoch) {
    return Status::InvalidArgument(
        "run state batch cursor is beyond the dataset's epoch length");
  }
  // Integrity check on the shuffle stream: replaying the recorded number of
  // epoch shuffles from TrainConfig::seed must land exactly on the saved
  // RNG state, or the state was written under a different seed/dataset and
  // the resumed batch order would silently diverge.
  {
    Rng probe(config_.seed);
    data::Batcher probe_batcher(train_set, config_.batch_size, probe);
    for (int e = 0; e < state.epoch; ++e) probe_batcher.EpochBatches();
    if (probe.SaveState() != state.rng_state) {
      return Status::InvalidArgument(
          "run state RNG does not match TrainConfig::seed and the dataset; "
          "resuming would diverge from the interrupted run");
    }
  }
  return FitInternal(model, train_set, val_set, config_, &checkpoint_,
                     &state);
}

EvalResult Evaluate(nn::SequenceModel* model,
                    const data::TimeSeriesDataset& dataset, int batch_size) {
  EvalResult out;
  const std::vector<float> predictions =
      model->Predict(dataset, batch_size);
  if (dataset.task() == data::TaskType::kBinaryClassification) {
    out.auc = metrics::Auc(predictions, dataset.labels());
    out.cel = metrics::CrossEntropyLoss(predictions, dataset.labels());
  } else {
    out.rmse = metrics::Rmse(predictions, dataset.labels());
    out.mae = metrics::Mae(predictions, dataset.labels());
  }
  return out;
}

}  // namespace train
}  // namespace tracer
