// train_gemm and train_dist: fixed-epoch TITV fits, repeated until the run's
// time is up, timed from outside through the model and reducer decorators.

#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cohort.h"
#include "core/titv.h"
#include "dist/coordinator.h"
#include "dist/worker.h"
#include "layers.h"
#include "obs/autograd_profiler.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "parallel/parallel_for.h"
#include "stats.h"
#include "train/trainer.h"
#include "workloads.h"

namespace perfbench {
namespace {

using tracer::obs::MonotonicNowNs;

/// Warm-up fit: one epoch on this many training samples, enough to create
/// the thread pools, plan the step arena and fault in the allocator.
constexpr int kWarmupSamples = 256;
/// train::Fit validates in batches of this size (DatasetLoss).
constexpr int kValidationBatch = 256;

struct TrainSpec {
  CohortSpec cohort;  // `train` is a multiple of `batch`: every step is full
  int dim = 0;        // rnn_dim = film_dim
  int batch = 64;
  int epochs = 0;
  float learning_rate = 3e-3f;
  /// Test AUC below this fails the run. Measured on seeds 1-10 at this
  /// spec; the floor sits well under the lowest of them, so only broken
  /// training trips it.
  double auc_floor = 0.0;
};

// train_gemm: the NUH-AKI shape (T=7, D=31) at 128-dim, where GEMMs dominate.
const TrainSpec kGemmSpec = {{false, 3000, 1600, 200}, 128, 64, 3, 3e-3f, 0.60};
// train_dist: the MIMIC shape (T=24, D=26) at 16-dim, where the recurrence,
// elementwise ops, the tape and the all-reduce dominate.
const TrainSpec kDistSpec = {{true, 3600, 1280, 256}, 16, 64, 4, 3e-3f, 0.60};
constexpr int kDistWorkers = 2;
constexpr int kDistShards = 4;
constexpr int kDistThreadsPerWorker = 2;

tracer::core::TitvConfig ModelConfig(const TrainSpec& spec, int input_dim,
                                     uint64_t seed) {
  tracer::core::TitvConfig config;
  config.input_dim = input_dim;
  config.rnn_dim = spec.dim;
  config.film_dim = spec.dim;
  config.seed = seed + 2;
  return config;
}

tracer::train::TrainConfig FitConfig(const TrainSpec& spec, uint64_t seed,
                                     int epochs) {
  tracer::train::TrainConfig config;
  config.max_epochs = epochs;
  config.batch_size = spec.batch;
  config.learning_rate = spec.learning_rate;
  config.patience = 0;  // fixed epoch count
  config.seed = seed + 3;
  return config;
}

FitPlan PlanFor(const TrainSpec& spec, int epochs, int train_samples,
                int calls_per_step) {
  FitPlan plan;
  plan.epochs = epochs;
  plan.steps_per_epoch = train_samples / spec.batch;
  plan.calls_per_step = calls_per_step;
  plan.val_calls_per_epoch =
      (spec.cohort.val + kValidationBatch - 1) / kValidationBatch;
  return plan;
}

tracer::data::TimeSeriesDataset WarmupSet(const Cohort& cohort) {
  std::vector<int> first(kWarmupSamples);
  std::iota(first.begin(), first.end(), 0);
  return cohort.splits.train.Subset(first);
}

uint64_t ParamChecksum(const tracer::nn::Module& model) {
  uint64_t hash = kFnvOffset;
  for (const tracer::autograd::Variable& p : model.Parameters()) {
    const tracer::Tensor& value = p.value();
    hash = Fnv1a(value.data(), static_cast<size_t>(value.size()), hash);
  }
  return hash;
}

/// Everything one fit reports; also the wire format of a dist worker's
/// answer (one line of key=value fields).
struct FitOutcome {
  bool ok = false;
  double auc = 0.0;
  uint64_t checksum = 0;
  int64_t nonfinite = 0;
  FitTimeline timeline;
  OpTotals ops;
  TimedReducer::Totals reducer;
  double dist_bytes = 0.0;
  /// CPU time of the fitting process since it started, read after the fit.
  double process_cpu_ms = 0.0;
};

std::string JoinDoubles(const std::vector<double>& values) {
  std::string out;
  char buf[40];
  for (size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.9g", i > 0 ? "," : "", values[i]);
    out += buf;
  }
  return out.empty() ? "-" : out;
}

std::vector<double> SplitDoubles(const std::string& text) {
  std::vector<double> values;
  if (text == "-") return values;
  std::stringstream stream(text);
  std::string item;
  while (std::getline(stream, item, ',')) {
    values.push_back(std::atof(item.c_str()));
  }
  return values;
}

std::string Encode(const FitOutcome& o) {
  const FitTimeline& t = o.timeline;
  std::ostringstream out;
  out.precision(17);
  out << "fit ok=" << o.ok << " auc=" << o.auc << " checksum=" << o.checksum
      << " nonfinite=" << o.nonfinite << " fit_ms=" << t.fit_ms
      << " cpu_ms=" << t.cpu_ms
      << " forward_ms=" << t.forward_ms << " heap_allocs=" << t.heap_allocs
      << " forward_calls=" << t.forward_calls
      << " planned_calls=" << t.planned_calls
      << " step_ms=" << JoinDoubles(t.step_ms)
      << " epoch_ms=" << JoinDoubles(t.epoch_ms)
      << " validate_ms=" << JoinDoubles(t.validate_ms)
      << " gemm_ms=" << o.ops.gemm_ms << " nongemm_ms=" << o.ops.nongemm_ms
      << " backward_ms=" << o.ops.backward_ms
      << " gemm_gflop=" << o.ops.gemm_gflop << " op_calls=" << o.ops.op_calls
      << " reduce_steps=" << o.reducer.steps
      << " reduce_ms=" << o.reducer.reduce_ms
      << " eval_ms=" << o.reducer.eval_ms
      << " evals=" << o.reducer.evals << " owned=" << o.reducer.owned
      << " dist_bytes=" << o.dist_bytes
      << " process_cpu_ms=" << o.process_cpu_ms;
  return out.str();
}

bool Decode(const std::string& line, FitOutcome* o) {
  std::istringstream in(line);
  std::string token;
  if (!(in >> token) || token != "fit") return false;
  std::map<std::string, std::string> fields;
  while (in >> token) {
    const size_t eq = token.find('=');
    if (eq == std::string::npos) return false;
    fields[token.substr(0, eq)] = token.substr(eq + 1);
  }
  if (fields.count("ok") == 0) return false;
  const auto number = [&](const char* key) {
    return std::atof(fields[key].c_str());
  };
  const auto count = [&](const char* key) {
    return std::atoll(fields[key].c_str());
  };
  o->ok = fields["ok"] == "1";
  o->auc = number("auc");
  o->checksum = std::strtoull(fields["checksum"].c_str(), nullptr, 10);
  o->nonfinite = count("nonfinite");
  FitTimeline& t = o->timeline;
  t.fit_ms = number("fit_ms");
  t.cpu_ms = number("cpu_ms");
  t.forward_ms = number("forward_ms");
  t.heap_allocs = count("heap_allocs");
  t.forward_calls = count("forward_calls");
  t.planned_calls = count("planned_calls");
  t.step_ms = SplitDoubles(fields["step_ms"]);
  t.epoch_ms = SplitDoubles(fields["epoch_ms"]);
  t.validate_ms = SplitDoubles(fields["validate_ms"]);
  o->ops.gemm_ms = number("gemm_ms");
  o->ops.nongemm_ms = number("nongemm_ms");
  o->ops.backward_ms = number("backward_ms");
  o->ops.gemm_gflop = number("gemm_gflop");
  o->ops.op_calls = count("op_calls");
  o->reducer.steps = count("reduce_steps");
  o->reducer.reduce_ms = number("reduce_ms");
  o->reducer.eval_ms = number("eval_ms");
  o->reducer.evals = count("evals");
  o->reducer.owned = count("owned");
  o->dist_bytes = number("dist_bytes");
  o->process_cpu_ms = number("process_cpu_ms");
  return true;
}

/// Fills the outcome fields every fit shares: status, quality, checksum.
void Finish(const tracer::train::TrainResult& fit, tracer::core::Titv* model,
            const Cohort& cohort, FitOutcome* out) {
  out->ok = fit.status.ok() && !fit.interrupted;
  out->nonfinite = fit.nonfinite_batches;
  out->auc = tracer::train::Evaluate(model, cohort.splits.test).auc;
  out->checksum = ParamChecksum(*model);
  out->process_cpu_ms = ProcessCpuMs();
}

/// Accumulates the fits of one measurement phase (one per worker per fit).
struct Phase {
  /// Fits run, training samples processed and the wall time they took,
  /// summed over fits (over ensemble rounds, timed by the slower worker, for
  /// train_dist).
  int fits = 0;
  double samples = 0.0;
  double seconds = 0.0;
  /// CPU time of every process of the fits: the fitting process, or both
  /// workers plus the coordinator's process for train_dist.
  double cpu_ms = 0.0;
  /// Pooled over every fit and worker.
  std::vector<double> step_ms;
  std::vector<double> epoch_ms;
  std::vector<double> validate_ms;
  double fit_ms = 0.0;
  double forward_ms = 0.0;
  int64_t heap_allocs = 0;
  OpTotals ops;
  TimedReducer::Totals reducer;
  double dist_bytes = 0.0;
  int64_t evictions = 0;
  /// The first fit's results; later fits of the same spec and seed must
  /// reproduce them bitwise.
  bool have_reference = false;
  double reference_auc = 0.0;
  uint64_t reference_checksum = 0;

  void Add(const FitOutcome& o) {
    const FitTimeline& t = o.timeline;
    step_ms.insert(step_ms.end(), t.step_ms.begin(), t.step_ms.end());
    epoch_ms.insert(epoch_ms.end(), t.epoch_ms.begin(), t.epoch_ms.end());
    validate_ms.insert(validate_ms.end(), t.validate_ms.begin(),
                       t.validate_ms.end());
    fit_ms += t.fit_ms;
    cpu_ms += t.cpu_ms;
    forward_ms += t.forward_ms;
    heap_allocs += t.heap_allocs;
    ops.gemm_ms += o.ops.gemm_ms;
    ops.nongemm_ms += o.ops.nongemm_ms;
    ops.backward_ms += o.ops.backward_ms;
    ops.gemm_gflop += o.ops.gemm_gflop;
    ops.op_calls += o.ops.op_calls;
    reducer.steps += o.reducer.steps;
    reducer.reduce_ms += o.reducer.reduce_ms;
    reducer.eval_ms += o.reducer.eval_ms;
    reducer.evals += o.reducer.evals;
    reducer.owned += o.reducer.owned;
    dist_bytes += o.dist_bytes;
  }

  /// Output checks of one fit (or one worker's view of it); returns the
  /// problems found, empty when the fit is correct.
  std::string Check(const FitOutcome& o, const TrainSpec& spec) {
    std::string problems;
    if (!o.ok) problems += " fit did not complete;";
    if (o.timeline.forward_calls != o.timeline.planned_calls) {
      problems += " made " + std::to_string(o.timeline.forward_calls) +
                  " Forward calls where the timing plan expects " +
                  std::to_string(o.timeline.planned_calls) +
                  ", so its steps cannot be told from validation;";
    }
    if (o.nonfinite != 0) {
      problems += " " + std::to_string(o.nonfinite) + " non-finite batches;";
    }
    if (!(o.auc >= spec.auc_floor)) {
      problems += " test AUC " + std::to_string(o.auc) + " below floor " +
                  std::to_string(spec.auc_floor) + ";";
    }
    if (!have_reference) {
      have_reference = true;
      reference_auc = o.auc;
      reference_checksum = o.checksum;
    } else if (o.auc != reference_auc || o.checksum != reference_checksum) {
      problems += " did not reproduce the run's first fit bitwise;";
    }
    return problems;
  }
};

void SetEndToEnd(const Phase& phase, double setup_s, double peak_rss_mb,
                 double quality, RunResult* result) {
  result->Set("setup_s", setup_s);
  result->Set("peak_rss_mb", peak_rss_mb);
  result->Set("cpu_ms_per_op", phase.cpu_ms / phase.samples);
  result->Set("throughput_per_s", phase.samples / phase.seconds);
  result->Set("quality", quality);
  result->Set("p50_ms", Percentile(phase.step_ms, 0.5));
  result->Set("p90_ms", Percentile(phase.step_ms, 0.9));
  result->Set("heavy_p50_ms", Percentile(phase.epoch_ms, 0.5));
  result->Set("heavy_p90_ms", Percentile(phase.epoch_ms, 0.9));
}

/// Per-layer ledger of a traced phase. Per-step values are means over the
/// steps every worker ran. The update stage is the rest of the step after
/// the model's forward, the backward closures and the all-reduce: loss,
/// batch assembly, zero-grad, clipping and Adam. Unaccounted time is fit
/// time inside no step and no validation window.
void SetLayers(const Phase& traced, const Phase& plain,
               const std::vector<double>& cohort_s,
               const std::vector<double>& prepare_s, RunResult* result) {
  const double steps = static_cast<double>(traced.step_ms.size());
  double step_total = 0.0;
  for (double ms : traced.step_ms) step_total += ms;
  double validate_total = 0.0;
  for (double ms : traced.validate_ms) validate_total += ms;
  const double allreduce_total =
      traced.reducer.reduce_ms - traced.reducer.eval_ms;
  result->Set("tensor.gemm_ms_per_step", traced.ops.gemm_ms / steps);
  result->Set("tensor.gemm_gflops",
              traced.ops.gemm_ms > 0.0
                  ? traced.ops.gemm_gflop / (traced.ops.gemm_ms / 1e3)
                  : 0.0);
  result->Set("tensor.gemm_share", traced.ops.gemm_ms / step_total);
  result->Set("tensor.heap_allocs_per_step",
              static_cast<double>(traced.heap_allocs) / steps);
  result->Set("autograd.nongemm_ms_per_step", traced.ops.nongemm_ms / steps);
  result->Set("autograd.ops_per_step",
              static_cast<double>(traced.ops.op_calls) / steps);
  result->Set("autograd.backward_ms", traced.ops.backward_ms / steps);
  result->Set("nn.forward_ms", traced.forward_ms / steps);
  result->Set("train.step_ms", step_total / steps);
  result->Set("train.update_ms",
              (step_total - traced.forward_ms - traced.ops.backward_ms -
               allreduce_total) /
                  steps);
  result->Set("train.validate_ms", Mean(traced.validate_ms));
  result->Set("train.unaccounted_share",
              (traced.fit_ms - step_total - validate_total) / traced.fit_ms);
  if (traced.reducer.steps > 0) {
    result->Set("dist.allreduce_ms", allreduce_total / steps);
    result->Set("dist.allreduce_share", allreduce_total / step_total);
    // Bytes every worker sent and received, per training step.
    result->Set("dist.bytes_per_step",
                traced.dist_bytes /
                    (static_cast<double>(traced.reducer.steps) / kDistWorkers));
    result->Set("dist.evals_per_shard",
                static_cast<double>(traced.reducer.owned) /
                    static_cast<double>(traced.reducer.evals));
    result->Set("dist.retries", static_cast<double>(traced.reducer.evals -
                                                    traced.reducer.owned));
    result->Set("dist.evictions", static_cast<double>(traced.evictions));
  }
  result->Set("datagen.cohort_s", Median(cohort_s));
  result->Set("data.prepare_s", Median(prepare_s));
  const double plain_throughput = plain.samples / plain.seconds;
  result->Set("trace.overhead_throughput_share",
              (plain_throughput - traced.samples / traced.seconds) /
                  plain_throughput);
  result->Set("trace.overhead_p50_ms", Percentile(traced.step_ms, 0.5) -
                                           Percentile(plain.step_ms, 0.5));
}

std::string TracePath(const Options& options, const std::string& suffix) {
  return options.workdir + "/trace-" + options.workload + "-seed" +
         std::to_string(options.seed) + suffix + ".json";
}

// ---------------------------------------------------------------- train_gemm

FitOutcome LocalFit(const Cohort& cohort,
                    const tracer::data::TimeSeriesDataset& train_set,
                    int epochs, uint64_t seed, bool traced) {
  const TrainSpec& spec = kGemmSpec;
  tracer::core::Titv model(
      ModelConfig(spec, cohort.splits.train.num_features(), seed));
  TimedModel timed(&model, PlanFor(spec, epochs, train_set.num_samples(), 1),
                   traced);
  if (traced) tracer::obs::AutogradProfiler::Global().Reset();
  timed.Begin();
  const tracer::train::TrainResult fit = tracer::train::Fit(
      &timed, train_set, cohort.splits.val, FitConfig(spec, seed, epochs));
  timed.End();
  FitOutcome out;
  out.timeline = timed.timeline();
  if (traced) out.ops = SnapshotProfile();
  Finish(fit, &model, cohort, &out);
  return out;
}

Phase LocalPhase(const Cohort& cohort, const Options& options, bool traced,
                 RunResult* result) {
  const TrainSpec& spec = kGemmSpec;
  Phase phase;
  const uint64_t deadline =
      MonotonicNowNs() + static_cast<uint64_t>(options.seconds * 1e9);
  do {
    const FitOutcome o = LocalFit(cohort, cohort.splits.train, spec.epochs,
                                  options.seed, traced);
    ++result->attempted;
    const std::string problems = phase.Check(o, spec);
    if (!problems.empty()) result->Fail("train_gemm fit:" + problems);
    phase.Add(o);
    ++phase.fits;
    phase.samples += static_cast<double>(spec.epochs) * spec.cohort.train;
    phase.seconds += o.timeline.fit_ms / 1e3;
  } while (MonotonicNowNs() < deadline);
  return phase;
}

}  // namespace

RunResult RunTrainGemm(const Options& options) {
  RunResult result;
  tracer::parallel::SetMaxThreads(
      static_cast<int>(std::thread::hardware_concurrency()));
  std::vector<double> setup_s, cohort_s, prepare_s;
  Cohort cohort;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const double cpu0_ms = ProcessCpuMs();
    cohort = MakeCohort(kGemmSpec.cohort, options.seed);
    LocalFit(cohort, WarmupSet(cohort), 1, options.seed, false);
    setup_s.push_back((ProcessCpuMs() - cpu0_ms) / 1e3);
    cohort_s.push_back(cohort.cohort_s);
    prepare_s.push_back(cohort.prepare_s);
  }
  const Phase plain = LocalPhase(cohort, options, false, &result);
  SetEndToEnd(plain, Median(setup_s), PeakRssMb(false), plain.reference_auc,
              &result);
  if (options.trace) {
    StartTracing();
    const Phase traced = LocalPhase(cohort, options, true, &result);
    SetLayers(traced, plain, cohort_s, prepare_s, &result);
    if (!WriteTrace(TracePath(options, ""))) {
      result.notes.push_back("could not write the trace file");
    }
  }
  result.notes.push_back(
      "train_gemm: " + std::to_string(plain.fits) + " fits of " +
      std::to_string(kGemmSpec.epochs) + " epochs x " +
      std::to_string(kGemmSpec.cohort.train) + " samples; test AUC " +
      std::to_string(plain.reference_auc));
  return result;
}

// ---------------------------------------------------------------- train_dist

namespace {

/// One train_dist worker process: this binary re-executed with
/// --dist-worker, driven line by line over its stdin/stdout.
class WorkerProcess {
 public:
  WorkerProcess() = default;
  ~WorkerProcess() { Stop(); }
  WorkerProcess(const WorkerProcess&) = delete;
  WorkerProcess& operator=(const WorkerProcess&) = delete;

  bool Spawn(uint64_t seed) {
    int to_child[2];
    int from_child[2];
    if (pipe(to_child) != 0) return false;
    if (pipe(from_child) != 0) {
      close(to_child[0]);
      close(to_child[1]);
      return false;
    }
    const std::string seed_arg = std::to_string(seed);
    pid_ = fork();
    if (pid_ == 0) {
      dup2(to_child[0], STDIN_FILENO);
      dup2(from_child[1], STDOUT_FILENO);
      close(to_child[0]);
      close(to_child[1]);
      close(from_child[0]);
      close(from_child[1]);
      // The worker must not outlive the benchmark, even if it is killed.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      const char* args[] = {"/proc/self/exe", "--dist-worker",
                            seed_arg.c_str(), nullptr};
      execv("/proc/self/exe", const_cast<char* const*>(args));
      _exit(127);
    }
    close(to_child[0]);
    close(from_child[1]);
    to_fd_ = to_child[1];
    from_fd_ = from_child[0];
    if (pid_ < 0) {
      Stop();
      return false;
    }
    return true;
  }

  bool Send(const std::string& line) {
    const std::string data = line + "\n";
    size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n = write(to_fd_, data.data() + sent, data.size() - sent);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  bool ReadLine(std::string* line, int timeout_ms) {
    const uint64_t deadline =
        MonotonicNowNs() + static_cast<uint64_t>(timeout_ms) * 1000000ull;
    while (true) {
      const size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        *line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return true;
      }
      const uint64_t now = MonotonicNowNs();
      if (now >= deadline) return false;
      pollfd pfd{from_fd_, POLLIN, 0};
      const int ready =
          poll(&pfd, 1, static_cast<int>((deadline - now) / 1000000ull) + 1);
      if (ready < 0 && errno == EINTR) continue;
      if (ready <= 0) return false;
      char chunk[65536];
      const ssize_t n = read(from_fd_, chunk, sizeof(chunk));
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  /// Asks the worker to exit, then reaps it; kills it if it does not go.
  void Stop() {
    if (pid_ > 0) {
      Send("quit");
      int status = 0;
      const uint64_t deadline = MonotonicNowNs() + 10000000000ull;
      while (waitpid(pid_, &status, WNOHANG) == 0) {
        if (MonotonicNowNs() > deadline) {
          kill(pid_, SIGKILL);
          waitpid(pid_, &status, 0);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      pid_ = -1;
    }
    if (to_fd_ >= 0) close(to_fd_);
    if (from_fd_ >= 0) close(from_fd_);
    to_fd_ = from_fd_ = -1;
  }

 private:
  pid_t pid_ = -1;
  int to_fd_ = -1;
  int from_fd_ = -1;
  std::string buffer_;
};

constexpr int kWorkerTimeoutMs = 60000;

tracer::dist::DistConfig DistConfigFor(const std::string& socket_path,
                                       const std::string& run_state_path) {
  tracer::dist::DistConfig config;
  config.socket_path = socket_path;
  config.run_state_path = run_state_path;
  config.world_size = kDistWorkers;
  config.num_shards = kDistShards;
  config.step_timeout_ms = kWorkerTimeoutMs;
  return config;
}

double DistBytes() {
  tracer::obs::MetricsRegistry& registry =
      tracer::obs::MetricsRegistry::Global();
  return static_cast<double>(
      registry.GetOrCreateCounter("tracer_dist_send_bytes_total")->value() +
      registry.GetOrCreateCounter("tracer_dist_recv_bytes_total")->value());
}

/// A worker's side of one ensemble fit. Untraced fits go through
/// RunElasticWorker; traced fits compose the same SocketReducer and Trainer
/// by hand so the timing reducer can sit between them.
FitOutcome WorkerFit(const Cohort& cohort, uint64_t seed,
                     const std::string& socket_path,
                     const std::string& run_state_path,
                     const std::string& mode) {
  const TrainSpec& spec = kDistSpec;
  const bool warm = mode == "warm";
  const bool traced = mode == "traced";
  const tracer::data::TimeSeriesDataset warm_set =
      warm ? WarmupSet(cohort) : tracer::data::TimeSeriesDataset();
  const tracer::data::TimeSeriesDataset& train_set =
      warm ? warm_set : cohort.splits.train;
  tracer::core::Titv model(
      ModelConfig(spec, cohort.splits.train.num_features(), seed));
  const int epochs = warm ? 1 : spec.epochs;
  TimedModel timed(&model,
                   PlanFor(spec, epochs, train_set.num_samples(),
                           kDistShards / kDistWorkers),
                   traced);
  tracer::train::TrainConfig config = FitConfig(spec, seed, epochs);
  const tracer::dist::DistConfig dist =
      DistConfigFor(socket_path, run_state_path);
  FitOutcome out;
  tracer::train::TrainResult fit;
  if (!traced) {
    timed.Begin();
    tracer::Result<tracer::train::TrainResult> run =
        tracer::dist::RunElasticWorker(&timed, train_set, cohort.splits.val,
                                       config, {}, dist);
    timed.End();
    if (!run.ok()) return out;
    fit = std::move(run).value();
  } else {
    tracer::obs::AutogradProfiler::Global().Reset();
    const double bytes_before = DistBytes();
    timed.Begin();
    tracer::dist::SocketReducer socket_reducer(dist);
    bool resumed = false;
    if (!socket_reducer.Start(&resumed).ok() || resumed) return out;
    TimedReducer reducer(&socket_reducer);
    config.grad_reducer = &reducer;
    tracer::train::CheckpointOptions checkpoint;
    checkpoint.path = dist.run_state_path;
    const tracer::train::Trainer trainer(config, checkpoint);
    fit = trainer.Fit(&timed, train_set, cohort.splits.val);
    timed.End();
    out.ops = SnapshotProfile();
    out.reducer = reducer.totals();
    out.dist_bytes = DistBytes() - bytes_before;
  }
  out.timeline = timed.timeline();
  Finish(fit, &model, cohort, &out);
  return out;
}

/// The parent's handle on the two-worker ensemble.
struct Ensemble {
  WorkerProcess workers[kDistWorkers];
  double cohort_s = 0.0;
  double prepare_s = 0.0;
  int rounds = 0;

  bool Start(uint64_t seed) {
    for (WorkerProcess& w : workers) {
      if (!w.Spawn(seed)) return false;
    }
    for (int i = 0; i < kDistWorkers; ++i) {
      std::string line;
      if (!workers[i].ReadLine(&line, kWorkerTimeoutMs)) return false;
      double cohort = 0.0, prepare = 0.0;
      if (std::sscanf(line.c_str(), "ready cohort_s=%lf prepare_s=%lf",
                      &cohort, &prepare) != 2) {
        return false;
      }
      if (i == 0) {
        cohort_s = cohort;
        prepare_s = prepare;
      }
    }
    return true;
  }

  void Stop() {
    for (WorkerProcess& w : workers) w.Stop();
  }

  /// One fit on every worker against a fresh coordinator. Returns false
  /// (with a reason) when the ensemble broke down.
  bool Round(const Options& options, const std::string& mode,
             FitOutcome outcomes[kDistWorkers], int64_t* evictions,
             std::string* error) {
    const std::string tag = options.workdir + "/d" +
                            std::to_string(getpid()) + "-" +
                            std::to_string(rounds++);
    const std::string socket_path = tag + ".sock";
    const uint64_t start_ns = MonotonicNowNs();
    tracer::dist::Coordinator coordinator(DistConfigFor(socket_path, ""));
    if (!coordinator.Start().ok()) {
      *error = "coordinator did not start on " + socket_path;
      return false;
    }
    bool ok = true;
    for (int i = 0; i < kDistWorkers && ok; ++i) {
      ok = workers[i].Send("fit " + socket_path + " " + tag + "-w" +
                           std::to_string(i) + ".state " + mode + " " +
                           TracePath(options, "-w" + std::to_string(i)));
    }
    for (int i = 0; i < kDistWorkers && ok; ++i) {
      std::string line;
      ok = workers[i].ReadLine(&line, kWorkerTimeoutMs) &&
           Decode(line, &outcomes[i]);
    }
    if (ok && !coordinator.WaitForCompletion(kWorkerTimeoutMs)) ok = false;
    *evictions += coordinator.evictions();
    coordinator.Stop();
    Span("bench.fit_round", "", 0, start_ns, MonotonicNowNs());
    std::error_code ignored;
    std::filesystem::remove(socket_path, ignored);
    for (int i = 0; i < kDistWorkers; ++i) {
      std::filesystem::remove(tag + "-w" + std::to_string(i) + ".state",
                              ignored);
    }
    if (!ok) *error = "a worker did not answer fit round " + tag;
    return ok;
  }
};

bool DistPhase(Ensemble* ensemble, const Options& options, bool traced,
               Phase* phase, RunResult* result) {
  const TrainSpec& spec = kDistSpec;
  const uint64_t deadline =
      MonotonicNowNs() + static_cast<uint64_t>(options.seconds * 1e9);
  do {
    FitOutcome outcomes[kDistWorkers];
    std::string error;
    ++result->attempted;
    const double coordinator_cpu_ms = ProcessCpuMs();
    if (!ensemble->Round(options, traced ? "traced" : "plain", outcomes,
                         &phase->evictions, &error)) {
      result->Fail(error);
      return false;
    }
    phase->cpu_ms += ProcessCpuMs() - coordinator_cpu_ms;
    double slowest_ms = 0.0;
    std::string problems;
    for (const FitOutcome& o : outcomes) {
      problems += phase->Check(o, spec);
      phase->Add(o);
      slowest_ms = std::max(slowest_ms, o.timeline.fit_ms);
    }
    if (outcomes[0].checksum != outcomes[1].checksum) {
      problems += " workers ended with different parameters;";
    }
    if (!problems.empty()) result->Fail("train_dist fit:" + problems);
    ++phase->fits;
    phase->samples += static_cast<double>(spec.epochs) * spec.cohort.train;
    phase->seconds += slowest_ms / 1e3;
  } while (MonotonicNowNs() < deadline);
  return true;
}

}  // namespace

RunResult RunTrainDist(const Options& options) {
  RunResult result;
  std::error_code ignored;
  std::filesystem::create_directories(options.workdir, ignored);
  std::vector<double> setup_s, cohort_s, prepare_s;
  auto ensemble = std::make_unique<Ensemble>();
  for (int r = 0; r < kSetupRepeats; ++r) {
    if (r > 0) {
      ensemble->Stop();
      ensemble = std::make_unique<Ensemble>();
    }
    const double cpu0_ms = ProcessCpuMs();
    FitOutcome warm[kDistWorkers];
    int64_t evictions = 0;
    std::string error = "dist workers did not start";
    if (!ensemble->Start(options.seed) ||
        !ensemble->Round(options, "warm", warm, &evictions, &error)) {
      result.Fail(error);
      return result;
    }
    // The workers' CPU so far is all set-up: start, cohort, warm-up fit.
    double cpu_ms = ProcessCpuMs() - cpu0_ms;
    for (const FitOutcome& w : warm) cpu_ms += w.process_cpu_ms;
    setup_s.push_back(cpu_ms / 1e3);
    cohort_s.push_back(ensemble->cohort_s);
    prepare_s.push_back(ensemble->prepare_s);
  }
  Phase plain;
  if (!DistPhase(ensemble.get(), options, false, &plain, &result)) {
    return result;
  }
  Phase traced;
  if (options.trace) {
    StartTracing();
    if (!DistPhase(ensemble.get(), options, true, &traced, &result)) {
      return result;
    }
  }
  ensemble->Stop();
  SetEndToEnd(plain, Median(setup_s),
              std::max(PeakRssMb(false), PeakRssMb(true)), plain.reference_auc,
              &result);
  if (options.trace) {
    SetLayers(traced, plain, cohort_s, prepare_s, &result);
    if (!WriteTrace(TracePath(options, "-coordinator"))) {
      result.notes.push_back("could not write the trace file");
    }
  }
  result.notes.push_back(
      "train_dist: " + std::to_string(plain.fits) + " fits of " +
      std::to_string(kDistSpec.epochs) + " epochs x " +
      std::to_string(kDistSpec.cohort.train) + " samples on " +
      std::to_string(kDistWorkers) + " worker processes; test AUC " +
      std::to_string(plain.reference_auc) + "; step ms p10/p25/p50/p75 " +
      std::to_string(Percentile(plain.step_ms, 0.1)) + "/" +
      std::to_string(Percentile(plain.step_ms, 0.25)) + "/" +
      std::to_string(Percentile(plain.step_ms, 0.5)) + "/" +
      std::to_string(Percentile(plain.step_ms, 0.75)));
  return result;
}

int DistWorkerMain(int argc, char** argv) {
  if (argc < 1) return 64;
  const uint64_t seed = std::strtoull(argv[0], nullptr, 10);
  tracer::parallel::SetMaxThreads(kDistThreadsPerWorker);
  const Cohort cohort = MakeCohort(kDistSpec.cohort, seed);
  std::printf("ready cohort_s=%.9g prepare_s=%.9g\n", cohort.cohort_s,
              cohort.prepare_s);
  std::fflush(stdout);
  bool tracing = false;
  std::string trace_path;
  char line[4096];
  while (std::fgets(line, sizeof(line), stdin) != nullptr) {
    char command[16] = {0};
    char socket_path[1024] = {0};
    char run_state[1024] = {0};
    char mode[16] = {0};
    char trace[1024] = {0};
    const int fields = std::sscanf(line, "%15s %1023s %1023s %15s %1023s",
                                   command, socket_path, run_state, mode,
                                   trace);
    if (fields < 1 || std::strcmp(command, "fit") != 0) break;
    if (fields != 5) return 65;
    if (std::strcmp(mode, "traced") == 0 && !tracing) {
      StartTracing();
      tracing = true;
      trace_path = trace;
    }
    const FitOutcome outcome =
        WorkerFit(cohort, seed, socket_path, run_state, mode);
    std::printf("%s\n", Encode(outcome).c_str());
    std::fflush(stdout);
  }
  if (tracing) WriteTrace(trace_path);
  return 0;
}

}  // namespace perfbench
