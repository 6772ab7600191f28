// Reproduces Figure 14: TRACER convergence time versus number of
// devices on both cohorts.
//
// The paper trains on 1–8 GPUs; here the data-parallel trainer shards each
// minibatch over worker threads with gradient aggregation ("controlling")
// on the main thread. On a single-core host thread workers cannot yield
// real speedup, so alongside the measured wall-clock numbers the harness
// reports the analytic model calibrated from the measured per-epoch compute
// and controlling costs — reproducing the paper's shape: sub-linear
// scaling on the small NUH-AKI cohort (controlling cost dominates) and
// better scaling on the larger MIMIC-III cohort.

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/titv.h"
#include "dist/coordinator.h"
#include "dist/worker.h"
#include "obs/autograd_profiler.h"
#include "parallel/data_parallel.h"
#include "train/trainer.h"

namespace tracer {
namespace {

void RunDataset(const char* title, const bench::PreparedData& data,
                const bench::BenchOptions& options, int epochs,
                bench::BenchArtifact* artifact) {
  bench::PrintHeader(std::string("Figure 14 — ") + title);
  auto factory = [&]() -> std::unique_ptr<nn::SequenceModel> {
    core::TitvConfig config;
    config.input_dim = data.input_dim;
    config.rnn_dim = options.rnn_dim;
    config.film_dim = options.film_dim;
    config.seed = 17;
    return std::make_unique<core::Titv>(config);
  };
  train::TrainConfig tc;
  tc.max_epochs = epochs;
  tc.patience = epochs + 1;  // fixed-epoch timing runs
  tc.learning_rate = 3e-3f;
  tc.seed = 29;

  std::printf("%-8s %-16s %-18s %-22s\n", "Workers", "Measured (s)",
              "Controlling (s)", "Modeled (s)");
  bench::PrintRule();
  // The modeled column projects the convergence time onto a machine with
  // one core per worker: compute shrinks 1/W while each worker count's own
  // *measured* controlling cost (broadcast + aggregation + checkpoint
  // selection, which grows with W and does not parallelise) is kept.
  double compute_total = 0.0;
  double modeled_1 = 0.0, modeled_8 = 0.0;
  for (int workers : {1, 2, 4, 8}) {
    core::TitvConfig config;
    config.input_dim = data.input_dim;
    config.rnn_dim = options.rnn_dim;
    config.film_dim = options.film_dim;
    config.seed = 17;
    core::Titv model(config);
    parallel::DataParallelTrainer trainer(&model, factory, workers);
    const parallel::ParallelTrainResult result =
        trainer.Fit(data.splits.train, data.splits.val, tc);
    if (workers == 1) {
      compute_total = result.seconds - result.controlling_seconds;
    }
    const double modeled =
        compute_total / workers + result.controlling_seconds;
    if (workers == 1) modeled_1 = modeled;
    if (workers == 8) modeled_8 = modeled;
    std::printf("%-8d %-16.2f %-18.2f %-22.2f\n", workers, result.seconds,
                result.controlling_seconds, modeled);
    const int64_t examples =
        static_cast<int64_t>(data.splits.train.num_samples()) * epochs;
    artifact->AddSection(
        std::string(title) + "/workers:" + std::to_string(workers),
        result.seconds,
        result.seconds > 0.0 ? static_cast<double>(examples) / result.seconds
                             : 0.0,
        epochs);
  }
  bench::PrintRule();
  std::printf("Modeled speedup at 8 devices: %.2fx (paper: sub-linear on "
              "NUH-AKI, closer to linear on the larger MIMIC-III)\n",
              modeled_1 / modeled_8);
}

// ---------------------------------------------------------------------------
// Multi-process series: real worker processes over the src/dist elastic
// runtime (UDS transport, coordinator all-reduce), not threads. The shard
// count is pinned to 4 for every world size, so all three series reach
// bitwise-identical parameters — the scaling knob changes wall-clock only.

constexpr int kDistShards = 4;

std::string DistTempPath(const std::string& name) {
  const char* tmp = std::getenv("TMPDIR");
  return std::string(tmp != nullptr ? tmp : "/tmp") + "/" + name;
}

train::TrainConfig DistTrainConfig(int epochs) {
  train::TrainConfig tc;
  tc.max_epochs = epochs;
  tc.patience = epochs + 1;
  tc.learning_rate = 3e-3f;
  tc.seed = 29;
  return tc;
}

dist::DistConfig MakeDistConfig(const std::string& socket_path,
                                const std::string& run_state_path,
                                int world_size) {
  dist::DistConfig dc;
  dc.socket_path = socket_path;
  dc.run_state_path = run_state_path;
  dc.world_size = world_size;
  dc.num_shards = kDistShards;
  dc.step_timeout_ms = 120000;
  return dc;
}

/// Worker-process entry (argv: --dist-worker <socket> <run_state>
/// <world_size> <epochs>). The cohort and model are rebuilt from the same
/// environment knobs the parent read, so every process trains the same
/// replica.
int DistWorkerMain(int argc, char** argv) {
  if (argc < 6) return 64;
  const int world_size = std::atoi(argv[4]);
  const int epochs = std::atoi(argv[5]);
  bench::BenchOptions small;
  small.samples = small.samples / 2;
  const bench::PreparedData data = bench::PrepareAkiCohort(small);
  core::TitvConfig config;
  config.input_dim = data.input_dim;
  config.rnn_dim = small.rnn_dim;
  config.film_dim = small.film_dim;
  config.seed = 17;
  core::Titv model(config);
  const dist::DistConfig dc = MakeDistConfig(argv[2], argv[3], world_size);
  Result<train::TrainResult> result = dist::RunElasticWorker(
      &model, data.splits.train, data.splits.val, DistTrainConfig(epochs),
      train::CheckpointOptions{}, dc);
  if (!result.ok() || result.value().interrupted ||
      !result.value().status.ok()) {
    std::fprintf(stderr, "dist worker failed\n");
    return 5;
  }
  return 0;
}

pid_t SpawnDistWorker(const std::string& socket_path,
                      const std::string& run_state_path, int world_size,
                      int epochs) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  const std::string world_str = std::to_string(world_size);
  const std::string epochs_str = std::to_string(epochs);
  std::string exe = "/proc/self/exe";
  std::string flag = "--dist-worker";
  std::vector<char*> args;
  args.push_back(exe.data());
  args.push_back(flag.data());
  args.push_back(const_cast<char*>(socket_path.c_str()));
  args.push_back(const_cast<char*>(run_state_path.c_str()));
  args.push_back(const_cast<char*>(world_str.c_str()));
  args.push_back(const_cast<char*>(epochs_str.c_str()));
  args.push_back(nullptr);
  ::execv("/proc/self/exe", args.data());
  _exit(127);
}

void RunMultiProcess(const bench::BenchOptions& options, int epochs,
                     bench::BenchArtifact* artifact) {
  bench::PrintHeader(
      "Figure 14 — multi-process elastic runtime (NUH-AKI, small cohort)");
  bench::BenchOptions small = options;
  small.samples = options.samples / 2;
  const bench::PreparedData data = bench::PrepareAkiCohort(small);
  std::printf("%-8s %-16s (processes over UDS; fixed %d-shard "
              "all-reduce)\n",
              "Workers", "Measured (s)", kDistShards);
  bench::PrintRule();
  for (int workers : {1, 2, 4}) {
    const std::string tag =
        "fig14_dist_" + std::to_string(::getpid()) + "_w" +
        std::to_string(workers);
    const std::string socket_path = DistTempPath(tag + ".sock");
    std::vector<std::string> run_states;
    dist::Coordinator coordinator(
        MakeDistConfig(socket_path, "", workers));
    if (!coordinator.Start().ok()) {
      std::fprintf(stderr, "coordinator start failed\n");
      return;
    }
    const auto started = std::chrono::steady_clock::now();
    std::vector<pid_t> pids;
    for (int w = 0; w < workers; ++w) {
      run_states.push_back(
          DistTempPath(tag + "_" + std::to_string(w) + ".runstate"));
      std::remove(run_states.back().c_str());
      pids.push_back(SpawnDistWorker(socket_path, run_states.back(),
                                     workers, epochs));
    }
    bool ok = true;
    for (const pid_t pid : pids) {
      int status = 0;
      if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
          WEXITSTATUS(status) != 0) {
        ok = false;
      }
    }
    if (!coordinator.WaitForCompletion(300000) ||
        !coordinator.run_status().ok()) {
      ok = false;
    }
    coordinator.Stop();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started)
            .count();
    for (const std::string& path : run_states) std::remove(path.c_str());
    if (!ok) {
      std::fprintf(stderr, "multi-process run with %d workers failed\n",
                   workers);
      continue;
    }
    std::printf("%-8d %-16.2f\n", workers, seconds);
    const int64_t examples =
        static_cast<int64_t>(data.splits.train.num_samples()) * epochs;
    artifact->AddSection("multiprocess/workers:" + std::to_string(workers),
                         seconds,
                         seconds > 0.0
                             ? static_cast<double>(examples) / seconds
                             : 0.0,
                         epochs);
  }
  bench::PrintRule();
  std::printf("All world sizes reduce in the same fixed shard order, so "
              "their final parameters are bitwise identical.\n");
}

// ---------------------------------------------------------------------------
// 128-dim single-worker profile: where does an epoch actually go? Trains
// TITV on the same cohort with the autograd profiler on, once on the tape
// arena and once with TRACER_TRAIN_ARENA=0, and reports wall-clock plus
// the profiler's GEMM time share for each.

void RunProfiled128(const bench::BenchOptions& options,
                    bench::BenchArtifact* artifact) {
  bench::PrintHeader("Figure 14 — 128-dim profile: tape arena on vs off");
  bench::BenchOptions big = options;
  big.rnn_dim = 128;
  big.samples = options.samples / 2;
  const bench::PreparedData data = bench::PrepareAkiCohort(big);
  const int epochs = 2;
  train::TrainConfig tc;
  tc.max_epochs = epochs;
  tc.patience = epochs + 1;
  tc.learning_rate = 3e-3f;
  tc.seed = 29;
  tc.batch_size = bench::EnvInt("TRACER_PROFILE_BATCH", tc.batch_size);

  struct Row {
    const char* label;
    const char* section;
    bool arena;
  };
  const Row rows[] = {
      {"arena", "profile128/arena", true},
      {"no-arena", "profile128/no_arena", false},
  };
  std::printf("%-16s %-14s %-12s\n", "Trainer", "Measured (s)",
              "GEMM share");
  bench::PrintRule();
  obs::AutogradProfiler& profiler = obs::AutogradProfiler::Global();
  for (const Row& row : rows) {
    setenv("TRACER_TRAIN_ARENA", row.arena ? "1" : "0", 1);
    core::TitvConfig config;
    config.input_dim = data.input_dim;
    config.rnn_dim = big.rnn_dim;
    config.film_dim = big.film_dim;
    config.seed = 17;
    core::Titv model(config);
    profiler.Reset();
    profiler.SetEnabled(true);
    const auto started = std::chrono::steady_clock::now();
    train::Fit(&model, data.splits.train, data.splits.val, tc);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started)
            .count();
    profiler.SetEnabled(false);
    const double gemm_share = profiler.GemmShare();
    std::printf("%-16s %-14.2f %-12.2f\n", row.label, seconds, gemm_share);
    if (std::getenv("TRACER_PROFILE_TABLE") != nullptr) {
      std::printf("%s\n", profiler.ReportTable().c_str());
    }
    obs::JsonObject section;
    section.Add("name", row.section);
    section.Add("wall_time_s", seconds);
    section.Add("gemm_share", gemm_share);
    section.Add("iterations", static_cast<int64_t>(epochs));
    artifact->AddSectionRaw(section.Build());
  }
  unsetenv("TRACER_TRAIN_ARENA");
}

}  // namespace
}  // namespace tracer

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--dist-worker") == 0) {
    return tracer::DistWorkerMain(argc, argv);
  }
  tracer::bench::BenchOptions options;
  const int epochs = std::min(options.epochs, 6);  // timing, not accuracy
  tracer::bench::BenchArtifact artifact("fig14_scalability");
  artifact.AddConfig("samples", static_cast<int64_t>(options.samples));
  artifact.AddConfig("epochs", static_cast<int64_t>(epochs));
  artifact.AddConfig("rnn_dim", static_cast<int64_t>(options.rnn_dim));
  {
    tracer::bench::BenchOptions small = options;
    small.samples = options.samples / 2;
    const tracer::bench::PreparedData aki =
        tracer::bench::PrepareAkiCohort(small);
    tracer::RunDataset("NUH-AKI (small cohort)", aki, options, epochs,
                       &artifact);
  }
  {
    const tracer::bench::PreparedData mimic =
        tracer::bench::PrepareMimicCohort(options);
    tracer::RunDataset("MIMIC-III (larger cohort)", mimic, options, epochs,
                       &artifact);
  }
  tracer::RunMultiProcess(options, std::min(epochs, 3), &artifact);
  tracer::RunProfiled128(options, &artifact);
  artifact.WriteIfRequested();
  return 0;
}
