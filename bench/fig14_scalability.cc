// Reproduces Figure 14: TRACER convergence time versus number of
// data-parallel workers on both cohorts.
//
// The paper trains on 1–8 GPUs; here every worker is a real process
// training through train::Fit over the src/dist elastic runtime (UDS
// transport, coordinator all-reduce), so each row is a wall-clock
// measurement. Each cohort reports its measured W=4 / W=1 speedup; the
// paper's shape is sub-linear scaling on the small NUH-AKI cohort and
// better scaling on the larger MIMIC-III cohort.

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/titv.h"
#include "dist/coordinator.h"
#include "dist/worker.h"
#include "obs/autograd_profiler.h"
#include "train/trainer.h"

namespace tracer {
namespace {

// ---------------------------------------------------------------------------
// Multi-process series. The shard count is pinned to 4 for every world
// size, so all three runs of a cohort reach bitwise-identical parameters —
// the worker count changes wall-clock only.

constexpr int kDistShards = 4;

/// A Figure 14 panel. `key` names the cohort on the worker command line and
/// in the artifact's section names.
struct Cohort {
  const char* key;
  const char* title;
};

constexpr Cohort kCohorts[] = {
    {"aki", "NUH-AKI, small cohort"},
    {"mimic", "MIMIC-III, larger cohort"},
};

/// Every process rebuilds the cohort from the same environment knobs, so
/// the parent and each worker see identical splits.
bench::PreparedData PrepareCohort(const std::string& key,
                                  const bench::BenchOptions& options) {
  if (key == "mimic") return bench::PrepareMimicCohort(options);
  bench::BenchOptions small = options;
  small.samples = options.samples / 2;
  return bench::PrepareAkiCohort(small);
}

core::TitvConfig MakeTitvConfig(const bench::PreparedData& data,
                                const bench::BenchOptions& options) {
  core::TitvConfig config;
  config.input_dim = data.input_dim;
  config.rnn_dim = options.rnn_dim;
  config.film_dim = options.film_dim;
  config.seed = 17;
  return config;
}

/// Fixed-epoch timing runs: patience never stops training early.
train::TrainConfig TimingConfig(int epochs) {
  train::TrainConfig tc;
  tc.max_epochs = epochs;
  tc.patience = epochs + 1;
  tc.learning_rate = 3e-3f;
  tc.seed = 29;
  return tc;
}

std::string DistTempPath(const std::string& name) {
  const char* tmp = std::getenv("TMPDIR");
  return std::string(tmp != nullptr ? tmp : "/tmp") + "/" + name;
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

/// Worker-process entry (argv: --dist-worker <cohort> <socket> <run_state>
/// <world_size> <epochs>).
int DistWorkerMain(int argc, char** argv) {
  if (argc < 7) return 64;
  const int world_size = std::atoi(argv[5]);
  const int epochs = std::atoi(argv[6]);
  const bench::BenchOptions options;
  const bench::PreparedData data = PrepareCohort(argv[2], options);
  core::Titv model(MakeTitvConfig(data, options));
  const dist::DistConfig dc = MakeDistConfig(argv[3], argv[4], world_size);
  Result<train::TrainResult> result = dist::RunElasticWorker(
      &model, data.splits.train, data.splits.val, TimingConfig(epochs),
      train::CheckpointOptions{}, dc);
  if (!result.ok() || result.value().interrupted ||
      !result.value().status.ok()) {
    std::fprintf(stderr, "dist worker failed\n");
    return 5;
  }
  return 0;
}

pid_t SpawnDistWorker(const char* cohort, const std::string& socket_path,
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
  args.push_back(const_cast<char*>(cohort));
  args.push_back(const_cast<char*>(socket_path.c_str()));
  args.push_back(const_cast<char*>(run_state_path.c_str()));
  args.push_back(const_cast<char*>(world_str.c_str()));
  args.push_back(const_cast<char*>(epochs_str.c_str()));
  args.push_back(nullptr);
  ::execv("/proc/self/exe", args.data());
  _exit(127);
}

void RunMultiProcess(const Cohort& cohort, const bench::BenchOptions& options,
                     int epochs, bench::BenchArtifact* artifact) {
  bench::PrintHeader(std::string("Figure 14 — ") + cohort.title);
  const bench::PreparedData data = PrepareCohort(cohort.key, options);
  std::printf("%-8s %-16s (processes over UDS; fixed %d-shard "
              "all-reduce)\n",
              "Workers", "Measured (s)", kDistShards);
  bench::PrintRule();
  double seconds_w1 = 0.0, seconds_w4 = 0.0;
  for (int workers : {1, 2, 4}) {
    const std::string tag = std::string("fig14_dist_") + cohort.key + "_" +
                            std::to_string(::getpid()) + "_w" +
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
      pids.push_back(SpawnDistWorker(cohort.key, socket_path,
                                     run_states.back(), workers, epochs));
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
    if (workers == 1) seconds_w1 = seconds;
    if (workers == 4) seconds_w4 = seconds;
    std::printf("%-8d %-16.2f\n", workers, seconds);
    const int64_t examples =
        static_cast<int64_t>(data.splits.train.num_samples()) * epochs;
    artifact->AddSection(std::string("multiprocess/") + cohort.key +
                             "/workers:" + std::to_string(workers),
                         seconds,
                         seconds > 0.0
                             ? static_cast<double>(examples) / seconds
                             : 0.0,
                         epochs);
  }
  bench::PrintRule();
  if (seconds_w1 > 0.0 && seconds_w4 > 0.0) {
    std::printf("Measured speedup at 4 workers (%s): %.2fx\n", cohort.key,
                seconds_w1 / seconds_w4);
  }
}

// ---------------------------------------------------------------------------
// 128-dim single-worker profile: where does an epoch actually go? Trains
// TITV on the NUH-AKI cohort with the autograd profiler on, once on the
// tape arena and once with TRACER_TRAIN_ARENA=0, and reports wall-clock
// plus the profiler's GEMM time share for each.

void RunProfiled128(const bench::BenchOptions& options,
                    bench::BenchArtifact* artifact) {
  bench::PrintHeader("Figure 14 — 128-dim profile: tape arena on vs off");
  bench::BenchOptions big = options;
  big.rnn_dim = 128;
  const bench::PreparedData data = PrepareCohort("aki", big);
  const int epochs = 2;
  train::TrainConfig tc = TimingConfig(epochs);
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
    core::Titv model(MakeTitvConfig(data, big));
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
  const tracer::bench::BenchOptions options;
  const int epochs = std::min(options.epochs, 6);  // timing, not accuracy
  tracer::bench::BenchArtifact artifact("fig14_scalability");
  artifact.AddConfig("samples", static_cast<int64_t>(options.samples));
  artifact.AddConfig("epochs", static_cast<int64_t>(epochs));
  artifact.AddConfig("rnn_dim", static_cast<int64_t>(options.rnn_dim));
  for (const tracer::Cohort& cohort : tracer::kCohorts) {
    tracer::RunMultiProcess(cohort, options, epochs, &artifact);
  }
  std::printf("Within a cohort every world size reduces in the same fixed "
              "shard order, so its final parameters are bitwise "
              "identical.\n");
  tracer::RunProfiled128(options, &artifact);
  artifact.WriteIfRequested();
  return 0;
}
