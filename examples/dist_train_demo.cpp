// Elastic data-parallel training demo: N worker processes train one model
// in lockstep over a Unix-domain socket, survive a SIGKILL mid-epoch, and
// still reach the exact parameters of the undisturbed run.
//
//   ./build/examples/dist_train_demo                 # 4 calm workers
//   ./build/examples/dist_train_demo --workers 3
//   ./build/examples/dist_train_demo --chaos kill-rejoin
//   ./build/examples/dist_train_demo --chaos kill-evict
//
// With --chaos the demo first runs the uninterrupted reference ensemble,
// then the chaos ensemble (one worker SIGKILLs itself mid-epoch; with
// kill-rejoin a replacement process is spawned and admitted at the next
// epoch fence, with kill-evict the survivors rebalance and finish alone),
// and exits nonzero unless the surviving workers' final parameters are
// bitwise identical to the reference. This is the same acceptance bar the
// dist_resume_test suite enforces in CI.
//
// The launcher re-executes itself (/proc/self/exe) for each worker, so a
// kill takes the worker's heartbeat thread, socket and training loop down
// together — a real process crash, not a simulated one.

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "baselines/logistic_regression.h"
#include "datagen/emr_generator.h"
#include "dist/coordinator.h"
#include "dist/worker.h"
#include "nn/serialization.h"
#include "train/trainer.h"

using namespace tracer;

namespace {

// Shard count is fixed per run (not per membership), which is what makes
// the reduced gradient — and therefore the whole run — invariant to who
// crashed: see DESIGN.md "Distributed training".
constexpr int kNumShards = 4;

struct Fixture {
  data::DatasetSplits splits;
  int input_dim;
};

/// Pure function of constants: the launcher and every worker process
/// rebuild identical datasets and model initialization, so only gradients
/// ever cross the wire.
Fixture MakeFixture() {
  datagen::EmrCohortConfig gen = datagen::NuhAkiDefaultConfig();
  gen.num_samples = 240;
  gen.num_filler_features = 2;
  gen.deteriorating_rate = 0.3;
  gen.seed = 71;
  datagen::EmrCohort cohort = datagen::GenerateNuhAkiCohort(gen);
  Rng rng(3);
  Fixture f;
  f.splits = data::SplitDataset(cohort.dataset, rng);
  data::MinMaxNormalizer norm;
  norm.Fit(f.splits.train);
  norm.Apply(&f.splits.train);
  norm.Apply(&f.splits.val);
  f.input_dim = cohort.dataset.num_features();
  return f;
}

train::TrainConfig MakeTrainConfig() {
  train::TrainConfig tc;
  tc.max_epochs = 6;
  tc.patience = 10;
  tc.batch_size = 32;
  tc.seed = 11;
  return tc;
}

dist::DistConfig MakeDistConfig(const std::string& socket_path,
                                const std::string& run_state_path,
                                int world_size) {
  dist::DistConfig dc;
  dc.socket_path = socket_path;
  dc.run_state_path = run_state_path;
  dc.world_size = world_size;
  dc.num_shards = kNumShards;
  dc.heartbeat_interval_ms = 50;
  dc.heartbeat_timeout_ms = 500;
  dc.step_timeout_ms = 30000;
  return dc;
}

/// SIGKILLs the process after `kill_after` completed steps — the demo's
/// deterministic stand-in for a machine falling over mid-epoch.
class KillSwitchReducer : public train::GradReducer {
 public:
  KillSwitchReducer(dist::SocketReducer* inner, int kill_after)
      : inner_(inner), remaining_(kill_after) {}

  Result<float> ReduceStep(
      uint64_t step_id, const std::vector<int>& batch_indices,
      const std::vector<autograd::Variable>& params,
      const std::function<float(const std::vector<int>&)>& eval) override {
    Result<float> r =
        inner_->ReduceStep(step_id, batch_indices, params, eval);
    if (--remaining_ == 0) ::kill(::getpid(), SIGKILL);
    return r;
  }

  Status EpochFence(int next_epoch, bool stopping) override {
    return inner_->EpochFence(next_epoch, stopping);
  }

 private:
  dist::SocketReducer* inner_;
  int remaining_;
};

/// Worker-process entry (argv: --role worker <socket> <run_state>
/// <params_out> <world_size> <kill_after>).
int WorkerMain(int argc, char** argv) {
  if (argc < 8) return 64;
  const int world_size = std::atoi(argv[6]);
  const int kill_after = std::atoi(argv[7]);
  const dist::DistConfig dc = MakeDistConfig(argv[3], argv[4], world_size);
  const std::string params_out = argv[5];
  const Fixture f = MakeFixture();
  baselines::LogisticRegression model(
      f.input_dim, baselines::LrInputMode::kAggregate, 0, /*seed=*/9);
  train::TrainConfig tc = MakeTrainConfig();

  train::TrainResult result;
  if (kill_after > 0) {
    dist::SocketReducer reducer(dc);
    bool resumed = false;
    if (!reducer.Start(&resumed).ok()) return 5;
    KillSwitchReducer killer(&reducer, kill_after);
    tc.grad_reducer = &killer;
    train::CheckpointOptions ckpt;
    ckpt.path = dc.run_state_path;
    train::Trainer trainer(tc, ckpt);
    if (resumed) {
      Result<train::TrainResult> r =
          trainer.Resume(&model, f.splits.train, f.splits.val);
      if (!r.ok()) return 5;
      result = r.value();
    } else {
      result = trainer.Fit(&model, f.splits.train, f.splits.val);
    }
  } else {
    Result<train::TrainResult> r = dist::RunElasticWorker(
        &model, f.splits.train, f.splits.val, tc,
        train::CheckpointOptions{}, dc);
    if (!r.ok()) {
      std::fprintf(stderr, "worker failed: %s\n",
                   r.status().ToString().c_str());
      return 5;
    }
    result = r.value();
  }
  if (result.interrupted || !result.status.ok()) return 5;

  const std::vector<Tensor> state = model.StateDict();
  std::vector<std::pair<std::string, Tensor>> named;
  for (size_t i = 0; i < state.size(); ++i) {
    std::string name = "t";
    name += std::to_string(i);
    named.emplace_back(std::move(name), state[i]);
  }
  return nn::SaveCheckpoint(params_out, named).ok() ? 0 : 5;
}

std::string TempPath(const std::string& name) {
  const char* tmp = std::getenv("TMPDIR");
  return std::string(tmp != nullptr ? tmp : "/tmp") + "/" + name;
}

pid_t SpawnWorker(const std::string& socket_path,
                  const std::string& run_state_path,
                  const std::string& params_out, int world_size,
                  int kill_after) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  const std::string world_str = std::to_string(world_size);
  const std::string kill_str = std::to_string(kill_after);
  std::string exe = "/proc/self/exe";
  std::string role_flag = "--role";
  std::string role = "worker";
  std::vector<char*> args;
  args.push_back(exe.data());
  args.push_back(role_flag.data());
  args.push_back(role.data());
  args.push_back(const_cast<char*>(socket_path.c_str()));
  args.push_back(const_cast<char*>(run_state_path.c_str()));
  args.push_back(const_cast<char*>(params_out.c_str()));
  args.push_back(const_cast<char*>(world_str.c_str()));
  args.push_back(const_cast<char*>(kill_str.c_str()));
  args.push_back(nullptr);
  ::execv("/proc/self/exe", args.data());
  _exit(127);
}

/// Exit code, or 1000 + signal for a killed child.
int WaitWorker(pid_t pid) {
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) return -1;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 1000 + WTERMSIG(status);
  return -2;
}

struct EnsemblePaths {
  std::string socket;
  std::vector<std::string> run_states;
  std::vector<std::string> params;
};

EnsemblePaths MakePaths(const std::string& tag, int world_size) {
  EnsemblePaths p;
  p.socket = TempPath("dist_demo_" + tag + ".sock");
  for (int w = 0; w < world_size; ++w) {
    p.run_states.push_back(TempPath("dist_demo_" + tag + "_w" +
                                    std::to_string(w) + ".runstate"));
    p.params.push_back(TempPath("dist_demo_" + tag + "_w" +
                                std::to_string(w) + ".params"));
    std::remove(p.run_states.back().c_str());
    std::remove(p.params.back().c_str());
  }
  return p;
}

void CleanupPaths(const EnsemblePaths& p) {
  for (const std::string& path : p.run_states) std::remove(path.c_str());
  for (const std::string& path : p.params) std::remove(path.c_str());
}

bool ParamsBitIdentical(const std::string& a_path,
                        const std::string& b_path) {
  auto a = nn::LoadCheckpoint(a_path);
  auto b = nn::LoadCheckpoint(b_path);
  if (!a.ok() || !b.ok()) return false;
  if (a.value().size() != b.value().size()) return false;
  for (size_t t = 0; t < a.value().size(); ++t) {
    const Tensor& ta = a.value()[t].second;
    const Tensor& tb = b.value()[t].second;
    if (!ta.SameShape(tb)) return false;
    if (std::memcmp(ta.data(), tb.data(),
                    static_cast<size_t>(ta.size()) * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

/// Runs one ensemble to completion. `kill_worker` < 0 means calm;
/// otherwise that worker SIGKILLs itself after `kill_after` steps and is
/// respawned iff `rejoin`.
bool RunEnsemble(const EnsemblePaths& paths, int world_size, int kill_worker,
                 int kill_after, bool rejoin, dist::Coordinator* coord) {
  std::vector<pid_t> pids;
  for (int w = 0; w < world_size; ++w) {
    const int ka = (w == kill_worker) ? kill_after : 0;
    pids.push_back(SpawnWorker(paths.socket, paths.run_states[w],
                               paths.params[w], world_size, ka));
  }
  bool ok = true;
  if (kill_worker >= 0) {
    const int victim = WaitWorker(pids[kill_worker]);
    if (victim != 1000 + SIGKILL) {
      std::fprintf(stderr, "victim exited %d, expected SIGKILL\n", victim);
      ok = false;
    }
    std::printf("  worker %d died by SIGKILL after %d steps%s\n",
                kill_worker, kill_after,
                rejoin ? ", respawning" : ", not respawning");
    if (rejoin) {
      pids[kill_worker] =
          SpawnWorker(paths.socket, paths.run_states[kill_worker],
                      paths.params[kill_worker], world_size, 0);
    }
  }
  for (int w = 0; w < world_size; ++w) {
    if (w == kill_worker && !rejoin) continue;
    const int code = WaitWorker(pids[w]);
    if (code != 0) {
      std::fprintf(stderr, "worker %d exited %d\n", w, code);
      ok = false;
    }
  }
  if (!coord->WaitForCompletion(120000) || !coord->run_status().ok()) {
    std::fprintf(stderr, "coordinator failed: %s\n",
                 coord->run_status().ToString().c_str());
    ok = false;
  }
  return ok;
}

int LauncherMain(int world_size, const std::string& chaos) {
  std::printf("Elastic data-parallel demo: %d workers, %d gradient shards"
              ", chaos=%s\n",
              world_size, kNumShards, chaos.c_str());

  // --- Phase 1: the uninterrupted reference ensemble.
  std::printf("Phase 1: reference run (%d calm workers)\n", world_size);
  EnsemblePaths ref = MakePaths("ref", world_size);
  dist::Coordinator ref_coord(MakeDistConfig(ref.socket, "", world_size));
  if (!ref_coord.Start().ok()) return 1;
  const bool ref_ok =
      RunEnsemble(ref, world_size, /*kill_worker=*/-1, 0, false, &ref_coord);
  ref_coord.Stop();
  if (!ref_ok) {
    std::fprintf(stderr, "reference run failed\n");
    return 1;
  }
  std::printf("  done: %" PRId64 " steps all-reduced, %" PRId64
              " joins, %" PRId64 " evictions\n",
              ref_coord.steps_reduced(), ref_coord.joins(),
              ref_coord.evictions());
  if (chaos == "none") {
    // Lockstep replication check: every worker saved identical params.
    for (int w = 1; w < world_size; ++w) {
      if (!ParamsBitIdentical(ref.params[w], ref.params[0])) {
        std::fprintf(stderr, "FAIL: worker %d diverged from worker 0\n", w);
        return 1;
      }
    }
    std::printf("PASS: all %d workers ended bitwise identical\n",
                world_size);
    CleanupPaths(ref);
    return 0;
  }

  // --- Phase 2: the same run with a mid-epoch SIGKILL.
  const bool rejoin = chaos == "kill-rejoin";
  std::printf("Phase 2: chaos run (%s)\n", chaos.c_str());
  EnsemblePaths chs = MakePaths("chaos", world_size);
  dist::Coordinator coord(MakeDistConfig(chs.socket, "", world_size));
  if (!coord.Start().ok()) return 1;
  const int kill_worker = world_size - 1;
  const bool chaos_ok =
      RunEnsemble(chs, world_size, kill_worker, /*kill_after=*/6, rejoin,
                  &coord);
  coord.Stop();
  if (!chaos_ok) {
    std::fprintf(stderr, "chaos run failed\n");
    return 1;
  }
  std::printf("  done: %" PRId64 " steps all-reduced, %" PRId64
              " joins, %" PRId64 " evictions\n",
              coord.steps_reduced(), coord.joins(), coord.evictions());

  // --- The acceptance bar: surviving workers end bitwise identical to the
  // undisturbed reference.
  bool pass = true;
  for (int w = 0; w < world_size; ++w) {
    if (w == kill_worker && !rejoin) continue;
    if (!ParamsBitIdentical(chs.params[w], ref.params[0])) {
      std::fprintf(stderr,
                   "FAIL: worker %d parameters differ from reference\n", w);
      pass = false;
    }
  }
  if (pass) {
    std::printf("PASS: chaos run reached the reference parameters "
                "bitwise (%s)\n",
                rejoin ? "victim rejoined at the next epoch fence"
                       : "survivors rebalanced the victim's shards");
  }
  CleanupPaths(ref);
  CleanupPaths(chs);
  return pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 2 && std::string(argv[1]) == "--role" &&
      std::string(argv[2]) == "worker") {
    return WorkerMain(argc, argv);
  }
  int world_size = 4;
  std::string chaos = "none";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--workers" && i + 1 < argc) {
      world_size = std::atoi(argv[++i]);
    } else if (arg == "--chaos" && i + 1 < argc) {
      chaos = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--workers N] "
                   "[--chaos none|kill-rejoin|kill-evict]\n",
                   argv[0]);
      return 64;
    }
  }
  if (world_size < 2 && chaos != "none") {
    std::fprintf(stderr, "--chaos needs at least 2 workers\n");
    return 64;
  }
  if (chaos != "none" && chaos != "kill-rejoin" && chaos != "kill-evict") {
    std::fprintf(stderr, "unknown --chaos mode: %s\n", chaos.c_str());
    return 64;
  }
  return LauncherMain(world_size, chaos);
}
