// Multi-process elastic-training acceptance tests: a 4-worker run that
// loses a worker to SIGKILL mid-epoch must reach final parameters bitwise
// identical to the uninterrupted 4-worker run — whether the worker rejoins
// (snapshot admission at the next fence) or stays gone (evict and
// rebalance).
//
// Workers are real processes (fork + exec of this binary with
// --dist-worker), so a SIGKILL takes the heartbeat thread, the socket and
// the training loop down together, exactly like a production crash. The
// coordinator runs in the parent on its own thread.

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "baselines/logistic_regression.h"
#include "datagen/emr_generator.h"
#include "dist/coordinator.h"
#include "dist/worker.h"
#include "nn/serialization.h"
#include "train/trainer.h"

namespace tracer {
namespace dist {
namespace {

constexpr int kWorldSize = 4;
constexpr int kNumShards = 4;

struct Fixture {
  data::DatasetSplits splits;
  int input_dim;
};

/// Pure function of constants: parent and every worker process rebuild the
/// exact same datasets and model initialization.
Fixture MakeFixture() {
  datagen::EmrCohortConfig gen = datagen::NuhAkiDefaultConfig();
  gen.num_samples = 200;
  gen.num_filler_features = 2;
  gen.deteriorating_rate = 0.3;
  gen.seed = 55;
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

baselines::LogisticRegression MakeModel(const Fixture& f) {
  return baselines::LogisticRegression(
      f.input_dim, baselines::LrInputMode::kAggregate, 0, /*seed=*/9);
}

train::TrainConfig MakeConfig() {
  train::TrainConfig tc;
  tc.max_epochs = 6;
  tc.patience = 10;
  tc.batch_size = 32;
  tc.seed = 11;
  return tc;
}

DistConfig MakeDistConfig(const std::string& socket_path,
                          const std::string& run_state_path) {
  DistConfig dc;
  dc.socket_path = socket_path;
  dc.run_state_path = run_state_path;
  dc.world_size = kWorldSize;
  dc.num_shards = kNumShards;
  dc.heartbeat_interval_ms = 50;
  dc.heartbeat_timeout_ms = 400;  // fast eviction keeps the test quick
  dc.step_timeout_ms = 20000;
  return dc;
}

/// Delegates to the real reducer and SIGKILLs the process after
/// `kill_after` completed steps — a deterministic mid-epoch crash (steps
/// per epoch is not a multiple of kill_after in these tests).
class KillSwitchReducer : public train::GradReducer {
 public:
  KillSwitchReducer(SocketReducer* inner, int kill_after)
      : inner_(inner), remaining_(kill_after) {}

  Result<float> ReduceStep(
      uint64_t step_id, const std::vector<int>& batch_indices,
      const std::vector<autograd::Variable>& params,
      const std::function<float(const std::vector<int>&)>& eval) override {
    Result<float> r = inner_->ReduceStep(step_id, batch_indices, params, eval);
    if (--remaining_ == 0) {
      ::kill(::getpid(), SIGKILL);  // no destructors, no goodbye frame
    }
    return r;
  }

  Status EpochFence(int next_epoch, bool stopping) override {
    return inner_->EpochFence(next_epoch, stopping);
  }

 private:
  SocketReducer* inner_;
  int remaining_;
};

}  // namespace

/// Entry point of a worker process (argv: --dist-worker <socket>
/// <run_state> <params_out> <kill_after_steps>). Exit 0 on a completed
/// run with final parameters saved to <params_out>; 5 on any error.
int DistWorkerMain(int argc, char** argv) {
  if (argc < 6) return 64;
  const DistConfig dc = MakeDistConfig(argv[2], argv[3]);
  const std::string params_out = argv[4];
  const int kill_after = std::atoi(argv[5]);
  const Fixture f = MakeFixture();
  baselines::LogisticRegression model = MakeModel(f);
  train::TrainConfig tc = MakeConfig();

  train::TrainResult result;
  if (kill_after > 0) {
    // Mirror RunElasticWorker, with the kill switch wrapped around the
    // reducer. This path never completes — the process dies mid-run.
    SocketReducer reducer(dc);
    bool resumed = false;
    const Status started = reducer.Start(&resumed);
    if (!started.ok()) {
      std::fprintf(stderr, "worker start failed: %s\n",
                   started.ToString().c_str());
      return 5;
    }
    KillSwitchReducer killer(&reducer, kill_after);
    tc.grad_reducer = &killer;
    train::CheckpointOptions ckpt;
    ckpt.path = dc.run_state_path;
    train::Trainer trainer(tc, ckpt);
    if (resumed) {
      Result<train::TrainResult> r = trainer.Resume(&model, f.splits.train,
                                                    f.splits.val);
      if (!r.ok()) return 5;
      result = r.value();
    } else {
      result = trainer.Fit(&model, f.splits.train, f.splits.val);
    }
  } else {
    Result<train::TrainResult> r =
        RunElasticWorker(&model, f.splits.train, f.splits.val, tc,
                         train::CheckpointOptions{}, dc);
    if (!r.ok()) {
      std::fprintf(stderr, "worker failed: %s\n",
                   r.status().ToString().c_str());
      return 5;
    }
    result = r.value();
  }
  if (result.interrupted || !result.status.ok()) {
    std::fprintf(stderr, "worker interrupted: %s\n",
                 result.status.ToString().c_str());
    return 5;
  }
  const std::vector<Tensor> state = model.StateDict();
  std::vector<std::pair<std::string, Tensor>> named;
  for (size_t i = 0; i < state.size(); ++i) {
    std::string name = "t";
    name += std::to_string(i);
    named.emplace_back(std::move(name), state[i]);
  }
  const Status saved = nn::SaveCheckpoint(params_out, named);
  return saved.ok() ? 0 : 5;
}

namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

pid_t SpawnWorker(const std::string& socket_path,
                  const std::string& run_state_path,
                  const std::string& params_out, int kill_after) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  // Child: exec ourselves in worker mode. execv only returns on failure.
  const std::string kill_str = std::to_string(kill_after);
  std::vector<char*> args;
  std::string exe = "/proc/self/exe";
  std::string flag = "--dist-worker";
  args.push_back(exe.data());
  args.push_back(flag.data());
  args.push_back(const_cast<char*>(socket_path.c_str()));
  args.push_back(const_cast<char*>(run_state_path.c_str()));
  args.push_back(const_cast<char*>(params_out.c_str()));
  args.push_back(const_cast<char*>(kill_str.c_str()));
  args.push_back(nullptr);
  ::execv("/proc/self/exe", args.data());
  _exit(127);
}

/// Waits for `pid`; returns the exit code, or 1000 + signal for a killed
/// child.
int WaitWorker(pid_t pid) {
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) return -1;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 1000 + WTERMSIG(status);
  return -2;
}

std::vector<std::pair<std::string, Tensor>> LoadParams(
    const std::string& path) {
  auto loaded = nn::LoadCheckpoint(path);
  EXPECT_TRUE(loaded.ok()) << path << ": " << loaded.status().ToString();
  if (!loaded.ok()) return {};
  return loaded.value();
}

void ExpectParamsBitIdentical(const std::string& got_path,
                              const std::string& want_path) {
  const auto got = LoadParams(got_path);
  const auto want = LoadParams(want_path);
  ASSERT_EQ(got.size(), want.size());
  for (size_t t = 0; t < want.size(); ++t) {
    ASSERT_EQ(got[t].first, want[t].first);
    ASSERT_TRUE(got[t].second.SameShape(want[t].second)) << "tensor " << t;
    for (int64_t i = 0; i < want[t].second.size(); ++i) {
      ASSERT_EQ(got[t].second.data()[i], want[t].second.data()[i])
          << got[t].first << " element " << i;
    }
  }
}

struct EnsemblePaths {
  std::string socket;
  std::vector<std::string> run_states;
  std::vector<std::string> params;
};

EnsemblePaths MakePaths(const std::string& tag) {
  EnsemblePaths p;
  p.socket = TempPath("dr_" + tag + ".sock");
  for (int w = 0; w < kWorldSize; ++w) {
    p.run_states.push_back(
        TempPath("dr_" + tag + "_w" + std::to_string(w) + ".runstate"));
    p.params.push_back(
        TempPath("dr_" + tag + "_w" + std::to_string(w) + ".params"));
    std::remove(p.run_states.back().c_str());
    std::remove(p.params.back().c_str());
  }
  return p;
}

void CleanupPaths(const EnsemblePaths& p) {
  for (const std::string& path : p.run_states) std::remove(path.c_str());
  for (const std::string& path : p.params) std::remove(path.c_str());
}

/// Runs the uninterrupted 4-worker reference ensemble and returns its
/// paths (params files hold each worker's final parameters).
EnsemblePaths RunReferenceEnsemble(const std::string& tag) {
  EnsemblePaths paths = MakePaths(tag);
  Coordinator coordinator(MakeDistConfig(paths.socket, ""));
  EXPECT_TRUE(coordinator.Start().ok());
  std::vector<pid_t> pids;
  for (int w = 0; w < kWorldSize; ++w) {
    pids.push_back(SpawnWorker(paths.socket, paths.run_states[w],
                               paths.params[w], 0));
  }
  for (const pid_t pid : pids) EXPECT_EQ(WaitWorker(pid), 0);
  EXPECT_TRUE(coordinator.WaitForCompletion(60000));
  EXPECT_TRUE(coordinator.run_status().ok())
      << coordinator.run_status().ToString();
  EXPECT_EQ(coordinator.evictions(), 0);
  coordinator.Stop();
  return paths;
}

TEST(DistResumeTest, KillAndRejoinMatchesUninterruptedRunBitwise) {
  const EnsemblePaths ref = RunReferenceEnsemble("ref_rejoin");

  EnsemblePaths chaos = MakePaths("rejoin");
  Coordinator coordinator(MakeDistConfig(chaos.socket, ""));
  ASSERT_TRUE(coordinator.Start().ok());
  std::vector<pid_t> pids;
  for (int w = 0; w < kWorldSize; ++w) {
    // Worker 2 SIGKILLs itself after 6 completed steps — mid-epoch (the
    // per-epoch step count is 5 at 140 train samples / batch 32... the
    // exact cursor does not matter, only that it is not a fence).
    const int kill_after = (w == 2) ? 6 : 0;
    pids.push_back(SpawnWorker(chaos.socket, chaos.run_states[w],
                               chaos.params[w], kill_after));
  }
  // The victim dies by SIGKILL; survivors keep training (recompute +
  // evict), and the respawn below is admitted at the next epoch fence with
  // a run_state snapshot from a survivor.
  EXPECT_EQ(WaitWorker(pids[2]), 1000 + SIGKILL);
  pids[2] = SpawnWorker(chaos.socket, chaos.run_states[2], chaos.params[2],
                        0);
  for (int w = 0; w < kWorldSize; ++w) {
    EXPECT_EQ(WaitWorker(pids[w]), 0) << "worker " << w;
  }
  ASSERT_TRUE(coordinator.WaitForCompletion(60000));
  EXPECT_TRUE(coordinator.run_status().ok())
      << coordinator.run_status().ToString();
  EXPECT_EQ(coordinator.evictions(), 1);  // the SIGKILLed incarnation
  EXPECT_GE(coordinator.joins(), kWorldSize + 1);  // formation + rejoin
  coordinator.Stop();

  // The acceptance bar: every worker — including the one that died and
  // rejoined — ends at the exact parameters of the uninterrupted run.
  for (int w = 0; w < kWorldSize; ++w) {
    SCOPED_TRACE("worker " + std::to_string(w));
    ExpectParamsBitIdentical(chaos.params[w], ref.params[0]);
  }
  CleanupPaths(chaos);
  CleanupPaths(ref);
}

TEST(DistResumeTest, KillAndEvictRebalancesAndStillMatchesBitwise) {
  const EnsemblePaths ref = RunReferenceEnsemble("ref_evict");

  EnsemblePaths chaos = MakePaths("evict");
  Coordinator coordinator(MakeDistConfig(chaos.socket, ""));
  ASSERT_TRUE(coordinator.Start().ok());
  std::vector<pid_t> pids;
  for (int w = 0; w < kWorldSize; ++w) {
    const int kill_after = (w == 1) ? 9 : 0;
    pids.push_back(SpawnWorker(chaos.socket, chaos.run_states[w],
                               chaos.params[w], kill_after));
  }
  EXPECT_EQ(WaitWorker(pids[1]), 1000 + SIGKILL);
  // No respawn: the dead worker's shards are rebalanced onto the three
  // survivors, which carry the run to completion alone.
  for (int w = 0; w < kWorldSize; ++w) {
    if (w == 1) continue;
    EXPECT_EQ(WaitWorker(pids[w]), 0) << "worker " << w;
  }
  ASSERT_TRUE(coordinator.WaitForCompletion(60000));
  EXPECT_TRUE(coordinator.run_status().ok())
      << coordinator.run_status().ToString();
  EXPECT_EQ(coordinator.evictions(), 1);
  coordinator.Stop();

  for (int w = 0; w < kWorldSize; ++w) {
    if (w == 1) continue;  // the victim left no final params
    SCOPED_TRACE("worker " + std::to_string(w));
    ExpectParamsBitIdentical(chaos.params[w], ref.params[0]);
  }
  // And the reference ensemble itself is internally consistent: lockstep
  // replication means every reference worker saved identical parameters.
  for (int w = 1; w < kWorldSize; ++w) {
    ExpectParamsBitIdentical(ref.params[w], ref.params[0]);
  }
  CleanupPaths(chaos);
  CleanupPaths(ref);
}

}  // namespace
}  // namespace dist
}  // namespace tracer

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "--dist-worker") {
    return tracer::dist::DistWorkerMain(argc, argv);
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
