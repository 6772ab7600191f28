// Tests for the online inference serving subsystem (src/serve/):
//  - ModelRegistry load / validate / publish / rollback,
//  - crash-safe checkpoint writes and torn-checkpoint rejection,
//  - the dynamic micro-batching scheduler: batched == unbatched
//    bit-identically, bounded-queue shedding (kUnavailable), per-request
//    deadline expiry (kDeadlineExceeded), hot-swap consistency while
//    requests are in flight,
//  - PatientSession streaming re-scoring,
//  - serving metrics through src/obs.
//
// The contention tests are sized for the sanitizer CI matrix; set
// TRACER_SERVE_STRESS to a multiplier (e.g. 4) for longer hammering.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/variable.h"
#include "common/mutex.h"
#include "common/rng.h"
#include "core/titv.h"
#include "core/tracer.h"
#include "nn/serialization.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "serve/model_registry.h"
#include "serve/server.h"
#include "serve/session.h"
#include "tensor/tensor_ops.h"

namespace tracer {
namespace serve {
namespace {

int StressMultiplier() {
  const char* env = std::getenv("TRACER_SERVE_STRESS");
  const int value = env != nullptr ? std::atoi(env) : 1;
  return value > 0 ? value : 1;
}

core::TitvConfig MicroConfig(uint64_t seed = 5, int input_dim = 6) {
  core::TitvConfig config;
  config.input_dim = input_dim;
  config.rnn_dim = 4;
  config.film_dim = 4;
  config.seed = seed;
  return config;
}

// Registers the freshly initialised TITV of `config` (deterministic per
// seed) directly from memory.
uint64_t RegisterFreshModel(ModelRegistry* registry,
                            const core::TitvConfig& config) {
  const core::Titv model(config);
  std::vector<std::pair<std::string, Tensor>> tensors;
  for (const auto& [name, param] : model.NamedParameters()) {
    tensors.emplace_back(name, param.value());
  }
  auto staged = registry->Register(config, std::move(tensors), "<memory>");
  EXPECT_TRUE(staged.ok()) << staged.status().ToString();
  return staged.value();
}

std::vector<std::vector<float>> RandomWindows(int num_windows, int dim,
                                              Rng* rng) {
  std::vector<std::vector<float>> windows(num_windows,
                                          std::vector<float>(dim));
  for (auto& window : windows) {
    for (float& v : window) {
      v = static_cast<float>(rng->Uniform(-1.0, 1.0));
    }
  }
  return windows;
}

// Unbatched single-sample forward through the snapshot's own replica — the
// ground truth the batched path must reproduce bit-for-bit.
float ScoreSingle(const ModelRegistry& registry, uint64_t version,
                  const std::vector<std::vector<float>>& windows) {
  auto snapshot = registry.Get(version);
  EXPECT_NE(snapshot, nullptr);
  auto replica = snapshot->NewReplica();
  std::vector<autograd::Variable> xs;
  xs.reserve(windows.size());
  for (const auto& window : windows) {
    Tensor x({1, static_cast<int>(window.size())});
    for (size_t j = 0; j < window.size(); ++j) {
      x.at(0, static_cast<int>(j)) = window[j];
    }
    xs.push_back(autograd::Variable::Constant(std::move(x)));
  }
  return tracer::Sigmoid(replica->Forward(xs).value()).at(0, 0);
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// ---------------------------------------------------------------------------
// ModelRegistry

TEST(ModelRegistryTest, LoadPublishRollback) {
  const core::TitvConfig config = MicroConfig(/*seed=*/11);
  const std::string path = TempPath("registry_ckpt.bin");
  core::Tracer framework({config, {}, 0.75f});
  ASSERT_TRUE(framework.SaveCheckpoint(path).ok());

  ModelRegistry registry;
  EXPECT_EQ(registry.live(), nullptr);
  EXPECT_EQ(registry.live_version(), 0u);

  auto v1 = registry.Load(path, config);
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();
  auto v2 = registry.Load(path, config);
  ASSERT_TRUE(v2.ok());
  EXPECT_LT(v1.value(), v2.value());
  EXPECT_EQ(registry.Versions().size(), 2u);

  // Staging does not publish.
  EXPECT_EQ(registry.live_version(), 0u);
  ASSERT_TRUE(registry.Publish(v1.value()).ok());
  EXPECT_EQ(registry.live_version(), v1.value());
  ASSERT_TRUE(registry.Publish(v2.value()).ok());
  EXPECT_EQ(registry.live_version(), v2.value());

  // Rollback swaps live and previous; twice returns to where we were.
  ASSERT_TRUE(registry.Rollback().ok());
  EXPECT_EQ(registry.live_version(), v1.value());
  ASSERT_TRUE(registry.Rollback().ok());
  EXPECT_EQ(registry.live_version(), v2.value());

  EXPECT_EQ(registry.Publish(999).code(), StatusCode::kNotFound);
  std::remove(path.c_str());
}

TEST(ModelRegistryTest, RollbackWithoutHistoryFails) {
  ModelRegistry registry;
  EXPECT_EQ(registry.Rollback().code(), StatusCode::kFailedPrecondition);
}

TEST(ModelRegistryTest, RejectsArchitectureMismatch) {
  const std::string path = TempPath("mismatch_ckpt.bin");
  core::Tracer framework({MicroConfig(), {}, 0.75f});
  ASSERT_TRUE(framework.SaveCheckpoint(path).ok());

  ModelRegistry registry;
  core::TitvConfig wrong = MicroConfig();
  wrong.input_dim = 9;  // checkpoint was written for input_dim = 6
  auto staged = registry.Load(path, wrong);
  EXPECT_FALSE(staged.ok());
  EXPECT_EQ(staged.status().code(), StatusCode::kInvalidArgument);

  wrong = MicroConfig();
  wrong.rnn_dim = 7;
  EXPECT_FALSE(registry.Load(path, wrong).ok());

  auto bad_config = registry.Load(path, core::TitvConfig{});
  EXPECT_EQ(bad_config.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(ModelRegistryTest, SnapshotRoundTripsOutputTransform) {
  const core::TitvConfig config = MicroConfig();
  const std::string path = TempPath("transform_ckpt.bin");
  core::Tracer framework({config, {}, 0.75f});
  framework.model().SetOutputTransform(2.5f, -1.25f);
  ASSERT_TRUE(framework.SaveCheckpoint(path).ok());

  ModelRegistry registry;
  auto version = registry.Load(path, config);
  ASSERT_TRUE(version.ok());
  auto snapshot = registry.Get(version.value());
  ASSERT_NE(snapshot, nullptr);
  EXPECT_FLOAT_EQ(snapshot->output_scale, 2.5f);
  EXPECT_FLOAT_EQ(snapshot->output_offset, -1.25f);
  auto replica = snapshot->NewReplica();
  EXPECT_FLOAT_EQ(replica->output_scale(), 2.5f);
  EXPECT_FLOAT_EQ(replica->output_offset(), -1.25f);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Crash-safe checkpoints

TEST(CheckpointSafetyTest, EveryTruncationIsRejected) {
  const std::string path = TempPath("trunc_ckpt.bin");
  const std::vector<std::pair<std::string, Tensor>> tensors = {
      {"a", Tensor({2, 3}, {1, 2, 3, 4, 5, 6})},
      {"b", Tensor({1, 2}, {7, 8})},
  };
  ASSERT_TRUE(nn::SaveCheckpoint(path, tensors).ok());

  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 12u);

  const std::string cut = TempPath("trunc_ckpt_cut.bin");
  for (size_t len = 0; len < bytes.size(); ++len) {
    std::ofstream out(cut, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(len));
    out.close();
    auto loaded = nn::LoadCheckpoint(cut);
    EXPECT_FALSE(loaded.ok()) << "prefix of " << len << " bytes accepted";
    // Torn containers are data loss (retrying cannot help), and the error
    // names the failing byte offset for forensics.
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
        << "prefix of " << len << ": " << loaded.status().ToString();
    EXPECT_NE(loaded.status().message().find("offset"), std::string::npos)
        << loaded.status().ToString();
  }

  // Trailing garbage after a valid container is just as torn.
  std::ofstream out(cut, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.put('x');
  out.close();
  auto trailing = nn::LoadCheckpoint(cut);
  EXPECT_FALSE(trailing.ok());
  EXPECT_EQ(trailing.status().code(), StatusCode::kDataLoss);

  // The untouched original still loads.
  auto loaded = nn::LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().size(), 2u);
  std::remove(path.c_str());
  std::remove(cut.c_str());
}

TEST(CheckpointSafetyTest, CorruptMagicIsRejected) {
  const std::string path = TempPath("magic_ckpt.bin");
  std::ofstream out(path, std::ios::binary);
  out << "NOTACKPT and then some bytes";
  out.close();
  auto loaded = nn::LoadCheckpoint(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(CheckpointSafetyTest, FailedSaveLeavesNoPartialFile) {
  // Writing into a missing directory fails up front — and must not leave
  // the destination or any temp file behind.
  const std::string path = TempPath("no_such_dir/x.bin");
  const Status status =
      nn::SaveCheckpoint(path, {{"a", Tensor({1, 1}, {1.0f})}});
  EXPECT_FALSE(status.ok());
  std::ifstream probe(path, std::ios::binary);
  EXPECT_FALSE(probe.is_open());
}

TEST(CheckpointSafetyTest, SaveAtomicallyReplacesExisting) {
  const std::string path = TempPath("replace_ckpt.bin");
  ASSERT_TRUE(
      nn::SaveCheckpoint(path, {{"a", Tensor({1, 1}, {1.0f})}}).ok());
  ASSERT_TRUE(
      nn::SaveCheckpoint(path, {{"a", Tensor({1, 1}, {2.0f})}}).ok());
  auto loaded = nn::LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_FLOAT_EQ(loaded.value()[0].second.at(0, 0), 2.0f);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// InferenceServer

TEST(InferenceServerTest, NoModelPublishedFailsPrecondition) {
  ModelRegistry registry;
  InferenceServer server(&registry, ServeOptions{});
  ServeRequest request;
  request.windows = {{0.1f, 0.2f, 0.3f, 0.4f, 0.5f, 0.6f}};
  const ServeResponse response = server.Infer(std::move(request));
  EXPECT_EQ(response.status.code(), StatusCode::kFailedPrecondition);
}

TEST(InferenceServerTest, MalformedRequestsAreRejected) {
  ModelRegistry registry;
  const core::TitvConfig config = MicroConfig();
  ASSERT_TRUE(registry.Publish(RegisterFreshModel(&registry, config)).ok());
  InferenceServer server(&registry, ServeOptions{});

  EXPECT_EQ(server.Infer(ServeRequest{}).status.code(),
            StatusCode::kInvalidArgument);

  ServeRequest ragged;
  ragged.windows = {{1.0f, 2.0f}, {1.0f}};
  EXPECT_EQ(server.Infer(std::move(ragged)).status.code(),
            StatusCode::kInvalidArgument);

  ServeRequest wrong_dim;  // model expects 6 features
  wrong_dim.windows = {{1.0f, 2.0f}};
  EXPECT_EQ(server.Infer(std::move(wrong_dim)).status.code(),
            StatusCode::kInvalidArgument);
}

// Acceptance (a): a batched forward must be bit-identical to scoring each
// sample alone against the same checkpoint.
TEST(InferenceServerTest, BatchedBitIdenticalToUnbatched) {
  ModelRegistry registry;
  const core::TitvConfig config = MicroConfig(/*seed=*/21);
  const uint64_t version = RegisterFreshModel(&registry, config);
  ASSERT_TRUE(registry.Publish(version).ok());

  ServeOptions options;
  options.max_batch_size = 8;
  options.close_on_idle = false;  // force size/age-driven coalescing
  options.max_queue_delay_us = 200000;
  InferenceServer server(&registry, options);

  Rng rng(99);
  constexpr int kRequests = 32;
  std::vector<std::vector<std::vector<float>>> inputs;
  std::vector<std::future<ServeResponse>> futures;
  inputs.reserve(kRequests);
  futures.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    inputs.push_back(RandomWindows(/*num_windows=*/5, config.input_dim,
                                   &rng));
    ServeRequest request;
    request.windows = inputs.back();
    futures.push_back(server.Submit(std::move(request)));
  }

  int64_t batched = 0;
  for (int i = 0; i < kRequests; ++i) {
    const ServeResponse response = futures[i].get();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_EQ(response.model_version, version);
    const float reference = ScoreSingle(registry, version, inputs[i]);
    EXPECT_EQ(response.decision.probability, reference)
        << "batched row diverged from single-sample forward";
    if (response.batch_size > 1) ++batched;
  }
  EXPECT_GT(batched, 0) << "coalescing never produced a batch > 1";
  EXPECT_GE(server.stats().max_batch, 2);
}

// Acceptance (b): a saturated bounded queue sheds with kUnavailable
// immediately — it never blocks producers and never grows without bound.
TEST(InferenceServerTest, SaturationShedsWithUnavailable) {
  ModelRegistry registry;
  // A heavier model so forwards are slow relative to submissions.
  core::TitvConfig config = MicroConfig(/*seed=*/3, /*input_dim=*/16);
  config.rnn_dim = 32;
  config.film_dim = 32;
  ASSERT_TRUE(registry.Publish(RegisterFreshModel(&registry, config)).ok());

  ServeOptions options;
  options.max_batch_size = 1;
  options.num_workers = 1;
  options.queue_capacity = 2;
  InferenceServer server(&registry, options);

  constexpr int kThreads = 4;
  const int per_thread = 50 * StressMultiplier();
  std::vector<std::thread> producers;
  common::Mutex futures_mutex;
  std::vector<std::future<ServeResponse>> futures;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&, t] {
      Rng rng(1000 + static_cast<uint64_t>(t));
      for (int i = 0; i < per_thread; ++i) {
        ServeRequest request;
        request.windows = RandomWindows(12, config.input_dim, &rng);
        auto future = server.Submit(std::move(request));
        common::MutexLock lock(&futures_mutex);
        futures.push_back(std::move(future));
      }
    });
  }
  for (std::thread& producer : producers) producer.join();

  int ok = 0;
  int shed = 0;
  for (auto& future : futures) {
    const ServeResponse response = future.get();  // every future completes
    if (response.status.ok()) {
      ++ok;
      EXPECT_GE(response.decision.probability, 0.0f);
      EXPECT_LE(response.decision.probability, 1.0f);
    } else {
      EXPECT_EQ(response.status.code(), StatusCode::kUnavailable);
      ++shed;
    }
  }
  EXPECT_EQ(ok + shed, kThreads * per_thread);
  EXPECT_GT(shed, 0) << "queue of capacity 2 never saturated";
  EXPECT_GT(ok, 0);
  const InferenceServer::Stats stats = server.stats();
  EXPECT_EQ(stats.shed, shed);
  EXPECT_EQ(stats.completed, ok);
}

TEST(InferenceServerTest, ExpiredDeadlinesCompleteWithDeadlineExceeded) {
  ModelRegistry registry;
  const core::TitvConfig config = MicroConfig();
  ASSERT_TRUE(registry.Publish(RegisterFreshModel(&registry, config)).ok());

  ServeOptions options;
  options.max_batch_size = 1;
  options.num_workers = 1;
  InferenceServer server(&registry, options);

  Rng rng(7);
  // A healthy request keeps the pipeline busy...
  ServeRequest healthy;
  healthy.windows = RandomWindows(4, config.input_dim, &rng);
  auto first = server.Submit(std::move(healthy));

  // ...while these arrive already expired: they must never be scored.
  constexpr int kExpired = 20;
  std::vector<std::future<ServeResponse>> futures;
  for (int i = 0; i < kExpired; ++i) {
    ServeRequest request;
    request.windows = RandomWindows(4, config.input_dim, &rng);
    request.deadline_ns = obs::MonotonicNowNs() - 1;
    futures.push_back(server.Submit(std::move(request)));
  }
  EXPECT_TRUE(first.get().status.ok());
  for (auto& future : futures) {
    EXPECT_EQ(future.get().status.code(), StatusCode::kDeadlineExceeded);
  }
  EXPECT_EQ(server.stats().expired, kExpired);
}

TEST(InferenceServerTest, DelayDrivenCoalescingBatchesWaitingRequests) {
  ModelRegistry registry;
  const core::TitvConfig config = MicroConfig();
  ASSERT_TRUE(registry.Publish(RegisterFreshModel(&registry, config)).ok());

  ServeOptions options;
  options.max_batch_size = 16;
  options.max_queue_delay_us = 30000;
  options.close_on_idle = false;
  InferenceServer server(&registry, options);

  Rng rng(15);
  constexpr int kRequests = 5;
  std::vector<std::future<ServeResponse>> futures;
  for (int i = 0; i < kRequests; ++i) {
    ServeRequest request;
    request.windows = RandomWindows(3, config.input_dim, &rng);
    futures.push_back(server.Submit(std::move(request)));
  }
  for (auto& future : futures) {
    const ServeResponse response = future.get();
    ASSERT_TRUE(response.status.ok());
    // All five were waiting when the age window lapsed → one batch.
    EXPECT_EQ(response.batch_size, kRequests);
    EXPECT_GT(response.queue_ns, 0u);
  }
  EXPECT_EQ(server.stats().batches, 1);
}

// Acceptance (c): hot-swapping the live model while traffic is in flight
// must give every request exactly one consistent version — each response's
// probability is exactly the one its reported version produces, never a
// blend.
TEST(InferenceServerTest, HotSwapKeepsEveryRequestOnOneVersion) {
  ModelRegistry registry;
  const core::TitvConfig config_a = MicroConfig(/*seed=*/31);
  const core::TitvConfig config_b = MicroConfig(/*seed=*/77);
  const uint64_t v1 = RegisterFreshModel(&registry, config_a);
  const uint64_t v2 = RegisterFreshModel(&registry, config_b);
  ASSERT_TRUE(registry.Publish(v1).ok());

  Rng rng(5);
  const auto input = RandomWindows(6, config_a.input_dim, &rng);
  const float expected_v1 = ScoreSingle(registry, v1, input);
  const float expected_v2 = ScoreSingle(registry, v2, input);
  ASSERT_NE(expected_v1, expected_v2);

  ServeOptions options;
  options.max_batch_size = 8;
  options.num_workers = 2;
  InferenceServer server(&registry, options);

  std::atomic<bool> done{false};
  std::thread swapper([&] {
    int round = 0;
    while (!done.load()) {
      ASSERT_TRUE(registry.Publish(round % 2 == 0 ? v2 : v1).ok());
      if (round % 5 == 4) {
        ASSERT_TRUE(registry.Rollback().ok());
      }
      ++round;
      std::this_thread::yield();
    }
  });

  constexpr int kThreads = 4;
  const int per_thread = 50 * StressMultiplier();
  std::atomic<int> mismatches{0};
  std::atomic<int> v1_seen{0};
  std::atomic<int> v2_seen{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&] {
      for (int i = 0; i < per_thread; ++i) {
        ServeRequest request;
        request.windows = input;
        const ServeResponse response = server.Infer(std::move(request));
        ASSERT_TRUE(response.status.ok()) << response.status.ToString();
        const float expected =
            response.model_version == v1 ? expected_v1 : expected_v2;
        (response.model_version == v1 ? v1_seen : v2_seen).fetch_add(1);
        if (response.decision.probability != expected) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  done.store(true);
  swapper.join();

  EXPECT_EQ(mismatches.load(), 0)
      << "a request was scored against a torn or mixed model version";
  // The swap loop runs concurrently with the traffic, so both versions
  // should actually have served (sanity that the test exercised the swap).
  EXPECT_GT(v1_seen.load() + v2_seen.load(), 0);
}

// Contention hammer for the TSan job: variable window counts, a tiny
// queue, live hot-swaps and deadlines all at once. Every future must
// complete with one of the contract's status codes.
TEST(InferenceServerTest, MixedContentionHammer) {
  ModelRegistry registry;
  const core::TitvConfig config = MicroConfig(/*seed=*/13);
  const uint64_t v1 = RegisterFreshModel(&registry, config);
  const uint64_t v2 = RegisterFreshModel(&registry, config);
  ASSERT_TRUE(registry.Publish(v1).ok());

  ServeOptions options;
  options.max_batch_size = 4;
  options.num_workers = 2;
  options.queue_capacity = 8;
  options.max_queue_delay_us = 500;
  InferenceServer server(&registry, options);

  std::atomic<bool> done{false};
  std::thread swapper([&] {
    int round = 0;
    while (!done.load()) {
      ASSERT_TRUE(registry.Publish(round % 2 == 0 ? v2 : v1).ok());
      ++round;
      std::this_thread::yield();
    }
  });

  constexpr int kThreads = 4;
  const int per_thread = 60 * StressMultiplier();
  std::atomic<int> completed{0};
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&, t] {
      Rng rng(400 + static_cast<uint64_t>(t));
      for (int i = 0; i < per_thread; ++i) {
        ServeRequest request;
        request.windows =
            RandomWindows(i % 2 == 0 ? 3 : 5, config.input_dim, &rng);
        if (i % 3 == 0) {
          request.deadline_ns = obs::MonotonicNowNs() + 200000;  // 200µs
        }
        const ServeResponse response = server.Infer(std::move(request));
        const StatusCode code = response.status.code();
        ASSERT_TRUE(code == StatusCode::kOk ||
                    code == StatusCode::kUnavailable ||
                    code == StatusCode::kDeadlineExceeded)
            << response.status.ToString();
        if (code == StatusCode::kOk) {
          ASSERT_TRUE(response.model_version == v1 ||
                      response.model_version == v2);
          ASSERT_GE(response.decision.probability, 0.0f);
          ASSERT_LE(response.decision.probability, 1.0f);
        }
        completed.fetch_add(1);
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  done.store(true);
  swapper.join();
  EXPECT_EQ(completed.load(), kThreads * per_thread);

  const InferenceServer::Stats stats = server.stats();
  EXPECT_EQ(stats.accepted, stats.completed + stats.expired);
  EXPECT_EQ(stats.accepted + stats.shed,
            static_cast<int64_t>(kThreads) * per_thread);
}

TEST(InferenceServerTest, ShutdownCompletesEveryAcceptedFuture) {
  ModelRegistry registry;
  const core::TitvConfig config = MicroConfig();
  ASSERT_TRUE(registry.Publish(RegisterFreshModel(&registry, config)).ok());

  ServeOptions options;
  options.max_batch_size = 2;
  options.num_workers = 1;
  options.max_queue_delay_us = 50000;
  options.close_on_idle = false;
  auto server = std::make_unique<InferenceServer>(&registry, options);

  Rng rng(23);
  std::vector<std::future<ServeResponse>> futures;
  for (int i = 0; i < 30; ++i) {
    ServeRequest request;
    request.windows = RandomWindows(4, config.input_dim, &rng);
    futures.push_back(server->Submit(std::move(request)));
  }
  server.reset();  // destructor shuts down with work still queued
  for (auto& future : futures) {
    const ServeResponse response = future.get();
    EXPECT_TRUE(response.status.ok() ||
                response.status.code() == StatusCode::kUnavailable)
        << response.status.ToString();
  }
}

TEST(InferenceServerTest, SubmitAfterShutdownIsUnavailable) {
  ModelRegistry registry;
  InferenceServer server(&registry, ServeOptions{});
  server.Shutdown();
  server.Shutdown();  // idempotent
  ServeRequest request;
  request.windows = {{1.0f}};
  EXPECT_EQ(server.Infer(std::move(request)).status.code(),
            StatusCode::kUnavailable);
}

// ---------------------------------------------------------------------------
// PatientSession

TEST(PatientSessionTest, GrowingHistoryMatchesDirectScoring) {
  ModelRegistry registry;
  const core::TitvConfig config = MicroConfig(/*seed=*/41);
  const uint64_t version = RegisterFreshModel(&registry, config);
  ASSERT_TRUE(registry.Publish(version).ok());
  InferenceServer server(&registry, ServeOptions{});

  Rng rng(17);
  PatientSession session(&server, "patient-0");
  std::vector<std::vector<float>> history;
  for (int day = 0; day < 4; ++day) {
    std::vector<float> window(config.input_dim);
    for (float& v : window) v = static_cast<float>(rng.Uniform(0.0, 1.0));
    history.push_back(window);
    const ServeResponse response = session.ObserveSync(window);
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_EQ(session.num_windows(), day + 1);
    EXPECT_EQ(response.decision.probability,
              ScoreSingle(registry, version, history))
        << "session day " << day << " diverged from direct scoring";
  }
}

TEST(PatientSessionTest, AlertTransitionsTrackThreshold) {
  ModelRegistry registry;
  const core::TitvConfig config = MicroConfig();
  ASSERT_TRUE(registry.Publish(RegisterFreshModel(&registry, config)).ok());

  ServeOptions always;
  always.alert_threshold = 0.0f;  // every probability alerts
  InferenceServer alert_server(&registry, always);
  PatientSession alerting(&alert_server, "p-alert");
  const std::vector<float> window(config.input_dim, 0.5f);
  ASSERT_TRUE(alerting.ObserveSync(window).status.ok());
  EXPECT_TRUE(alerting.alerting());
  EXPECT_TRUE(alerting.newly_alerted());
  ASSERT_TRUE(alerting.ObserveSync(window).status.ok());
  EXPECT_TRUE(alerting.alerting());
  EXPECT_FALSE(alerting.newly_alerted());  // still above, not a transition

  ServeOptions never;
  never.alert_threshold = 1.1f;  // probabilities cannot reach this
  InferenceServer quiet_server(&registry, never);
  PatientSession quiet(&quiet_server, "p-quiet");
  ASSERT_TRUE(quiet.ObserveSync(window).status.ok());
  EXPECT_FALSE(quiet.alerting());
  EXPECT_FALSE(quiet.newly_alerted());
}

// ---------------------------------------------------------------------------
// Observability wiring

TEST(ServeMetricsTest, ServingExportsTracerServeMetrics) {
  obs::SetEnabled(true);
  ModelRegistry registry;
  const core::TitvConfig config = MicroConfig();
  ASSERT_TRUE(registry.Publish(RegisterFreshModel(&registry, config)).ok());
  {
    InferenceServer server(&registry, ServeOptions{});
    Rng rng(3);
    for (int i = 0; i < 4; ++i) {
      ServeRequest request;
      request.windows = RandomWindows(3, config.input_dim, &rng);
      EXPECT_TRUE(server.Infer(std::move(request)).status.ok());
    }
  }
  obs::SetEnabled(false);

  const std::string dump = obs::MetricsRegistry::Global().ExportPrometheus();
  for (const char* metric :
       {"tracer_serve_requests_total", "tracer_serve_batches_total",
        "tracer_serve_batch_size", "tracer_serve_queue_wait_ns",
        "tracer_serve_total_ns", "tracer_serve_queue_depth",
        "tracer_serve_model_loads_total", "tracer_serve_hot_swaps_total",
        "tracer_serve_live_version"}) {
    EXPECT_NE(dump.find(metric), std::string::npos)
        << metric << " missing from export";
  }
}

}  // namespace
}  // namespace serve
}  // namespace tracer
