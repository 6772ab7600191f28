#include <gtest/gtest.h>
#include <sys/socket.h>

#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/logistic_regression.h"
#include "core/titv.h"
#include "datagen/emr_generator.h"
#include "dist/coordinator.h"
#include "dist/wire.h"
#include "dist/worker.h"
#include "fault/fault.h"
#include "train/trainer.h"

namespace tracer {
namespace dist {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// ---------------------------------------------------------------------------
// Wire format

TEST(WireTest, PayloadScalarsAndVectorsRoundTrip) {
  PayloadWriter w;
  w.PutU8(0xAB);
  w.PutU32(0xDEADBEEFu);
  w.PutU64(0x0123456789ABCDEFull);
  w.PutF32(-0.0f);
  w.PutF32Vector({1.5f, -2.25f, 3.0f});
  const std::string payload = w.Take();

  PayloadReader r(payload);
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  float f = 1.0f;
  std::vector<float> vec;
  ASSERT_TRUE(r.GetU8(&u8).ok());
  ASSERT_TRUE(r.GetU32(&u32).ok());
  ASSERT_TRUE(r.GetU64(&u64).ok());
  ASSERT_TRUE(r.GetF32(&f).ok());
  ASSERT_TRUE(r.GetF32Vector(&vec).ok());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(f, -0.0f);
  EXPECT_TRUE(std::signbit(f));  // bit-exact, not just equal
  ASSERT_EQ(vec.size(), 3u);
  EXPECT_EQ(vec[1], -2.25f);
}

TEST(WireTest, TruncatedPayloadIsDataLoss) {
  PayloadWriter w;
  w.PutU32(7);
  const std::string payload = w.Take();
  PayloadReader r(payload);
  uint64_t u64 = 0;
  EXPECT_EQ(r.GetU64(&u64).code(), StatusCode::kDataLoss);
  // A length-prefixed vector whose prefix promises more than the payload
  // holds must fail, not allocate garbage.
  PayloadWriter w2;
  w2.PutU32(1000);  // claims 1000 floats, provides none
  const std::string lying = w2.Take();
  PayloadReader r2(lying);
  std::vector<float> vec;
  EXPECT_EQ(r2.GetF32Vector(&vec).code(), StatusCode::kDataLoss);
}

TEST(WireTest, FrameRoundTripsAndCrcCatchesCorruption) {
  Frame frame;
  frame.type = MsgType::kShardGrad;
  frame.payload = std::string("\x01\x02\x03\x04 gradient bytes", 19);
  const std::string encoded = EncodeFrame(frame);
  ASSERT_EQ(encoded.size(), kFrameHeaderBytes + frame.payload.size());

  MsgType type = MsgType::kAbort;
  uint32_t payload_len = 0;
  uint32_t crc = 0;
  ASSERT_TRUE(
      DecodeFrameHeader(encoded.data(), &type, &payload_len, &crc).ok());
  EXPECT_EQ(type, MsgType::kShardGrad);
  ASSERT_EQ(payload_len, frame.payload.size());
  const std::string payload = encoded.substr(kFrameHeaderBytes);
  EXPECT_TRUE(VerifyFrame(type, payload, crc).ok());

  // Flip one payload bit: the CRC must reject it as kDataLoss.
  std::string corrupted = payload;
  corrupted[5] = static_cast<char>(corrupted[5] ^ 0x10);
  EXPECT_EQ(VerifyFrame(type, corrupted, crc).code(), StatusCode::kDataLoss);

  // Bad magic and absurd lengths are rejected at the header.
  std::string bad_magic = encoded;
  bad_magic[0] = 'X';
  EXPECT_EQ(
      DecodeFrameHeader(bad_magic.data(), &type, &payload_len, &crc).code(),
      StatusCode::kDataLoss);
}

// ---------------------------------------------------------------------------
// Shard slicing

TEST(ShardSliceTest, SlicesPartitionTheBatchInOrder) {
  std::vector<int> batch;
  for (int i = 0; i < 11; ++i) batch.push_back(100 + i);
  for (const int shards : {1, 2, 3, 4, 11, 16}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    std::vector<int> joined;
    size_t max_size = 0;
    size_t min_size = batch.size();
    for (int s = 0; s < shards; ++s) {
      const std::vector<int> slice = data::ShardSlice(batch, s, shards);
      joined.insert(joined.end(), slice.begin(), slice.end());
      max_size = std::max(max_size, slice.size());
      min_size = std::min(min_size, slice.size());
    }
    // Concatenating the slices in shard order reproduces the batch
    // exactly — the partition is contiguous, ordered and complete.
    EXPECT_EQ(joined, batch);
    if (shards <= static_cast<int>(batch.size())) {
      EXPECT_LE(max_size - min_size, 1u);  // balanced
    }
  }
  // More shards than examples: trailing shards are empty, still a partition.
  const std::vector<int> tail = data::ShardSlice(batch, 15, 16);
  EXPECT_TRUE(tail.empty());
}

// ---------------------------------------------------------------------------
// Transport

TEST(TransportTest, FramesCrossAUnixSocketIntact) {
  const std::string path = TempPath("dist_transport.sock");
  UdsListener listener;
  ASSERT_TRUE(listener.Bind(path).ok());
  RetryPolicy retry;

  std::thread client([&] {
    Result<std::unique_ptr<Conn>> conn = ConnectUds(path, 5000);
    ASSERT_TRUE(conn.ok()) << conn.status().ToString();
    PayloadWriter w;
    w.PutU64(42);
    w.PutF32Vector({1.0f, 2.0f});
    ASSERT_TRUE(conn.value()
                    ->SendFrame(MsgType::kShardGrad, w.Take(), retry)
                    .ok());
    // And a large frame: 100k floats exercises the chunked read path.
    PayloadWriter big;
    big.PutF32Vector(std::vector<float>(100000, 0.5f));
    ASSERT_TRUE(
        conn.value()->SendFrame(MsgType::kSnapshot, big.Take(), retry).ok());
  });

  Result<std::unique_ptr<Conn>> accepted = listener.Accept(5000);
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
  Frame frame;
  ASSERT_TRUE(accepted.value()->RecvFrame(&frame, 5000, retry).ok());
  EXPECT_EQ(frame.type, MsgType::kShardGrad);
  PayloadReader r(frame.payload);
  uint64_t step = 0;
  std::vector<float> vec;
  ASSERT_TRUE(r.GetU64(&step).ok());
  ASSERT_TRUE(r.GetF32Vector(&vec).ok());
  EXPECT_EQ(step, 42u);
  ASSERT_EQ(vec.size(), 2u);

  Frame big_frame;
  ASSERT_TRUE(accepted.value()->RecvFrame(&big_frame, 5000, retry).ok());
  PayloadReader r2(big_frame.payload);
  std::vector<float> big_vec;
  ASSERT_TRUE(r2.GetF32Vector(&big_vec).ok());
  EXPECT_EQ(big_vec.size(), 100000u);
  EXPECT_EQ(big_vec[99999], 0.5f);
  client.join();
}

TEST(TransportTest, RecvTimesOutAsDeadlineExceeded) {
  const std::string path = TempPath("dist_timeout.sock");
  UdsListener listener;
  ASSERT_TRUE(listener.Bind(path).ok());
  std::thread client([&] {
    Result<std::unique_ptr<Conn>> conn = ConnectUds(path, 5000);
    ASSERT_TRUE(conn.ok());
    // Connect and go silent; the server's recv must time out cleanly.
    Frame f;
    RetryPolicy no_retry;
    no_retry.max_attempts = 1;
    (void)conn.value()->RecvFrame(&f, 400, no_retry);
  });
  Result<std::unique_ptr<Conn>> accepted = listener.Accept(5000);
  ASSERT_TRUE(accepted.ok());
  Frame frame;
  RetryPolicy no_retry;
  no_retry.max_attempts = 1;
  EXPECT_EQ(accepted.value()->RecvFrame(&frame, 100, no_retry).code(),
            StatusCode::kDeadlineExceeded);
  client.join();
}

TEST(TransportTest, CorruptBytesOnTheWireSurfaceAsDataLoss) {
  const std::string path = TempPath("dist_corrupt.sock");
  UdsListener listener;
  ASSERT_TRUE(listener.Bind(path).ok());
  std::thread client([&] {
    Result<std::unique_ptr<Conn>> conn = ConnectUds(path, 5000);
    ASSERT_TRUE(conn.ok());
    Frame frame;
    frame.type = MsgType::kReduced;
    frame.payload = "reduced gradient";
    std::string encoded = EncodeFrame(frame);
    encoded[kFrameHeaderBytes + 3] ^= 0x40;  // bit-flip inside the payload
    ASSERT_EQ(::send(conn.value()->fd(), encoded.data(), encoded.size(),
                     MSG_NOSIGNAL),
              static_cast<ssize_t>(encoded.size()));
  });
  Result<std::unique_ptr<Conn>> accepted = listener.Accept(5000);
  ASSERT_TRUE(accepted.ok());
  Frame frame;
  RetryPolicy no_retry;
  no_retry.max_attempts = 1;
  // kDataLoss, not a retryable transient: a corrupt gradient must never be
  // silently summed.
  EXPECT_EQ(accepted.value()->RecvFrame(&frame, 5000, no_retry).code(),
            StatusCode::kDataLoss);
  client.join();
}

TEST(TransportTest, InjectedTransportFaultsAreRetriedToSuccess) {
  auto& faults = fault::FaultRegistry::Global();
  // dist.send fails its first 2 hits then heals; the policy retries past.
  ASSERT_TRUE(faults.Configure("dist.send:1:2,dist.recv:1:2", 7).ok());
  const std::string path = TempPath("dist_fault.sock");
  UdsListener listener;
  ASSERT_TRUE(listener.Bind(path).ok());
  RetryPolicy retry;
  retry.max_attempts = 4;
  retry.initial_backoff_us = 50;
  retry.jitter = true;
  retry.retryable = {StatusCode::kUnavailable};

  std::thread client([&] {
    Result<std::unique_ptr<Conn>> conn = ConnectUds(path, 5000);
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(
        conn.value()->SendFrame(MsgType::kHeartbeat, "hb", retry).ok());
  });
  Result<std::unique_ptr<Conn>> accepted = listener.Accept(5000);
  ASSERT_TRUE(accepted.ok());
  Frame frame;
  ASSERT_TRUE(accepted.value()->RecvFrame(&frame, 5000, retry).ok());
  EXPECT_EQ(frame.type, MsgType::kHeartbeat);
  EXPECT_EQ(frame.payload, "hb");
  client.join();
  EXPECT_EQ(faults.FireCount("dist.send"), 2);
  EXPECT_EQ(faults.FireCount("dist.recv"), 2);
  faults.Clear();
}

// ---------------------------------------------------------------------------
// End-to-end in-process data-parallel training

struct Fixture {
  data::DatasetSplits splits;
  int input_dim;
};

Fixture MakeFixture(int samples = 160) {
  datagen::EmrCohortConfig gen = datagen::NuhAkiDefaultConfig();
  gen.num_samples = samples;
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
  norm.Apply(&f.splits.test);
  f.input_dim = cohort.dataset.num_features();
  return f;
}

/// Builds one fresh model replica per worker.
using ModelFactory = std::function<std::unique_ptr<nn::SequenceModel>()>;

ModelFactory LogisticFactory(const Fixture& f) {
  return [&f] {
    return std::make_unique<baselines::LogisticRegression>(
        f.input_dim, baselines::LrInputMode::kAggregate, 0, /*seed=*/9);
  };
}

/// A small TITV: the GRU, attention and FiLM tape rather than one linear
/// layer, so the all-reduce carries every gradient shape TITV produces.
ModelFactory TitvFactory(const Fixture& f) {
  return [&f] {
    core::TitvConfig config;
    config.input_dim = f.input_dim;
    config.rnn_dim = 6;
    config.film_dim = 6;
    config.seed = 9;
    return std::make_unique<core::Titv>(config);
  };
}

train::TrainConfig MakeConfig() {
  train::TrainConfig tc;
  tc.max_epochs = 3;
  tc.patience = 10;
  tc.batch_size = 32;
  tc.seed = 11;
  return tc;
}

void ExpectBitIdentical(const std::vector<Tensor>& a,
                        const std::vector<Tensor>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t t = 0; t < a.size(); ++t) {
    ASSERT_TRUE(a[t].SameShape(b[t])) << "tensor " << t;
    for (int64_t i = 0; i < a[t].size(); ++i) {
      ASSERT_EQ(a[t].data()[i], b[t].data()[i])
          << "tensor " << t << " element " << i;
    }
  }
}

struct WorkerOut {
  Status status = Status::OK();
  std::vector<Tensor> state;
  std::vector<double> train_loss;
};

/// Runs `world` workers against a coordinator, all in this process (each
/// worker on its own thread with its own model replica from
/// `make_model`). Returns one WorkerOut per worker.
std::vector<WorkerOut> RunEnsemble(const Fixture& f,
                                   const train::TrainConfig& tc,
                                   DistConfig dc, const std::string& tag,
                                   const ModelFactory& make_model) {
  dc.socket_path = TempPath("dist_" + tag + ".sock");
  Coordinator coordinator(dc);
  Status started = coordinator.Start();
  EXPECT_TRUE(started.ok()) << started.ToString();
  std::vector<WorkerOut> outs(static_cast<size_t>(dc.world_size));
  std::vector<std::thread> threads;
  for (int wi = 0; wi < dc.world_size; ++wi) {
    threads.emplace_back([&, wi] {
      DistConfig mine = dc;
      mine.run_state_path = TempPath("dist_" + tag + "_w" +
                                     std::to_string(wi) + ".runstate");
      std::remove(mine.run_state_path.c_str());
      const std::unique_ptr<nn::SequenceModel> model = make_model();
      Result<train::TrainResult> res = RunElasticWorker(
          model.get(), f.splits.train, f.splits.val, tc,
          train::CheckpointOptions{}, mine);
      WorkerOut& out = outs[static_cast<size_t>(wi)];
      if (res.ok()) {
        out.status = res.value().status;
        out.train_loss = res.value().train_loss;
      } else {
        out.status = res.status();
      }
      out.state = model->StateDict();
      std::remove(mine.run_state_path.c_str());
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_TRUE(coordinator.WaitForCompletion(30000));
  EXPECT_TRUE(coordinator.run_status().ok())
      << coordinator.run_status().ToString();
  coordinator.Stop();
  return outs;
}

TEST(DistTrainTest, SingleWorkerSingleShardMatchesLocalTrainingBitwise) {
  const Fixture f = MakeFixture();
  const train::TrainConfig tc = MakeConfig();
  const std::unique_ptr<nn::SequenceModel> local = LogisticFactory(f)();
  const train::TrainResult local_result =
      train::Fit(local.get(), f.splits.train, f.splits.val, tc);

  DistConfig dc;
  dc.world_size = 1;
  dc.num_shards = 1;
  const std::vector<WorkerOut> outs =
      RunEnsemble(f, tc, dc, "w1s1", LogisticFactory(f));
  ASSERT_TRUE(outs[0].status.ok()) << outs[0].status.ToString();
  // One shard means the reduction is 1.0f * g — the distributed run is the
  // local run, bit for bit.
  ExpectBitIdentical(outs[0].state, local->StateDict());
  ASSERT_EQ(outs[0].train_loss.size(), local_result.train_loss.size());
  for (size_t i = 0; i < local_result.train_loss.size(); ++i) {
    EXPECT_EQ(outs[0].train_loss[i], local_result.train_loss[i]);
  }
}

/// The determinism contract: for a fixed shard count the reduced
/// gradients — and therefore the full parameter trajectory — are bitwise
/// invariant to how many workers computed them.
void ExpectWorldSizeInvisible(const Fixture& f, const train::TrainConfig& tc,
                              const ModelFactory& make_model,
                              const std::string& tag) {
  DistConfig one;
  one.world_size = 1;
  one.num_shards = 4;
  const std::vector<WorkerOut> single =
      RunEnsemble(f, tc, one, tag + "_w1s4", make_model);
  ASSERT_TRUE(single[0].status.ok()) << single[0].status.ToString();

  DistConfig two;
  two.world_size = 2;
  two.num_shards = 4;
  const std::vector<WorkerOut> pair =
      RunEnsemble(f, tc, two, tag + "_w2s4", make_model);
  ASSERT_TRUE(pair[0].status.ok()) << pair[0].status.ToString();
  ASSERT_TRUE(pair[1].status.ok()) << pair[1].status.ToString();

  ExpectBitIdentical(pair[0].state, single[0].state);
  // And lockstep replication: both workers end with identical parameters.
  ExpectBitIdentical(pair[0].state, pair[1].state);
  ASSERT_EQ(single[0].train_loss.size(),
            static_cast<size_t>(tc.max_epochs));
  ASSERT_EQ(pair[0].train_loss.size(), single[0].train_loss.size());
  ASSERT_EQ(pair[1].train_loss.size(), single[0].train_loss.size());
  for (size_t i = 0; i < single[0].train_loss.size(); ++i) {
    EXPECT_EQ(pair[0].train_loss[i], single[0].train_loss[i]);
    EXPECT_EQ(pair[1].train_loss[i], single[0].train_loss[i]);
  }
}

TEST(DistTrainTest, WorldSizeIsInvisibleToTheMathForAFixedShardCount) {
  const Fixture f = MakeFixture();
  ExpectWorldSizeInvisible(f, MakeConfig(), LogisticFactory(f), "lr");
}

TEST(DistTrainTest, TitvWorldSizeIsInvisibleToTheMath) {
  // The same contract through TITV's GRU, attention and FiLM tape.
  const Fixture f = MakeFixture();
  train::TrainConfig tc = MakeConfig();
  tc.max_epochs = 2;
  ExpectWorldSizeInvisible(f, tc, TitvFactory(f), "titv");
}

TEST(DistTrainTest, TitvShardedTrainingMatchesLocalQuality) {
  // World-size invariance pins W; this pins S. Four shard gradients reduced
  // across two workers must train a TITV as good as the local loop does.
  const Fixture f = MakeFixture(600);
  train::TrainConfig tc = MakeConfig();
  tc.max_epochs = 12;
  tc.learning_rate = 3e-3f;
  const std::unique_ptr<nn::SequenceModel> local = TitvFactory(f)();
  train::Fit(local.get(), f.splits.train, f.splits.val, tc);
  const double local_auc = train::Evaluate(local.get(), f.splits.test).auc;
  // The comparison only means something if the local model learned.
  ASSERT_GT(local_auc, 0.7);

  DistConfig dc;
  dc.world_size = 2;
  dc.num_shards = 4;
  const std::vector<WorkerOut> outs =
      RunEnsemble(f, tc, dc, "quality", TitvFactory(f));
  ASSERT_TRUE(outs[0].status.ok()) << outs[0].status.ToString();
  const std::unique_ptr<nn::SequenceModel> sharded = TitvFactory(f)();
  sharded->LoadStateDict(outs[0].state);
  const double sharded_auc =
      train::Evaluate(sharded.get(), f.splits.test).auc;
  EXPECT_NEAR(sharded_auc, local_auc, 0.08);
}

TEST(DistTrainTest, TransportFaultStormDoesNotChangeTheResult) {
  const Fixture f = MakeFixture();
  train::TrainConfig tc = MakeConfig();
  tc.max_epochs = 2;

  DistConfig dc;
  dc.world_size = 2;
  dc.num_shards = 4;
  const std::vector<WorkerOut> calm =
      RunEnsemble(f, tc, dc, "calm", LogisticFactory(f));
  ASSERT_TRUE(calm[0].status.ok()) << calm[0].status.ToString();

  // Low-probability transient faults on every dist fault point: retries
  // (send/recv) and heartbeat tolerance must absorb them with zero effect
  // on the arithmetic.
  auto& faults = fault::FaultRegistry::Global();
  ASSERT_TRUE(
      faults
          .Configure("dist.send:0.02:0,dist.recv:0.02:0,dist.heartbeat:0.05:0",
                     1234)
          .ok());
  const std::vector<WorkerOut> stormy =
      RunEnsemble(f, tc, dc, "storm", LogisticFactory(f));
  faults.Clear();
  ASSERT_TRUE(stormy[0].status.ok()) << stormy[0].status.ToString();
  ASSERT_TRUE(stormy[1].status.ok()) << stormy[1].status.ToString();
  ExpectBitIdentical(stormy[0].state, calm[0].state);
  ExpectBitIdentical(stormy[1].state, calm[0].state);
}

}  // namespace
}  // namespace dist
}  // namespace tracer
