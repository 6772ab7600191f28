#include "dist/worker.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "common/atomic_file.h"
#include "common/logging.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"

namespace tracer {
namespace dist {

namespace {

/// Sole registration site of tracer_dist_allreduce_us: wall time a worker
/// spends in one ReduceStep (shard evals + exchange + install).
void ObserveAllreduceUs(double us) {
  if (!obs::Enabled()) return;
  obs::MetricsRegistry::Global()
      .GetOrCreateLogHistogram("tracer_dist_allreduce_us")
      ->Observe(us);
}

/// Concatenates the gradients of `params` in parameter order. Variables
/// alias their tape node, so the value-copy below shares the gradient
/// storage with the optimizer's view.
std::vector<float> FlattenGrads(const std::vector<autograd::Variable>& params) {
  std::vector<float> flat;
  size_t total = 0;
  for (const autograd::Variable& p : params) {
    autograd::Variable v = p;
    total += static_cast<size_t>(v.grad().size());
  }
  flat.reserve(total);
  for (const autograd::Variable& p : params) {
    autograd::Variable v = p;
    const Tensor& g = v.grad();
    flat.insert(flat.end(), g.data(), g.data() + g.size());
  }
  return flat;
}

Status InstallGrads(const std::vector<autograd::Variable>& params,
                    const std::vector<float>& reduced) {
  size_t offset = 0;
  for (const autograd::Variable& p : params) {
    autograd::Variable v = p;
    Tensor& g = v.grad();
    const size_t n = static_cast<size_t>(g.size());
    if (offset + n > reduced.size()) {
      return Status::Internal("reduced gradient shorter than the model");
    }
    std::copy(reduced.begin() + static_cast<long>(offset),
              reduced.begin() + static_cast<long>(offset + n), g.data());
    offset += n;
  }
  if (offset != reduced.size()) {
    return Status::Internal("reduced gradient longer than the model");
  }
  return Status::OK();
}

Result<std::string> ReadFileBytes(const std::string& path) {
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr) {
    return Status::NotFound("run_state missing: " + path);
  }
  std::string bytes;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0) {
    bytes.append(buf, n);
  }
  const bool bad = std::ferror(in) != 0;
  std::fclose(in);
  if (bad) return Status::IOError("cannot read " + path);
  return bytes;
}

}  // namespace

SocketReducer::SocketReducer(DistConfig config) : config_(std::move(config)) {}

SocketReducer::~SocketReducer() {
  StopHeartbeat();
  if (conn_ != nullptr) {
    // Best-effort goodbye so the coordinator rebalances immediately
    // instead of waiting out the heartbeat timeout.
    TRACER_IGNORE_STATUS(
        conn_->SendFrame(MsgType::kLeave, "", config_.retry));
    conn_->Shutdown();
  }
}

void SocketReducer::StopHeartbeat() {
  {
    common::MutexLock lock(&hb_mu_);
    hb_stop_ = true;
    hb_cv_.NotifyAll();
  }
  if (heartbeat_.joinable()) heartbeat_.join();
}

void SocketReducer::HeartbeatLoop() {
  uint64_t seq = 0;
  for (;;) {
    {
      common::MutexLock lock(&hb_mu_);
      if (hb_stop_) return;
      hb_cv_.WaitFor(hb_mu_,
                     static_cast<int64_t>(config_.heartbeat_interval_ms) *
                         1000 * 1000);
      if (hb_stop_) return;
    }
    if (TRACER_FAULT_POINT("dist.heartbeat")) {
      continue;  // an injected dropped beat: the worker falls silent
    }
    PayloadWriter w;
    w.PutU64(seq++);
    // A failed heartbeat is not fatal here — the training thread sees the
    // broken connection on its next send/recv and surfaces the error.
    TRACER_IGNORE_STATUS(
        conn_->SendFrame(MsgType::kHeartbeat, w.Take(), config_.retry));
  }
}

Status SocketReducer::ParseAssign(const Frame& frame) {
  PayloadReader reader(frame.payload);
  uint32_t count = 0;
  TRACER_RETURN_IF_ERROR(reader.GetU32(&count));
  std::vector<int> shards;
  shards.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t s = 0;
    TRACER_RETURN_IF_ERROR(reader.GetU32(&s));
    shards.push_back(static_cast<int>(s));
  }
  shards_ = std::move(shards);
  return Status::OK();
}

Status SocketReducer::ServeSnapshot() {
  Result<std::string> bytes = ReadFileBytes(config_.run_state_path);
  if (!bytes.ok()) return bytes.status();
  return conn_->SendFrame(MsgType::kSnapshot, bytes.value(), config_.retry);
}

Status SocketReducer::Start(bool* resumed) {
  *resumed = false;
  num_shards_ = config_.shard_count();
  Result<std::unique_ptr<Conn>> connected =
      ConnectUds(config_.socket_path, config_.step_timeout_ms);
  if (!connected.ok()) return connected.status();
  conn_ = std::move(connected).value();
  TRACER_RETURN_IF_ERROR(
      conn_->SendFrame(MsgType::kJoin, "", config_.retry));
  Frame ack;
  TRACER_RETURN_IF_ERROR(
      conn_->RecvFrame(&ack, config_.step_timeout_ms, config_.retry));
  if (ack.type != MsgType::kJoinAck) {
    return Status::Internal("expected kJoinAck, got frame type " +
                            std::to_string(static_cast<int>(ack.type)));
  }
  PayloadReader reader(ack.payload);
  uint32_t shard_count32 = 0;
  uint8_t admitted_now = 0;
  TRACER_RETURN_IF_ERROR(reader.GetU32(&worker_id_));
  TRACER_RETURN_IF_ERROR(reader.GetU32(&shard_count32));
  TRACER_RETURN_IF_ERROR(reader.GetU8(&admitted_now));
  num_shards_ = static_cast<int>(shard_count32);
  heartbeat_ = std::thread([this] { HeartbeatLoop(); });
  if (admitted_now == 0) {
    TRACER_LOG(Info) << "dist worker " << worker_id_
                     << ": parked until the next epoch fence";
  }
  bool have_assign = false;
  bool have_snapshot = false;
  bool sent_fence = false;
  for (;;) {
    if (admitted_now != 0 && have_assign) return Status::OK();
    if (admitted_now == 0 && have_assign && have_snapshot && !sent_fence) {
      // The coordinator only checks that the joiner fenced; the epoch in
      // the payload is taken from the members.
      PayloadWriter w;
      w.PutU32(0);
      w.PutU8(0);
      TRACER_RETURN_IF_ERROR(
          conn_->SendFrame(MsgType::kFenceReady, w.Take(), config_.retry));
      sent_fence = true;
    }
    Frame frame;
    TRACER_RETURN_IF_ERROR(
        conn_->RecvFrame(&frame, config_.step_timeout_ms, config_.retry));
    switch (frame.type) {
      case MsgType::kAssign:
        TRACER_RETURN_IF_ERROR(ParseAssign(frame));
        have_assign = true;
        break;
      case MsgType::kSnapshot: {
        // Persist the donor's (epoch, 0) run_state; the caller resumes the
        // trainer from it so this worker enters lockstep at the fence.
        const std::string& payload = frame.payload;
        TRACER_RETURN_IF_ERROR(common::WriteFileAtomic(
            config_.run_state_path, [&payload](std::FILE* out) -> Status {
              if (!payload.empty() &&
                  std::fwrite(payload.data(), 1, payload.size(), out) !=
                      payload.size()) {
                return Status::IOError("short snapshot write");
              }
              return Status::OK();
            }));
        have_snapshot = true;
        break;
      }
      case MsgType::kFenceGo:
        if (!have_assign || !have_snapshot) {
          return Status::Internal(
              "fence released before admission completed");
        }
        *resumed = true;
        TRACER_LOG(Info) << "dist worker " << worker_id_
                         << ": admitted at the fence with "
                         << shards_.size() << " shards";
        return Status::OK();
      case MsgType::kEvicted:
        return Status::Unavailable("evicted by coordinator: " +
                                   frame.payload);
      case MsgType::kAbort:
        return Status::Internal("run aborted: " + frame.payload);
      default:
        break;
    }
  }
}

Status SocketReducer::EvalAndSendShards(
    uint64_t step_id, const std::vector<int>& batch_indices,
    const std::vector<autograd::Variable>& params,
    const std::function<float(const std::vector<int>&)>& eval,
    const std::vector<int>& shard_set) {
  // Ascending shard order keeps the wire traffic canonical; the reduction
  // order is fixed by the coordinator regardless.
  std::vector<int> ordered = shard_set;
  std::sort(ordered.begin(), ordered.end());
  for (int s : ordered) {
    const std::vector<int> slice =
        data::ShardSlice(batch_indices, s, num_shards_);
    PayloadWriter w;
    w.PutU64(step_id);
    w.PutU32(static_cast<uint32_t>(s));
    if (slice.empty()) {
      // Fewer examples than shards this batch: an empty slice contributes
      // nothing, but the coordinator still needs the shard accounted for.
      w.PutF32(0.0f);
      w.PutF32(0.0f);
      w.PutF32Vector({});
    } else {
      const float loss = eval(slice);
      const float weight = static_cast<float>(slice.size()) /
                           static_cast<float>(batch_indices.size());
      w.PutF32(weight);
      w.PutF32(loss);
      w.PutF32Vector(FlattenGrads(params));
    }
    TRACER_RETURN_IF_ERROR(
        conn_->SendFrame(MsgType::kShardGrad, w.Take(), config_.retry));
  }
  return Status::OK();
}

Result<float> SocketReducer::ReduceStep(
    uint64_t step_id, const std::vector<int>& batch_indices,
    const std::vector<autograd::Variable>& params,
    const std::function<float(const std::vector<int>&)>& eval) {
  TRACER_SPAN("dist.allreduce");
  const auto start = std::chrono::steady_clock::now();
  TRACER_RETURN_IF_ERROR(
      EvalAndSendShards(step_id, batch_indices, params, eval, shards_));
  for (;;) {
    Frame frame;
    TRACER_RETURN_IF_ERROR(
        conn_->RecvFrame(&frame, config_.step_timeout_ms, config_.retry));
    switch (frame.type) {
      case MsgType::kRecompute: {
        // A peer's shards were orphaned or stalled; cover them. The result
        // is bitwise identical to what the peer would have sent.
        PayloadReader r(frame.payload);
        uint64_t step = 0;
        uint32_t count = 0;
        TRACER_RETURN_IF_ERROR(r.GetU64(&step));
        TRACER_RETURN_IF_ERROR(r.GetU32(&count));
        std::vector<int> extra;
        extra.reserve(count);
        for (uint32_t i = 0; i < count; ++i) {
          uint32_t s = 0;
          TRACER_RETURN_IF_ERROR(r.GetU32(&s));
          extra.push_back(static_cast<int>(s));
        }
        if (step == step_id) {
          TRACER_RETURN_IF_ERROR(
              EvalAndSendShards(step_id, batch_indices, params, eval, extra));
        }
        break;
      }
      case MsgType::kAssign:
        TRACER_RETURN_IF_ERROR(ParseAssign(frame));
        break;
      case MsgType::kReduced: {
        PayloadReader r(frame.payload);
        uint64_t step = 0;
        float loss = 0.0f;
        std::vector<float> grad;
        TRACER_RETURN_IF_ERROR(r.GetU64(&step));
        TRACER_RETURN_IF_ERROR(r.GetF32(&loss));
        TRACER_RETURN_IF_ERROR(r.GetF32Vector(&grad));
        if (step < step_id) break;  // stale broadcast from before a resume
        if (step != step_id) {
          return Status::Internal("reduced step mismatch: got " +
                                  std::to_string(step) + ", expected " +
                                  std::to_string(step_id));
        }
        TRACER_RETURN_IF_ERROR(InstallGrads(params, grad));
        ObserveAllreduceUs(static_cast<double>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - start)
                .count()));
        return loss;
      }
      case MsgType::kEvicted:
        return Status::Unavailable("evicted by coordinator: " +
                                   frame.payload);
      case MsgType::kAbort:
        return Status::Internal("run aborted: " + frame.payload);
      default:
        break;
    }
  }
}

Status SocketReducer::EpochFence(int next_epoch, bool stopping) {
  TRACER_SPAN("dist.sync");
  PayloadWriter w;
  w.PutU32(static_cast<uint32_t>(next_epoch));
  w.PutU8(stopping ? 1 : 0);
  TRACER_RETURN_IF_ERROR(
      conn_->SendFrame(MsgType::kFenceReady, w.Take(), config_.retry));
  for (;;) {
    Frame frame;
    TRACER_RETURN_IF_ERROR(
        conn_->RecvFrame(&frame, config_.step_timeout_ms, config_.retry));
    switch (frame.type) {
      case MsgType::kSnapshotRequest:
        // A joiner is being admitted; serve our just-written (next_epoch,
        // batch 0) run_state as its starting point.
        TRACER_RETURN_IF_ERROR(ServeSnapshot());
        break;
      case MsgType::kAssign:
        TRACER_RETURN_IF_ERROR(ParseAssign(frame));
        break;
      case MsgType::kFenceGo: {
        PayloadReader r(frame.payload);
        uint32_t epoch = 0;
        uint8_t stop = 0;
        TRACER_RETURN_IF_ERROR(r.GetU32(&epoch));
        TRACER_RETURN_IF_ERROR(r.GetU8(&stop));
        if ((stop != 0) != stopping) {
          return Status::Internal(
              "stop decision diverged at the fence: local " +
              std::to_string(stopping) + ", ensemble " +
              std::to_string(stop));
        }
        return Status::OK();
      }
      case MsgType::kEvicted:
        return Status::Unavailable("evicted by coordinator: " +
                                   frame.payload);
      case MsgType::kAbort:
        return Status::Internal("run aborted: " + frame.payload);
      default:
        break;  // stale kReduced/kRecompute racing the fence
    }
  }
}

Result<train::TrainResult> RunElasticWorker(
    nn::SequenceModel* model, const data::TimeSeriesDataset& train_set,
    const data::TimeSeriesDataset& val_set, train::TrainConfig config,
    train::CheckpointOptions checkpoint, const DistConfig& dist) {
  SocketReducer reducer(dist);
  bool resumed = false;
  TRACER_RETURN_IF_ERROR(reducer.Start(&resumed));
  config.grad_reducer = &reducer;
  checkpoint.path = dist.run_state_path;
  // Snapshots are served from run_state files, so they must sit at epoch
  // fences — a mid-epoch cursor would desynchronize a joiner.
  checkpoint.every_batches = 0;
  train::Trainer trainer(config, checkpoint);
  if (!resumed) {
    // A surviving run_state with no snapshot means the whole ensemble was
    // restarted (e.g. the coordinator died): every worker resumes from its
    // own last fence and the run continues bit-identically.
    std::FILE* existing = std::fopen(dist.run_state_path.c_str(), "rb");
    if (existing != nullptr) {
      std::fclose(existing);
      resumed = true;
    }
  }
  if (resumed) {
    return trainer.Resume(model, train_set, val_set);
  }
  return trainer.Fit(model, train_set, val_set);
}

}  // namespace dist
}  // namespace tracer
