#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include <cmath>

#include "autograd/variable.h"
#include "common/macros.h"
#include "fault/fault.h"
#include "interpret/adapters.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "tensor/tensor_ops.h"

namespace tracer {
namespace serve {

namespace {

ServeOptions Sanitize(ServeOptions options) {
  options.max_batch_size = std::max(1, options.max_batch_size);
  options.queue_capacity = std::max(1, options.queue_capacity);
  options.num_workers = std::max(1, options.num_workers);
  options.max_queue_delay_us = std::max<int64_t>(0, options.max_queue_delay_us);
  return options;
}

std::chrono::steady_clock::time_point ToTimePoint(uint64_t ns) {
  return std::chrono::steady_clock::time_point(
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::nanoseconds(ns)));
}

// --- obs probes (no-ops unless the runtime switch is on) -----------------

void RecordAdmitted() {
  if (!obs::Enabled()) return;
  static obs::Counter* requests =
      obs::MetricsRegistry::Global().GetOrCreateCounter(
          "tracer_serve_requests_total");
  requests->Increment();
}

void RecordShed() {
  if (!obs::Enabled()) return;
  static obs::Counter* shed =
      obs::MetricsRegistry::Global().GetOrCreateCounter(
          "tracer_serve_shed_total");
  shed->Increment();
}

void RecordExpired() {
  if (!obs::Enabled()) return;
  static obs::Counter* expired =
      obs::MetricsRegistry::Global().GetOrCreateCounter(
          "tracer_serve_expired_total");
  expired->Increment();
}

void RecordQueueDepth(size_t depth) {
  if (!obs::Enabled()) return;
  static obs::Gauge* gauge =
      obs::MetricsRegistry::Global().GetOrCreateGauge(
          "tracer_serve_queue_depth");
  gauge->Set(static_cast<double>(depth));
}

void RecordBatch(int batch_size) {
  if (!obs::Enabled()) return;
  static obs::Counter* batches =
      obs::MetricsRegistry::Global().GetOrCreateCounter(
          "tracer_serve_batches_total");
  static obs::LogHistogram* sizes =
      obs::MetricsRegistry::Global().GetOrCreateLogHistogram(
          "tracer_serve_batch_size");
  batches->Increment();
  sizes->Observe(static_cast<double>(batch_size));
}

void RecordBreakerOpen() {
  if (!obs::Enabled()) return;
  static obs::Counter* opens =
      obs::MetricsRegistry::Global().GetOrCreateCounter(
          "tracer_serve_breaker_open_total");
  opens->Increment();
  // A breaker opening is the serving layer's incident signal: capture the
  // span ring + metrics now, while the evidence is still in the buffers.
  obs::TriggerFlightDump("breaker_open");
}

void RecordBreakerProbe() {
  if (!obs::Enabled()) return;
  static obs::Counter* probes =
      obs::MetricsRegistry::Global().GetOrCreateCounter(
          "tracer_serve_breaker_probes_total");
  probes->Increment();
}

void RecordDegraded(int count) {
  if (!obs::Enabled()) return;
  static obs::Counter* degraded =
      obs::MetricsRegistry::Global().GetOrCreateCounter(
          "tracer_serve_degraded_total");
  degraded->Increment(count);
}

/// A replica that emits NaN/Inf is as broken as one that throws: the score
/// is unusable for alerting, so it counts as a scoring failure.
bool AllFinite(const Tensor& scores) {
  for (int64_t i = 0; i < scores.size(); ++i) {
    if (!std::isfinite(scores[i])) return false;
  }
  return true;
}

void RecordServed(const ServeResponse& response, bool alert) {
  if (!obs::Enabled()) return;
  static obs::Counter* alerts =
      obs::MetricsRegistry::Global().GetOrCreateCounter(
          "tracer_serve_alerts_total");
  if (alert) alerts->Increment();
  // Per-stage tail-latency breakdown in log-bucketed histograms, with the
  // request's trace id as exemplar so a p99 bucket names a concrete trace.
  static obs::LogHistogram* queue_wait =
      obs::MetricsRegistry::Global().GetOrCreateLogHistogram(
          "tracer_serve_queue_wait_ns");
  static obs::LogHistogram* batch_wait =
      obs::MetricsRegistry::Global().GetOrCreateLogHistogram(
          "tracer_serve_batch_wait_ns");
  static obs::LogHistogram* compute =
      obs::MetricsRegistry::Global().GetOrCreateLogHistogram(
          "tracer_serve_compute_ns");
  static obs::LogHistogram* total =
      obs::MetricsRegistry::Global().GetOrCreateLogHistogram(
          "tracer_serve_total_ns");
  queue_wait->Observe(static_cast<double>(response.queue_ns),
                      response.trace_id);
  batch_wait->Observe(static_cast<double>(response.batch_ns),
                      response.trace_id);
  compute->Observe(static_cast<double>(response.compute_ns),
                   response.trace_id);
  total->Observe(static_cast<double>(response.total_ns), response.trace_id);
}

void RecordExplained(uint64_t explain_ns, uint64_t trace_id) {
  if (!obs::Enabled()) return;
  static obs::Counter* requests =
      obs::MetricsRegistry::Global().GetOrCreateCounter(
          "tracer_interpret_requests_total");
  static obs::LogHistogram* latency =
      obs::MetricsRegistry::Global().GetOrCreateLogHistogram(
          "tracer_interpret_latency_ns");
  requests->Increment();
  latency->Observe(static_cast<double>(explain_ns), trace_id);
}

void RecordExplainFailure() {
  if (!obs::Enabled()) return;
  static obs::Counter* failures =
      obs::MetricsRegistry::Global().GetOrCreateCounter(
          "tracer_interpret_failures_total");
  failures->Increment();
}

}  // namespace

InferenceServer::InferenceServer(ModelRegistry* registry, ServeOptions options)
    : registry_(registry), options_(Sanitize(options)) {
  TRACER_CHECK(registry_ != nullptr);
  breakers_.reserve(options_.num_workers);
  for (int i = 0; i < options_.num_workers; ++i) {
    breakers_.push_back(std::make_unique<CircuitBreaker>(options_.breaker));
  }
  pool_ = std::make_unique<parallel::ThreadPool>(options_.num_workers);
  scheduler_ = std::thread([this] { SchedulerLoop(); });
}

InferenceServer::~InferenceServer() { Shutdown(); }

std::future<ServeResponse> InferenceServer::Submit(ServeRequest request) {
  return SubmitInternal(std::move(request), /*explain=*/false, ExplainSpec{});
}

std::future<ServeResponse> InferenceServer::SubmitExplain(ServeRequest request,
                                                          ExplainSpec spec) {
  if (spec.baseline == interpret::BaselineKind::kPopulationMean) {
    std::promise<ServeResponse> promise;
    ServeResponse response;
    response.status = Status::InvalidArgument(
        "population-mean baseline needs a fitted reference cohort, which "
        "the serving process does not hold");
    promise.set_value(std::move(response));
    return promise.get_future();
  }
  spec.ig_steps = std::min(128, std::max(1, spec.ig_steps));
  return SubmitInternal(std::move(request), /*explain=*/true, spec);
}

ServeResponse InferenceServer::Explain(ServeRequest request,
                                       ExplainSpec spec) {
  return SubmitExplain(std::move(request), spec).get();
}

std::future<ServeResponse> InferenceServer::SubmitInternal(
    ServeRequest request, bool explain, ExplainSpec spec) {
  std::promise<ServeResponse> promise;
  std::future<ServeResponse> future = promise.get_future();

  // Shape validation up front so malformed input never reaches a batch.
  bool well_formed = !request.windows.empty();
  const size_t dim = well_formed ? request.windows.front().size() : 0;
  if (dim == 0) well_formed = false;
  for (const std::vector<float>& window : request.windows) {
    if (window.size() != dim) well_formed = false;
  }
  if (!well_formed) {
    ServeResponse response;
    response.status = Status::InvalidArgument(
        "request windows must be non-empty and rectangular");
    promise.set_value(std::move(response));
    return future;
  }

  // Admission is where a request's trace is rooted: join the trace the
  // caller shipped in the request (cross-thread) or the caller's ambient
  // trace (same thread), else mint a fresh one. The root "serve.request"
  // span id is pre-minted here so every stage span — recorded later on the
  // scheduler and worker threads — parents under it.
  obs::TraceContext trace;
  uint64_t parent_span_id = 0;
  if (obs::Enabled()) {
    const obs::TraceContext ambient = obs::CurrentTraceContext();
    if (request.trace.active()) {
      trace.trace_id = request.trace.trace_id;
      parent_span_id = request.trace.span_id;
    } else if (ambient.active()) {
      trace.trace_id = ambient.trace_id;
      parent_span_id = ambient.span_id;
    } else {
      trace.trace_id = obs::NewTraceId();
    }
    trace.span_id = obs::NextSpanId();
  }

  const uint64_t now = obs::MonotonicNowNs();
  Status reject;
  {
    common::MutexLock lock(&mutex_);
    if (stop_) {
      reject = Status::Unavailable("server shutting down");
    } else if (static_cast<int>(queue_.size()) >= options_.queue_capacity) {
      reject = Status::Unavailable("admission queue full");
    } else {
      Pending pending;
      pending.request = std::move(request);
      pending.promise = std::move(promise);
      pending.enqueue_ns = now;
      pending.trace = trace;
      pending.parent_span_id = parent_span_id;
      pending.explain = explain;
      pending.spec = spec;
      queue_.push_back(std::move(pending));
      accepted_.fetch_add(1, std::memory_order_relaxed);
      UpdateQueueDepthLocked();
    }
  }
  if (reject.ok()) {
    RecordAdmitted();
    scheduler_cv_.NotifyOne();
  } else {
    // Backpressure: shed immediately instead of blocking the producer.
    shed_.fetch_add(1, std::memory_order_relaxed);
    RecordShed();
    ServeResponse response;
    response.status = std::move(reject);
    promise.set_value(std::move(response));
  }
  return future;
}

ServeResponse InferenceServer::Infer(ServeRequest request) {
  return Submit(std::move(request)).get();
}

void InferenceServer::CollectExpiredLocked(uint64_t now_ns,
                                           std::vector<Pending>* out) {
  for (auto it = queue_.begin(); it != queue_.end();) {
    if (it->request.deadline_ns != 0 && it->request.deadline_ns <= now_ns) {
      out->push_back(std::move(*it));
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
  if (!out->empty()) UpdateQueueDepthLocked();
}

void InferenceServer::SchedulerLoop() {
  const uint64_t delay_ns =
      static_cast<uint64_t>(options_.max_queue_delay_us) * 1000;
  // Hand-over-hand locking, spelled as explicit Lock/Unlock so the
  // thread-safety analysis can verify it: the lock is held at the top of
  // every loop iteration and released around promise completion, registry
  // snapshot capture and pool dispatch (all of which run foreign code —
  // future continuations, registry locks — that must never execute under
  // the admission lock).
  mutex_.Lock();
  while (true) {
    while (!stop_ && queue_.empty()) scheduler_cv_.Wait(mutex_);
    if (stop_) break;

    // Expired requests complete with kDeadlineExceeded instead of occupying
    // batch slots — including ones buried behind other window lengths.
    const uint64_t now = obs::MonotonicNowNs();
    std::vector<Pending> timed_out;
    CollectExpiredLocked(now, &timed_out);
    if (!timed_out.empty()) {
      mutex_.Unlock();
      for (Pending& pending : timed_out) {
        expired_.fetch_add(1, std::memory_order_relaxed);
        RecordExpired();
        ServeResponse response;
        response.status =
            Status::DeadlineExceeded("deadline expired in queue");
        CompleteOne(&pending, std::move(response));
      }
      mutex_.Lock();
      continue;
    }
    if (queue_.empty()) continue;

    // Batch formation: the oldest request anchors the batch; only requests
    // with the same window count can ride along (TITV consumes rectangular
    // T×D batches), and explain requests only batch with explain requests
    // of the identical spec (a batch computes one attribution pass).
    const size_t num_windows = queue_.front().request.windows.size();
    const bool explain_batch = queue_.front().explain;
    const ExplainSpec anchor_spec = queue_.front().spec;
    auto compatible = [&](const Pending& pending) {
      if (pending.request.windows.size() != num_windows) return false;
      if (pending.explain != explain_batch) return false;
      if (!explain_batch) return true;
      return pending.spec.method == anchor_spec.method &&
             pending.spec.ig_steps == anchor_spec.ig_steps &&
             pending.spec.baseline == anchor_spec.baseline;
    };
    const uint64_t close_ns = queue_.front().enqueue_ns + delay_ns;
    int ready = 0;
    uint64_t earliest_deadline = close_ns;
    for (const Pending& pending : queue_) {
      if (compatible(pending)) ++ready;
      if (pending.request.deadline_ns != 0) {
        earliest_deadline =
            std::min(earliest_deadline, pending.request.deadline_ns);
      }
    }
    const bool full = ready >= options_.max_batch_size;
    const bool aged = obs::MonotonicNowNs() >= close_ns;
    const bool idle_close =
        options_.close_on_idle && in_flight_batches_ < options_.num_workers;
    if (!full && !aged && !idle_close) {
      // Wait for the batch to fill, the age window to lapse, a deadline to
      // fire, or a worker to drain; then re-evaluate from scratch.
      scheduler_cv_.WaitUntil(mutex_, ToTimePoint(earliest_deadline));
      if (stop_) break;
      continue;
    }

    auto work = std::make_shared<BatchWork>();
    work->requests.reserve(
        std::min<size_t>(ready, options_.max_batch_size));
    const uint64_t form_ns = obs::MonotonicNowNs();
    std::vector<Pending> late;
    for (auto it = queue_.begin();
         it != queue_.end() &&
         static_cast<int>(work->requests.size()) < options_.max_batch_size;) {
      if (!compatible(*it)) {
        ++it;
        continue;
      }
      if (it->request.deadline_ns != 0 && it->request.deadline_ns <= form_ns) {
        late.push_back(std::move(*it));
      } else {
        work->requests.push_back(std::move(*it));
      }
      it = queue_.erase(it);
    }
    UpdateQueueDepthLocked();
    const bool dispatch = !work->requests.empty();
    if (dispatch) {
      work->close_ns = form_ns;
      ++in_flight_batches_;
    }
    mutex_.Unlock();

    if (dispatch) {
      // Snapshot capture runs outside the critical section: live() and
      // fallback() take the registry's own mutex, and holding the admission
      // lock across that foreign acquisition stalled every producer during
      // a hot-swap (annotation-sweep finding, see DESIGN.md "Static
      // analysis"). The batch's requests are already claimed off the queue,
      // so per-batch snapshot consistency is unchanged.
      work->snapshot = registry_->live();
      work->fallback = registry_->fallback();
    }
    for (Pending& pending : late) {
      expired_.fetch_add(1, std::memory_order_relaxed);
      RecordExpired();
      ServeResponse response;
      response.status = Status::DeadlineExceeded("deadline expired in queue");
      CompleteOne(&pending, std::move(response));
    }
    if (dispatch) {
      batches_.fetch_add(1, std::memory_order_relaxed);
      const auto size = static_cast<int64_t>(work->requests.size());
      if (size > max_batch_.load(std::memory_order_relaxed)) {
        max_batch_.store(size, std::memory_order_relaxed);
      }
      RecordBatch(static_cast<int>(size));
      const bool submitted =
          !TRACER_FAULT_POINT("serve.dispatch") &&
          pool_->Submit([this, work] { RunBatch(work); });
      if (!submitted) {
        // Reachable if the pool is torn down mid-dispatch (or chaos
        // injection severs the hand-off); fail the batch rather than
        // orphan the promises.
        for (Pending& pending : work->requests) {
          ServeResponse response;
          response.status = Status::Unavailable("server shutting down");
          CompleteOne(&pending, std::move(response));
        }
        common::MutexLock relock(&mutex_);
        --in_flight_batches_;
      }
    }
    mutex_.Lock();
  }
  mutex_.Unlock();
}

CircuitBreaker& InferenceServer::BreakerForThisThread() {
  // Pool threads are created per server and outlive every batch, so a
  // once-per-thread slot assignment pins each worker to its own breaker.
  thread_local int slot = -1;
  if (slot < 0) {
    slot = breaker_slots_.fetch_add(1, std::memory_order_relaxed) %
           static_cast<int>(breakers_.size());
  }
  return *breakers_[slot];
}

void InferenceServer::RunBatch(const std::shared_ptr<BatchWork>& work) {
  TRACER_SPAN("serve.batch");
  // Worker pickup time: close→pickup is the batch-wait stage of every
  // request in this batch, pickup→scores-ready its compute stage.
  const uint64_t exec_ns = obs::MonotonicNowNs();
  // Per-worker replicas of the batch's primary and fallback snapshots,
  // rebuilt only when the snapshot changes. Each pool thread owns its
  // replicas outright, so concurrent batches never share autograd state;
  // the shared_ptrs keep the cached snapshots alive across hot-swaps.
  thread_local std::shared_ptr<const ModelSnapshot> cached_snapshot;
  thread_local std::unique_ptr<core::Titv> replica;
  thread_local std::shared_ptr<const ModelSnapshot> cached_fallback;
  thread_local std::unique_ptr<core::Titv> fallback_replica;

  const std::shared_ptr<const ModelSnapshot>& snapshot = work->snapshot;
  std::vector<Pending*> scorable;
  scorable.reserve(work->requests.size());
  for (Pending& pending : work->requests) {
    if (snapshot == nullptr) {
      ServeResponse response;
      response.status = Status::FailedPrecondition("no model published");
      CompleteOne(&pending, std::move(response));
    } else if (static_cast<int>(pending.request.windows.front().size()) !=
               snapshot->config.input_dim) {
      ServeResponse response;
      response.status = Status::InvalidArgument(
          "request feature dim does not match the served model");
      CompleteOne(&pending, std::move(response));
    } else {
      scorable.push_back(&pending);
    }
  }

  if (!scorable.empty()) {
    const int batch_size = static_cast<int>(scorable.size());
    const int num_windows =
        static_cast<int>(scorable.front()->request.windows.size());
    const int dim = snapshot->config.input_dim;
    std::vector<autograd::Variable> xs;
    xs.reserve(num_windows);
    for (int t = 0; t < num_windows; ++t) {
      Tensor x({batch_size, dim});
      for (int b = 0; b < batch_size; ++b) {
        const std::vector<float>& window = scorable[b]->request.windows[t];
        for (int j = 0; j < dim; ++j) x.at(b, j) = window[j];
      }
      xs.push_back(autograd::Variable::Constant(std::move(x)));
    }

    auto score_with = [&](const ModelSnapshot& model, core::Titv* titv) {
      autograd::Variable raw = titv->Forward(xs);
      return options_.classification
                 ? tracer::Sigmoid(raw.value())
                 : tracer::AddScalar(
                       tracer::Scale(raw.value(), model.output_scale),
                       model.output_offset);
    };

    CircuitBreaker& breaker = BreakerForThisThread();
    const int64_t probes_before = breaker.probes();
    const bool try_primary = breaker.Allow(obs::MonotonicNowNs());
    if (breaker.probes() > probes_before) RecordBreakerProbe();

    bool primary_ok = false;
    Tensor scores;
    if (try_primary) {
      bool failed = TRACER_FAULT_POINT("serve.score");
      if (!failed) {
        if (cached_snapshot.get() != snapshot.get()) {
          replica = snapshot->NewReplica();
          cached_snapshot = snapshot;
        }
        // Forward-only scoring; identical math to SequenceModel::Predict,
        // so a batched row is bit-identical to the same sample scored
        // alone.
        scores = score_with(*snapshot, replica.get());
        failed = !AllFinite(scores);
      }
      const uint64_t done_ns = obs::MonotonicNowNs();
      bool budget_exhausted = false;
      if (!failed && options_.breaker_on_deadline_budget) {
        for (const Pending* pending : scorable) {
          const uint64_t deadline = pending->request.deadline_ns;
          if (deadline != 0 && deadline <= done_ns) {
            budget_exhausted = true;
            break;
          }
        }
      }
      if (failed || budget_exhausted) {
        const int64_t opens_before = breaker.opens();
        breaker.RecordFailure(done_ns);
        if (breaker.opens() > opens_before) {
          breaker_opens_.fetch_add(1, std::memory_order_relaxed);
          RecordBreakerOpen();
        }
      } else {
        breaker.RecordSuccess();
      }
      // Deadline-budget exhaustion degrades *future* batches; this one
      // still carries valid scores and completes normally.
      primary_ok = !failed;
    }

    const std::shared_ptr<const ModelSnapshot>& fallback = work->fallback;
    bool degraded = false;
    if (!primary_ok && fallback != nullptr &&
        fallback->config.input_dim == dim) {
      if (cached_fallback.get() != fallback.get()) {
        fallback_replica = fallback->NewReplica();
        cached_fallback = fallback;
      }
      scores = score_with(*fallback, fallback_replica.get());
      degraded = AllFinite(scores);
    }

    if (primary_ok || degraded) {
      const ModelSnapshot& scored_by = degraded ? *fallback : *snapshot;
      if (degraded) {
        degraded_.fetch_add(batch_size, std::memory_order_relaxed);
        RecordDegraded(batch_size);
      }
      const uint64_t scored_ns = obs::MonotonicNowNs();

      // Explain batches attribute against the exact replica that produced
      // the scores — the per-batch snapshot — so a hot-swap between scoring
      // and attribution can never mix model versions in one response.
      const bool explain_batch = scorable.front()->explain;
      interpret::AttributionResult attribution;
      std::vector<char> explain_late;
      bool explain_ok = false;
      uint64_t explain_t0 = 0;
      uint64_t explain_t1 = 0;
      if (explain_batch) {
        explain_t0 = scored_ns;
        explain_late.assign(batch_size, 0);
        bool any_live = false;
        for (int b = 0; b < batch_size; ++b) {
          const uint64_t deadline = scorable[b]->request.deadline_ns;
          if (deadline != 0 && deadline <= explain_t0) {
            explain_late[b] = 1;
          } else {
            any_live = true;
          }
        }
        // Requests already past their deadline complete below with
        // kDeadlineExceeded instead of paying for attributions they cannot
        // use; when the whole batch is late the pass is skipped outright.
        if (any_live && !TRACER_FAULT_POINT("interpret.explain")) {
          core::Titv* model =
              degraded ? fallback_replica.get() : replica.get();
          const ExplainSpec& spec = scorable.front()->spec;
          std::vector<Tensor> windows;
          windows.reserve(xs.size());
          for (const autograd::Variable& x : xs) {
            windows.push_back(x.value());
          }
          interpret::BaselineBuilder baseline(spec.baseline);
          switch (spec.method) {
            case interpret::Method::kTitvNative: {
              interpret::TitvAttributor attributor(model,
                                                   options_.classification);
              attribution = attributor.Attribute(windows);
              break;
            }
            case interpret::Method::kIntegratedGradients: {
              interpret::ModelScorer scorer =
                  interpret::WrapSequenceModel(model);
              interpret::IntegratedGradientsOptions ig;
              ig.steps = spec.ig_steps;
              interpret::IntegratedGradients attributor(
                  scorer.tape, std::move(baseline), ig, scorer.reset);
              attribution = attributor.Attribute(windows);
              break;
            }
            case interpret::Method::kOcclusion: {
              interpret::ModelScorer scorer =
                  interpret::WrapSequenceModel(model);
              interpret::Occlusion attributor(scorer.score,
                                              std::move(baseline));
              attribution = attributor.Attribute(windows);
              break;
            }
          }
          explain_ok =
              static_cast<int>(attribution.samples.size()) == batch_size;
        }
        explain_t1 = obs::MonotonicNowNs();
        if (obs::Enabled() && explain_ok) {
          for (int b = 0; b < batch_size; ++b) {
            if (explain_late[b] || !scorable[b]->trace.active()) continue;
            obs::RecordSpan("interpret.explain", "serve.request",
                            scorable[b]->trace.trace_id, obs::NextSpanId(),
                            scorable[b]->trace.span_id, explain_t0,
                            explain_t1, 1);
          }
        }
      }

      for (int b = 0; b < batch_size; ++b) {
        if (explain_batch && explain_late[b]) {
          ServeResponse response;
          response.status = Status::DeadlineExceeded(
              "deadline expired before attribution");
          CompleteOne(scorable[b], std::move(response));
          continue;
        }
        if (explain_batch && !explain_ok) {
          RecordExplainFailure();
          ServeResponse response;
          response.status = Status::Unavailable("attribution pass failed");
          CompleteOne(scorable[b], std::move(response));
          continue;
        }
        ServeResponse response;
        response.decision.probability = scores.at(b, 0);
        response.decision.alert =
            options_.classification &&
            response.decision.probability >= options_.alert_threshold;
        response.model_version = scored_by.version;
        response.batch_size = batch_size;
        response.degraded = degraded;
        response.queue_ns = work->close_ns - scorable[b]->enqueue_ns;
        response.batch_ns =
            exec_ns > work->close_ns ? exec_ns - work->close_ns : 0;
        response.compute_ns = scored_ns > exec_ns ? scored_ns - exec_ns : 0;
        if (explain_batch) {
          response.attributions = std::move(attribution.samples[b].fi);
          response.attribution_method =
              interpret::MethodName(scorable.front()->spec.method);
          RecordExplained(explain_t1 - explain_t0,
                          scorable[b]->trace.trace_id);
        }
        CompleteOne(scorable[b], std::move(response));
      }
    } else {
      for (Pending* pending : scorable) {
        ServeResponse response;
        response.status = Status::Unavailable(
            "primary replica unhealthy and no usable fallback model");
        CompleteOne(pending, std::move(response));
      }
    }
  }

  {
    common::MutexLock lock(&mutex_);
    --in_flight_batches_;
  }
  // A drained worker may allow the scheduler to close a partial batch.
  scheduler_cv_.NotifyOne();
}

void InferenceServer::CompleteOne(Pending* pending, ServeResponse response) {
  response.total_ns = obs::MonotonicNowNs() - pending->enqueue_ns;
  response.trace_id = pending->trace.trace_id;
  if (obs::Enabled() && pending->trace.active()) {
    // Stitch this request's tree from the breakdown timestamps. Stage
    // begin/end happened on three different threads (submitter, scheduler,
    // worker), so spans are recorded here explicitly under the root span id
    // pre-minted at admission rather than via thread-ambient nesting.
    const uint64_t tid = pending->trace.trace_id;
    const uint64_t root = pending->trace.span_id;
    const uint64_t t0 = pending->enqueue_ns;
    const uint64_t end_ns = t0 + response.total_ns;
    if (response.status.ok() && response.compute_ns > 0) {
      const uint64_t close = t0 + response.queue_ns;
      const uint64_t pickup = close + response.batch_ns;
      const uint64_t scored = pickup + response.compute_ns;
      obs::RecordSpan("serve.queue", "serve.request", tid, obs::NextSpanId(),
                      root, t0, close, 1);
      obs::RecordSpan("serve.batch_wait", "serve.request", tid,
                      obs::NextSpanId(), root, close, pickup, 1);
      obs::RecordSpan("serve.score", "serve.request", tid, obs::NextSpanId(),
                      root, pickup, scored, 1);
    }
    obs::RecordSpan("serve.request", "", tid, root, pending->parent_span_id,
                    t0, end_ns, 0);
  }
  if (response.status.ok()) {
    completed_.fetch_add(1, std::memory_order_relaxed);
    RecordServed(response, response.decision.alert);
  } else {
    failed_.fetch_add(1, std::memory_order_relaxed);
  }
  pending->promise.set_value(std::move(response));
}

void InferenceServer::UpdateQueueDepthLocked() {
  RecordQueueDepth(queue_.size());
}

void InferenceServer::Shutdown() {
  {
    common::MutexLock lock(&mutex_);
    stop_ = true;
    if (shutdown_done_) return;
    shutdown_done_ = true;
  }
  scheduler_cv_.NotifyAll();
  if (scheduler_.joinable()) scheduler_.join();
  // Drains batches already handed to the workers; their futures complete
  // normally.
  pool_->Shutdown();
  // Whatever is still queued was never dispatched; complete it rather than
  // break the promises.
  std::deque<Pending> leftover;
  {
    common::MutexLock lock(&mutex_);
    leftover.swap(queue_);
    UpdateQueueDepthLocked();
  }
  for (Pending& pending : leftover) {
    ServeResponse response;
    response.status = Status::Unavailable("server shutting down");
    CompleteOne(&pending, std::move(response));
  }
}

InferenceServer::Stats InferenceServer::stats() const {
  Stats out;
  out.accepted = accepted_.load(std::memory_order_relaxed);
  out.shed = shed_.load(std::memory_order_relaxed);
  out.expired = expired_.load(std::memory_order_relaxed);
  out.completed = completed_.load(std::memory_order_relaxed);
  out.failed = failed_.load(std::memory_order_relaxed);
  out.batches = batches_.load(std::memory_order_relaxed);
  out.max_batch = max_batch_.load(std::memory_order_relaxed);
  out.degraded = degraded_.load(std::memory_order_relaxed);
  out.breaker_opens = breaker_opens_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace serve
}  // namespace tracer
