// serve_mix: an open-loop Poisson stream of score and explain requests into
// one InferenceServer, every answer re-derived offline and compared bitwise.

#include <algorithm>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "checks.h"
#include "cohort.h"
#include "core/titv.h"
#include "layers.h"
#include "obs/autograd_profiler.h"
#include "obs/obs.h"
#include "parallel/parallel_for.h"
#include "schedule.h"
#include "serve/model_registry.h"
#include "serve/server.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

using tracer::obs::MonotonicNowNs;

/// Patients come from the test split of this NUH-AKI cohort (T=7, D=31).
const CohortSpec kServeCohort = {false, 1000, 800, 100};
constexpr int kModelDim = 16;
constexpr int kIgSteps = 8;
constexpr double kScoreSloMs = 10.0;
constexpr double kExplainSloMs = 25.0;
/// A request still queued this long after it was due expires. Far above
/// the SLOs, so expiry only shows a server that has stopped keeping up.
constexpr uint64_t kExpiryNs = 1000000000ull;
/// Warm-up traffic before timing: replicas built on both workers, first
/// batches of every history length run, allocator and caches warm.
constexpr double kWarmupSeconds = 1.0;
/// The generator spins for the last this-many ns before a request is due.
constexpr uint64_t kSpinNs = 150000;
/// Payloads are built this many requests ahead of the one being sent, in
/// the generator's slack between sends, so the generator's memory does not
/// grow with the run's length.
constexpr size_t kPayloadsAhead = 256;

tracer::serve::ServeOptions ServerOptions() {
  tracer::serve::ServeOptions options;
  options.num_workers = 2;
  options.max_batch_size = 16;
  options.max_queue_delay_us = 1000;
  return options;
}

tracer::serve::ExplainSpec IgSpec() {
  tracer::serve::ExplainSpec spec;
  spec.method = tracer::interpret::Method::kIntegratedGradients;
  spec.ig_steps = kIgSteps;
  spec.baseline = tracer::interpret::BaselineKind::kZero;
  return spec;
}

/// The serving stack under test plus the patient histories it is fed.
/// Member order matters: the server must stop before the registry dies.
struct Stack {
  std::vector<Windows> patients;
  std::unique_ptr<tracer::serve::ModelRegistry> registry;
  std::unique_ptr<tracer::serve::InferenceServer> server;
  uint64_t version = 0;
  double cohort_s = 0.0;
  double prepare_s = 0.0;
  /// CPU time the warm-up traffic's generator took (not the server's).
  double generator_cpu_ms = 0.0;
};

Windows Prefix(const Windows& history, int windows) {
  return Windows(history.begin(), history.begin() + windows);
}

/// What the generator saw for one request.
struct Sent {
  Arrival arrival;
  uint64_t late_ns = 0;  // submit time minus due time
  tracer::serve::ServeResponse response;
};

/// Replays `schedule` open loop: each request is submitted at its due time
/// whatever the server is doing. The first kPayloadsAhead payloads are built
/// before the clock starts; each later one right after a send, well before
/// it is due. Answers already in are collected after each send, without
/// waiting, so finished futures do not pile up over the run.
std::vector<Sent> Drive(Stack* stack, const std::vector<Arrival>& schedule,
                        uint64_t* start_ns) {
  std::vector<tracer::serve::ServeRequest> requests(kPayloadsAhead);
  const auto build = [&](size_t i) {
    if (i >= schedule.size()) return;
    requests[i % kPayloadsAhead] = tracer::serve::ServeRequest();
    requests[i % kPayloadsAhead].windows =
        Prefix(stack->patients[schedule[i].patient], schedule[i].windows);
  };
  for (size_t i = 0; i < kPayloadsAhead; ++i) build(i);
  std::vector<Sent> sent(schedule.size());
  std::vector<std::future<tracer::serve::ServeResponse>> futures;
  futures.reserve(schedule.size());
  size_t collected = 0;
  const tracer::serve::ExplainSpec spec = IgSpec();
  const uint64_t start = MonotonicNowNs() + 2000000;
  for (size_t i = 0; i < schedule.size(); ++i) {
    const uint64_t due = start + schedule[i].due_ns;
    // Sleep until kSpinNs before the due time, then spin: a sleeping thread
    // on a shared VM wakes ~70 us late at the median and 1-2 ms late at the
    // 99th percentile, and that lateness would be charged to the request.
    // The spin holds at most kSpinNs of one core per request.
    uint64_t now = MonotonicNowNs();
    if (due > now + kSpinNs) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(due - now - kSpinNs));
      now = MonotonicNowNs();
    }
    while (now < due) now = MonotonicNowNs();
    sent[i].arrival = schedule[i];
    sent[i].late_ns = now - due;
    tracer::serve::ServeRequest& request = requests[i % kPayloadsAhead];
    request.deadline_ns = due + kExpiryNs;
    futures.push_back(
        schedule[i].explain
            ? stack->server->SubmitExplain(std::move(request), spec)
            : stack->server->Submit(std::move(request)));
    build(i + kPayloadsAhead);
    while (collected < futures.size() &&
           futures[collected].wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready) {
      sent[collected].response = futures[collected].get();
      ++collected;
    }
  }
  for (; collected < futures.size(); ++collected) {
    sent[collected].response = futures[collected].get();
  }
  *start_ns = start;
  return sent;
}

Stack BuildStack(uint64_t seed) {
  Stack stack;
  const Cohort cohort = MakeCohort(kServeCohort, seed);
  stack.cohort_s = cohort.cohort_s;
  stack.prepare_s = cohort.prepare_s;
  const tracer::data::TimeSeriesDataset& test = cohort.splits.test;
  stack.patients.resize(static_cast<size_t>(test.num_samples()));
  for (int p = 0; p < test.num_samples(); ++p) {
    Windows& history = stack.patients[static_cast<size_t>(p)];
    history.assign(
        static_cast<size_t>(test.num_windows()),
        std::vector<float>(static_cast<size_t>(test.num_features())));
    for (int t = 0; t < test.num_windows(); ++t) {
      for (int d = 0; d < test.num_features(); ++d) {
        history[t][d] = test.at(p, t, d);
      }
    }
  }
  tracer::core::TitvConfig config;
  config.input_dim = test.num_features();
  config.rnn_dim = kModelDim;
  config.film_dim = kModelDim;
  config.seed = seed + 2;
  const tracer::core::Titv model(config);
  std::vector<std::pair<std::string, tracer::Tensor>> tensors;
  for (const auto& [name, param] : model.NamedParameters()) {
    tensors.emplace_back(name, param.value());
  }
  stack.registry = std::make_unique<tracer::serve::ModelRegistry>();
  const tracer::Result<uint64_t> version =
      stack.registry->Register(config, std::move(tensors), "perfbench");
  if (!version.ok() || !stack.registry->Publish(version.value()).ok()) {
    return stack;
  }
  stack.version = version.value();
  stack.server = std::make_unique<tracer::serve::InferenceServer>(
      stack.registry.get(), ServerOptions());
  MixSpec warmup;
  warmup.seconds = kWarmupSeconds;
  uint64_t ignored = 0;
  const double generator_cpu_ms = ThreadCpuMs();
  Drive(&stack, MakeSchedule(warmup, static_cast<int>(stack.patients.size()),
                             ~seed),
        &ignored);
  stack.generator_cpu_ms = ThreadCpuMs() - generator_cpu_ms;
  return stack;
}

/// Re-derives every OK answer offline on private replicas of the published
/// snapshot, one per checker thread; returns per-request verdicts.
std::vector<char> VerifyOffline(const Stack& stack,
                                const std::vector<Sent>& sent) {
  std::vector<char> correct(sent.size(), 0);
  const std::shared_ptr<const tracer::serve::ModelSnapshot> snapshot =
      stack.registry->Get(stack.version);
  const int threads =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  std::vector<std::thread> checkers;
  for (int k = 0; k < threads; ++k) {
    checkers.emplace_back([&, k] {
      OfflineReference reference(*snapshot);
      for (size_t i = static_cast<size_t>(k); i < sent.size();
           i += static_cast<size_t>(threads)) {
        const tracer::serve::ServeResponse& r = sent[i].response;
        if (!r.status.ok() || r.model_version != stack.version) continue;
        const Windows windows =
            Prefix(stack.patients[sent[i].arrival.patient],
                   sent[i].arrival.windows);
        bool ok = SameBits(reference.Score(windows), r.decision.probability);
        if (ok && sent[i].arrival.explain) {
          ok = SameBits(reference.IntegratedGradients(windows, kIgSteps),
                        r.attributions);
        }
        correct[i] = ok ? 1 : 0;
      }
    });
  }
  for (std::thread& t : checkers) t.join();
  return correct;
}

/// One timed pass of the mix over `seconds`.
struct Pass {
  std::vector<RequestOutcome> outcomes;
  /// Latencies of requests answered OK and correctly.
  std::vector<double> score_ms, explain_ms, late_us;
  std::vector<double> queue_us, batch_wait_us, compute_us, explain_compute_us;
  /// Worker time (pickup to completion), counted once per server batch.
  double batch_worker_ms = 0.0;
  int64_t ok = 0;
  int64_t explains = 0;
  /// This process's peak resident set when the last answer came in, before
  /// the offline check builds its replicas.
  double peak_rss_mb = 0.0;
  /// CPU time of every thread but the generator while the pass ran.
  double server_cpu_ms = 0.0;
  tracer::serve::InferenceServer::Stats stats;  // deltas over the pass
};

Pass RunPass(Stack* stack, const Options& options, uint64_t seed,
             RunResult* result) {
  MixSpec mix;
  mix.seconds = options.seconds;
  const std::vector<Arrival> schedule =
      MakeSchedule(mix, static_cast<int>(stack->patients.size()), seed);
  const tracer::serve::InferenceServer::Stats before = stack->server->stats();
  uint64_t start_ns = 0;
  const double process_cpu_ms = ProcessCpuMs();
  const double generator_cpu_ms = ThreadCpuMs();
  const std::vector<Sent> sent = Drive(stack, schedule, &start_ns);
  const tracer::serve::InferenceServer::Stats after = stack->server->stats();
  tracer::obs::AutogradProfiler::Global().SetEnabled(false);
  Pass pass;
  // The server's threads only: the generator runs on this thread.
  pass.server_cpu_ms = (ProcessCpuMs() - process_cpu_ms) -
                       (ThreadCpuMs() - generator_cpu_ms);
  pass.peak_rss_mb = PeakRssMb(false);
  const std::vector<char> correct = VerifyOffline(*stack, sent);

  pass.stats.batches = after.batches - before.batches;
  pass.stats.completed = after.completed - before.completed;
  pass.stats.shed = after.shed - before.shed;
  pass.stats.expired = after.expired - before.expired;
  int64_t mismatches = 0;
  int64_t not_ok = 0;
  for (size_t i = 0; i < sent.size(); ++i) {
    const Sent& s = sent[i];
    const tracer::serve::ServeResponse& r = s.response;
    const bool explain = s.arrival.explain;
    const double latency_ms =
        static_cast<double>(s.late_ns + r.total_ns) / 1e6;
    pass.late_us.push_back(static_cast<double>(s.late_ns) / 1e3);
    if (explain) ++pass.explains;
    if (!r.status.ok()) {
      ++not_ok;
    } else if (!correct[i]) {
      ++mismatches;
    }
    const bool ok = r.status.ok() && correct[i];
    pass.outcomes.push_back({explain, ok, latency_ms});
    if (!ok) continue;
    ++pass.ok;
    (explain ? pass.explain_ms : pass.score_ms).push_back(latency_ms);
    pass.batch_worker_ms +=
        static_cast<double>(r.total_ns - r.queue_ns - r.batch_ns) / 1e6 /
        std::max(1, r.batch_size);
    if (explain) {
      // Attribution only: completion minus the scoring forward pass.
      pass.explain_compute_us.push_back(
          static_cast<double>(r.total_ns - r.queue_ns - r.batch_ns -
                              r.compute_ns) /
          1e3);
    } else {
      pass.queue_us.push_back(static_cast<double>(r.queue_ns) / 1e3);
      pass.batch_wait_us.push_back(static_cast<double>(r.batch_ns) / 1e3);
      pass.compute_us.push_back(static_cast<double>(r.compute_ns) / 1e3);
    }
    Span("bench.request", "", r.trace_id, start_ns + s.arrival.due_ns,
         start_ns + s.arrival.due_ns + s.late_ns + r.total_ns);
  }
  result->attempted += static_cast<int64_t>(sent.size());
  // Shed, expired and failed requests are a slower server's symptom, not a
  // wrong answer: they count as failed operations and as SLO misses only.
  if (not_ok > 0) {
    result->failed += not_ok;
    result->notes.push_back(std::to_string(not_ok) +
                            " requests were not answered OK");
  }
  if (mismatches > 0) {
    result->Fail(std::to_string(mismatches) +
                     " answers differ from the offline recompute",
                 mismatches);
  }
  return pass;
}

}  // namespace

RunResult RunServeMix(const Options& options) {
  RunResult result;
  // One GEMM thread: the two serving workers are the parallelism.
  tracer::parallel::SetMaxThreads(1);
  std::vector<double> setup_s, cohort_s, prepare_s;
  Stack stack;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const double cpu0_ms = ProcessCpuMs();
    stack.server.reset();  // stop the previous server before its registry
    stack = BuildStack(options.seed);
    if (stack.server == nullptr) {
      result.Fail("could not publish the model");
      return result;
    }
    setup_s.push_back(
        (ProcessCpuMs() - cpu0_ms - stack.generator_cpu_ms) / 1e3);
    cohort_s.push_back(stack.cohort_s);
    prepare_s.push_back(stack.prepare_s);
  }

  const Pass plain = RunPass(&stack, options, options.seed, &result);
  result.Set("setup_s", Median(setup_s));
  result.Set("cpu_ms_per_op", plain.server_cpu_ms /
                                 static_cast<double>(plain.outcomes.size()));
  result.Set("throughput_per_s",
             static_cast<double>(plain.ok) / options.seconds);
  result.Set("quality",
             SloAttained(plain.outcomes, kScoreSloMs, kExplainSloMs));
  result.Set("p50_ms", Percentile(plain.score_ms, 0.5));
  result.Set("p90_ms", Percentile(plain.score_ms, 0.9));
  result.Set("heavy_p50_ms", Percentile(plain.explain_ms, 0.5));
  result.Set("heavy_p90_ms", Percentile(plain.explain_ms, 0.9));
  result.Set("peak_rss_mb", plain.peak_rss_mb);

  if (options.trace) {
    StartTracing();
    tracer::obs::AutogradProfiler::Global().SetEnabled(true);
    const Pass traced = RunPass(&stack, options, options.seed, &result);
    const OpTotals ops = SnapshotProfile();
    const double batches =
        static_cast<double>(std::max<int64_t>(1, traced.stats.batches));
    result.Set("tensor.gemm_ms_per_step", ops.gemm_ms / batches);
    result.Set("tensor.gemm_gflops",
               ops.gemm_ms > 0.0 ? ops.gemm_gflop / (ops.gemm_ms / 1e3) : 0.0);
    result.Set("tensor.gemm_share", ops.gemm_ms / traced.batch_worker_ms);
    result.Set("tensor.heap_allocs_per_step",
               static_cast<double>(ops.heap_allocs) / batches);
    result.Set("autograd.nongemm_ms_per_step", ops.nongemm_ms / batches);
    result.Set("autograd.ops_per_step",
               static_cast<double>(ops.op_calls) / batches);
    result.Set("autograd.backward_ms",
               ops.backward_ms /
                   static_cast<double>(std::max<int64_t>(1, traced.explains)));
    result.Set("nn.forward_ms",
               (ops.gemm_ms + ops.nongemm_ms - ops.backward_ms) / batches);
    result.Set("serve.queue_us.p50", Percentile(traced.queue_us, 0.5));
    result.Set("serve.queue_us.p90", Percentile(traced.queue_us, 0.9));
    result.Set("serve.batch_wait_us.p50",
               Percentile(traced.batch_wait_us, 0.5));
    result.Set("serve.batch_wait_us.p90",
               Percentile(traced.batch_wait_us, 0.9));
    result.Set("serve.compute_us.p50", Percentile(traced.compute_us, 0.5));
    result.Set("serve.compute_us.p90", Percentile(traced.compute_us, 0.9));
    result.Set("interpret.explain_compute_us.p50",
               Percentile(traced.explain_compute_us, 0.5));
    result.Set("interpret.explain_compute_us.p90",
               Percentile(traced.explain_compute_us, 0.9));
    result.Set("serve.batch_size_mean",
               static_cast<double>(traced.stats.completed) / batches);
    result.Set("serve.batches", static_cast<double>(traced.stats.batches));
    result.Set("serve.shed", static_cast<double>(traced.stats.shed));
    result.Set("serve.expired", static_cast<double>(traced.stats.expired));
    result.Set("serve.gen_late_us.p99", Percentile(traced.late_us, 0.99));
    result.Set("serve.gen_late_us.max", Percentile(traced.late_us, 1.0));
    result.Set("datagen.cohort_s", Median(cohort_s));
    result.Set("data.prepare_s", Median(prepare_s));
    result.Set("trace.overhead_throughput_share",
               static_cast<double>(plain.ok - traced.ok) /
                   static_cast<double>(plain.ok));
    result.Set("trace.overhead_p50_ms",
               Percentile(traced.score_ms, 0.5) -
                   Percentile(plain.score_ms, 0.5));
    if (!WriteTrace(options.workdir + "/trace-serve_mix-seed" +
                    std::to_string(options.seed) + ".json")) {
      result.notes.push_back("could not write the trace file");
    }
  }
  result.notes.push_back(
      "score stages p50/p90 us: queue " +
      std::to_string(Percentile(plain.queue_us, 0.5)) + "/" +
      std::to_string(Percentile(plain.queue_us, 0.9)) + ", batch wait " +
      std::to_string(Percentile(plain.batch_wait_us, 0.5)) + "/" +
      std::to_string(Percentile(plain.batch_wait_us, 0.9)) + ", compute " +
      std::to_string(Percentile(plain.compute_us, 0.5)) + "/" +
      std::to_string(Percentile(plain.compute_us, 0.9)));
  result.notes.push_back(
      "serve_mix: " + std::to_string(plain.outcomes.size()) +
      " requests in " + std::to_string(options.seconds) + " s (" +
      std::to_string(plain.explains) + " explains); generator late p99 " +
      std::to_string(Percentile(plain.late_us, 0.99)) + " us; score p99 " +
      std::to_string(Percentile(plain.score_ms, 0.99)) + " ms, max " +
      std::to_string(Percentile(plain.score_ms, 1.0)) + " ms");
  return result;
}

}  // namespace perfbench
