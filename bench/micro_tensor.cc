// Micro-benchmarks for the tensor kernels underlying every model: GEMM in
// the three transpose variants, the elementwise nonlinearities and the
// softmax. Shapes mirror the real workloads (batch 64, feature dims
// 32–256).
//
// The BM_Gemm sweep drives tensor/gemm.h directly (naive vs blocked, all
// three variants, thread counts 1/2/4/8) and is split out into its own
// BENCH_gemm.json artifact — the perf trajectory the README "Compute
// kernels" table is built from.

#include <algorithm>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/micro_main.h"
#include "common/rng.h"
#include "parallel/parallel_for.h"
#include "tensor/gemm.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace tracer {
namespace {

void BM_MatMul(benchmark::State& state) {
  const int m = 64;
  const int k = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  Rng rng(1);
  const Tensor a = Tensor::Randn({m, k}, rng);
  const Tensor b = Tensor::Randn({k, n}, rng);
  for (auto _ : state) {
    Tensor c = MatMul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * m * k * n);
}
BENCHMARK(BM_MatMul)->Args({32, 32})->Args({64, 64})->Args({256, 256});

void BM_MatMulTransA(benchmark::State& state) {
  const int k = 64, m = static_cast<int>(state.range(0)), n = m;
  Rng rng(2);
  const Tensor a = Tensor::Randn({k, m}, rng);
  const Tensor b = Tensor::Randn({k, n}, rng);
  for (auto _ : state) {
    Tensor c = MatMulTransA(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * m * k * n);
}
BENCHMARK(BM_MatMulTransA)->Arg(32)->Arg(128);

void BM_MatMulTransB(benchmark::State& state) {
  const int m = 64, k = static_cast<int>(state.range(0)), n = k;
  Rng rng(3);
  const Tensor a = Tensor::Randn({m, k}, rng);
  const Tensor b = Tensor::Randn({n, k}, rng);
  for (auto _ : state) {
    Tensor c = MatMulTransB(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * m * k * n);
}
BENCHMARK(BM_MatMulTransB)->Arg(32)->Arg(128);

/// One cell of the GEMM sweep: args are {m, n, k, threads}. The kernel and
/// variant are bound at registration (BENCHMARK_CAPTURE) so row names read
/// BM_Gemm/<variant>_<kernel>/m/n/k/threads. items == flops, so the JSON
/// ops_per_sec column is FLOP/s.
void BM_Gemm(benchmark::State& state, gemm::Variant variant,
             gemm::Kernel kernel) {
  const int m = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  const int k = static_cast<int>(state.range(2));
  const int threads = static_cast<int>(state.range(3));
  const int prev_threads = parallel::MaxThreads();
  parallel::SetMaxThreads(threads);
  Rng rng(42);
  std::vector<float> a(static_cast<size_t>(m) * k);
  std::vector<float> b(static_cast<size_t>(k) * n);
  std::vector<float> c(static_cast<size_t>(m) * n);
  for (float& x : a) x = static_cast<float>(rng.Normal());
  for (float& x : b) x = static_cast<float>(rng.Normal());
  for (auto _ : state) {
    std::fill(c.begin(), c.end(), 0.0f);
    gemm::Gemm(variant, m, n, k, a.data(), b.data(), c.data(), kernel);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * gemm::FlopCount(m, n, k));
  parallel::SetMaxThreads(prev_threads);
}

// Square shapes track raw kernel throughput. {64,48,76} and {64,16,64} are
// TITV-layer shapes at batch 64 (input 76, rnn/film dims). The small rows
// are the per-timestep recurrent products the dispatch constants in
// tensor/gemm.cc were derived from: {16,16,16} and {16,16,26} are the
// MIMIC-III (D=26) BiGRU h·U and x·W steps at dim 16 on a 16-row shard
// (train_dist) or server batch, {8,16,31} the NUH-AKI (D=31) x·W step at
// an 8-row batch, and {16,1,26} the n=1 output layer, which auto keeps
// naive. {1,48,76} is the single-visit serve path, also kept naive.
#define TRACER_GEMM_SHAPES                                                  \
  Args({128, 128, 128, 1})                                                  \
      ->Args({256, 256, 256, 1})                                            \
      ->Args({512, 512, 512, 1})                                            \
      ->Args({64, 48, 76, 1})                                               \
      ->Args({64, 16, 64, 1})                                               \
      ->Args({16, 16, 16, 1})                                               \
      ->Args({16, 16, 26, 1})                                               \
      ->Args({8, 16, 31, 1})                                                \
      ->Args({16, 1, 26, 1})                                                \
      ->Args({1, 48, 76, 1})

#define TRACER_GEMM_THREAD_SWEEP                                            \
  Args({256, 256, 256, 2})                                                  \
      ->Args({256, 256, 256, 4})                                            \
      ->Args({256, 256, 256, 8})                                            \
      ->Args({512, 512, 512, 2})                                            \
      ->Args({512, 512, 512, 4})                                            \
      ->Args({512, 512, 512, 8})

BENCHMARK_CAPTURE(BM_Gemm, nn_naive, gemm::Variant::kNN,
                  gemm::Kernel::kNaive)
    ->TRACER_GEMM_SHAPES->UseRealTime();
BENCHMARK_CAPTURE(BM_Gemm, tn_naive, gemm::Variant::kTN,
                  gemm::Kernel::kNaive)
    ->TRACER_GEMM_SHAPES->UseRealTime();
BENCHMARK_CAPTURE(BM_Gemm, nt_naive, gemm::Variant::kNT,
                  gemm::Kernel::kNaive)
    ->TRACER_GEMM_SHAPES->UseRealTime();
BENCHMARK_CAPTURE(BM_Gemm, nn_blocked, gemm::Variant::kNN,
                  gemm::Kernel::kBlocked)
    ->TRACER_GEMM_SHAPES->TRACER_GEMM_THREAD_SWEEP->UseRealTime();
BENCHMARK_CAPTURE(BM_Gemm, tn_blocked, gemm::Variant::kTN,
                  gemm::Kernel::kBlocked)
    ->TRACER_GEMM_SHAPES->TRACER_GEMM_THREAD_SWEEP->UseRealTime();
BENCHMARK_CAPTURE(BM_Gemm, nt_blocked, gemm::Variant::kNT,
                  gemm::Kernel::kBlocked)
    ->TRACER_GEMM_SHAPES->TRACER_GEMM_THREAD_SWEEP->UseRealTime();

#undef TRACER_GEMM_SHAPES
#undef TRACER_GEMM_THREAD_SWEEP

void BM_Sigmoid(benchmark::State& state) {
  Rng rng(4);
  const Tensor a = Tensor::Randn({64, static_cast<int>(state.range(0))}, rng);
  for (auto _ : state) {
    Tensor out = Sigmoid(a);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * a.size());
}
BENCHMARK(BM_Sigmoid)->Arg(64)->Arg(512);

void BM_Tanh(benchmark::State& state) {
  Rng rng(5);
  const Tensor a = Tensor::Randn({64, static_cast<int>(state.range(0))}, rng);
  for (auto _ : state) {
    Tensor out = Tanh(a);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * a.size());
}
BENCHMARK(BM_Tanh)->Arg(64)->Arg(512);

void BM_SoftmaxRows(benchmark::State& state) {
  Rng rng(6);
  const Tensor a = Tensor::Randn({64, static_cast<int>(state.range(0))}, rng);
  for (auto _ : state) {
    Tensor out = SoftmaxRows(a);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * a.size());
}
BENCHMARK(BM_SoftmaxRows)->Arg(8)->Arg(64);

void BM_ConcatCols(benchmark::State& state) {
  Rng rng(7);
  const int h = static_cast<int>(state.range(0));
  const Tensor a = Tensor::Randn({64, h}, rng);
  const Tensor b = Tensor::Randn({64, h}, rng);
  for (auto _ : state) {
    Tensor out = ConcatCols(a, b);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_ConcatCols)->Arg(32)->Arg(128);

}  // namespace
}  // namespace tracer

int main(int argc, char** argv) {
  return tracer::bench::RunMicroBenchmarks("micro_tensor", argc, argv,
                                           {{"BM_Gemm", "gemm"}});
}
