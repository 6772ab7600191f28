// Exactness and determinism tests for the compute-kernel layer
// (src/tensor/gemm.h). The contract under test: for a given build, the
// blocked kernel is bit-identical to the naive reference for every shape,
// every transpose variant and every thread count — see DESIGN.md
// "Compute kernels".

#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "parallel/parallel_for.h"
#include "tensor/gemm.h"

namespace tracer {
namespace gemm {
namespace {

/// Deterministic pseudo-random fill in [-1, 1); plain LCG so the fixture has
/// no dependency on the tensor layer the kernels sit beneath.
void FillPseudo(std::vector<float>* v, uint32_t seed) {
  uint32_t state = seed * 2654435761u + 12345u;
  for (float& x : *v) {
    state = state * 1664525u + 1013904223u;
    x = static_cast<float>(state >> 8) * (2.0f / 16777216.0f) - 1.0f;
  }
}

struct Shape {
  int m, n, k;
};

/// Square, tails (non-multiple of every block/tile size), single row/col,
/// TITV-like skinny, and degenerate-dimension shapes, plus the per-timestep
/// recurrent products auto dispatches to the blocked kernel (dim 16 on a
/// 16-row MIMIC-III batch: x·W, h·U and their backward products; the 8-row
/// NUH-AKI x·W step) and the n = 1 output-layer products it keeps naive.
const Shape kShapeGrid[] = {
    {1, 1, 1},     {4, 8, 16},    {5, 7, 9},      {37, 33, 41},
    {64, 48, 76},  {64, 16, 64},  {128, 128, 128}, {129, 65, 33},
    {1, 64, 64},   {64, 1, 64},   {64, 64, 1},    {3, 130, 5},
    {130, 3, 257}, {96, 72, 300}, {16, 16, 16},   {16, 16, 26},
    {16, 26, 16},  {26, 16, 16},  {8, 16, 31},    {16, 1, 26},
    {26, 1, 16},
};

const Variant kVariants[] = {Variant::kNN, Variant::kTN, Variant::kNT};

class ThreadBudgetGuard {
 public:
  ThreadBudgetGuard() : prev_(parallel::MaxThreads()) {}
  ~ThreadBudgetGuard() { parallel::SetMaxThreads(prev_); }

 private:
  int prev_;
};

TEST(GemmTest, BlockedMatchesNaiveBitwiseAcrossShapeGrid) {
  ThreadBudgetGuard guard;
  parallel::SetMaxThreads(4);
  for (const Shape& s : kShapeGrid) {
    // Element counts are variant-independent: op(A) is m×k and op(B) is k×n,
    // so A always holds m·k values and B holds k·n.
    std::vector<float> a(static_cast<size_t>(s.m) * s.k);
    std::vector<float> b(static_cast<size_t>(s.k) * s.n);
    std::vector<float> c0(static_cast<size_t>(s.m) * s.n);
    FillPseudo(&a, 11u * s.m + s.k);
    FillPseudo(&b, 13u * s.n + s.k);
    FillPseudo(&c0, 17u * s.m + s.n);  // nonzero seed: += must root at C
    for (const Variant v : kVariants) {
      std::vector<float> c_naive = c0;
      std::vector<float> c_blocked = c0;
      GemmNaive(v, s.m, s.n, s.k, a.data(), b.data(), c_naive.data());
      GemmBlocked(v, s.m, s.n, s.k, a.data(), b.data(), c_blocked.data());
      EXPECT_EQ(std::memcmp(c_naive.data(), c_blocked.data(),
                            c_naive.size() * sizeof(float)),
                0)
          << "variant " << static_cast<int>(v) << " shape " << s.m << "x"
          << s.n << "x" << s.k;
    }
  }
}

TEST(GemmTest, ZeroSizedDimsAreNoOps) {
  std::vector<float> a(64), b(64);
  FillPseudo(&a, 1);
  FillPseudo(&b, 2);
  // m == 0 / n == 0: C is empty; must not touch memory or crash.
  for (const Variant v : kVariants) {
    Gemm(v, 0, 8, 8, a.data(), b.data(), nullptr);
    Gemm(v, 8, 0, 8, a.data(), b.data(), nullptr);
  }
  // k == 0: C has elements but the k-chain is empty, so C is left untouched.
  std::vector<float> c(8 * 8);
  FillPseudo(&c, 3);
  const std::vector<float> before = c;
  for (const Variant v : kVariants) {
    GemmNaive(v, 8, 8, 0, a.data(), b.data(), c.data());
    GemmBlocked(v, 8, 8, 0, a.data(), b.data(), c.data());
  }
  EXPECT_EQ(std::memcmp(c.data(), before.data(), c.size() * sizeof(float)),
            0);
}

TEST(GemmTest, BlockedIsBitIdenticalAcrossThreadCounts) {
  ThreadBudgetGuard guard;
  // {512, 96, 96} is large enough that ParallelFor actually splits (several
  // MR row units per chunk at every budget below). {16, 16, 26} is a
  // recurrent-step product that is one task at every budget, so it runs
  // the inline single-task path that skips ParallelFor.
  for (const Shape& s : {Shape{512, 96, 96}, Shape{16, 16, 26}}) {
    std::vector<float> a(static_cast<size_t>(s.m) * s.k);
    std::vector<float> b(static_cast<size_t>(s.k) * s.n);
    std::vector<float> c0(static_cast<size_t>(s.m) * s.n);
    FillPseudo(&a, 101);
    FillPseudo(&b, 202);
    FillPseudo(&c0, 303);
    for (const Variant v : kVariants) {
      parallel::SetMaxThreads(1);
      std::vector<float> reference = c0;
      GemmNaive(v, s.m, s.n, s.k, a.data(), b.data(), reference.data());
      for (const int threads : {1, 2, 3, 4, 8}) {
        parallel::SetMaxThreads(threads);
        std::vector<float> c = c0;
        GemmBlocked(v, s.m, s.n, s.k, a.data(), b.data(), c.data());
        EXPECT_EQ(std::memcmp(c.data(), reference.data(),
                              c.size() * sizeof(float)),
                  0)
            << "variant " << static_cast<int>(v) << " shape " << s.m << "x"
            << s.n << "x" << s.k << " at " << threads << " threads";
      }
    }
  }
}

TEST(GemmTest, AccumulatesIntoExistingC) {
  // Two calls into the same C must equal one call into a doubled copy —
  // i.e. the kernels genuinely C += and never zero the output.
  const Shape s{12, 10, 9};
  std::vector<float> a(static_cast<size_t>(s.m) * s.k);
  std::vector<float> b(static_cast<size_t>(s.k) * s.n);
  std::vector<float> c(static_cast<size_t>(s.m) * s.n, 0.0f);
  FillPseudo(&a, 5);
  FillPseudo(&b, 6);
  GemmNaive(Variant::kNN, s.m, s.n, s.k, a.data(), b.data(), c.data());
  const std::vector<float> once = c;
  GemmNaive(Variant::kNN, s.m, s.n, s.k, a.data(), b.data(), c.data());
  for (size_t i = 0; i < c.size(); ++i) {
    EXPECT_NE(c[i], once[i]) << "second call did not accumulate at " << i;
  }
}

TEST(GemmTest, ChooseKernelHeuristicAndEnvOverride) {
  // Guard against a stale cached value from another test.
  unsetenv("TRACER_GEMM");
  ReloadKernelEnvForTesting();
  // There is no volume floor: from 8 rows up, every kNN/kTN product with
  // more than one output column goes blocked, including the per-timestep
  // recurrent products (dim 16 on 16-row MIMIC-III and 8-row NUH-AKI
  // batches) and their backward products.
  EXPECT_EQ(ChooseKernel(256, 256, 256), Kernel::kBlocked);
  EXPECT_EQ(ChooseKernel(8, 8, 8), Kernel::kBlocked);
  for (const Variant v : kVariants) {
    EXPECT_EQ(ChooseKernel(16, 16, 16, v), Kernel::kBlocked);
    EXPECT_EQ(ChooseKernel(16, 16, 26, v), Kernel::kBlocked);
    EXPECT_EQ(ChooseKernel(16, 26, 16, v), Kernel::kBlocked);
    EXPECT_EQ(ChooseKernel(26, 16, 16, v), Kernel::kBlocked);
    EXPECT_EQ(ChooseKernel(8, 16, 31, v), Kernel::kBlocked);
  }
  // The output layer's backward input gradient (kNT with k = 1) too.
  EXPECT_EQ(ChooseKernel(16, 26, 1, Variant::kNT), Kernel::kBlocked);

  // Single rows (the serve scoring path) stay on the reference kernel.
  for (const Variant v : kVariants) {
    EXPECT_EQ(ChooseKernel(1, 512, 512, v), Kernel::kNaive);
  }
  // Below 8 rows kNN/kTN stay naive; the kNT variant (backward input
  // gradients) blocks from two rows up, because its naive kernel is an
  // unvectorizable dot reduction.
  EXPECT_EQ(ChooseKernel(4, 128, 128, Variant::kNN), Kernel::kNaive);
  EXPECT_EQ(ChooseKernel(4, 128, 128, Variant::kTN), Kernel::kNaive);
  EXPECT_EQ(ChooseKernel(7, 16, 26, Variant::kNN), Kernel::kNaive);
  EXPECT_EQ(ChooseKernel(7, 16, 26, Variant::kTN), Kernel::kNaive);
  EXPECT_EQ(ChooseKernel(2, 512, 512, Variant::kNT), Kernel::kBlocked);
  EXPECT_EQ(ChooseKernel(4, 128, 128, Variant::kNT), Kernel::kBlocked);
  EXPECT_EQ(ChooseKernel(2, 32, 32, Variant::kNT), Kernel::kBlocked);

  // One output column (the n = 1 output layer: forward and weight
  // gradient) stays naive at any row count.
  EXPECT_EQ(ChooseKernel(16, 1, 26, Variant::kNN), Kernel::kNaive);
  EXPECT_EQ(ChooseKernel(26, 1, 16, Variant::kTN), Kernel::kNaive);
  EXPECT_EQ(ChooseKernel(512, 1, 512, Variant::kNN), Kernel::kNaive);
  EXPECT_EQ(ChooseKernel(512, 1, 512, Variant::kTN), Kernel::kNaive);
  EXPECT_EQ(ChooseKernel(16, 1, 26, Variant::kNT), Kernel::kNaive);
  EXPECT_EQ(ChooseKernel(16, 2, 26, Variant::kNN), Kernel::kBlocked);

  setenv("TRACER_GEMM", "naive", 1);
  ReloadKernelEnvForTesting();
  EXPECT_EQ(ChooseKernel(256, 256, 256), Kernel::kNaive);

  setenv("TRACER_GEMM", "blocked", 1);
  ReloadKernelEnvForTesting();
  EXPECT_EQ(ChooseKernel(8, 8, 8), Kernel::kBlocked);
  EXPECT_EQ(ChooseKernel(1, 512, 512), Kernel::kBlocked);

  setenv("TRACER_GEMM", "auto", 1);
  ReloadKernelEnvForTesting();
  EXPECT_EQ(ChooseKernel(1, 512, 512), Kernel::kNaive);
  EXPECT_EQ(ChooseKernel(256, 256, 256), Kernel::kBlocked);

  unsetenv("TRACER_GEMM");
  ReloadKernelEnvForTesting();
}

TEST(GemmTest, ConcurrentCallersOverSharedPoolStayExact) {
  // TSan hammer: several caller threads run blocked GEMMs simultaneously,
  // so their ParallelFor chunks interleave on the shared pool. Each caller
  // owns its C, so every result must still match the serial reference.
  ThreadBudgetGuard guard;
  parallel::SetMaxThreads(4);
  const Shape s{256, 64, 64};  // big enough to split into multiple chunks
  std::vector<float> a(static_cast<size_t>(s.m) * s.k);
  std::vector<float> b(static_cast<size_t>(s.k) * s.n);
  FillPseudo(&a, 7);
  FillPseudo(&b, 8);
  std::vector<float> reference(static_cast<size_t>(s.m) * s.n, 0.0f);
  GemmNaive(Variant::kNN, s.m, s.n, s.k, a.data(), b.data(),
            reference.data());

  constexpr int kCallers = 4;
  constexpr int kRounds = 16;
  std::vector<int> mismatches(kCallers, 0);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      std::vector<float> c(static_cast<size_t>(s.m) * s.n);
      for (int round = 0; round < kRounds; ++round) {
        std::fill(c.begin(), c.end(), 0.0f);
        GemmBlocked(Variant::kNN, s.m, s.n, s.k, a.data(), b.data(),
                    c.data());
        if (std::memcmp(c.data(), reference.data(),
                        c.size() * sizeof(float)) != 0) {
          ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();
  for (int t = 0; t < kCallers; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "caller " << t;
  }
}

TEST(GemmTest, FlopCountIsTwoMnk) {
  EXPECT_EQ(FlopCount(2, 3, 4), 48);
  EXPECT_EQ(FlopCount(0, 3, 4), 0);
  EXPECT_EQ(FlopCount(1024, 1024, 1024), 2LL * 1024 * 1024 * 1024);
}

}  // namespace
}  // namespace gemm
}  // namespace tracer
