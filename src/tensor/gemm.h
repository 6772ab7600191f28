#ifndef TRACER_TENSOR_GEMM_H_
#define TRACER_TENSOR_GEMM_H_

#include <cstdint>

namespace tracer {
namespace gemm {

// Accumulating single-precision GEMM over row-major contiguous matrices:
//
//   kNN:  C(m×n) += A(m×k)  · B(k×n)
//   kTN:  C(m×n) += A(k×m)ᵀ · B(k×n)     (backward: weight gradients)
//   kNT:  C(m×n) += A(m×k)  · B(n×k)ᵀ    (backward: input gradients)
//
// Every kernel honors one accumulation contract: each C[i][j] is updated by
// a single multiply-add chain over k in ascending order, rooted at the
// incoming C value. The blocked kernel tiles for cache and registers and
// runs row panels on parallel::ParallelFor, but never splits or reorders an
// element's k-chain — so for a given build, naive and blocked outputs are
// bit-identical, at every thread count. See DESIGN.md "Compute kernels".

enum class Variant { kNN, kTN, kNT };

enum class Kernel {
  kAuto,     ///< Size heuristic (or the TRACER_GEMM env override).
  kNaive,    ///< Reference triple loop, single-threaded.
  kBlocked,  ///< Cache-blocked, packed, register-tiled, thread-parallel.
};

/// C += op(A)·op(B) per `variant`, dispatching between the kernels.
/// Pointers must not alias. Zero-sized dims are no-ops (k == 0 leaves C
/// untouched).
void Gemm(Variant variant, int m, int n, int k, const float* a,
          const float* b, float* c, Kernel kernel = Kernel::kAuto);

/// Reference implementation (canonical accumulation order, no threading).
void GemmNaive(Variant variant, int m, int n, int k, const float* a,
               const float* b, float* c);

/// Blocked implementation; callable directly for tests and benchmarks.
void GemmBlocked(Variant variant, int m, int n, int k, const float* a,
                 const float* b, float* c);

/// The kernel kAuto resolves to for this shape: TRACER_GEMM=naive|blocked
/// forces a family; otherwise the rule is shape-derived, with no volume
/// floor. Blocked from 8 rows up (kNN/kTN) or 2 rows up (kNT, whose naive
/// kernel is an unvectorizable dot reduction), so the 16-row per-timestep
/// recurrent products run blocked while single-visit serve scoring stays
/// naive. Products with one output column (n = 1, the output layer) stay
/// naive for every variant. Measured crossovers: DESIGN.md "Compute
/// kernels".
Kernel ChooseKernel(int64_t m, int64_t n, int64_t k,
                    Variant variant = Variant::kNN);

/// Re-reads TRACER_GEMM (cached after first use). Test hook.
void ReloadKernelEnvForTesting();

/// Flops for one call: 2·m·n·k.
inline int64_t FlopCount(int64_t m, int64_t n, int64_t k) {
  return 2 * m * n * k;
}

}  // namespace gemm
}  // namespace tracer

#endif  // TRACER_TENSOR_GEMM_H_
