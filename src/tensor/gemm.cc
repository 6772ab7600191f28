#include "tensor/gemm.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/macros.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "parallel/parallel_for.h"

namespace tracer {
namespace gemm {

namespace {

// This TU is always compiled with -ffp-contract=off (src/CMakeLists.txt):
// left to itself the compiler contracts the blocked micro-kernel's
// vectorized loop to FMA but not the naive kNT dot reduction, silently
// breaking the naive↔blocked bit-identity contract under -march=native.
// Pinning contraction off gives every multiply-add here one lowering.
// (Explicit fmaf would also be consistent, but defeats the vectorizer.)

// Register micro-tile. 4×8 keeps the 8 vector accumulators inside the
// baseline 16-register SSE file without spilling, and the same shape maps
// onto 8 single-ymm rows under TRACER_NATIVE AVX2 — measured fastest on
// both (wider NR tempts the compiler into 512-bit moves, which downclock
// or, on emulated AVX-512 hosts, collapse). Tile size only changes which
// elements share a task, never an element's accumulation order.
constexpr int MR = 4;
constexpr int NR = 8;
// Cache blocking: an MC×KC packed A tile (128 KiB) stays L2-resident while
// the micro-kernel streams KC×NR B panels over it.
constexpr int MC = 128;
constexpr int KC = 256;

// Dispatch guards (see DESIGN.md "Compute kernels", measured with the
// BM_Gemm small-shape rows). With the single-task path below, the blocked
// kernel's fixed cost is its packing, and it beats naive from the first
// full register tile: 8×16×31 and 16×16×26 already run ~2× faster. There
// is no volume floor. The row guard keeps single-visit serve scoring and
// other few-row products naive; the naive kNT kernel is a dot-product
// reduction (nothing contiguous to vectorize) that blocked beats from 2
// rows up, so kNT gets its own, lower guard.
constexpr int kBlockedMinRows = 8;
constexpr int kBlockedMinRowsNt = 2;
// At n = 1 (the output layer) only one of the micro-kernel's NR lanes does
// useful work, and naive wins or ties for every variant.
constexpr int kBlockedMinCols = 2;
// Minimum flops a ParallelFor task should amortize its scheduling over.
constexpr int64_t kMinFlopsPerTask = int64_t{1} << 21;

struct GemmMetrics {
  obs::Counter* calls;
  obs::Counter* blocked_calls;
  obs::Counter* flops;

  static GemmMetrics& Get() {
    static GemmMetrics metrics = [] {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
      return GemmMetrics{
          registry.GetOrCreateCounter("tracer_gemm_calls_total"),
          registry.GetOrCreateCounter("tracer_gemm_blocked_calls_total"),
          registry.GetOrCreateCounter("tracer_gemm_flops_total")};
    }();
    return metrics;
  }
};

// TRACER_GEMM env override, parsed once: -1 unparsed, 0 auto, 1 naive,
// 2 blocked.
std::atomic<int> g_env_kernel{-1};

int ParseEnvKernel() {
  const char* env = std::getenv("TRACER_GEMM");
  if (env == nullptr) return 0;
  const std::string value(env);
  if (value == "naive") return 1;
  if (value == "blocked") return 2;
  TRACER_CHECK(value == "auto" || value.empty())
      << "TRACER_GEMM must be auto|naive|blocked, got \"" << value << "\"";
  return 0;
}

int EnvKernel() {
  int cached = g_env_kernel.load(std::memory_order_relaxed);
  if (cached < 0) {
    cached = ParseEnvKernel();
    g_env_kernel.store(cached, std::memory_order_relaxed);
  }
  return cached;
}

/// True when ParallelFor(grain, n, fn) would run all of [0, n) as one chunk
/// on the caller. Such calls invoke the body directly instead: the same
/// code in the same order, without building a heap-allocated
/// std::function per call — the recurrent per-timestep GEMMs are all
/// single-task and run thousands of times per training step.
bool IsSingleTask(int64_t grain, int64_t n) {
  return n <= grain || parallel::MaxThreads() <= 1;
}

// -- Packing ------------------------------------------------------------
//
// B is packed once per call into column panels of NR: for panel p the
// element bp[p·k·NR + kk·NR + jr] holds op(B)[kk][p·NR + jr], zero-padded
// past n. The packing absorbs the transpose of the kNT variant, so all
// variants share one micro-kernel reading both operands contiguously.

void PackBPanels(Variant variant, int n, int k, const float* b, float* bp) {
  const int panels = (n + NR - 1) / NR;
  const int64_t grain =
      std::max<int64_t>(1, kMinFlopsPerTask / (int64_t{2} * k * NR));
  const auto pack = [&](int64_t p0, int64_t p1) {
    for (int64_t p = p0; p < p1; ++p) {
      const int j0 = static_cast<int>(p) * NR;
      const int nr = std::min(NR, n - j0);
      float* dst = bp + p * static_cast<int64_t>(k) * NR;
      if (variant == Variant::kNT) {
        // op(B)[kk][j] = B[j][kk] with B stored n×k.
        for (int kk = 0; kk < k; ++kk) {
          for (int jr = 0; jr < nr; ++jr) {
            dst[kk * NR + jr] = b[static_cast<int64_t>(j0 + jr) * k + kk];
          }
          for (int jr = nr; jr < NR; ++jr) dst[kk * NR + jr] = 0.0f;
        }
      } else {
        // kNN/kTN share a k×n B operand.
        for (int kk = 0; kk < k; ++kk) {
          const float* src = b + static_cast<int64_t>(kk) * n + j0;
          for (int jr = 0; jr < nr; ++jr) dst[kk * NR + jr] = src[jr];
          for (int jr = nr; jr < NR; ++jr) dst[kk * NR + jr] = 0.0f;
        }
      }
    }
  };
  if (IsSingleTask(grain, panels)) {
    pack(0, panels);
  } else {
    parallel::ParallelFor(grain, panels, pack);
  }
}

// A tile [i0, i0+mc) × [k0, k0+kc) packed into MR row panels:
// ap[(ii/MR)·kc·MR + kk·MR + r] = op(A)[i0+ii+r][k0+kk], zero-padded past mc.
void PackATile(Variant variant, int m, int k, const float* a, int i0, int mc,
               int k0, int kc, float* ap) {
  (void)m;
  for (int ii = 0; ii < mc; ii += MR) {
    const int mr = std::min(MR, mc - ii);
    float* dst = ap + static_cast<int64_t>(ii / MR) * kc * MR;
    if (variant == Variant::kTN) {
      // op(A)[i][kk] = A[kk][i] with A stored k×m.
      for (int kk = 0; kk < kc; ++kk) {
        const float* src = a + static_cast<int64_t>(k0 + kk) * m + i0 + ii;
        for (int r = 0; r < mr; ++r) dst[kk * MR + r] = src[r];
        for (int r = mr; r < MR; ++r) dst[kk * MR + r] = 0.0f;
      }
    } else {
      // kNN/kNT share an m×k A operand.
      for (int kk = 0; kk < kc; ++kk) {
        for (int r = 0; r < mr; ++r) {
          dst[kk * MR + r] =
              a[static_cast<int64_t>(i0 + ii + r) * k + k0 + kk];
        }
        for (int r = mr; r < MR; ++r) dst[kk * MR + r] = 0.0f;
      }
    }
  }
}

// -- Micro-kernel -------------------------------------------------------

/// C[0..MR)[0..NR) += Ap·Bp over kc steps, k ascending, one multiply-add
/// chain per element rooted at the loaded C value — the accumulation
/// contract every kernel in this file shares. Fully unrolled fixed-trip
/// inner loops auto-vectorize over the NR lanes.
inline void MicroKernel(int kc, const float* ap, const float* bp, float* c,
                        int ldc) {
  float acc[MR][NR];
  for (int r = 0; r < MR; ++r) {
    for (int j = 0; j < NR; ++j) acc[r][j] = c[static_cast<int64_t>(r) * ldc + j];
  }
  for (int kk = 0; kk < kc; ++kk) {
    const float* arow = ap + kk * MR;
    const float* brow = bp + kk * NR;
    for (int r = 0; r < MR; ++r) {
      const float av = arow[r];
      for (int j = 0; j < NR; ++j) acc[r][j] += av * brow[j];
    }
  }
  for (int r = 0; r < MR; ++r) {
    for (int j = 0; j < NR; ++j) c[static_cast<int64_t>(r) * ldc + j] = acc[r][j];
  }
}

/// Edge tiles route through a padded MR×NR staging buffer so the one
/// micro-kernel serves every tile; padded lanes compute garbage that is
/// never copied back, and real lanes keep the exact per-element k-chain.
inline void MicroKernelEdge(int kc, int mr, int nr, const float* ap,
                            const float* bp, float* c, int ldc) {
  float staging[MR * NR] = {};
  for (int r = 0; r < mr; ++r) {
    for (int j = 0; j < nr; ++j) {
      staging[r * NR + j] = c[static_cast<int64_t>(r) * ldc + j];
    }
  }
  MicroKernel(kc, ap, bp, staging, NR);
  for (int r = 0; r < mr; ++r) {
    for (int j = 0; j < nr; ++j) {
      c[static_cast<int64_t>(r) * ldc + j] = staging[r * NR + j];
    }
  }
}

void BlockedRows(Variant variant, int m, int n, int k, const float* a,
                 const float* bp, float* c, int r0, int r1) {
  // Per-worker A staging, grown once and reused across calls.
  thread_local std::vector<float> ap;
  const size_t ap_size =
      static_cast<size_t>((MC + MR - 1) / MR) * MR * std::min(k, KC);
  if (ap.size() < ap_size) ap.resize(ap_size);
  const int panels = (n + NR - 1) / NR;
  // k blocks ascend so each element's accumulation chain stays in naive
  // order; the store/reload of C between blocks is exact.
  for (int k0 = 0; k0 < k; k0 += KC) {
    const int kc = std::min(KC, k - k0);
    for (int i0 = r0; i0 < r1; i0 += MC) {
      const int mc = std::min(MC, r1 - i0);
      PackATile(variant, m, k, a, i0, mc, k0, kc, ap.data());
      for (int p = 0; p < panels; ++p) {
        const int j0 = p * NR;
        const int nr = std::min(NR, n - j0);
        const float* bpanel =
            bp + (static_cast<int64_t>(p) * k + k0) * NR;
        for (int ii = 0; ii < mc; ii += MR) {
          const int mr = std::min(MR, mc - ii);
          const float* atile =
              ap.data() + static_cast<int64_t>(ii / MR) * kc * MR;
          float* ctile = c + static_cast<int64_t>(i0 + ii) * n + j0;
          if (mr == MR && nr == NR) {
            MicroKernel(kc, atile, bpanel, ctile, n);
          } else {
            MicroKernelEdge(kc, mr, nr, atile, bpanel, ctile, n);
          }
        }
      }
    }
  }
}

}  // namespace

void GemmNaive(Variant variant, int m, int n, int k, const float* a,
               const float* b, float* c) {
  if (m <= 0 || n <= 0 || k <= 0) return;
  switch (variant) {
    case Variant::kNN:
      // i-k-j: streams B and C rows; the j loop vectorizes.
      for (int i = 0; i < m; ++i) {
        const float* arow = a + static_cast<int64_t>(i) * k;
        float* crow = c + static_cast<int64_t>(i) * n;
        for (int kk = 0; kk < k; ++kk) {
          const float av = arow[kk];
          const float* brow = b + static_cast<int64_t>(kk) * n;
          for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
        }
      }
      return;
    case Variant::kTN:
      // C[i][j] += sum_kk A[kk][i] * B[kk][j], k outermost.
      for (int kk = 0; kk < k; ++kk) {
        const float* arow = a + static_cast<int64_t>(kk) * m;
        const float* brow = b + static_cast<int64_t>(kk) * n;
        for (int i = 0; i < m; ++i) {
          const float av = arow[i];
          float* crow = c + static_cast<int64_t>(i) * n;
          for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
        }
      }
      return;
    case Variant::kNT:
      // Row-by-row dots; the chain starts from C so the accumulation
      // contract matches the other variants.
      for (int i = 0; i < m; ++i) {
        const float* arow = a + static_cast<int64_t>(i) * k;
        float* crow = c + static_cast<int64_t>(i) * n;
        for (int j = 0; j < n; ++j) {
          const float* brow = b + static_cast<int64_t>(j) * k;
          float acc = crow[j];
          for (int kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
          crow[j] = acc;
        }
      }
      return;
  }
}

void GemmBlocked(Variant variant, int m, int n, int k, const float* a,
                 const float* b, float* c) {
  if (m <= 0 || n <= 0 || k <= 0) return;
  const int panels = (n + NR - 1) / NR;
  // Per-thread B packing buffer, grown once and reused, so a GEMM call
  // does not heap-allocate in the steady-state training loop.
  thread_local std::vector<float> bp;
  const size_t bp_size = static_cast<size_t>(panels) * k * NR;
  if (bp.size() < bp_size) bp.resize(bp_size);
  // Workers must read the packing thread's buffer, not their own
  // thread_local, so grab the pointer before the parallel region.
  float* const bp_data = bp.data();
  PackBPanels(variant, n, k, b, bp_data);

  // Parallelism partitions C rows in MR units: an output element is owned
  // by exactly one task, so results are partition- (thread-count-)
  // invariant.
  const int64_t row_units = (m + MR - 1) / MR;
  const int64_t flops_per_unit = FlopCount(MR, n, k);
  const int64_t grain =
      std::max<int64_t>(1, kMinFlopsPerTask / std::max<int64_t>(
                                                  flops_per_unit, 1));
  if (IsSingleTask(grain, row_units)) {
    BlockedRows(variant, m, n, k, a, bp_data, c, 0, m);
    return;
  }
  parallel::ParallelFor(grain, row_units, [&](int64_t u0, int64_t u1) {
    BlockedRows(variant, m, n, k, a, bp_data, c,
                static_cast<int>(u0 * MR),
                static_cast<int>(std::min<int64_t>(u1 * MR, m)));
  });
}

Kernel ChooseKernel(int64_t m, int64_t n, int64_t k, Variant variant) {
  (void)k;
  const int env = EnvKernel();
  if (env == 1) return Kernel::kNaive;
  if (env == 2) return Kernel::kBlocked;
  const int min_rows =
      variant == Variant::kNT ? kBlockedMinRowsNt : kBlockedMinRows;
  if (m >= min_rows && n >= kBlockedMinCols) return Kernel::kBlocked;
  return Kernel::kNaive;
}

void ReloadKernelEnvForTesting() {
  g_env_kernel.store(-1, std::memory_order_relaxed);
}

void Gemm(Variant variant, int m, int n, int k, const float* a,
          const float* b, float* c, Kernel kernel) {
  if (m <= 0 || n <= 0 || k <= 0) return;
  if (kernel == Kernel::kAuto) kernel = ChooseKernel(m, n, k, variant);
  if (obs::Enabled()) {
    GemmMetrics& metrics = GemmMetrics::Get();
    metrics.calls->Increment();
    metrics.flops->Increment(FlopCount(m, n, k));
    if (kernel == Kernel::kBlocked) metrics.blocked_calls->Increment();
  }
  if (kernel == Kernel::kBlocked) {
    GemmBlocked(variant, m, n, k, a, b, c);
  } else {
    GemmNaive(variant, m, n, k, a, b, c);
  }
}

}  // namespace gemm
}  // namespace tracer
