#ifndef TRACER_TENSOR_TENSOR_OPS_H_
#define TRACER_TENSOR_TENSOR_OPS_H_

#include <cmath>

#include "tensor/tensor.h"

namespace tracer {

// Dense kernels over rank-2 tensors (and elementwise over any rank). These
// are the raw numeric primitives; the autograd layer builds differentiable
// graphs on top of them. All functions CHECK shape compatibility.
//
// The matmul family dispatches into the compute-kernel layer
// (tensor/gemm.h): large shapes run a cache-blocked, packed, thread-parallel
// kernel, small ones the naive reference. Both share one per-element
// accumulation order, so outputs are bit-identical regardless of kernel or
// thread count. Large elementwise loops parallelize the same way. Overrides:
// TRACER_GEMM=naive|blocked, TRACER_THREADS=<n>.

/// C = A · B for A (M×K), B (K×N).
Tensor MatMul(const Tensor& a, const Tensor& b);

/// C += A · B, accumulating into an existing M×N tensor.
void MatMulAccum(const Tensor& a, const Tensor& b, Tensor* out);

/// C = Aᵀ · B for A (K×M), B (K×N) → (M×N). Used by backward passes.
Tensor MatMulTransA(const Tensor& a, const Tensor& b);
void MatMulTransAAccum(const Tensor& a, const Tensor& b, Tensor* out);

/// C = A · Bᵀ for A (M×K), B (N×K) → (M×N). Used by backward passes.
Tensor MatMulTransB(const Tensor& a, const Tensor& b);
void MatMulTransBAccum(const Tensor& a, const Tensor& b, Tensor* out);

/// Elementwise sum; shapes must match.
Tensor Add(const Tensor& a, const Tensor& b);
/// Elementwise difference.
Tensor Sub(const Tensor& a, const Tensor& b);
/// Elementwise (Hadamard) product.
Tensor Mul(const Tensor& a, const Tensor& b);
/// Elementwise quotient.
Tensor Div(const Tensor& a, const Tensor& b);
/// out += a (elementwise accumulate).
void AddInPlace(Tensor* out, const Tensor& a);
/// out += scale * a.
void Axpy(float scale, const Tensor& a, Tensor* out);
/// out += a ∘ b (fused Hadamard accumulate — no temporary).
void MulAccum(const Tensor& a, const Tensor& b, Tensor* out);
/// out += mat scaled per-row by col (M×1). Fused backward helper.
void MulColBroadcastAccum(const Tensor& mat, const Tensor& col, Tensor* out);
/// out (1×N) += column sums of a (M×N). Fused bias-gradient helper.
void ColSumAccum(const Tensor& a, Tensor* out);
/// out += src[:, begin:end). Fused concat-backward helper.
void SliceColsAccum(const Tensor& src, int begin, int end, Tensor* out);

/// a + row, broadcasting a (1×N) row over every row of a (M×N) matrix.
Tensor AddRowBroadcast(const Tensor& a, const Tensor& row);
/// Column-broadcast product: mat (M×N) scaled per-row by col (M×1).
Tensor MulColBroadcast(const Tensor& mat, const Tensor& col);

/// Scalar multiply.
Tensor Scale(const Tensor& a, float s);
/// Scalar add.
Tensor AddScalar(const Tensor& a, float s);

/// Logistic function of one value, in the overflow-safe form (no exp of a
/// large positive argument). Sigmoid and the fused recurrent-gate ops
/// (autograd/ops.h) share it, so their gates agree bit for bit.
inline float SigmoidScalar(float x) {
  if (x >= 0.0f) {
    const float z = std::exp(-x);
    return 1.0f / (1.0f + z);
  }
  const float z = std::exp(x);
  return z / (1.0f + z);
}

// Elementwise nonlinearities.
Tensor Sigmoid(const Tensor& a);
Tensor Tanh(const Tensor& a);
Tensor Relu(const Tensor& a);
Tensor Exp(const Tensor& a);
Tensor Log(const Tensor& a);

/// Sum of all entries.
float SumAll(const Tensor& a);
/// Mean of all entries.
float MeanAll(const Tensor& a);
/// Column sums of an M×N matrix → 1×N.
Tensor ColSum(const Tensor& a);
/// Row sums of an M×N matrix → M×1.
Tensor RowSum(const Tensor& a);
/// Row-wise numerically stable softmax of an M×N matrix.
Tensor SoftmaxRows(const Tensor& a);

/// Matrix transpose (M×N → N×M).
Tensor Transpose(const Tensor& a);

/// Horizontal concatenation of matrices with equal row counts.
Tensor ConcatCols(const Tensor& a, const Tensor& b);
/// Columns [begin, end) of an M×N matrix.
Tensor SliceCols(const Tensor& a, int begin, int end);

/// Vertical concatenation of matrices with equal column counts (row-major
/// rows are contiguous, so this is a straight copy). The batching
/// primitive: stacking rows never changes a GEMM element's k-chain.
Tensor ConcatRows(const std::vector<const Tensor*>& parts);
/// Rows [begin, end) of an M×N matrix.
Tensor SliceRows(const Tensor& a, int begin, int end);
/// out += src rows [begin, end). Fused row-concat-backward helper.
void SliceRowsAccum(const Tensor& src, int begin, int end, Tensor* out);
/// dst rows [begin, end) += src. Fused row-slice-backward helper.
void AddToRowsAccum(const Tensor& src, int begin, Tensor* dst);

/// Max |a - b| over all entries; shapes must match.
float MaxAbsDiff(const Tensor& a, const Tensor& b);
/// Frobenius / L2 norm of all entries.
float Norm(const Tensor& a);

}  // namespace tracer

#endif  // TRACER_TENSOR_TENSOR_OPS_H_
