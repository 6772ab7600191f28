#ifndef TRACER_AUTOGRAD_OPS_H_
#define TRACER_AUTOGRAD_OPS_H_

#include <vector>

#include "autograd/variable.h"

namespace tracer {
namespace autograd {

// Differentiable operations. Every function records a tape node whose
// backward closure accumulates gradients into the inputs that require them.
// Shapes follow src/tensor/tensor_ops.h.

/// A · B for A (M×K), B (K×N).
Variable MatMul(const Variable& a, const Variable& b);
/// Elementwise sum (same shape).
Variable Add(const Variable& a, const Variable& b);
/// Elementwise difference.
Variable Sub(const Variable& a, const Variable& b);
/// Elementwise product.
Variable Mul(const Variable& a, const Variable& b);
/// Row broadcast: a (M×N) + row (1×N). Standard bias add.
Variable AddRows(const Variable& a, const Variable& row);
/// Column broadcast: mat (M×N) scaled per-row by col (M×1).
Variable MulColBroadcast(const Variable& mat, const Variable& col);
/// Scalar multiply.
Variable Scale(const Variable& a, float s);
/// Scalar add.
Variable AddScalar(const Variable& a, float s);
/// -a.
Variable Neg(const Variable& a);
/// 1 - a (used for GRU gate complement).
Variable OneMinus(const Variable& a);

// Nonlinearities.
Variable Sigmoid(const Variable& a);
Variable Tanh(const Variable& a);
Variable Relu(const Variable& a);

// Fused recurrent gate blocks. Each records one tape node over the step's
// precomputed projections (the MatMuls stay separate "matmul" nodes), and
// its value and every gradient are bitwise-equal to the composed
// Add/AddRows/Sigmoid/Tanh/OneMinus/Mul ops it replaces, provided the
// projections are passed as below (DESIGN "Fused recurrent gates").
// Projections and states are M×N, biases 1×N.

/// GRU gates (Eq. 6–9), tape name "gru_gates":
///   z = σ(xz + hz + b_z),  r = σ(xr + hr + b_r),
///   ĥ = tanh(xh + r ⊙ hh + b_h),  h = (1 − z) ⊙ ĥ + z ⊙ h_prev → M×N.
Variable GruGates(const Variable& xz, const Variable& hz, const Variable& b_z,
                  const Variable& xr, const Variable& hr, const Variable& b_r,
                  const Variable& xh, const Variable& hh, const Variable& b_h,
                  const Variable& h_prev);

/// LSTM gates, tape name "lstm_gates":
///   i = σ(xi + hi + b_i),  f = σ(xf + hf + b_f),  o = σ(xo + ho + b_o),
///   c̃ = tanh(xc + hc + b_c),  c = f ⊙ c_prev + i ⊙ c̃,  h = o ⊙ tanh(c).
/// A tape node holds one value, so it returns [h | c] (M×2N); split it with
/// SliceCols.
Variable LstmGates(const Variable& xi, const Variable& hi, const Variable& b_i,
                   const Variable& xf, const Variable& hf, const Variable& b_f,
                   const Variable& xo, const Variable& ho, const Variable& b_o,
                   const Variable& xc, const Variable& hc, const Variable& b_c,
                   const Variable& c_prev);

/// Horizontal concatenation (equal row counts).
Variable ConcatCols(const Variable& a, const Variable& b);
/// Concatenates many matrices left-to-right.
Variable ConcatColsMany(const std::vector<Variable>& parts);
/// Columns [begin, end).
Variable SliceCols(const Variable& a, int begin, int end);
/// Vertical concatenation of many matrices (equal column counts) as one
/// tape node — the batching primitive that stacks timesteps into one GEMM
/// operand without a chain of pairwise copies.
Variable ConcatRows(const std::vector<Variable>& parts);
/// Rows [begin, end).
Variable SliceRows(const Variable& a, int begin, int end);
/// Numerically stable row-wise softmax.
Variable SoftmaxRows(const Variable& a);

/// Row sums of an M×N matrix → M×1 (per-sample reduction, e.g. the
/// bilinear attention scores of Dipole-general).
Variable RowSums(const Variable& a);
/// Mean of all entries → 1×1.
Variable MeanAll(const Variable& a);
/// Sum of all entries → 1×1.
Variable SumAll(const Variable& a);
/// Arithmetic mean of equally-shaped variables (Eq. 2 of the paper).
Variable Average(const std::vector<Variable>& xs);

/// Mean binary cross-entropy over the batch, computed from *logits* for
/// numerical stability (Eq. 15). logits and targets are B×1; targets is a
/// plain tensor in {0,1}.
Variable BinaryCrossEntropyWithLogits(const Variable& logits,
                                      const Tensor& targets);

/// Mean squared error: mean((pred - target)^2) over all entries.
Variable MeanSquaredError(const Variable& pred, const Tensor& target);

}  // namespace autograd
}  // namespace tracer

#endif  // TRACER_AUTOGRAD_OPS_H_
