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
