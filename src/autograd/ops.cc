#include "autograd/ops.h"

#include <cmath>

#include "common/macros.h"
#include "obs/autograd_profiler.h"
#include "tensor/gemm.h"
#include "tensor/tensor_ops.h"

namespace tracer {
namespace autograd {

namespace {

// Shorthand used throughout: accumulate `delta` into parent i's gradient if
// that parent participates in differentiation.
bool Wants(const Node& node, size_t i) {
  return node.parents[i]->requires_grad;
}

}  // namespace

Variable MatMul(const Variable& a, const Variable& b) {
  obs::ScopedOpTimer op_timer("matmul");
  op_timer.SetFlops(gemm::FlopCount(a.value().rows(), b.value().cols(),
                                    a.value().cols()));
  Tensor value = tracer::MatMul(a.value(), b.value());
  // Backward: dA += dC·Bᵀ and dB += Aᵀ·dC through the fused transpose-GEMM
  // variants — no transposed copies, no gradient temporaries.
  return MakeOpNode("matmul", std::move(value), {a.node(), b.node()},
                    [](Node& n) {
    const int64_t m = n.parents[0]->value.rows();
    const int64_t k = n.parents[0]->value.cols();
    const int64_t cols = n.parents[1]->value.cols();
    int64_t flops = 0;
    if (Wants(n, 0)) {
      MatMulTransBAccum(n.grad, n.parents[1]->value,
                        &n.parents[0]->EnsureGrad());
      flops += gemm::FlopCount(m, k, cols);
    }
    if (Wants(n, 1)) {
      MatMulTransAAccum(n.parents[0]->value, n.grad,
                        &n.parents[1]->EnsureGrad());
      flops += gemm::FlopCount(k, cols, m);
    }
    obs::AutogradProfiler& profiler = obs::AutogradProfiler::Global();
    if (flops > 0 && profiler.enabled()) {
      profiler.AddBackwardFlops("matmul", flops);
    }
  });
}

Variable Add(const Variable& a, const Variable& b) {
  obs::ScopedOpTimer op_timer("add");
  Tensor value = tracer::Add(a.value(), b.value());
  return MakeOpNode("add", std::move(value), {a.node(), b.node()}, [](Node& n) {
    if (Wants(n, 0)) AddInPlace(&n.parents[0]->EnsureGrad(), n.grad);
    if (Wants(n, 1)) AddInPlace(&n.parents[1]->EnsureGrad(), n.grad);
  });
}

Variable Sub(const Variable& a, const Variable& b) {
  obs::ScopedOpTimer op_timer("sub");
  Tensor value = tracer::Sub(a.value(), b.value());
  return MakeOpNode("sub", std::move(value), {a.node(), b.node()}, [](Node& n) {
    if (Wants(n, 0)) AddInPlace(&n.parents[0]->EnsureGrad(), n.grad);
    if (Wants(n, 1)) Axpy(-1.0f, n.grad, &n.parents[1]->EnsureGrad());
  });
}

Variable Mul(const Variable& a, const Variable& b) {
  obs::ScopedOpTimer op_timer("mul");
  Tensor value = tracer::Mul(a.value(), b.value());
  return MakeOpNode("mul", std::move(value), {a.node(), b.node()}, [](Node& n) {
    if (Wants(n, 0)) {
      MulAccum(n.grad, n.parents[1]->value, &n.parents[0]->EnsureGrad());
    }
    if (Wants(n, 1)) {
      MulAccum(n.grad, n.parents[0]->value, &n.parents[1]->EnsureGrad());
    }
  });
}

Variable AddRows(const Variable& a, const Variable& row) {
  obs::ScopedOpTimer op_timer("add_rows");
  Tensor value = AddRowBroadcast(a.value(), row.value());
  return MakeOpNode("add_rows", std::move(value), {a.node(), row.node()},
                    [](Node& n) {
    if (Wants(n, 0)) AddInPlace(&n.parents[0]->EnsureGrad(), n.grad);
    if (Wants(n, 1)) {
      ColSumAccum(n.grad, &n.parents[1]->EnsureGrad());
    }
  });
}

Variable MulColBroadcast(const Variable& mat, const Variable& col) {
  obs::ScopedOpTimer op_timer("mul_col_broadcast");
  Tensor value = tracer::MulColBroadcast(mat.value(), col.value());
  return MakeOpNode("mul_col_broadcast", std::move(value),
                    {mat.node(), col.node()}, [](Node& n) {
    if (Wants(n, 0)) {
      MulColBroadcastAccum(n.grad, n.parents[1]->value,
                           &n.parents[0]->EnsureGrad());
    }
    if (Wants(n, 1)) {
      // dcol[i] += dot(dC row i, mat row i), fused without the Hadamard
      // temporary.
      Tensor& dst = n.parents[1]->EnsureGrad();
      const int m = n.grad.rows(), cols = n.grad.cols();
      for (int i = 0; i < m; ++i) {
        double acc = 0.0;
        for (int j = 0; j < cols; ++j) {
          acc += static_cast<double>(n.grad.at(i, j)) *
                 n.parents[0]->value.at(i, j);
        }
        dst.at(i, 0) += static_cast<float>(acc);
      }
    }
  });
}

Variable Scale(const Variable& a, float s) {
  obs::ScopedOpTimer op_timer("scale");
  Tensor value = tracer::Scale(a.value(), s);
  return MakeOpNode("scale", std::move(value), {a.node()}, [s](Node& n) {
    if (Wants(n, 0)) Axpy(s, n.grad, &n.parents[0]->EnsureGrad());
  });
}

Variable AddScalar(const Variable& a, float s) {
  obs::ScopedOpTimer op_timer("add_scalar");
  Tensor value = tracer::AddScalar(a.value(), s);
  return MakeOpNode("add_scalar", std::move(value), {a.node()}, [](Node& n) {
    if (Wants(n, 0)) AddInPlace(&n.parents[0]->EnsureGrad(), n.grad);
  });
}

Variable Neg(const Variable& a) { return Scale(a, -1.0f); }

Variable OneMinus(const Variable& a) {
  return AddScalar(Neg(a), 1.0f);
}

Variable Sigmoid(const Variable& a) {
  obs::ScopedOpTimer op_timer("sigmoid");
  Tensor value = tracer::Sigmoid(a.value());
  return MakeOpNode("sigmoid", std::move(value), {a.node()}, [](Node& n) {
    if (!Wants(n, 0)) return;
    // dx = dy * y * (1 - y)
    Tensor& dst = n.parents[0]->EnsureGrad();
    const float* y = n.value.data();
    const float* dy = n.grad.data();
    float* dx = dst.data();
    const int64_t count = n.value.size();
    for (int64_t i = 0; i < count; ++i) {
      dx[i] += dy[i] * y[i] * (1.0f - y[i]);
    }
  });
}

Variable Tanh(const Variable& a) {
  obs::ScopedOpTimer op_timer("tanh");
  Tensor value = tracer::Tanh(a.value());
  return MakeOpNode("tanh", std::move(value), {a.node()}, [](Node& n) {
    if (!Wants(n, 0)) return;
    Tensor& dst = n.parents[0]->EnsureGrad();
    const float* y = n.value.data();
    const float* dy = n.grad.data();
    float* dx = dst.data();
    const int64_t count = n.value.size();
    for (int64_t i = 0; i < count; ++i) {
      dx[i] += dy[i] * (1.0f - y[i] * y[i]);
    }
  });
}

Variable Relu(const Variable& a) {
  obs::ScopedOpTimer op_timer("relu");
  Tensor value = tracer::Relu(a.value());
  return MakeOpNode("relu", std::move(value), {a.node()}, [](Node& n) {
    if (!Wants(n, 0)) return;
    Tensor& dst = n.parents[0]->EnsureGrad();
    const float* x = n.parents[0]->value.data();
    const float* dy = n.grad.data();
    float* dx = dst.data();
    const int64_t count = n.value.size();
    for (int64_t i = 0; i < count; ++i) {
      if (x[i] > 0.0f) dx[i] += dy[i];
    }
  });
}

Variable ConcatCols(const Variable& a, const Variable& b) {
  obs::ScopedOpTimer op_timer("concat_cols");
  Tensor value = tracer::ConcatCols(a.value(), b.value());
  const int na = a.value().cols();
  const int nb = b.value().cols();
  return MakeOpNode("concat_cols", std::move(value), {a.node(), b.node()},
                    [na, nb](Node& n) {
    if (Wants(n, 0)) {
      SliceColsAccum(n.grad, 0, na, &n.parents[0]->EnsureGrad());
    }
    if (Wants(n, 1)) {
      SliceColsAccum(n.grad, na, na + nb, &n.parents[1]->EnsureGrad());
    }
  });
}

Variable ConcatColsMany(const std::vector<Variable>& parts) {
  TRACER_CHECK(!parts.empty());
  Variable out = parts[0];
  for (size_t i = 1; i < parts.size(); ++i) out = ConcatCols(out, parts[i]);
  return out;
}

Variable SliceCols(const Variable& a, int begin, int end) {
  obs::ScopedOpTimer op_timer("slice_cols");
  Tensor value = tracer::SliceCols(a.value(), begin, end);
  return MakeOpNode("slice_cols", std::move(value), {a.node()},
                    [begin, end](Node& n) {
    if (!Wants(n, 0)) return;
    Tensor& dst = n.parents[0]->EnsureGrad();
    const int m = n.grad.rows();
    for (int i = 0; i < m; ++i) {
      for (int j = begin; j < end; ++j) {
        dst.at(i, j) += n.grad.at(i, j - begin);
      }
    }
  });
}

Variable ConcatRows(const std::vector<Variable>& parts) {
  TRACER_CHECK(!parts.empty());
  obs::ScopedOpTimer op_timer("concat_rows");
  std::vector<const Tensor*> tensors;
  std::vector<NodePtr> parents;
  tensors.reserve(parts.size());
  parents.reserve(parts.size());
  for (const Variable& part : parts) {
    tensors.push_back(&part.value());
    parents.push_back(part.node());
  }
  Tensor value = tracer::ConcatRows(tensors);
  return MakeOpNode("concat_rows", std::move(value), std::move(parents),
                    [](Node& n) {
    int begin = 0;
    for (size_t i = 0; i < n.parents.size(); ++i) {
      const int rows = n.parents[i]->value.rows();
      if (Wants(n, i)) {
        SliceRowsAccum(n.grad, begin, begin + rows,
                       &n.parents[i]->EnsureGrad());
      }
      begin += rows;
    }
  });
}

Variable SliceRows(const Variable& a, int begin, int end) {
  obs::ScopedOpTimer op_timer("slice_rows");
  Tensor value = tracer::SliceRows(a.value(), begin, end);
  return MakeOpNode("slice_rows", std::move(value), {a.node()},
                    [begin](Node& n) {
    if (!Wants(n, 0)) return;
    AddToRowsAccum(n.grad, begin, &n.parents[0]->EnsureGrad());
  });
}

Variable SoftmaxRows(const Variable& a) {
  obs::ScopedOpTimer op_timer("softmax_rows");
  Tensor value = tracer::SoftmaxRows(a.value());
  return MakeOpNode("softmax_rows", std::move(value), {a.node()}, [](Node& n) {
    if (!Wants(n, 0)) return;
    // dx = (dy - rowsum(dy * y)) * y
    Tensor& dst = n.parents[0]->EnsureGrad();
    const int m = n.value.rows(), cols = n.value.cols();
    for (int i = 0; i < m; ++i) {
      double dot = 0.0;
      for (int j = 0; j < cols; ++j) {
        dot += static_cast<double>(n.grad.at(i, j)) * n.value.at(i, j);
      }
      for (int j = 0; j < cols; ++j) {
        dst.at(i, j) += (n.grad.at(i, j) - static_cast<float>(dot)) *
                        n.value.at(i, j);
      }
    }
  });
}

Variable RowSums(const Variable& a) {
  obs::ScopedOpTimer op_timer("row_sums");
  Tensor value = tracer::RowSum(a.value());
  return MakeOpNode("row_sums", std::move(value), {a.node()}, [](Node& n) {
    if (!Wants(n, 0)) return;
    Tensor& dst = n.parents[0]->EnsureGrad();
    const int m = dst.rows(), cols = dst.cols();
    for (int i = 0; i < m; ++i) {
      const float g = n.grad.at(i, 0);
      for (int j = 0; j < cols; ++j) dst.at(i, j) += g;
    }
  });
}

Variable MeanAll(const Variable& a) {
  obs::ScopedOpTimer op_timer("mean_all");
  Tensor value({1, 1});
  value[0] = tracer::MeanAll(a.value());
  const float inv = 1.0f / static_cast<float>(a.value().size());
  return MakeOpNode("mean_all", std::move(value), {a.node()}, [inv](Node& n) {
    if (!Wants(n, 0)) return;
    Tensor& dst = n.parents[0]->EnsureGrad();
    const float g = n.grad[0] * inv;
    float* dx = dst.data();
    const int64_t count = dst.size();
    for (int64_t i = 0; i < count; ++i) dx[i] += g;
  });
}

Variable SumAll(const Variable& a) {
  obs::ScopedOpTimer op_timer("sum_all");
  Tensor value({1, 1});
  value[0] = tracer::SumAll(a.value());
  return MakeOpNode("sum_all", std::move(value), {a.node()}, [](Node& n) {
    if (!Wants(n, 0)) return;
    Tensor& dst = n.parents[0]->EnsureGrad();
    const float g = n.grad[0];
    float* dx = dst.data();
    const int64_t count = dst.size();
    for (int64_t i = 0; i < count; ++i) dx[i] += g;
  });
}

Variable Average(const std::vector<Variable>& xs) {
  TRACER_CHECK(!xs.empty());
  Variable acc = xs[0];
  for (size_t i = 1; i < xs.size(); ++i) acc = Add(acc, xs[i]);
  return Scale(acc, 1.0f / static_cast<float>(xs.size()));
}

Variable BinaryCrossEntropyWithLogits(const Variable& logits,
                                      const Tensor& targets) {
  obs::ScopedOpTimer op_timer("bce_with_logits");
  const Tensor& z = logits.value();
  TRACER_CHECK(z.SameShape(targets)) << "BCE: logits/targets shape mismatch";
  TRACER_CHECK_GT(z.size(), 0);
  // loss_i = max(z,0) - z*y + log(1 + exp(-|z|)), averaged.
  Tensor value({1, 1});
  double acc = 0.0;
  const float* pz = z.data();
  const float* py = targets.data();
  const int64_t count = z.size();
  for (int64_t i = 0; i < count; ++i) {
    const double zi = pz[i];
    const double yi = py[i];
    acc += std::max(zi, 0.0) - zi * yi + std::log1p(std::exp(-std::fabs(zi)));
  }
  value[0] = static_cast<float>(acc / static_cast<double>(count));
  Tensor targets_copy = targets;
  return MakeOpNode(
      "bce_with_logits",
      std::move(value), {logits.node()},
      [targets_copy = std::move(targets_copy)](Node& n) {
        if (!Wants(n, 0)) return;
        // dz = (sigmoid(z) - y) / B
        Tensor& dst = n.parents[0]->EnsureGrad();
        const Tensor probs = tracer::Sigmoid(n.parents[0]->value);
        const float g = n.grad[0] / static_cast<float>(probs.size());
        const float* pp = probs.data();
        const float* py2 = targets_copy.data();
        float* dx = dst.data();
        const int64_t count2 = probs.size();
        for (int64_t i = 0; i < count2; ++i) {
          dx[i] += g * (pp[i] - py2[i]);
        }
      });
}

Variable MeanSquaredError(const Variable& pred, const Tensor& target) {
  obs::ScopedOpTimer op_timer("mse");
  const Tensor& p = pred.value();
  TRACER_CHECK(p.SameShape(target)) << "MSE: shape mismatch";
  TRACER_CHECK_GT(p.size(), 0);
  Tensor value({1, 1});
  double acc = 0.0;
  const float* pp = p.data();
  const float* pt = target.data();
  const int64_t count = p.size();
  for (int64_t i = 0; i < count; ++i) {
    const double d = static_cast<double>(pp[i]) - pt[i];
    acc += d * d;
  }
  value[0] = static_cast<float>(acc / static_cast<double>(count));
  Tensor target_copy = target;
  return MakeOpNode(
      "mse",
      std::move(value), {pred.node()},
      [target_copy = std::move(target_copy)](Node& n) {
        if (!Wants(n, 0)) return;
        Tensor& dst = n.parents[0]->EnsureGrad();
        const Tensor& pv = n.parents[0]->value;
        const float g = 2.0f * n.grad[0] / static_cast<float>(pv.size());
        const float* ppv = pv.data();
        const float* pt2 = target_copy.data();
        float* dx = dst.data();
        const int64_t count2 = pv.size();
        for (int64_t i = 0; i < count2; ++i) {
          dx[i] += g * (ppv[i] - pt2[i]);
        }
      });
}

}  // namespace autograd
}  // namespace tracer
