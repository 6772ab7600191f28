#include "autograd/ops.h"

#include <cmath>
#include <initializer_list>

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

// Parent i's gradient buffer, or null when that parent takes no gradient.
float* GradOrNull(Node& node, size_t i) {
  return Wants(node, i) ? node.parents[i]->EnsureGrad().data() : nullptr;
}

void CheckGateOperands(const char* op, const Tensor& state,
                       std::initializer_list<const Variable*> projections,
                       std::initializer_list<const Variable*> biases) {
  TRACER_CHECK_EQ(state.rank(), 2) << op << ": state must be a matrix";
  for (const Variable* p : projections) {
    TRACER_CHECK(p->value().SameShape(state))
        << op << ": projection " << p->value().ToString() << " vs state "
        << state.ToString();
  }
  for (const Variable* b : biases) {
    const Tensor& v = b->value();
    TRACER_CHECK(v.rank() == 2 && v.rows() == 1 && v.cols() == state.cols())
        << op << ": bias " << v.ToString() << " must be 1×" << state.cols();
  }
}

// Parent slots of the fused gate nodes. The order is the one in which the
// composed graphs' depth-first traversal reached each operand; see
// "Fused recurrent gates" below.
namespace gru_slot {
enum : size_t { kXz, kHz, kBz, kXh, kXr, kHr, kBr, kHh, kBh, kHPrev, kCount };
}  // namespace gru_slot
namespace lstm_slot {
enum : size_t {
  kXo, kHo, kBo, kXf, kHf, kBf, kCPrev, kXi, kHi, kBi, kXc, kHc, kBc, kCount
};
}  // namespace lstm_slot

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

// ---- Fused recurrent gates -------------------------------------------------
//
// Each loop performs, per element and with the same grouping, exactly the
// float operations the composed tape did: 1 − z is (z·(−1)) + 1, a sigmoid's
// backward is (dy·y)·(1 − y), and ops.cc is built with -ffp-contract=off so
// no multiply-add becomes an FMA in one path only. The composed tape seeded
// every intermediate gradient as 0 + v, which only turns −0 into +0; the +=
// into the parents' gradients below (accumulators that start at +0 and so
// never hold −0) erases that distinction the same way. Bias gradients are
// summed row by row, as ColSumAccum does.
//
// Accumulation order across nodes is fixed by the parent order. Backward
// visits nodes in reverse depth-first post-order, so listing the operands in
// the order the composed graph's traversal first reached them makes the
// MatMul nodes run — and deposit into x and the previous state — in the
// composed order. The node is visited where the step's output node was, so
// its own deposit into h_prev comes first, as the composed z ⊙ h_prev did.

Variable GruGates(const Variable& xz, const Variable& hz, const Variable& b_z,
                  const Variable& xr, const Variable& hr, const Variable& b_r,
                  const Variable& xh, const Variable& hh, const Variable& b_h,
                  const Variable& h_prev) {
  obs::ScopedOpTimer op_timer("gru_gates");
  const Tensor& state = h_prev.value();
  CheckGateOperands("GruGates", state, {&xz, &hz, &xr, &hr, &xh, &hh},
                    {&b_z, &b_r, &b_h});
  const int m = state.rows(), n = state.cols();
  const int64_t count = state.size();
  Tensor value(state.shape());
  // z, r and ĥ stacked, kept for the backward pass.
  Tensor saved({3 * m, n});
  float* z = saved.data();
  float* r = z + count;
  float* h_tilde = r + count;
  const float* pxz = xz.value().data();
  const float* phz = hz.value().data();
  const float* pbz = b_z.value().data();
  const float* pxr = xr.value().data();
  const float* phr = hr.value().data();
  const float* pbr = b_r.value().data();
  const float* pxh = xh.value().data();
  const float* phh = hh.value().data();
  const float* pbh = b_h.value().data();
  const float* php = state.data();
  float* h = value.data();
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      const int64_t e = static_cast<int64_t>(i) * n + j;
      z[e] = SigmoidScalar((pxz[e] + phz[e]) + pbz[j]);
      r[e] = SigmoidScalar((pxr[e] + phr[e]) + pbr[j]);
      h_tilde[e] = std::tanh((pxh[e] + r[e] * phh[e]) + pbh[j]);
      h[e] = ((z[e] * -1.0f) + 1.0f) * h_tilde[e] + z[e] * php[e];
    }
  }
  return MakeOpNode(
      "gru_gates", std::move(value),
      {xz.node(), hz.node(), b_z.node(), xh.node(), xr.node(), hr.node(),
       b_r.node(), hh.node(), b_h.node(), h_prev.node()},
      [saved = std::move(saved)](Node& node) {
        using namespace gru_slot;  // NOLINT
        const int rows = node.value.rows(), cols = node.value.cols();
        const int64_t size = node.value.size();
        // Saved z, r and ĥ.
        const float* sz = saved.data();
        const float* sr = sz + size;
        const float* sh = sr + size;
        const float* g = node.grad.data();
        const float* vhh = node.parents[kHh]->value.data();
        const float* vhp = node.parents[kHPrev]->value.data();
        float* d[kCount];
        for (size_t k = 0; k < kCount; ++k) d[k] = GradOrNull(node, k);
        for (int i = 0; i < rows; ++i) {
          for (int j = 0; j < cols; ++j) {
            const int64_t e = static_cast<int64_t>(i) * cols + j;
            const float dy = g[e];
            const float one_minus_z = (sz[e] * -1.0f) + 1.0f;
            const float d_pre_h = (dy * one_minus_z) * (1.0f - sh[e] * sh[e]);
            const float d_pre_r = ((d_pre_h * vhh[e]) * sr[e]) * (1.0f - sr[e]);
            const float dz = dy * vhp[e] + -1.0f * (dy * sh[e]);
            const float d_pre_z = (dz * sz[e]) * (1.0f - sz[e]);
            if (d[kHPrev] != nullptr) d[kHPrev][e] += dy * sz[e];
            if (d[kXh] != nullptr) d[kXh][e] += d_pre_h;
            if (d[kHh] != nullptr) d[kHh][e] += d_pre_h * sr[e];
            if (d[kBh] != nullptr) d[kBh][j] += d_pre_h;
            if (d[kXr] != nullptr) d[kXr][e] += d_pre_r;
            if (d[kHr] != nullptr) d[kHr][e] += d_pre_r;
            if (d[kBr] != nullptr) d[kBr][j] += d_pre_r;
            if (d[kXz] != nullptr) d[kXz][e] += d_pre_z;
            if (d[kHz] != nullptr) d[kHz][e] += d_pre_z;
            if (d[kBz] != nullptr) d[kBz][j] += d_pre_z;
          }
        }
      });
}

Variable LstmGates(const Variable& xi, const Variable& hi, const Variable& b_i,
                   const Variable& xf, const Variable& hf, const Variable& b_f,
                   const Variable& xo, const Variable& ho, const Variable& b_o,
                   const Variable& xc, const Variable& hc, const Variable& b_c,
                   const Variable& c_prev) {
  obs::ScopedOpTimer op_timer("lstm_gates");
  const Tensor& state = c_prev.value();
  CheckGateOperands("LstmGates", state,
                    {&xi, &hi, &xf, &hf, &xo, &ho, &xc, &hc},
                    {&b_i, &b_f, &b_o, &b_c});
  const int m = state.rows(), n = state.cols();
  const int64_t count = state.size();
  Tensor value({m, 2 * n});
  // i, f, o, c̃ and tanh(c) stacked, kept for the backward pass.
  Tensor saved({5 * m, n});
  float* ig = saved.data();
  float* fg = ig + count;
  float* og = fg + count;
  float* cand = og + count;
  float* tanh_c = cand + count;
  const float* pxi = xi.value().data();
  const float* phi = hi.value().data();
  const float* pbi = b_i.value().data();
  const float* pxf = xf.value().data();
  const float* phf = hf.value().data();
  const float* pbf = b_f.value().data();
  const float* pxo = xo.value().data();
  const float* pho = ho.value().data();
  const float* pbo = b_o.value().data();
  const float* pxc = xc.value().data();
  const float* phc = hc.value().data();
  const float* pbc = b_c.value().data();
  const float* pcp = state.data();
  float* out = value.data();
  for (int i = 0; i < m; ++i) {
    float* h_row = out + static_cast<int64_t>(i) * 2 * n;
    float* c_row = h_row + n;
    for (int j = 0; j < n; ++j) {
      const int64_t e = static_cast<int64_t>(i) * n + j;
      ig[e] = SigmoidScalar((pxi[e] + phi[e]) + pbi[j]);
      fg[e] = SigmoidScalar((pxf[e] + phf[e]) + pbf[j]);
      og[e] = SigmoidScalar((pxo[e] + pho[e]) + pbo[j]);
      cand[e] = std::tanh((pxc[e] + phc[e]) + pbc[j]);
      c_row[j] = fg[e] * pcp[e] + ig[e] * cand[e];
      tanh_c[e] = std::tanh(c_row[j]);
      h_row[j] = og[e] * tanh_c[e];
    }
  }
  return MakeOpNode(
      "lstm_gates", std::move(value),
      {xo.node(), ho.node(), b_o.node(), xf.node(), hf.node(), b_f.node(),
       c_prev.node(), xi.node(), hi.node(), b_i.node(), xc.node(), hc.node(),
       b_c.node()},
      [saved = std::move(saved)](Node& node) {
        using namespace lstm_slot;  // NOLINT
        const int rows = node.value.rows(), cols = node.value.cols() / 2;
        const int64_t size = static_cast<int64_t>(rows) * cols;
        // Saved i, f, o, c̃ and tanh(c).
        const float* si = saved.data();
        const float* sf = si + size;
        const float* so = sf + size;
        const float* sc = so + size;
        const float* stc = sc + size;
        const float* vcp = node.parents[kCPrev]->value.data();
        float* d[kCount];
        for (size_t k = 0; k < kCount; ++k) d[k] = GradOrNull(node, k);
        for (int i = 0; i < rows; ++i) {
          const float* dh_row =
              node.grad.data() + static_cast<int64_t>(i) * 2 * cols;
          const float* dc_row = dh_row + cols;
          for (int j = 0; j < cols; ++j) {
            const int64_t e = static_cast<int64_t>(i) * cols + j;
            const float dh = dh_row[j];
            // c's gradient from later steps, then from h = o ⊙ tanh(c).
            const float dc =
                dc_row[j] + (dh * so[e]) * (1.0f - stc[e] * stc[e]);
            const float d_pre_c = (dc * si[e]) * (1.0f - sc[e] * sc[e]);
            const float d_pre_i = ((dc * sc[e]) * si[e]) * (1.0f - si[e]);
            const float d_pre_f = ((dc * vcp[e]) * sf[e]) * (1.0f - sf[e]);
            const float d_pre_o = ((dh * stc[e]) * so[e]) * (1.0f - so[e]);
            if (d[kCPrev] != nullptr) d[kCPrev][e] += dc * sf[e];
            if (d[kXc] != nullptr) d[kXc][e] += d_pre_c;
            if (d[kHc] != nullptr) d[kHc][e] += d_pre_c;
            if (d[kBc] != nullptr) d[kBc][j] += d_pre_c;
            if (d[kXi] != nullptr) d[kXi][e] += d_pre_i;
            if (d[kHi] != nullptr) d[kHi][e] += d_pre_i;
            if (d[kBi] != nullptr) d[kBi][j] += d_pre_i;
            if (d[kXf] != nullptr) d[kXf][e] += d_pre_f;
            if (d[kHf] != nullptr) d[kHf][e] += d_pre_f;
            if (d[kBf] != nullptr) d[kBf][j] += d_pre_f;
            if (d[kXo] != nullptr) d[kXo][e] += d_pre_o;
            if (d[kHo] != nullptr) d[kHo][e] += d_pre_o;
            if (d[kBo] != nullptr) d[kBo][j] += d_pre_o;
          }
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
