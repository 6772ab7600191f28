#include "nn/gru.h"

#include "common/macros.h"

namespace tracer {
namespace nn {

using autograd::Variable;

GruCell::GruCell(int input_dim, int hidden_dim, Rng& rng)
    : input_dim_(input_dim), hidden_dim_(hidden_dim) {
  auto make_w = [&] { return Tensor::XavierUniform(input_dim, hidden_dim, rng); };
  auto make_u = [&] { return Tensor::XavierUniform(hidden_dim, hidden_dim, rng); };
  auto make_b = [&] { return Tensor::Zeros({1, hidden_dim}); };
  w_z_ = AddParameter("w_z", make_w());
  u_z_ = AddParameter("u_z", make_u());
  b_z_ = AddParameter("b_z", make_b());
  w_r_ = AddParameter("w_r", make_w());
  u_r_ = AddParameter("u_r", make_u());
  b_r_ = AddParameter("b_r", make_b());
  w_h_ = AddParameter("w_h", make_w());
  u_h_ = AddParameter("u_h", make_u());
  b_h_ = AddParameter("b_h", make_b());
}

Variable GruCell::Step(const Variable& x, const Variable& h_prev) const {
  using namespace autograd;  // NOLINT
  return GruGates(MatMul(x, w_z_), MatMul(h_prev, u_z_), b_z_,
                  MatMul(x, w_r_), MatMul(h_prev, u_r_), b_r_,
                  MatMul(x, w_h_), MatMul(h_prev, u_h_), b_h_, h_prev);
}

Gru::Gru(int input_dim, int hidden_dim, Rng& rng)
    : cell_(input_dim, hidden_dim, rng) {
  AddSubmodule("cell", &cell_);
}

std::vector<Variable> Gru::Run(const std::vector<Variable>& xs,
                               bool reverse) const {
  TRACER_CHECK(!xs.empty());
  const int batch = xs[0].value().rows();
  const int time_steps = static_cast<int>(xs.size());
  Variable h = Variable::Constant(
      Tensor::Zeros({batch, cell_.hidden_dim()}));
  std::vector<Variable> states(xs.size());
  for (int i = 0; i < time_steps; ++i) {
    const int t = reverse ? time_steps - 1 - i : i;
    h = cell_.Step(xs[t], h);
    states[t] = h;
  }
  return states;
}

BiGru::BiGru(int input_dim, int hidden_dim, Rng& rng)
    : forward_(input_dim, hidden_dim, rng),
      backward_(input_dim, hidden_dim, rng) {
  AddSubmodule("fwd", &forward_);
  AddSubmodule("bwd", &backward_);
}

std::vector<Variable> BiGru::Run(const std::vector<Variable>& xs) const {
  std::vector<Variable> fwd = forward_.Run(xs, /*reverse=*/false);
  std::vector<Variable> bwd = backward_.Run(xs, /*reverse=*/true);
  std::vector<Variable> out(xs.size());
  for (size_t t = 0; t < xs.size(); ++t) {
    out[t] = autograd::ConcatCols(fwd[t], bwd[t]);
  }
  return out;
}

}  // namespace nn
}  // namespace tracer
