#include "nn/lstm.h"

#include "common/macros.h"

namespace tracer {
namespace nn {

using autograd::Variable;

LstmCell::LstmCell(int input_dim, int hidden_dim, Rng& rng)
    : input_dim_(input_dim), hidden_dim_(hidden_dim) {
  auto make_w = [&] { return Tensor::XavierUniform(input_dim, hidden_dim, rng); };
  auto make_u = [&] { return Tensor::XavierUniform(hidden_dim, hidden_dim, rng); };
  auto make_b = [&] { return Tensor::Zeros({1, hidden_dim}); };
  w_i_ = AddParameter("w_i", make_w());
  u_i_ = AddParameter("u_i", make_u());
  b_i_ = AddParameter("b_i", make_b());
  w_f_ = AddParameter("w_f", make_w());
  u_f_ = AddParameter("u_f", make_u());
  b_f_ = AddParameter("b_f", Tensor::Ones({1, hidden_dim}));
  w_o_ = AddParameter("w_o", make_w());
  u_o_ = AddParameter("u_o", make_u());
  b_o_ = AddParameter("b_o", make_b());
  w_c_ = AddParameter("w_c", make_w());
  u_c_ = AddParameter("u_c", make_u());
  b_c_ = AddParameter("b_c", make_b());
}

LstmCell::State LstmCell::InitialState(int batch_size) const {
  State state;
  state.h = Variable::Constant(Tensor::Zeros({batch_size, hidden_dim_}));
  state.c = Variable::Constant(Tensor::Zeros({batch_size, hidden_dim_}));
  return state;
}

LstmCell::State LstmCell::Step(const Variable& x, const State& prev) const {
  using namespace autograd;  // NOLINT
  const Variable h_and_c = LstmGates(
      MatMul(x, w_i_), MatMul(prev.h, u_i_), b_i_,
      MatMul(x, w_f_), MatMul(prev.h, u_f_), b_f_,
      MatMul(x, w_o_), MatMul(prev.h, u_o_), b_o_,
      MatMul(x, w_c_), MatMul(prev.h, u_c_), b_c_, prev.c);
  State next;
  next.h = SliceCols(h_and_c, 0, hidden_dim_);
  next.c = SliceCols(h_and_c, hidden_dim_, 2 * hidden_dim_);
  return next;
}

Lstm::Lstm(int input_dim, int hidden_dim, Rng& rng)
    : cell_(input_dim, hidden_dim, rng) {
  AddSubmodule("cell", &cell_);
}

std::vector<Variable> Lstm::Run(const std::vector<Variable>& xs,
                                bool reverse) const {
  TRACER_CHECK(!xs.empty());
  const int batch = xs[0].value().rows();
  const int time_steps = static_cast<int>(xs.size());
  LstmCell::State state = cell_.InitialState(batch);
  std::vector<Variable> states(xs.size());
  for (int i = 0; i < time_steps; ++i) {
    const int t = reverse ? time_steps - 1 - i : i;
    state = cell_.Step(xs[t], state);
    states[t] = state.h;
  }
  return states;
}

BiLstm::BiLstm(int input_dim, int hidden_dim, Rng& rng)
    : forward_(input_dim, hidden_dim, rng),
      backward_(input_dim, hidden_dim, rng) {
  AddSubmodule("fwd", &forward_);
  AddSubmodule("bwd", &backward_);
}

std::vector<Variable> BiLstm::Run(const std::vector<Variable>& xs) const {
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
