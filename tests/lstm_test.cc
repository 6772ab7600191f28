#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/grad_check.h"
#include "autograd/ops.h"
#include "nn/lstm.h"
#include "tensor/tensor_ops.h"
#include "tests/bitwise_oracle.h"

namespace tracer {
namespace nn {
namespace {

using autograd::Variable;
using testutil::ExpectSameGrads;
using testutil::HarvestGrads;
using testutil::SameBytes;

TEST(LstmCellTest, StepShapes) {
  Rng rng(1);
  LstmCell cell(3, 5, rng);
  const Variable x = Variable::Constant(Tensor::Randn({2, 3}, rng));
  LstmCell::State state = cell.InitialState(2);
  state = cell.Step(x, state);
  EXPECT_EQ(state.h.value().rows(), 2);
  EXPECT_EQ(state.h.value().cols(), 5);
  EXPECT_EQ(state.c.value().cols(), 5);
}

TEST(LstmCellTest, HiddenStateBounded) {
  Rng rng(2);
  LstmCell cell(4, 6, rng);
  const Variable x = Variable::Constant(Tensor::Randn({3, 4}, rng, 3.0f));
  LstmCell::State state = cell.InitialState(3);
  for (int step = 0; step < 5; ++step) state = cell.Step(x, state);
  // h = o ⊙ tanh(c) ∈ (-1, 1).
  const Tensor& h = state.h.value();
  for (int64_t i = 0; i < h.size(); ++i) {
    EXPECT_GT(h[i], -1.0f);
    EXPECT_LT(h[i], 1.0f);
  }
}

TEST(LstmCellTest, ForgetBiasInitialisedToOne) {
  Rng rng(3);
  LstmCell cell(2, 3, rng);
  bool found = false;
  for (const auto& [name, param] : cell.NamedParameters()) {
    if (name == "b_f") {
      found = true;
      for (int64_t i = 0; i < param.value().size(); ++i) {
        EXPECT_FLOAT_EQ(param.value()[i], 1.0f);
      }
    }
  }
  EXPECT_TRUE(found);
}

TEST(LstmCellTest, GradCheckThroughTwoSteps) {
  Rng rng(4);
  LstmCell cell(2, 3, rng);
  const Variable x = Variable::Constant(Tensor::Randn({2, 2}, rng, 0.5f));
  auto forward = [&] {
    LstmCell::State state = cell.InitialState(2);
    state = cell.Step(x, state);
    state = cell.Step(x, state);
    return autograd::MeanAll(state.h);
  };
  for (const auto& [name, param] : cell.NamedParameters()) {
    EXPECT_LT(autograd::MaxGradError(forward, param), 3e-2f) << name;
  }
}

TEST(LstmTest, RunLengthAndCausality) {
  Rng rng(5);
  Lstm lstm(2, 4, rng);
  Rng data_rng(6);
  std::vector<Tensor> inputs;
  for (int t = 0; t < 4; ++t) {
    inputs.push_back(Tensor::Randn({1, 2}, data_rng));
  }
  auto run = [&](const std::vector<Tensor>& raw) {
    std::vector<Variable> xs;
    for (const Tensor& x : raw) xs.push_back(Variable::Constant(x));
    return lstm.Run(xs, false);
  };
  const auto base = run(inputs);
  ASSERT_EQ(base.size(), 4u);
  std::vector<Tensor> perturbed = inputs;
  perturbed[3].at(0, 0) += 5.0f;
  const auto changed = run(perturbed);
  for (int t = 0; t < 3; ++t) {
    EXPECT_LT(MaxAbsDiff(base[t].value(), changed[t].value()), 1e-7f);
  }
  EXPECT_GT(MaxAbsDiff(base[3].value(), changed[3].value()), 1e-6f);
}

TEST(BiLstmTest, OutputDimAndDirectionality) {
  Rng rng(7);
  BiLstm rnn(3, 4, rng);
  std::vector<Variable> xs;
  for (int t = 0; t < 3; ++t) {
    xs.push_back(Variable::Constant(Tensor::Randn({2, 3}, rng)));
  }
  const auto states = rnn.Run(xs);
  ASSERT_EQ(states.size(), 3u);
  EXPECT_EQ(states[0].value().cols(), 8);
  EXPECT_EQ(rnn.output_dim(), 8);
  // Forward and backward halves differ for generic inputs.
  const Tensor fwd = SliceCols(states[1].value(), 0, 4);
  const Tensor bwd = SliceCols(states[1].value(), 4, 8);
  EXPECT_GT(MaxAbsDiff(fwd, bwd), 1e-6f);
}

TEST(BiLstmTest, ParameterCountMatchesTwoLstms) {
  Rng rng(8);
  BiLstm rnn(3, 4, rng);
  Lstm single(3, 4, rng);
  EXPECT_EQ(rnn.NumParameters(), 2 * single.NumParameters());
}

// ---- Fused gate oracle ----------------------------------------------------
//
// LstmCell::Step records its gates as one "lstm_gates" node whose [h | c]
// value two slice_cols nodes split. The composed ops it replaced are the
// oracle: values and every gradient must match them byte for byte (DESIGN
// "Fused recurrent gates").

struct LstmParams {
  Variable w_i, u_i, b_i, w_f, u_f, b_f, w_o, u_o, b_o, w_c, u_c, b_c;
};

// The twelve LSTM tensors registered under `prefix` ("" for a bare cell).
LstmParams LstmParamsOf(const Module& module, const std::string& prefix) {
  const auto by_name = testutil::ParamsByName(module);
  auto p = [&](const char* name) {
    return testutil::Param(by_name, prefix + name);
  };
  return {p("w_i"), p("u_i"), p("b_i"), p("w_f"), p("u_f"), p("b_f"), p("w_o"),
          p("u_o"), p("b_o"), p("w_c"), p("u_c"), p("b_c")};
}

LstmCell::State ComposedLstmStep(const LstmParams& p, const Variable& x,
                                 const LstmCell::State& prev) {
  using namespace autograd;  // NOLINT
  const Variable i = Sigmoid(
      AddRows(Add(MatMul(x, p.w_i), MatMul(prev.h, p.u_i)), p.b_i));
  const Variable f = Sigmoid(
      AddRows(Add(MatMul(x, p.w_f), MatMul(prev.h, p.u_f)), p.b_f));
  const Variable o = Sigmoid(
      AddRows(Add(MatMul(x, p.w_o), MatMul(prev.h, p.u_o)), p.b_o));
  const Variable candidate = Tanh(
      AddRows(Add(MatMul(x, p.w_c), MatMul(prev.h, p.u_c)), p.b_c));
  LstmCell::State next;
  next.c = Add(Mul(f, prev.c), Mul(i, candidate));
  next.h = Mul(o, Tanh(next.c));
  return next;
}

// Lstm::Run followed by BiLstm's ConcatCols, over the composed step.
std::vector<Variable> ComposedBiLstm(const LstmParams& fwd,
                                     const LstmParams& bwd,
                                     const std::vector<Variable>& xs) {
  const int steps = static_cast<int>(xs.size());
  auto run = [&](const LstmParams& p, bool reverse) {
    const Tensor zeros =
        Tensor::Zeros({xs[0].value().rows(), p.u_i.value().rows()});
    LstmCell::State state{Variable::Constant(zeros),
                          Variable::Constant(zeros)};
    std::vector<Variable> states(xs.size());
    for (int k = 0; k < steps; ++k) {
      const int t = reverse ? steps - 1 - k : k;
      state = ComposedLstmStep(p, xs[t], state);
      states[t] = state.h;
    }
    return states;
  };
  const std::vector<Variable> f = run(fwd, false);
  const std::vector<Variable> b = run(bwd, true);
  std::vector<Variable> out;
  for (int t = 0; t < steps; ++t) {
    out.push_back(autograd::ConcatCols(f[t], b[t]));
  }
  return out;
}

class LstmGatesOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(LstmGatesOracleTest, StepIsBitwiseEqualToComposedOps) {
  const int hidden = GetParam();
  Rng rng(60 + hidden);
  LstmCell cell(26, hidden, rng);
  for (auto& [name, param] : cell.NamedParameters()) {
    if (name[0] == 'b') {
      param.mutable_value() = Tensor::Randn({1, hidden}, rng);
    }
  }
  Variable x = Variable::Parameter(Tensor::Randn({16, 26}, rng));
  LstmCell::State prev{
      Variable::Parameter(Tensor::Randn({16, hidden}, rng)),
      Variable::Parameter(Tensor::Randn({16, hidden}, rng))};
  // One gradient for h and one for c, as when both feed later steps.
  const Tensor out_grad = Tensor::Randn({16, 2 * hidden}, rng);
  std::vector<Variable> vars = cell.Parameters();
  std::vector<std::string> names;
  for (const auto& [name, param] : cell.NamedParameters()) {
    names.push_back(name);
  }
  vars.insert(vars.end(), {x, prev.h, prev.c});
  names.insert(names.end(), {"x", "h_prev", "c_prev"});

  const LstmCell::State fused = cell.Step(x, prev);
  EXPECT_STREQ(fused.h.node()->parents[0]->op, "lstm_gates");
  autograd::ConcatCols(fused.h, fused.c).Backward(out_grad);
  const std::vector<Tensor> fused_grads = HarvestGrads(vars);

  const LstmCell::State composed =
      ComposedLstmStep(LstmParamsOf(cell, ""), x, prev);
  autograd::ConcatCols(composed.h, composed.c).Backward(out_grad);
  const std::vector<Tensor> composed_grads = HarvestGrads(vars);

  EXPECT_TRUE(SameBytes(fused.h.value(), composed.h.value()));
  EXPECT_TRUE(SameBytes(fused.c.value(), composed.c.value()));
  ExpectSameGrads(fused_grads, composed_grads, names);
}

INSTANTIATE_TEST_SUITE_P(Hidden, LstmGatesOracleTest,
                         ::testing::Values(1, 5, 16, 128));

TEST(LstmGatesOracleChainTest, BiLstmSequenceIsBitwiseEqualToComposedOps) {
  // T = 24 with inputs requiring gradients: x_t, h_t and c_t each collect
  // deposits from several consumers, in an order the fused node's parent
  // order must reproduce.
  Rng rng(67);
  BiLstm rnn(26, 16, rng);
  std::vector<Variable> xs;
  for (int t = 0; t < 24; ++t) {
    xs.push_back(Variable::Parameter(Tensor::Randn({16, 26}, rng)));
  }
  const Tensor out_grad = Tensor::Randn({16, 32}, rng);
  std::vector<Variable> vars = rnn.Parameters();
  std::vector<std::string> names;
  for (const auto& [name, param] : rnn.NamedParameters()) {
    names.push_back(name);
  }
  for (int t = 0; t < 24; ++t) {
    vars.push_back(xs[t]);
    names.push_back("x_" + std::to_string(t));
  }

  const std::vector<Variable> fused = rnn.Run(xs);
  autograd::Average(fused).Backward(out_grad);
  const std::vector<Tensor> fused_grads = HarvestGrads(vars);

  const std::vector<Variable> composed = ComposedBiLstm(
      LstmParamsOf(rnn, "fwd.cell."), LstmParamsOf(rnn, "bwd.cell."), xs);
  autograd::Average(composed).Backward(out_grad);
  const std::vector<Tensor> composed_grads = HarvestGrads(vars);

  for (int t = 0; t < 24; ++t) {
    EXPECT_TRUE(SameBytes(fused[t].value(), composed[t].value())) << t;
  }
  ExpectSameGrads(fused_grads, composed_grads, names);
}

}  // namespace
}  // namespace nn
}  // namespace tracer
