#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/grad_check.h"
#include "autograd/ops.h"
#include "nn/gru.h"
#include "nn/linear.h"
#include "nn/module.h"
#include "nn/serialization.h"
#include "tensor/tensor_ops.h"
#include "tests/bitwise_oracle.h"

namespace tracer {
namespace nn {
namespace {

using autograd::Variable;
using testutil::ExpectSameGrads;
using testutil::HarvestGrads;
using testutil::SameBytes;

TEST(LinearTest, OutputShapeAndAffine) {
  Rng rng(1);
  Linear layer(3, 2, rng);
  Variable x = Variable::Constant(Tensor::Ones({4, 3}));
  Variable y = layer.Forward(x);
  EXPECT_EQ(y.value().rows(), 4);
  EXPECT_EQ(y.value().cols(), 2);
  // All rows identical for identical inputs.
  for (int j = 0; j < 2; ++j) {
    for (int i = 1; i < 4; ++i) {
      EXPECT_FLOAT_EQ(y.value().at(i, j), y.value().at(0, j));
    }
  }
}

TEST(LinearTest, GradCheckThroughLayer) {
  Rng rng(2);
  Linear layer(3, 2, rng);
  Tensor input = Tensor::Randn({4, 3}, rng, 0.5f);
  Variable x = Variable::Constant(input);
  auto forward = [&] { return autograd::MeanAll(layer.Forward(x)); };
  EXPECT_LT(autograd::MaxGradError(forward, layer.weight()), 2e-2f);
  EXPECT_LT(autograd::MaxGradError(forward, layer.bias()), 2e-2f);
}

TEST(LinearTest, ParameterCount) {
  Rng rng(3);
  Linear layer(5, 3, rng);
  EXPECT_EQ(layer.NumParameters(), 5 * 3 + 3);
  EXPECT_EQ(layer.Parameters().size(), 2u);
}

TEST(GruCellTest, StepShape) {
  Rng rng(4);
  GruCell cell(3, 6, rng);
  Variable x = Variable::Constant(Tensor::Randn({2, 3}, rng));
  Variable h = Variable::Constant(Tensor::Zeros({2, 6}));
  Variable out = cell.Step(x, h);
  EXPECT_EQ(out.value().rows(), 2);
  EXPECT_EQ(out.value().cols(), 6);
}

TEST(GruCellTest, ZeroUpdateGateKeepsCandidateMix) {
  // With zero hidden state and generic input the output must lie in
  // (-1, 1) since it is a convex combination of tanh output and zeros.
  Rng rng(5);
  GruCell cell(4, 5, rng);
  Variable x = Variable::Constant(Tensor::Randn({3, 4}, rng, 2.0f));
  Variable h = Variable::Constant(Tensor::Zeros({3, 5}));
  const Tensor out = cell.Step(x, h).value();
  for (int64_t i = 0; i < out.size(); ++i) {
    EXPECT_GT(out[i], -1.0f);
    EXPECT_LT(out[i], 1.0f);
  }
}

TEST(GruCellTest, GradCheckThroughStep) {
  Rng rng(6);
  GruCell cell(2, 3, rng);
  Tensor input = Tensor::Randn({2, 2}, rng, 0.5f);
  Variable x = Variable::Constant(input);
  Variable h0 = Variable::Constant(Tensor::Zeros({2, 3}));
  auto forward = [&] {
    return autograd::MeanAll(cell.Step(x, cell.Step(x, h0)));
  };
  // Check one weight from each gate family.
  const auto params = cell.NamedParameters();
  for (const auto& [name, param] : params) {
    EXPECT_LT(autograd::MaxGradError(forward, param), 3e-2f) << name;
  }
}

TEST(GruTest, RunLengthAndReverseDiffer) {
  Rng rng(7);
  Gru gru(3, 4, rng);
  std::vector<Variable> xs;
  for (int t = 0; t < 5; ++t) {
    xs.push_back(Variable::Constant(Tensor::Randn({2, 3}, rng)));
  }
  const auto fwd = gru.Run(xs, false);
  const auto bwd = gru.Run(xs, true);
  ASSERT_EQ(fwd.size(), 5u);
  ASSERT_EQ(bwd.size(), 5u);
  // Forward state at t=0 saw only x_0; backward state at t=0 saw all.
  EXPECT_GT(MaxAbsDiff(fwd[0].value(), bwd[0].value()), 1e-5f);
}

TEST(GruTest, CausalityForward) {
  // Changing x at the final step must not affect earlier hidden states.
  Rng rng(8);
  Gru gru(2, 3, rng);
  Rng data_rng(9);
  std::vector<Tensor> inputs;
  for (int t = 0; t < 4; ++t) {
    inputs.push_back(Tensor::Randn({1, 2}, data_rng));
  }
  auto run = [&](const std::vector<Tensor>& raw) {
    std::vector<Variable> xs;
    for (const Tensor& x : raw) xs.push_back(Variable::Constant(x));
    return gru.Run(xs, false);
  };
  const auto base = run(inputs);
  std::vector<Tensor> perturbed = inputs;
  perturbed[3].at(0, 0) += 10.0f;
  const auto changed = run(perturbed);
  for (int t = 0; t < 3; ++t) {
    EXPECT_LT(MaxAbsDiff(base[t].value(), changed[t].value()), 1e-7f)
        << "future leaked into step " << t;
  }
  EXPECT_GT(MaxAbsDiff(base[3].value(), changed[3].value()), 1e-6f);
}

TEST(BiGruTest, OutputDimIsTwiceHidden) {
  Rng rng(10);
  BiGru rnn(3, 4, rng);
  std::vector<Variable> xs;
  for (int t = 0; t < 3; ++t) {
    xs.push_back(Variable::Constant(Tensor::Randn({2, 3}, rng)));
  }
  const auto states = rnn.Run(xs);
  ASSERT_EQ(states.size(), 3u);
  EXPECT_EQ(states[0].value().cols(), 8);
  EXPECT_EQ(rnn.output_dim(), 8);
}

TEST(BiGruTest, BackwardHalfSeesOnlyFuture) {
  Rng rng(11);
  BiGru rnn(2, 3, rng);
  Rng data_rng(12);
  std::vector<Tensor> inputs;
  for (int t = 0; t < 4; ++t) {
    inputs.push_back(Tensor::Randn({1, 2}, data_rng));
  }
  auto run = [&](const std::vector<Tensor>& raw) {
    std::vector<Variable> xs;
    for (const Tensor& x : raw) xs.push_back(Variable::Constant(x));
    return rnn.Run(xs);
  };
  const auto base = run(inputs);
  std::vector<Tensor> perturbed = inputs;
  perturbed[0].at(0, 0) += 10.0f;  // change the first input
  const auto changed = run(perturbed);
  // The backward half at the last window only saw x_T, so it must be
  // unchanged; the forward half must change.
  const Tensor base_bwd = SliceCols(base[3].value(), 3, 6);
  const Tensor changed_bwd = SliceCols(changed[3].value(), 3, 6);
  EXPECT_LT(MaxAbsDiff(base_bwd, changed_bwd), 1e-7f);
  const Tensor base_fwd = SliceCols(base[3].value(), 0, 3);
  const Tensor changed_fwd = SliceCols(changed[3].value(), 0, 3);
  EXPECT_GT(MaxAbsDiff(base_fwd, changed_fwd), 1e-6f);
}

// ---- Fused gate oracle ----------------------------------------------------
//
// GruCell::Step records its gates as one "gru_gates" node. The composed ops
// that node replaced live on here as the oracle: the value and every
// gradient must match them byte for byte (DESIGN "Fused recurrent gates").

struct GruParams {
  Variable w_z, u_z, b_z, w_r, u_r, b_r, w_h, u_h, b_h;
};

// The nine GRU tensors registered under `prefix` ("" for a bare cell).
GruParams GruParamsOf(const Module& module, const std::string& prefix) {
  const auto by_name = testutil::ParamsByName(module);
  auto p = [&](const char* name) {
    return testutil::Param(by_name, prefix + name);
  };
  return {p("w_z"), p("u_z"), p("b_z"), p("w_r"), p("u_r"), p("b_r"), p("w_h"),
          p("u_h"), p("b_h")};
}

Variable ComposedGruStep(const GruParams& p, const Variable& x,
                         const Variable& h_prev) {
  using namespace autograd;  // NOLINT
  const Variable z = Sigmoid(
      AddRows(Add(MatMul(x, p.w_z), MatMul(h_prev, p.u_z)), p.b_z));
  const Variable r = Sigmoid(
      AddRows(Add(MatMul(x, p.w_r), MatMul(h_prev, p.u_r)), p.b_r));
  const Variable h_tilde = Tanh(AddRows(
      Add(MatMul(x, p.w_h), Mul(r, MatMul(h_prev, p.u_h))), p.b_h));
  return Add(Mul(OneMinus(z), h_tilde), Mul(z, h_prev));
}

// Gru::Run followed by BiGru's ConcatCols, over the composed step.
std::vector<Variable> ComposedBiGru(const GruParams& fwd, const GruParams& bwd,
                                    const std::vector<Variable>& xs) {
  const int steps = static_cast<int>(xs.size());
  auto run = [&](const GruParams& p, bool reverse) {
    Variable h = Variable::Constant(
        Tensor::Zeros({xs[0].value().rows(), p.u_z.value().rows()}));
    std::vector<Variable> states(xs.size());
    for (int i = 0; i < steps; ++i) {
      const int t = reverse ? steps - 1 - i : i;
      h = ComposedGruStep(p, xs[t], h);
      states[t] = h;
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

class GruGatesOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(GruGatesOracleTest, StepIsBitwiseEqualToComposedOps) {
  const int hidden = GetParam();
  Rng rng(40 + hidden);
  GruCell cell(26, hidden, rng);
  for (auto& [name, param] : cell.NamedParameters()) {
    if (name[0] == 'b') {
      param.mutable_value() = Tensor::Randn({1, hidden}, rng);
    }
  }
  Variable x = Variable::Parameter(Tensor::Randn({16, 26}, rng));
  Variable h_prev = Variable::Parameter(Tensor::Randn({16, hidden}, rng));
  const Tensor out_grad = Tensor::Randn({16, hidden}, rng);
  std::vector<Variable> vars = cell.Parameters();
  std::vector<std::string> names;
  for (const auto& [name, param] : cell.NamedParameters()) {
    names.push_back(name);
  }
  vars.insert(vars.end(), {x, h_prev});
  names.insert(names.end(), {"x", "h_prev"});

  Variable fused = cell.Step(x, h_prev);
  EXPECT_STREQ(fused.node()->op, "gru_gates");
  fused.Backward(out_grad);
  const std::vector<Tensor> fused_grads = HarvestGrads(vars);

  Variable composed = ComposedGruStep(GruParamsOf(cell, ""), x, h_prev);
  composed.Backward(out_grad);
  const std::vector<Tensor> composed_grads = HarvestGrads(vars);

  EXPECT_TRUE(SameBytes(fused.value(), composed.value()));
  ExpectSameGrads(fused_grads, composed_grads, names);
}

INSTANTIATE_TEST_SUITE_P(Hidden, GruGatesOracleTest,
                         ::testing::Values(1, 5, 16, 128));

TEST(GruGatesOracleChainTest, BiGruSequenceIsBitwiseEqualToComposedOps) {
  // T = 24 at the MIMIC shape. The inputs require gradients, so x_t and
  // every h_t collect deposits from several consumers: the fused node's
  // parent order must reproduce the composed accumulation order.
  Rng rng(47);
  BiGru rnn(26, 16, rng);
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

  const std::vector<Variable> composed = ComposedBiGru(
      GruParamsOf(rnn, "fwd.cell."), GruParamsOf(rnn, "bwd.cell."), xs);
  autograd::Average(composed).Backward(out_grad);
  const std::vector<Tensor> composed_grads = HarvestGrads(vars);

  for (int t = 0; t < 24; ++t) {
    EXPECT_TRUE(SameBytes(fused[t].value(), composed[t].value())) << t;
  }
  ExpectSameGrads(fused_grads, composed_grads, names);
}

TEST(ModuleTest, NamedParametersAreHierarchical) {
  Rng rng(13);
  BiGru rnn(2, 3, rng);
  const auto named = rnn.NamedParameters();
  EXPECT_EQ(named.size(), 18u);  // 2 directions × 9 GRU tensors
  bool found = false;
  for (const auto& [name, param] : named) {
    if (name == "fwd.cell.w_z") found = true;
  }
  EXPECT_TRUE(found);
}

TEST(SerializationTest, CheckpointRoundTrip) {
  Rng rng(14);
  std::vector<std::pair<std::string, Tensor>> tensors;
  tensors.emplace_back("a", Tensor::Randn({3, 4}, rng));
  tensors.emplace_back("b.c", Tensor::Randn({1, 7}, rng));
  const std::string path = ::testing::TempDir() + "/ckpt_test.bin";
  ASSERT_TRUE(SaveCheckpoint(path, tensors).ok());
  auto loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok());
  const auto& restored = loaded.value();
  ASSERT_EQ(restored.size(), 2u);
  EXPECT_EQ(restored[0].first, "a");
  EXPECT_EQ(restored[1].first, "b.c");
  EXPECT_LT(MaxAbsDiff(restored[0].second, tensors[0].second), 1e-9f);
  EXPECT_LT(MaxAbsDiff(restored[1].second, tensors[1].second), 1e-9f);
  std::remove(path.c_str());
}

TEST(SerializationTest, MissingFileIsIOError) {
  auto loaded = LoadCheckpoint("/nonexistent/path/ckpt.bin");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

TEST(SerializationTest, GarbageFileIsInvalidArgument) {
  const std::string path = ::testing::TempDir() + "/garbage.bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("not a checkpoint at all", f);
  std::fclose(f);
  auto loaded = LoadCheckpoint(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace nn
}  // namespace tracer
