// Property-based stress tests for the autograd engine: random expression
// DAGs built from the op library must match finite differences, regardless
// of shape, depth and sharing.

#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/grad_check.h"
#include "autograd/ops.h"
#include "common/rng.h"

namespace tracer {
namespace autograd {
namespace {

// Builds a random scalar-valued expression over `leaves` (all same shape)
// by repeatedly combining intermediate values with random ops. Reuses
// intermediates, so the graph is a DAG with sharing, not a tree.
Variable RandomExpression(const std::vector<Variable>& leaves, Rng& rng,
                          int ops) {
  std::vector<Variable> pool = leaves;
  for (int k = 0; k < ops; ++k) {
    const Variable& a = pool[rng.UniformInt(pool.size())];
    const Variable& b = pool[rng.UniformInt(pool.size())];
    Variable next;
    switch (rng.UniformInt(7)) {
      case 0:
        next = Add(a, b);
        break;
      case 1:
        next = Sub(a, b);
        break;
      case 2:
        next = Mul(a, b);
        break;
      case 3:
        next = Tanh(a);
        break;
      case 4:
        next = Sigmoid(a);
        break;
      case 5:
        next = Scale(a, static_cast<float>(rng.Uniform(-2.0, 2.0)));
        break;
      default:
        next = AddScalar(a, static_cast<float>(rng.Uniform(-1.0, 1.0)));
    }
    pool.push_back(next);
  }
  // Always mix in the first leaf so the output depends on a trainable
  // parameter even when the random walk ends on a constant-only branch.
  return MeanAll(Add(pool.back(), Scale(leaves[0], 0.5f)));
}

class RandomGraphTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomGraphTest, MatchesFiniteDifferences) {
  Rng rng(GetParam());
  Variable p0 = Variable::Parameter(Tensor::Randn({2, 3}, rng, 0.4f));
  Variable p1 = Variable::Parameter(Tensor::Randn({2, 3}, rng, 0.4f));
  Variable c = Variable::Constant(Tensor::Randn({2, 3}, rng, 0.4f));
  Rng graph_rng(GetParam() + 1000);
  // The same graph must be rebuilt identically inside the checker, so
  // capture the construction in a deterministic closure.
  auto forward = [&]() {
    Rng local(GetParam() + 2000);
    return RandomExpression({p0, p1, c}, local, 12);
  };
  EXPECT_LT(MaxGradError(forward, p0), 5e-2f);
  EXPECT_LT(MaxGradError(forward, p1), 5e-2f);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

TEST(AutogradStressTest, DeepChainGradientIsStable) {
  // 100 tanh compositions: gradients must stay finite (saturating but not
  // NaN/inf).
  Variable x = Variable::Parameter(Tensor::Full({1, 4}, 0.3f));
  Variable y = x;
  for (int i = 0; i < 100; ++i) y = Tanh(y);
  MeanAll(y).Backward();
  for (int64_t i = 0; i < x.grad().size(); ++i) {
    EXPECT_TRUE(std::isfinite(x.grad()[i]));
  }
}

TEST(AutogradStressTest, WideFanOutAccumulates) {
  // One parameter consumed by 64 branches: gradient = sum over branches.
  Variable x = Variable::Parameter(Tensor::Full({1, 1}, 2.0f));
  Variable acc;
  for (int i = 0; i < 64; ++i) {
    const Variable branch = Scale(x, 1.0f);
    acc = i == 0 ? branch : Add(acc, branch);
  }
  SumAll(acc).Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 64.0f);
}

// --- Per-op finite-difference coverage -------------------------------------
//
// Every differentiable op in autograd/ops.h appears below exactly once, so
// a new op cannot ship without finite-difference verification: add a case
// here when adding an op (the graph validator's shape rules in
// graph_check.cc should gain a matching entry too). The fused gate ops take
// ten or thirteen operands and are checked after the two-operand table.

struct OpGradCase {
  const char* name;
  std::vector<int> shape_a;
  std::vector<int> shape_b;
  /// Builds a scalar expression exercising the op from two parameters.
  Variable (*build)(const Variable& a, const Variable& b);
};

// Fixed targets for the loss ops (shapes match BuildBce/BuildMse below).
Tensor BceTargets() { return Tensor({4, 1}, {0.0f, 1.0f, 1.0f, 0.0f}); }
Tensor MseTargets() { return Tensor({4, 1}, {0.2f, -0.5f, 1.3f, 0.0f}); }

std::vector<OpGradCase> AllOpCases() {
  return {
      {"MatMul", {2, 3}, {3, 4},
       [](const Variable& a, const Variable& b) {
         return MeanAll(MatMul(a, b));
       }},
      {"ConcatRows", {3, 4}, {2, 4},
       [](const Variable& a, const Variable& b) {
         return MeanAll(Tanh(ConcatRows({a, b, a})));
       }},
      {"SliceRows", {5, 3}, {5, 3},
       [](const Variable& a, const Variable& b) {
         return MeanAll(SliceRows(Mul(a, b), 1, 4));
       }},
      {"Add", {2, 3}, {2, 3},
       [](const Variable& a, const Variable& b) {
         return MeanAll(Add(a, b));
       }},
      {"Sub", {2, 3}, {2, 3},
       [](const Variable& a, const Variable& b) {
         return MeanAll(Sub(a, b));
       }},
      {"Mul", {2, 3}, {2, 3},
       [](const Variable& a, const Variable& b) {
         return MeanAll(Mul(a, b));
       }},
      {"AddRows", {3, 4}, {1, 4},
       [](const Variable& a, const Variable& b) {
         return MeanAll(AddRows(Tanh(a), b));
       }},
      {"MulColBroadcast", {3, 4}, {3, 1},
       [](const Variable& a, const Variable& b) {
         return MeanAll(MulColBroadcast(a, b));
       }},
      {"Scale", {2, 3}, {2, 3},
       [](const Variable& a, const Variable& b) {
         return MeanAll(Scale(Mul(a, b), 1.7f));
       }},
      {"AddScalar", {2, 3}, {2, 3},
       [](const Variable& a, const Variable& b) {
         return MeanAll(AddScalar(Mul(a, b), -0.4f));
       }},
      {"Neg", {2, 3}, {2, 3},
       [](const Variable& a, const Variable& b) {
         return MeanAll(Neg(Mul(a, b)));
       }},
      {"OneMinus", {2, 3}, {2, 3},
       [](const Variable& a, const Variable& b) {
         return MeanAll(OneMinus(Mul(a, b)));
       }},
      {"Sigmoid", {2, 3}, {2, 3},
       [](const Variable& a, const Variable& b) {
         return MeanAll(Sigmoid(Mul(a, b)));
       }},
      {"Tanh", {2, 3}, {2, 3},
       [](const Variable& a, const Variable& b) {
         return MeanAll(Tanh(Mul(a, b)));
       }},
      {"Relu", {2, 3}, {2, 3},
       [](const Variable& a, const Variable& b) {
         // Shifted away from the kink at 0: central differences straddling
         // it would disagree with the subgradient.
         return MeanAll(Relu(AddScalar(Mul(a, b), 1.5f)));
       }},
      {"ConcatCols", {3, 2}, {3, 4},
       [](const Variable& a, const Variable& b) {
         return MeanAll(Tanh(ConcatCols(a, b)));
       }},
      {"ConcatColsMany", {3, 2}, {3, 2},
       [](const Variable& a, const Variable& b) {
         return MeanAll(Sigmoid(ConcatColsMany({a, b, a})));
       }},
      {"SliceCols", {3, 5}, {3, 5},
       [](const Variable& a, const Variable& b) {
         return MeanAll(SliceCols(Mul(a, b), 1, 4));
       }},
      {"SoftmaxRows", {3, 4}, {3, 4},
       [](const Variable& a, const Variable& b) {
         return MeanAll(Mul(SoftmaxRows(a), b));
       }},
      {"RowSums", {3, 4}, {3, 4},
       [](const Variable& a, const Variable& b) {
         return MeanAll(Tanh(RowSums(Mul(a, b))));
       }},
      {"MeanAll", {2, 3}, {2, 3},
       [](const Variable& a, const Variable& b) {
         return MeanAll(Mul(a, b));
       }},
      {"SumAll", {2, 3}, {2, 3},
       [](const Variable& a, const Variable& b) {
         return SumAll(Scale(Mul(a, b), 0.1f));
       }},
      {"Average", {2, 3}, {2, 3},
       [](const Variable& a, const Variable& b) {
         return MeanAll(Average({a, b, Mul(a, b)}));
       }},
      {"BinaryCrossEntropyWithLogits", {4, 1}, {4, 1},
       [](const Variable& a, const Variable& b) {
         return BinaryCrossEntropyWithLogits(Mul(a, b), BceTargets());
       }},
      {"MeanSquaredError", {4, 1}, {4, 1},
       [](const Variable& a, const Variable& b) {
         return MeanSquaredError(Mul(a, b), MseTargets());
       }},
  };
}

class OpGradCheckTest : public ::testing::TestWithParam<OpGradCase> {};

TEST_P(OpGradCheckTest, MatchesFiniteDifferences) {
  const OpGradCase& op_case = GetParam();
  Rng rng(99);
  Variable a =
      Variable::Parameter(Tensor::Randn(op_case.shape_a, rng, 0.5f));
  Variable b =
      Variable::Parameter(Tensor::Randn(op_case.shape_b, rng, 0.5f));
  auto forward = [&] { return op_case.build(a, b); };
  EXPECT_LT(MaxGradError(forward, a), 5e-2f) << op_case.name << " d/da";
  EXPECT_LT(MaxGradError(forward, b), 5e-2f) << op_case.name << " d/db";
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, OpGradCheckTest, ::testing::ValuesIn(AllOpCases()),
    [](const ::testing::TestParamInfo<OpGradCase>& param_info) {
      return std::string(param_info.param.name);
    });

// Operands of a fused gate op: M×N projections and state, 1×N biases at
// `bias_slots` (in the op's argument order), all trainable.
std::vector<Variable> GateOperands(int count, std::vector<int> bias_slots,
                                   Rng& rng) {
  std::vector<Variable> operands;
  for (int k = 0; k < count; ++k) {
    bool bias = false;
    for (int b : bias_slots) bias = bias || b == k;
    operands.push_back(
        Variable::Parameter(Tensor::Randn({bias ? 1 : 3, 4}, rng, 0.5f)));
  }
  return operands;
}

void ExpectGateGradsMatch(const char* op,
                          const std::function<Variable()>& forward,
                          const std::vector<Variable>& operands) {
  for (size_t k = 0; k < operands.size(); ++k) {
    if (!operands[k].requires_grad()) continue;
    EXPECT_LT(MaxGradError(forward, operands[k]), 2e-2f)
        << op << " operand " << k;
  }
}

// Each case sums the gate output under fixed random weights, so every
// output entry carries a different gradient. The constant-state cases pass
// the previous state as Gru::Run / LstmCell::InitialState build it: a
// Constant, which must receive no gradient while the rest still check.

Variable GruGatesLoss(const std::vector<Variable>& v, const Variable& w) {
  return SumAll(Mul(
      GruGates(v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7], v[8], v[9]),
      w));
}

Variable LstmGatesLoss(const std::vector<Variable>& v, const Variable& w) {
  return SumAll(Mul(LstmGates(v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7],
                              v[8], v[9], v[10], v[11], v[12]),
                    w));
}

TEST(FusedGateGradCheckTest, GruGatesAllOperands) {
  Rng rng(21);
  const std::vector<Variable> v = GateOperands(10, {2, 5, 8}, rng);
  const Variable w = Variable::Constant(Tensor::Randn({3, 4}, rng));
  ExpectGateGradsMatch("GruGates", [&] { return GruGatesLoss(v, w); }, v);
}

TEST(FusedGateGradCheckTest, GruGatesConstantInitialState) {
  Rng rng(22);
  std::vector<Variable> v = GateOperands(10, {2, 5, 8}, rng);
  v[9] = Variable::Constant(Tensor::Randn({3, 4}, rng, 0.5f));
  const Variable w = Variable::Constant(Tensor::Randn({3, 4}, rng));
  GruGatesLoss(v, w).Backward();
  EXPECT_FALSE(v[9].node()->grad_allocated);
  ExpectGateGradsMatch("GruGates", [&] { return GruGatesLoss(v, w); }, v);
  EXPECT_FALSE(v[9].node()->grad_allocated);
}

TEST(FusedGateGradCheckTest, LstmGatesAllOperands) {
  Rng rng(23);
  const std::vector<Variable> v = GateOperands(13, {2, 5, 8, 11}, rng);
  const Variable w = Variable::Constant(Tensor::Randn({3, 8}, rng));
  ExpectGateGradsMatch("LstmGates", [&] { return LstmGatesLoss(v, w); }, v);
}

TEST(FusedGateGradCheckTest, LstmGatesConstantInitialState) {
  Rng rng(24);
  std::vector<Variable> v = GateOperands(13, {2, 5, 8, 11}, rng);
  v[12] = Variable::Constant(Tensor::Randn({3, 4}, rng, 0.5f));
  const Variable w = Variable::Constant(Tensor::Randn({3, 8}, rng));
  LstmGatesLoss(v, w).Backward();
  EXPECT_FALSE(v[12].node()->grad_allocated);
  ExpectGateGradsMatch("LstmGates", [&] { return LstmGatesLoss(v, w); }, v);
  EXPECT_FALSE(v[12].node()->grad_allocated);
}

TEST(AutogradStressTest, RepeatedBackwardWithZeroGradIsIdempotent) {
  Rng rng(11);
  Variable x = Variable::Parameter(Tensor::Randn({3, 3}, rng));
  for (int round = 0; round < 3; ++round) {
    x.ZeroGrad();
    Variable y = MeanAll(Mul(x, x));
    y.Backward();
  }
  // After the final round the gradient equals 2x/9 exactly once.
  for (int64_t i = 0; i < x.grad().size(); ++i) {
    EXPECT_NEAR(x.grad()[i], 2.0f * x.value()[i] / 9.0f, 1e-5f);
  }
}

}  // namespace
}  // namespace autograd
}  // namespace tracer
