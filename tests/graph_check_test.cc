// Tests for the autograd tape validator (autograd/graph_check.h): it must
// reject deliberately malformed tapes with the right issue kind, attribute
// non-finite values to the op that produced them, and pass the full TITV
// training graph clean.

#include <cmath>
#include <limits>
#include <memory>

#include <gtest/gtest.h>

#include "autograd/graph_check.h"
#include "autograd/ops.h"
#include "common/rng.h"
#include "core/titv.h"
#include "data/dataset.h"
#include "datagen/emr_generator.h"
#include "train/trainer.h"

namespace tracer {
namespace autograd {
namespace {

bool HasIssue(const GraphReport& report, GraphIssueKind kind) {
  for (const GraphIssue& issue : report.issues) {
    if (issue.kind == kind) return true;
  }
  return false;
}

const GraphIssue* FindIssue(const GraphReport& report, GraphIssueKind kind) {
  for (const GraphIssue& issue : report.issues) {
    if (issue.kind == kind) return &issue;
  }
  return nullptr;
}

// Hand-assembles a tape node the way a buggy op implementation might: the
// public op library can no longer produce these shapes, so the malformed
// tapes are constructed directly from Node.
NodePtr MakeRawNode(const char* op, Tensor value, std::vector<NodePtr> parents,
                    bool with_backward) {
  auto node = std::make_shared<Node>();
  node->op = op;
  node->value = std::move(value);
  node->requires_grad = true;
  node->parents = std::move(parents);
  if (with_backward) node->backward_fn = [](Node&) {};
  return node;
}

TEST(GraphCheckTest, CleanElementwiseGraphPasses) {
  Rng rng(3);
  Variable x = Variable::Parameter(Tensor::Randn({4, 5}, rng));
  Variable y = Variable::Parameter(Tensor::Randn({4, 5}, rng));
  Variable loss = MeanAll(Mul(Sigmoid(Add(x, y)), Tanh(x)));
  const GraphReport report = ValidateGraph(loss);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_GT(report.nodes_visited, 5);
  EXPECT_EQ(report.ToString(), "graph ok");
}

TEST(GraphCheckTest, DetectsMatMulShapeMismatch) {
  Variable a = Variable::Parameter(Tensor::Zeros({2, 3}));
  Variable b = Variable::Parameter(Tensor::Zeros({4, 5}));
  // 2x3 · 4x5 is undefined; a buggy kernel "produced" a 2x5 output anyway.
  Variable root(MakeRawNode("matmul", Tensor::Zeros({2, 5}),
                            {a.node(), b.node()}, /*with_backward=*/true));
  const GraphReport report = ValidateGraph(root);
  ASSERT_TRUE(HasIssue(report, GraphIssueKind::kShapeMismatch))
      << report.ToString();
  const GraphIssue* issue =
      FindIssue(report, GraphIssueKind::kShapeMismatch);
  EXPECT_EQ(issue->op, "matmul");
  EXPECT_NE(issue->message.find("inner dimensions"), std::string::npos)
      << issue->message;
}

TEST(GraphCheckTest, DetectsElementwiseShapeDrift) {
  Variable a = Variable::Parameter(Tensor::Zeros({2, 3}));
  Variable b = Variable::Parameter(Tensor::Zeros({2, 3}));
  // Output shape drifted from the inputs'.
  Variable root(MakeRawNode("add", Tensor::Zeros({3, 2}),
                            {a.node(), b.node()}, /*with_backward=*/true));
  EXPECT_TRUE(
      HasIssue(ValidateGraph(root), GraphIssueKind::kShapeMismatch));
}

TEST(GraphCheckTest, DetectsWrongArity) {
  Variable a = Variable::Parameter(Tensor::Zeros({2, 2}));
  Variable root(MakeRawNode("matmul", Tensor::Zeros({2, 2}), {a.node()},
                            /*with_backward=*/true));
  const GraphReport report = ValidateGraph(root);
  const GraphIssue* issue =
      FindIssue(report, GraphIssueKind::kShapeMismatch);
  ASSERT_NE(issue, nullptr) << report.ToString();
  EXPECT_NE(issue->message.find("expects 2 input(s)"), std::string::npos);
}

// A fused gate node over M×N parents, except 1×N at the bias slots; the
// parent at `bad_slot` is one column too wide.
NodePtr MakeGateNode(const char* op, int arity, std::vector<int> bias_slots,
                     int out_cols, int bad_slot) {
  std::vector<NodePtr> parents;
  for (int slot = 0; slot < arity; ++slot) {
    bool bias = false;
    for (int b : bias_slots) bias = bias || b == slot;
    const int cols = slot == bad_slot ? 5 : 4;
    parents.push_back(
        Variable::Parameter(Tensor::Zeros({bias ? 1 : 3, cols})).node());
  }
  return MakeRawNode(op, Tensor::Zeros({3, out_cols}), std::move(parents),
                     /*with_backward=*/true);
}

TEST(GraphCheckTest, GruGatesRuleChecksEveryOperand) {
  EXPECT_TRUE(ValidateGraph(Variable(MakeGateNode("gru_gates", 10, {2, 6, 8},
                                                  4, /*bad_slot=*/-1)))
                  .ok());
  // A 1×5 update-gate bias against 3×4 projections.
  const GraphReport report = ValidateGraph(
      Variable(MakeGateNode("gru_gates", 10, {2, 6, 8}, 4, /*bad_slot=*/2)));
  const GraphIssue* issue = FindIssue(report, GraphIssueKind::kShapeMismatch);
  ASSERT_NE(issue, nullptr) << report.ToString();
  EXPECT_EQ(issue->op, std::string("gru_gates"));
  EXPECT_NE(issue->message.find("input 2"), std::string::npos)
      << issue->message;
}

TEST(GraphCheckTest, LstmGatesRuleChecksEveryOperand) {
  const std::vector<int> biases = {2, 5, 9, 12};
  EXPECT_TRUE(ValidateGraph(Variable(MakeGateNode("lstm_gates", 13, biases, 8,
                                                  /*bad_slot=*/-1)))
                  .ok());
  // A 1×5 candidate bias; then an [h | c] output of the wrong width.
  EXPECT_TRUE(HasIssue(ValidateGraph(Variable(MakeGateNode(
                           "lstm_gates", 13, biases, 8, /*bad_slot=*/12))),
                       GraphIssueKind::kShapeMismatch));
  EXPECT_TRUE(HasIssue(ValidateGraph(Variable(MakeGateNode(
                           "lstm_gates", 13, biases, 4, /*bad_slot=*/-1))),
                       GraphIssueKind::kShapeMismatch));
}

TEST(GraphCheckTest, DetectsDanglingNode) {
  Variable a = Variable::Parameter(Tensor::Zeros({2, 2}));
  // Interior node with parents but no backward closure: gradient flow into
  // `a` is silently severed.
  Variable root(MakeRawNode("tanh", Tensor::Zeros({2, 2}), {a.node()},
                            /*with_backward=*/false));
  EXPECT_TRUE(HasIssue(ValidateGraph(root), GraphIssueKind::kDanglingNode));
}

TEST(GraphCheckTest, DetectsNullParent) {
  Variable a = Variable::Parameter(Tensor::Zeros({2, 2}));
  Variable root(MakeRawNode("tanh", Tensor::Zeros({2, 2}),
                            {a.node(), nullptr}, /*with_backward=*/true));
  EXPECT_TRUE(HasIssue(ValidateGraph(root), GraphIssueKind::kNullParent));
}

TEST(GraphCheckTest, DetectsReferenceCycle) {
  // Ops without shape rules, so the only reportable defect is the cycle.
  NodePtr n1 = MakeRawNode("custom_a", Tensor::Zeros({1, 1}), {},
                           /*with_backward=*/true);
  NodePtr n2 = MakeRawNode("custom_b", Tensor::Zeros({1, 1}), {n1},
                           /*with_backward=*/true);
  n1->parents.push_back(n2);
  const GraphReport report = ValidateGraph(Variable(n2));
  EXPECT_TRUE(HasIssue(report, GraphIssueKind::kCycle)) << report.ToString();
  // Break the shared_ptr cycle so the test itself does not leak (the leak
  // on a real cycle is exactly what the validator warns about).
  n1->parents.clear();
}

TEST(GraphCheckTest, DetectsDoubleBackward) {
  Rng rng(7);
  Variable x = Variable::Parameter(Tensor::Randn({3, 3}, rng));
  Variable loss = MeanAll(Mul(x, x));
  loss.Backward();
  EXPECT_TRUE(ValidateGraph(loss).ok());
  loss.Backward();  // second pass over the same tape: interior grads doubled
  const GraphReport report = ValidateGraph(loss);
  EXPECT_TRUE(HasIssue(report, GraphIssueKind::kDoubleBackward))
      << report.ToString();
}

TEST(GraphCheckTest, NanTripwireNamesOriginatingOp) {
  Variable x = Variable::Parameter(Tensor::Full({2, 2}, 1.0e30f));
  // 1e30 * 1e30 overflows float: the mul node originates the Inf, and the
  // downstream mean only propagates it.
  Variable inf = Mul(x, x);
  Variable loss = MeanAll(inf);
  ValidateOptions options;
  options.check_nonfinite = true;
  const GraphReport report = ValidateGraph(loss, options);
  const GraphIssue* issue = FindIssue(report, GraphIssueKind::kNonFinite);
  ASSERT_NE(issue, nullptr) << report.ToString();
  EXPECT_EQ(issue->op, "mul");
  // Exactly one origin: mean_all's non-finite output is explained by its
  // input and must not be double-reported.
  int origins = 0;
  for (const GraphIssue& i : report.issues) {
    if (i.kind == GraphIssueKind::kNonFinite) ++origins;
  }
  EXPECT_EQ(origins, 1);
}

TEST(GraphCheckTest, NanTripwireFlagsPoisonedLeaf) {
  Tensor bad({2, 2});
  bad[3] = std::numeric_limits<float>::quiet_NaN();
  Variable x = Variable::Parameter(Tensor::Ones({2, 2}));
  Variable leaf = Variable::Constant(std::move(bad));
  Variable loss = MeanAll(Mul(x, leaf));
  ValidateOptions options;
  options.check_nonfinite = true;
  const GraphReport report = ValidateGraph(loss, options);
  const GraphIssue* issue = FindIssue(report, GraphIssueKind::kNonFinite);
  ASSERT_NE(issue, nullptr);
  EXPECT_EQ(issue->op, "leaf");
}

TEST(GraphCheckTest, NanTripwireOffByDefault) {
  Variable x = Variable::Parameter(Tensor::Full({2, 2}, 1.0e30f));
  Variable loss = MeanAll(Mul(x, x));
  EXPECT_TRUE(ValidateGraph(loss).ok());
}

TEST(GraphCheckTest, IssueCapBoundsReportSize) {
  // A chain of dangling nodes: one issue per node, capped by max_issues.
  Variable a = Variable::Parameter(Tensor::Zeros({1, 1}));
  NodePtr tip = a.node();
  for (int i = 0; i < 16; ++i) {
    tip = MakeRawNode("custom_op", Tensor::Zeros({1, 1}), {tip},
                      /*with_backward=*/false);
  }
  ValidateOptions options;
  options.max_issues = 4;
  const GraphReport report = ValidateGraph(Variable(tip), options);
  EXPECT_EQ(static_cast<int>(report.issues.size()), 4);
}

// --- Full-model coverage ---------------------------------------------------

TEST(GraphCheckTest, FullTitvForwardBackwardGraphIsClean) {
  core::TitvConfig config;
  config.input_dim = 7;
  config.rnn_dim = 5;
  config.film_dim = 4;
  config.seed = 11;
  core::Titv model(config);

  const int batch = 6, windows = 4;
  Rng rng(13);
  std::vector<Variable> xs;
  xs.reserve(windows);
  for (int t = 0; t < windows; ++t) {
    xs.push_back(Variable::Constant(
        Tensor::Randn({batch, config.input_dim}, rng, 0.5f)));
  }
  Tensor targets({batch, 1});
  for (int i = 0; i < batch; ++i) targets[i] = static_cast<float>(i % 2);

  Variable loss = BinaryCrossEntropyWithLogits(model.Forward(xs), targets);
  ValidateOptions options;
  options.check_nonfinite = true;
  const GraphReport before = ValidateGraph(loss, options);
  EXPECT_TRUE(before.ok()) << before.ToString();
  // The TITV tape is a real DAG: two BiGRUs, FiLM modulation, attention and
  // the prediction head all contribute nodes.
  EXPECT_GT(before.nodes_visited, 100);

  loss.Backward();
  const GraphReport after = ValidateGraph(loss, options);
  EXPECT_TRUE(after.ok()) << after.ToString();
}

TEST(GraphCheckTest, TrainerValidateGraphFlagTrainsClean) {
  // End-to-end wiring: Fit with validate_graph on must run the validator on
  // every minibatch without tripping on a healthy model.
  datagen::EmrCohortConfig gen = datagen::NuhAkiDefaultConfig();
  gen.num_samples = 80;
  gen.num_filler_features = 2;
  gen.seed = 17;
  datagen::EmrCohort cohort = datagen::GenerateNuhAkiCohort(gen);
  Rng rng(5);
  data::DatasetSplits splits = data::SplitDataset(cohort.dataset, rng);

  core::TitvConfig config;
  config.input_dim = cohort.dataset.num_features();
  config.rnn_dim = 4;
  config.film_dim = 4;
  core::Titv model(config);

  train::TrainConfig tc;
  tc.max_epochs = 2;
  tc.batch_size = 16;
  tc.validate_graph = true;
  const train::TrainResult result =
      train::Fit(&model, splits.train, splits.val, tc);
  EXPECT_EQ(result.epochs_run, 2);
  EXPECT_TRUE(std::isfinite(result.train_loss.back()));
}

}  // namespace
}  // namespace autograd
}  // namespace tracer
