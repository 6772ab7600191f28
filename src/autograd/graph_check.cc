#include "autograd/graph_check.h"

#include <cmath>
#include <cstddef>
#include <initializer_list>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/macros.h"

namespace tracer {
namespace autograd {

namespace {

std::string ShapeStr(const Tensor& t) {
  std::ostringstream out;
  out << "[";
  for (int d = 0; d < t.rank(); ++d) {
    if (d > 0) out << "x";
    out << t.dim(d);
  }
  out << "]";
  return out.str();
}

bool AllFinite(const Tensor& t) {
  const float* p = t.data();
  const int64_t count = t.size();
  for (int64_t i = 0; i < count; ++i) {
    if (!std::isfinite(p[i])) return false;
  }
  return true;
}

/// Collects issues up to the configured cap.
class IssueSink {
 public:
  IssueSink(std::vector<GraphIssue>* issues, int max_issues)
      : issues_(issues), max_issues_(max_issues) {}

  void Add(GraphIssueKind kind, const char* op, std::string message) {
    if (static_cast<int>(issues_->size()) >= max_issues_) return;
    issues_->push_back({kind, op, std::move(message)});
  }

  bool full() const {
    return static_cast<int>(issues_->size()) >= max_issues_;
  }

 private:
  std::vector<GraphIssue>* issues_;
  int max_issues_;
};

// ---- Per-op shape rules --------------------------------------------------
//
// Each rule re-derives the output shape the op should have produced from the
// recorded parent values and compares it against the node's actual output.
// Rules mirror the contracts documented in autograd/ops.h; ops without an
// entry here (e.g. future user extensions) are skipped rather than failed,
// so the validator never produces false positives on unknown ops.

struct OpShapeRule {
  /// Expected parent count; kVariadicArity accepts any count ≥ 1 (the
  /// check fn sees the actual parents).
  int arity;
  /// Returns an empty string when consistent, else a description of the
  /// mismatch. Parent values and node.value are guaranteed non-null and the
  /// parent count matches `arity` when this is called.
  std::string (*check)(const Node& n);
};

constexpr int kVariadicArity = -1;

bool IsMatrix(const Tensor& t) { return t.rank() == 2; }

std::string CheckElementwiseSame(const Node& n) {
  for (const NodePtr& p : n.parents) {
    if (!p->value.SameShape(n.value)) {
      return "input " + ShapeStr(p->value) + " vs output " +
             ShapeStr(n.value) + " — elementwise ops preserve shape";
    }
  }
  return "";
}

std::string CheckMatMul(const Node& n) {
  const Tensor& a = n.parents[0]->value;
  const Tensor& b = n.parents[1]->value;
  if (!IsMatrix(a) || !IsMatrix(b) || !IsMatrix(n.value)) {
    return "matmul requires rank-2 tensors, got " + ShapeStr(a) + " · " +
           ShapeStr(b) + " -> " + ShapeStr(n.value);
  }
  if (a.cols() != b.rows()) {
    return "inner dimensions disagree: " + ShapeStr(a) + " · " + ShapeStr(b);
  }
  if (n.value.rows() != a.rows() || n.value.cols() != b.cols()) {
    return "output " + ShapeStr(n.value) + " but " + ShapeStr(a) + " · " +
           ShapeStr(b) + " produces [" + std::to_string(a.rows()) + "x" +
           std::to_string(b.cols()) + "]";
  }
  return "";
}

std::string CheckConcatRows(const Node& n) {
  if (!IsMatrix(n.value)) {
    return "concat_rows output must be rank-2, got " + ShapeStr(n.value);
  }
  int rows = 0;
  for (const NodePtr& p : n.parents) {
    if (!IsMatrix(p->value) || p->value.cols() != n.value.cols()) {
      return "input " + ShapeStr(p->value) +
             " does not stack into output " + ShapeStr(n.value);
    }
    rows += p->value.rows();
  }
  if (rows != n.value.rows()) {
    return "output " + ShapeStr(n.value) + " but inputs stack to [" +
           std::to_string(rows) + "x" + std::to_string(n.value.cols()) + "]";
  }
  return "";
}

std::string CheckSliceRows(const Node& n) {
  const Tensor& a = n.parents[0]->value;
  if (!IsMatrix(a) || !IsMatrix(n.value)) {
    return "slice_rows requires rank-2 tensors";
  }
  if (n.value.cols() != a.cols() || n.value.rows() <= 0 ||
      n.value.rows() > a.rows()) {
    return "slice " + ShapeStr(n.value) + " not contained in " + ShapeStr(a);
  }
  return "";
}

std::string CheckAddRows(const Node& n) {
  const Tensor& a = n.parents[0]->value;
  const Tensor& row = n.parents[1]->value;
  if (!IsMatrix(a) || !IsMatrix(row)) {
    return "add_rows requires rank-2 tensors";
  }
  if (row.rows() != 1 || row.cols() != a.cols()) {
    return "row " + ShapeStr(row) + " does not broadcast over " + ShapeStr(a);
  }
  if (!n.value.SameShape(a)) {
    return "output " + ShapeStr(n.value) + " vs input " + ShapeStr(a);
  }
  return "";
}

std::string CheckMulColBroadcast(const Node& n) {
  const Tensor& mat = n.parents[0]->value;
  const Tensor& col = n.parents[1]->value;
  if (!IsMatrix(mat) || !IsMatrix(col)) {
    return "mul_col_broadcast requires rank-2 tensors";
  }
  if (col.cols() != 1 || col.rows() != mat.rows()) {
    return "column " + ShapeStr(col) + " does not broadcast over " +
           ShapeStr(mat);
  }
  if (!n.value.SameShape(mat)) {
    return "output " + ShapeStr(n.value) + " vs input " + ShapeStr(mat);
  }
  return "";
}

std::string CheckConcatCols(const Node& n) {
  const Tensor& a = n.parents[0]->value;
  const Tensor& b = n.parents[1]->value;
  if (!IsMatrix(a) || !IsMatrix(b) || !IsMatrix(n.value)) {
    return "concat_cols requires rank-2 tensors";
  }
  if (a.rows() != b.rows()) {
    return "row counts disagree: " + ShapeStr(a) + " vs " + ShapeStr(b);
  }
  if (n.value.rows() != a.rows() || n.value.cols() != a.cols() + b.cols()) {
    return "output " + ShapeStr(n.value) + " but concatenating " +
           ShapeStr(a) + " and " + ShapeStr(b);
  }
  return "";
}

std::string CheckSliceCols(const Node& n) {
  const Tensor& a = n.parents[0]->value;
  if (!IsMatrix(a) || !IsMatrix(n.value)) {
    return "slice_cols requires rank-2 tensors";
  }
  if (n.value.rows() != a.rows() || n.value.cols() <= 0 ||
      n.value.cols() > a.cols()) {
    return "slice " + ShapeStr(n.value) + " not contained in " + ShapeStr(a);
  }
  return "";
}

std::string CheckRowSums(const Node& n) {
  const Tensor& a = n.parents[0]->value;
  if (!IsMatrix(a) || !IsMatrix(n.value)) {
    return "row_sums requires rank-2 tensors";
  }
  if (n.value.rows() != a.rows() || n.value.cols() != 1) {
    return "output " + ShapeStr(n.value) + " but row sums of " + ShapeStr(a) +
           " are [" + std::to_string(a.rows()) + "x1]";
  }
  return "";
}

// Fused gate blocks (autograd::GruGates / LstmGates): every parent is an
// M×N projection or state except the 1×N biases at `bias_slots`; the output
// is M×(out_blocks·N).
std::string CheckGateBlock(const Node& n,
                           std::initializer_list<size_t> bias_slots,
                           int out_blocks) {
  const Tensor& like = n.parents[0]->value;
  if (!IsMatrix(like) || !IsMatrix(n.value)) {
    return std::string(n.op) + " requires rank-2 tensors";
  }
  const int m = like.rows(), cols = like.cols();
  for (size_t i = 0; i < n.parents.size(); ++i) {
    const Tensor& p = n.parents[i]->value;
    bool bias = false;
    for (size_t slot : bias_slots) bias = bias || slot == i;
    const int rows = bias ? 1 : m;
    if (!IsMatrix(p) || p.rows() != rows || p.cols() != cols) {
      return "input " + std::to_string(i) + " is " + ShapeStr(p) +
             ", expected [" + std::to_string(rows) + "x" +
             std::to_string(cols) + "]";
    }
  }
  if (n.value.rows() != m || n.value.cols() != out_blocks * cols) {
    return "output " + ShapeStr(n.value) + " but inputs are " +
           ShapeStr(like) + " per gate";
  }
  return "";
}

std::string CheckGruGates(const Node& n) {
  return CheckGateBlock(n, {2, 6, 8}, 1);
}

std::string CheckLstmGates(const Node& n) {
  return CheckGateBlock(n, {2, 5, 9, 12}, 2);
}

std::string CheckScalarOutput(const Node& n) {
  if (n.value.size() != 1) {
    return "reduction output must be a single scalar, got " +
           ShapeStr(n.value);
  }
  return "";
}

const std::unordered_map<std::string_view, OpShapeRule>& ShapeRules() {
  static const auto* rules =
      new std::unordered_map<std::string_view, OpShapeRule>{
          {"matmul", {2, CheckMatMul}},
          {"concat_rows", {kVariadicArity, CheckConcatRows}},
          {"slice_rows", {1, CheckSliceRows}},
          {"add", {2, CheckElementwiseSame}},
          {"sub", {2, CheckElementwiseSame}},
          {"mul", {2, CheckElementwiseSame}},
          {"add_rows", {2, CheckAddRows}},
          {"mul_col_broadcast", {2, CheckMulColBroadcast}},
          {"scale", {1, CheckElementwiseSame}},
          {"add_scalar", {1, CheckElementwiseSame}},
          {"sigmoid", {1, CheckElementwiseSame}},
          {"tanh", {1, CheckElementwiseSame}},
          {"relu", {1, CheckElementwiseSame}},
          {"gru_gates", {10, CheckGruGates}},
          {"lstm_gates", {13, CheckLstmGates}},
          {"concat_cols", {2, CheckConcatCols}},
          {"slice_cols", {1, CheckSliceCols}},
          {"softmax_rows", {1, CheckElementwiseSame}},
          {"row_sums", {1, CheckRowSums}},
          {"mean_all", {1, CheckScalarOutput}},
          {"sum_all", {1, CheckScalarOutput}},
          {"bce_with_logits", {1, CheckScalarOutput}},
          {"mse", {1, CheckScalarOutput}},
      };
  return *rules;
}

void CheckNodeShapes(const Node& node, IssueSink* sink) {
  auto it = ShapeRules().find(node.op);
  if (it == ShapeRules().end()) return;  // unknown op: no rule, no report
  const OpShapeRule& rule = it->second;
  if (rule.arity == kVariadicArity) {
    if (node.parents.empty()) {
      sink->Add(GraphIssueKind::kShapeMismatch, node.op,
                "variadic op has no inputs");
      return;
    }
    std::string variadic_problem = rule.check(node);
    if (!variadic_problem.empty()) {
      sink->Add(GraphIssueKind::kShapeMismatch, node.op,
                std::move(variadic_problem));
    }
    return;
  }
  if (static_cast<int>(node.parents.size()) != rule.arity) {
    sink->Add(GraphIssueKind::kShapeMismatch, node.op,
              "expects " + std::to_string(rule.arity) + " input(s), node has " +
                  std::to_string(node.parents.size()));
    return;
  }
  std::string problem = rule.check(node);
  if (!problem.empty()) {
    sink->Add(GraphIssueKind::kShapeMismatch, node.op, std::move(problem));
  }
}

}  // namespace

const char* GraphIssueKindName(GraphIssueKind kind) {
  switch (kind) {
    case GraphIssueKind::kShapeMismatch:
      return "shape-mismatch";
    case GraphIssueKind::kDanglingNode:
      return "dangling-node";
    case GraphIssueKind::kCycle:
      return "cycle";
    case GraphIssueKind::kDoubleBackward:
      return "double-backward";
    case GraphIssueKind::kNullParent:
      return "null-parent";
    case GraphIssueKind::kNonFinite:
      return "non-finite";
  }
  return "unknown";
}

std::string GraphIssue::ToString() const {
  std::string out = "[";
  out += GraphIssueKindName(kind);
  out += "] ";
  out += op;
  out += ": ";
  out += message;
  return out;
}

std::string GraphReport::ToString() const {
  if (issues.empty()) return "graph ok";
  std::ostringstream out;
  out << issues.size() << " graph issue(s) over " << nodes_visited
      << " node(s):";
  for (const GraphIssue& issue : issues) {
    out << "\n  " << issue.ToString();
  }
  return out.str();
}

GraphReport ValidateGraph(const Variable& root,
                          const ValidateOptions& options) {
  TRACER_CHECK(root.defined()) << "ValidateGraph on an undefined Variable";
  GraphReport report;
  IssueSink sink(&report.issues, options.max_issues);

  // Iterative DFS over *all* parent edges (unlike Backward's traversal,
  // which prunes non-differentiated subgraphs — a defect in a constant
  // branch still deserves a report). Gray = on the current DFS path, so a
  // parent edge into a gray node closes a cycle.
  enum class Color { kGray, kBlack };
  std::unordered_map<const Node*, Color> color;
  struct Frame {
    Node* node;
    size_t next_parent;
  };
  std::vector<Frame> stack;
  // Nodes in post-order: every node appears after all of its parents, which
  // is the evaluation order of the forward pass. Used by the non-finite
  // origin attribution below.
  std::vector<Node*> forward_order;

  stack.push_back({root.node().get(), 0});
  color[root.node().get()] = Color::kGray;
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.next_parent < frame.node->parents.size()) {
      const NodePtr& parent = frame.node->parents[frame.next_parent++];
      if (parent == nullptr) {
        sink.Add(GraphIssueKind::kNullParent, frame.node->op,
                 "parent " + std::to_string(frame.next_parent - 1) +
                     " is a null NodePtr");
        continue;
      }
      auto it = color.find(parent.get());
      if (it == color.end()) {
        color[parent.get()] = Color::kGray;
        stack.push_back({parent.get(), 0});
      } else if (it->second == Color::kGray) {
        sink.Add(GraphIssueKind::kCycle, frame.node->op,
                 std::string("parent edge to '") + parent->op +
                     "' closes a cycle; the tape must be a DAG (cycles also "
                     "leak the graph: parents are shared_ptrs)");
      }
    } else {
      color[frame.node] = Color::kBlack;
      forward_order.push_back(frame.node);
      stack.pop_back();
    }
  }
  report.nodes_visited = static_cast<int>(forward_order.size());

  int double_backward_nodes = 0;
  const char* double_backward_op = nullptr;
  for (const Node* node : forward_order) {
    const bool interior = !node->parents.empty();
    if (interior && node->backward_fn == nullptr) {
      sink.Add(GraphIssueKind::kDanglingNode, node->op,
               "interior node has no backward closure; gradient flow is "
               "silently severed here");
    }
    if (interior && node->backward_runs > 1) {
      ++double_backward_nodes;
      double_backward_op = node->op;
    }
    if (interior) CheckNodeShapes(*node, &sink);
  }
  if (double_backward_nodes > 0) {
    sink.Add(GraphIssueKind::kDoubleBackward, double_backward_op,
             "Backward() ran " + std::to_string(double_backward_nodes) +
                 " interior node(s) more than once without ZeroGrad; their "
                 "gradients accumulated across passes");
  }

  if (options.check_nonfinite && !sink.full()) {
    // forward_order lists parents before consumers, so the first node whose
    // output is non-finite while all inputs are finite is where the NaN/Inf
    // entered the computation.
    std::unordered_map<const Node*, bool> finite;
    finite.reserve(forward_order.size());
    for (const Node* node : forward_order) {
      const bool value_finite = AllFinite(node->value);
      finite[node] = value_finite;
      if (!value_finite) {
        bool parents_finite = true;
        for (const NodePtr& p : node->parents) {
          if (p != nullptr && !finite[p.get()]) {
            parents_finite = false;
            break;
          }
        }
        if (parents_finite) {
          sink.Add(GraphIssueKind::kNonFinite, node->op,
                   node->parents.empty()
                       ? "leaf value contains NaN/Inf"
                       : "op output contains NaN/Inf although every input is "
                         "finite — this op originated the non-finite value");
        }
      }
      if (node->grad_allocated && !AllFinite(node->grad)) {
        sink.Add(GraphIssueKind::kNonFinite, node->op,
                 "accumulated gradient contains NaN/Inf");
      }
    }
  }
  return report;
}

void CheckGraph(const Variable& root, const ValidateOptions& options) {
  const GraphReport report = ValidateGraph(root, options);
  TRACER_CHECK(report.ok()) << report.ToString();
}

}  // namespace autograd
}  // namespace tracer
