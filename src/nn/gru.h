#ifndef TRACER_NN_GRU_H_
#define TRACER_NN_GRU_H_

#include <vector>

#include "autograd/ops.h"
#include "nn/module.h"

namespace tracer {
namespace nn {

/// Gated recurrent unit cell following the paper's formulation (Eq. 6–9 with
/// the FiLM transform factored out by the caller):
///   z_t = σ(x W_z + h_{t-1} U_z + b_z)
///   r_t = σ(x W_r + h_{t-1} U_r + b_r)
///   h̃_t = tanh(x W_h + r_t ⊙ (h_{t-1} U_h) + b_h)
///   h_t = (1 - z_t) ⊙ h̃_t + z_t ⊙ h_{t-1}
class GruCell : public Module {
 public:
  GruCell(int input_dim, int hidden_dim, Rng& rng);

  /// One recurrence step. x: B×input_dim, h_prev: B×hidden_dim → B×hidden.
  autograd::Variable Step(const autograd::Variable& x,
                          const autograd::Variable& h_prev) const;

  int input_dim() const { return input_dim_; }
  int hidden_dim() const { return hidden_dim_; }

 private:
  int input_dim_;
  int hidden_dim_;
  autograd::Variable w_z_, u_z_, b_z_;
  autograd::Variable w_r_, u_r_, b_r_;
  autograd::Variable w_h_, u_h_, b_h_;
};

/// Unidirectional GRU over a sequence of B×D inputs.
class Gru : public Module {
 public:
  Gru(int input_dim, int hidden_dim, Rng& rng);

  /// Hidden states h_1..h_T for inputs x_1..x_T (all B×hidden).
  /// If `reverse` is true the recurrence runs x_T→x_1 but the returned
  /// vector is still indexed by original time (states[t] belongs to x_t).
  std::vector<autograd::Variable> Run(
      const std::vector<autograd::Variable>& xs, bool reverse = false) const;

  int hidden_dim() const { return cell_.hidden_dim(); }
  const GruCell& cell() const { return cell_; }

 private:
  GruCell cell_;
};

/// Bidirectional GRU (Eq. 1): states[t] = [→h_t ; ←h_t], dimension 2×hidden.
class BiGru : public Module {
 public:
  BiGru(int input_dim, int hidden_dim, Rng& rng);

  std::vector<autograd::Variable> Run(
      const std::vector<autograd::Variable>& xs) const;

  /// Per-direction hidden size; outputs have twice this many columns.
  int hidden_dim() const { return forward_.hidden_dim(); }
  int output_dim() const { return 2 * forward_.hidden_dim(); }

 private:
  Gru forward_;
  Gru backward_;
};

}  // namespace nn
}  // namespace tracer

#endif  // TRACER_NN_GRU_H_
