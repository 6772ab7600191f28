#ifndef TRACER_NN_LSTM_H_
#define TRACER_NN_LSTM_H_

#include <vector>

#include "autograd/ops.h"
#include "nn/module.h"

namespace tracer {
namespace nn {

/// Long short-term memory cell (Hochreiter & Schmidhuber), the alternative
/// recurrent unit the paper discusses alongside the GRU (§2.3):
///   i_t = σ(x W_i + h U_i + b_i)        input gate
///   f_t = σ(x W_f + h U_f + b_f)        forget gate
///   o_t = σ(x W_o + h U_o + b_o)        output gate
///   c̃_t = tanh(x W_c + h U_c + b_c)     candidate cell
///   c_t = f_t ⊙ c_{t-1} + i_t ⊙ c̃_t
///   h_t = o_t ⊙ tanh(c_t)
/// The forget-gate bias is initialised to 1 (standard practice) so long
/// dependencies survive early training.
class LstmCell : public Module {
 public:
  LstmCell(int input_dim, int hidden_dim, Rng& rng);

  struct State {
    autograd::Variable h;
    autograd::Variable c;
  };

  /// Zero state for a batch.
  State InitialState(int batch_size) const;

  /// One recurrence step.
  State Step(const autograd::Variable& x, const State& prev) const;

  int input_dim() const { return input_dim_; }
  int hidden_dim() const { return hidden_dim_; }

 private:
  int input_dim_;
  int hidden_dim_;
  autograd::Variable w_i_, u_i_, b_i_;
  autograd::Variable w_f_, u_f_, b_f_;
  autograd::Variable w_o_, u_o_, b_o_;
  autograd::Variable w_c_, u_c_, b_c_;
};

/// Unidirectional LSTM over a sequence (hidden states only).
class Lstm : public Module {
 public:
  Lstm(int input_dim, int hidden_dim, Rng& rng);

  /// Hidden states h_1..h_T; `reverse` runs the recurrence x_T→x_1 with
  /// the returned vector still indexed by original time.
  std::vector<autograd::Variable> Run(
      const std::vector<autograd::Variable>& xs, bool reverse = false) const;

  int hidden_dim() const { return cell_.hidden_dim(); }

 private:
  LstmCell cell_;
};

/// Bidirectional LSTM: states[t] = [→h_t ; ←h_t].
class BiLstm : public Module {
 public:
  BiLstm(int input_dim, int hidden_dim, Rng& rng);

  std::vector<autograd::Variable> Run(
      const std::vector<autograd::Variable>& xs) const;

  int hidden_dim() const { return forward_.hidden_dim(); }
  int output_dim() const { return 2 * forward_.hidden_dim(); }

 private:
  Lstm forward_;
  Lstm backward_;
};

}  // namespace nn
}  // namespace tracer

#endif  // TRACER_NN_LSTM_H_
