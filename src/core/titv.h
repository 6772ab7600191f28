#ifndef TRACER_CORE_TITV_H_
#define TRACER_CORE_TITV_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/gru.h"
#include "nn/linear.h"
#include "nn/sequence_model.h"

namespace tracer {
namespace core {

/// Which parts of TITV are active. Beyond the paper's two ablations
/// (TRACERinv / TRACERvar, Figure 13), the extra modes isolate the design
/// choices DESIGN.md calls out: the two uses of β (Eq. 6–8 modulation and
/// Eq. 12 integration), the additive combination of Eq. 12, and the mean
/// pooling of Eq. 2.
enum class TitvAblation {
  kFull,               // the complete TITV model
  kInvariantOnly,      // TRACERinv: Time-Invariant + Prediction Modules
  kVariantOnly,        // TRACERvar: Time-Variant + Prediction Modules
  kNoFilmModulation,   // β/θ computed but x_t not modulated (Eq. 6-8 off)
  kNoBetaInPrediction, // ξ_t = α_t (β kept out of Eq. 12)
  kMultiplicativeCombine,  // ξ_t = β ⊙ α_t instead of β ⊕ α_t
  kLastStateSummary,   // s = q_T instead of mean over windows (Eq. 2 off)
};

/// Hyperparameters of TITV (§4, §5.1.2).
struct TitvConfig {
  /// D: number of input features per window.
  int input_dim = 0;
  /// Per-direction hidden size of the Time-Variant BiGRU (h_t has
  /// 2×rnn_dim columns). Paper's `rnn_dim` sensitivity axis.
  int rnn_dim = 32;
  /// Per-direction hidden size of the Time-Invariant BiGRU (q_t has
  /// 2×film_dim columns). Paper's `film_dim` sensitivity axis.
  int film_dim = 32;
  TitvAblation ablation = TitvAblation::kFull;
  /// Initialise the FiLM generator to the identity transform (β ≈ 1,
  /// θ ≈ 0), standard for conditioning layers. Without it the ξ⊙x context
  /// starts near zero and training stalls for many epochs (see the
  /// ext02_film_init bench).
  bool film_identity_init = true;
  uint64_t seed = 5;
};

/// Feature-importance trace of one forward pass (Eq. 17):
/// FI(ŷ, x_{t,d}) = (β_d + α_{t,d}) · w_d per sample.
struct FeatureImportanceTrace {
  /// β per sample: B×D (zeros under kVariantOnly).
  Tensor beta;
  /// α_t per window: T tensors of B×D (zeros under kInvariantOnly).
  std::vector<Tensor> alpha;
  /// Output weights w: D×1.
  Tensor w;
  /// FI per window: T tensors of B×D.
  std::vector<Tensor> fi;
  /// Model outputs: B×1 probabilities (classification) or predictions.
  Tensor outputs;
};

/// TITV: the core model of TRACER (§4). Three collaborating modules:
///  - Time-Invariant Module (Eq. 1–4): BiGRU → mean-pooled summary s →
///    FiLM generator producing the scaling β and shifting θ;
///  - Time-Variant Module (Eq. 5–11): a FiLM-modulated BiGRU over
///    x̃_t = β ⊙ x_t + θ followed by a feature-wise self-attention
///    α_t = tanh(W_α h_t + b_α);
///  - Prediction Module (Eq. 12–14): ξ_t = β ⊕ α_t,
///    c = Σ_t ξ_t ⊙ x_t, ŷ = σ(⟨w, c⟩ + b).
class Titv : public nn::SequenceModel {
 public:
  explicit Titv(const TitvConfig& config);

  autograd::Variable Forward(
      const std::vector<autograd::Variable>& xs) override;

  std::string name() const override;

  const TitvConfig& config() const { return config_; }

  /// Runs the model on a batch and extracts the Eq. 17 feature importance
  /// for every sample, window and feature. `classification` controls
  /// whether outputs go through the sigmoid.
  FeatureImportanceTrace ComputeFeatureImportance(const data::Batch& batch,
                                                  bool classification = true);

 private:
  /// One TITV forward pass: the Eq. 14 pre-activation plus the β, α_t and
  /// ξ_t it was built from, so Eq. 17 attribution reads the pass that
  /// scored.
  struct Pass {
    autograd::Variable logit;
    /// β (B×D); empty under kVariantOnly.
    autograd::Variable beta;
    /// α_t per window (B×D); empty under kInvariantOnly.
    std::vector<autograd::Variable> alphas;
    /// ξ_t per window, filled only when requested.
    std::vector<autograd::Variable> xis;
  };

  /// Runs the three modules once (Eq. 1–14). `keep_xis` also collects ξ_t,
  /// which only attribution reads; scoring skips that vector.
  Pass Run(const std::vector<autograd::Variable>& xs, bool keep_xis);

  TitvConfig config_;
  // Time-Invariant Module.
  std::unique_ptr<nn::BiGru> invariant_rnn_;
  std::unique_ptr<nn::Linear> film_beta_;
  std::unique_ptr<nn::Linear> film_theta_;
  // Time-Variant Module.
  std::unique_ptr<nn::BiGru> variant_rnn_;
  std::unique_ptr<nn::Linear> attention_;
  // Prediction Module.
  std::unique_ptr<nn::Linear> output_;
};

}  // namespace core
}  // namespace tracer

#endif  // TRACER_CORE_TITV_H_
