#include "core/titv.h"

#include "autograd/ops.h"
#include "common/macros.h"
#include "tensor/tensor_ops.h"

namespace tracer {
namespace core {

using autograd::Variable;

namespace {

bool UsesInvariantModule(TitvAblation ablation) {
  return ablation != TitvAblation::kVariantOnly;
}

bool UsesVariantModule(TitvAblation ablation) {
  return ablation != TitvAblation::kInvariantOnly;
}

bool ModulatesInput(TitvAblation ablation) {
  return UsesInvariantModule(ablation) &&
         UsesVariantModule(ablation) &&
         ablation != TitvAblation::kNoFilmModulation;
}

}  // namespace

Titv::Titv(const TitvConfig& config) : config_(config) {
  TRACER_CHECK_GT(config.input_dim, 0);
  TRACER_CHECK_GT(config.rnn_dim, 0);
  TRACER_CHECK_GT(config.film_dim, 0);
  Rng rng(config.seed);
  const int d = config.input_dim;
  if (UsesInvariantModule(config.ablation)) {
    invariant_rnn_ = std::make_unique<nn::BiGru>(d, config.film_dim, rng);
    film_beta_ = std::make_unique<nn::Linear>(2 * config.film_dim, d, rng);
    film_theta_ = std::make_unique<nn::Linear>(2 * config.film_dim, d, rng);
    // FiLM identity initialisation (standard for conditioning layers):
    // start with β ≈ 1, θ ≈ 0 so the modulated input x̃ = β⊙x + θ begins as
    // x itself and ξ_t = β ⊕ α_t starts near 1 — without this the context
    // vector starts near zero and training stalls for many epochs.
    if (config.film_identity_init) {
      film_beta_->bias().mutable_value().Fill(1.0f);
    }
    AddSubmodule("invariant_rnn", invariant_rnn_.get());
    AddSubmodule("film_beta", film_beta_.get());
    AddSubmodule("film_theta", film_theta_.get());
  }
  if (UsesVariantModule(config.ablation)) {
    variant_rnn_ = std::make_unique<nn::BiGru>(d, config.rnn_dim, rng);
    attention_ = std::make_unique<nn::Linear>(2 * config.rnn_dim, d, rng);
    AddSubmodule("variant_rnn", variant_rnn_.get());
    AddSubmodule("attention", attention_.get());
  }
  output_ = std::make_unique<nn::Linear>(d, 1, rng);
  AddSubmodule("output", output_.get());
}

std::string Titv::name() const {
  switch (config_.ablation) {
    case TitvAblation::kFull:
      return "TRACER";
    case TitvAblation::kInvariantOnly:
      return "TRACERinv";
    case TitvAblation::kVariantOnly:
      return "TRACERvar";
    case TitvAblation::kNoFilmModulation:
      return "TRACER-noFiLM";
    case TitvAblation::kNoBetaInPrediction:
      return "TRACER-noBetaPred";
    case TitvAblation::kMultiplicativeCombine:
      return "TRACER-mulCombine";
    case TitvAblation::kLastStateSummary:
      return "TRACER-lastSummary";
  }
  return "TRACER";
}

Titv::Pass Titv::Run(const std::vector<Variable>& xs, bool keep_xis) {
  TRACER_CHECK(!xs.empty());
  TRACER_CHECK_EQ(xs[0].value().cols(), config_.input_dim);
  const TitvAblation ablation = config_.ablation;
  Pass pass;

  // Time-Invariant Module (Eq. 1–4).
  Variable theta;
  if (UsesInvariantModule(ablation)) {
    // Eq. 1: q_t = BIRNN(x_1..x_T).
    const std::vector<Variable> qs = invariant_rnn_->Run(xs);
    // Eq. 2: s = mean_t q_t (or the last state under the ablation).
    const Variable s = ablation == TitvAblation::kLastStateSummary
                           ? qs.back()
                           : autograd::Average(qs);
    // Eq. 3–4: the FiLM generator.
    pass.beta = film_beta_->Forward(s);
    theta = film_theta_->Forward(s);
  }

  // Time-Variant Module (Eq. 5–11).
  if (UsesVariantModule(ablation)) {
    std::vector<Variable> inputs;
    inputs.reserve(xs.size());
    if (ModulatesInput(ablation)) {
      // Eq. 10 applied inside Eq. 6–8: x̃_t = β ⊙ x_t + θ (feature-wise
      // affine transformation of the input, §4.1).
      for (const Variable& x : xs) {
        inputs.push_back(autograd::Add(autograd::Mul(pass.beta, x), theta));
      }
    } else {
      inputs = xs;
    }
    const std::vector<Variable> hs = variant_rnn_->Run(inputs);
    // Eq. 11: α_t = tanh(W_α h_t + b_α), with all timesteps stacked into
    // one attention GEMM. Row stacking keeps every output element's
    // accumulation chain, so each slice equals the per-t projection.
    const int rows = hs[0].value().rows();
    const Variable a_all =
        autograd::Tanh(attention_->Forward(autograd::ConcatRows(hs)));
    pass.alphas.reserve(hs.size());
    for (size_t t = 0; t < hs.size(); ++t) {
      pass.alphas.push_back(autograd::SliceRows(
          a_all, static_cast<int>(t) * rows,
          static_cast<int>(t + 1) * rows));
    }
  }

  // Prediction Module (Eq. 12–14).
  if (keep_xis) pass.xis.reserve(xs.size());
  Variable context;
  for (size_t t = 0; t < xs.size(); ++t) {
    Variable xi;  // ξ_t
    switch (ablation) {
      case TitvAblation::kInvariantOnly:
        xi = pass.beta;
        break;
      case TitvAblation::kVariantOnly:
      case TitvAblation::kNoBetaInPrediction:
        xi = pass.alphas[t];
        break;
      case TitvAblation::kMultiplicativeCombine:
        xi = autograd::Mul(pass.beta, pass.alphas[t]);
        break;
      default:
        xi = autograd::Add(pass.beta, pass.alphas[t]);  // Eq. 12: β ⊕ α_t
    }
    if (keep_xis) pass.xis.push_back(xi);
    const Variable term = autograd::Mul(xi, xs[t]);  // ξ_t ⊙ x_t
    context = t == 0 ? term : autograd::Add(context, term);  // Eq. 13
  }
  // Eq. 14 pre-activation: ⟨w, c⟩ + b. The sigmoid (classification) is
  // applied by the loss / Predict for numerical stability.
  pass.logit = output_->Forward(context);
  return pass;
}

Variable Titv::Forward(const std::vector<Variable>& xs) {
  return Run(xs, /*keep_xis=*/false).logit;
}

FeatureImportanceTrace Titv::ComputeFeatureImportance(
    const data::Batch& batch, bool classification) {
  const Pass pass =
      Run(nn::SequenceModel::ToVariables(batch), /*keep_xis=*/true);
  const int batch_size = batch.batch_size();
  const int num_windows = static_cast<int>(pass.xis.size());
  const int d = config_.input_dim;

  FeatureImportanceTrace trace;
  trace.beta = UsesInvariantModule(config_.ablation)
                   ? pass.beta.value()
                   : Tensor::Zeros({batch_size, d});
  trace.w = output_->weight().value();  // D×1
  trace.alpha.reserve(num_windows);
  for (int t = 0; t < num_windows; ++t) {
    trace.alpha.push_back(pass.alphas.empty() ? Tensor::Zeros({batch_size, d})
                                              : pass.alphas[t].value());
  }

  // Eq. 17: FI(ŷ, x_{t,d}) = ξ_{t,d} · w_d, with ξ_t taken from the pass
  // (β + α, β, α or β ⊙ α by ablation). For regression the effective
  // prediction is scale·raw + offset, so each contribution carries the
  // scale factor.
  const float fi_scale = classification ? 1.0f : output_scale();
  trace.fi.reserve(num_windows);
  for (const Variable& xi : pass.xis) {
    const Tensor& xi_t = xi.value();
    Tensor fi({batch_size, d});
    for (int b = 0; b < batch_size; ++b) {
      for (int j = 0; j < d; ++j) {
        fi.at(b, j) = xi_t.at(b, j) * trace.w.at(j, 0) * fi_scale;
      }
    }
    trace.fi.push_back(std::move(fi));
  }

  // The pass's own logit through the activation Predict and serving apply.
  const Tensor& logit = pass.logit.value();
  trace.outputs =
      classification
          ? tracer::Sigmoid(logit)
          : tracer::AddScalar(tracer::Scale(logit, output_scale()),
                              output_offset());
  return trace;
}

}  // namespace core
}  // namespace tracer
