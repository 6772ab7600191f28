#include <cmath>
#include <cstdlib>
#include <cstring>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "core/titv.h"
#include "data/dataset.h"
#include "datagen/emr_generator.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "parallel/parallel_for.h"
#include "tensor/gemm.h"
#include "tensor/tensor_ops.h"
#include "tests/bitwise_oracle.h"
#include "train/trainer.h"

namespace tracer {
namespace core {
namespace {

TitvConfig SmallConfig(int input_dim,
                       TitvAblation ablation = TitvAblation::kFull) {
  TitvConfig config;
  config.input_dim = input_dim;
  config.rnn_dim = 8;
  config.film_dim = 8;
  config.ablation = ablation;
  config.seed = 17;
  return config;
}

data::Batch RandomBatch(int batch, int windows, int features,
                        uint64_t seed) {
  Rng rng(seed);
  data::TimeSeriesDataset ds(data::TaskType::kBinaryClassification, batch,
                             windows, features);
  for (int i = 0; i < batch; ++i) {
    for (int t = 0; t < windows; ++t) {
      for (int d = 0; d < features; ++d) {
        ds.at(i, t, d) = static_cast<float>(rng.Uniform());
      }
    }
    ds.set_label(i, rng.Bernoulli(0.5) ? 1.0f : 0.0f);
  }
  return data::FullBatch(ds);
}

TEST(TitvTest, ForwardOutputShape) {
  Titv model(SmallConfig(5));
  const data::Batch batch = RandomBatch(6, 4, 5, 1);
  autograd::Variable out =
      model.Forward(nn::SequenceModel::ToVariables(batch));
  EXPECT_EQ(out.value().rows(), 6);
  EXPECT_EQ(out.value().cols(), 1);
}

TEST(TitvTest, ForwardBitwiseStableAcrossKernelAndThreads) {
  // Every GEMM kernel shares one per-element accumulation order and the
  // blocked kernel partitions whole output rows, so the forward pass must
  // not move by a bit under any TRACER_GEMM selection or thread budget
  // (DESIGN.md "Compute kernels").
  const int prev_threads = parallel::MaxThreads();
  TitvConfig config = SmallConfig(6);
  config.rnn_dim = 12;
  config.seed = 23;
  Titv model(config);
  const std::vector<autograd::Variable> xs =
      nn::SequenceModel::ToVariables(RandomBatch(8, 5, 6, 29));

  parallel::SetMaxThreads(1);
  const Tensor reference = model.Forward(xs).value();
  for (const char* env : {"naive", "blocked", "auto"}) {
    setenv("TRACER_GEMM", env, 1);
    gemm::ReloadKernelEnvForTesting();
    for (const int threads : {1, 2, 4, 8}) {
      parallel::SetMaxThreads(threads);
      const Tensor out = model.Forward(xs).value();
      EXPECT_TRUE(out.SameShape(reference) &&
                  std::memcmp(out.data(), reference.data(),
                              static_cast<size_t>(out.size()) *
                                  sizeof(float)) == 0)
          << "TRACER_GEMM=" << env << " threads=" << threads;
    }
  }
  unsetenv("TRACER_GEMM");
  gemm::ReloadKernelEnvForTesting();
  parallel::SetMaxThreads(prev_threads);
}

TEST(TitvTest, RecurrentStepGemmsDispatchToBlockedKernel) {
  // Model-level dispatch gate: at dim 16 on a 16-row MIMIC-III-shaped batch
  // (T = 24, D = 26), every per-timestep recurrent product and its backward
  // products must run on the blocked kernel under TRACER_GEMM=auto. The
  // only naive calls are the two n = 1 output-layer products the rule
  // names: the forward 16×1×26 kNN and the weight gradient 26×1×16 kTN.
  unsetenv("TRACER_GEMM");
  gemm::ReloadKernelEnvForTesting();
  TitvConfig config = SmallConfig(26);
  config.rnn_dim = 16;
  config.film_dim = 16;
  Titv model(config);
  const data::Batch batch = RandomBatch(16, 24, 26, 31);

  const bool was_enabled = obs::Enabled();
  obs::SetEnabled(true);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter* calls = registry.GetOrCreateCounter("tracer_gemm_calls_total");
  obs::Counter* blocked =
      registry.GetOrCreateCounter("tracer_gemm_blocked_calls_total");
  const int64_t calls_before = calls->value();
  const int64_t blocked_before = blocked->value();
  autograd::Variable out =
      model.Forward(nn::SequenceModel::ToVariables(batch));
  autograd::Variable loss =
      autograd::BinaryCrossEntropyWithLogits(out, batch.labels);
  for (auto& p : model.Parameters()) p.ZeroGrad();
  loss.Backward();
  const int64_t total_calls = calls->value() - calls_before;
  const int64_t blocked_calls = blocked->value() - blocked_before;
  obs::SetEnabled(was_enabled);

  // Two BiGRUs × two directions × 24 steps × 6 forward products alone.
  EXPECT_GT(total_calls, 2 * 2 * 24 * 6);
  EXPECT_EQ(total_calls - blocked_calls, 2)
      << blocked_calls << " of " << total_calls << " GEMM calls ran blocked";
}

TEST(TitvTest, AblationsProduceFiniteOutputs) {
  const data::Batch batch = RandomBatch(4, 3, 4, 2);
  for (TitvAblation ablation :
       {TitvAblation::kFull, TitvAblation::kInvariantOnly,
        TitvAblation::kVariantOnly, TitvAblation::kNoFilmModulation,
        TitvAblation::kNoBetaInPrediction,
        TitvAblation::kMultiplicativeCombine,
        TitvAblation::kLastStateSummary}) {
    Titv model(SmallConfig(4, ablation));
    autograd::Variable out =
        model.Forward(nn::SequenceModel::ToVariables(batch));
    for (int b = 0; b < 4; ++b) {
      EXPECT_TRUE(std::isfinite(out.value().at(b, 0)))
          << model.name() << " sample " << b;
    }
  }
}

TEST(TitvTest, AblationsChangeParameterCount) {
  const int d = 6;
  Titv full(SmallConfig(d, TitvAblation::kFull));
  Titv inv(SmallConfig(d, TitvAblation::kInvariantOnly));
  Titv var(SmallConfig(d, TitvAblation::kVariantOnly));
  EXPECT_GT(full.NumParameters(), inv.NumParameters());
  EXPECT_GT(full.NumParameters(), var.NumParameters());
}

TEST(TitvTest, GradientsFlowToAllParameters) {
  Titv model(SmallConfig(4));
  const data::Batch batch = RandomBatch(8, 3, 4, 3);
  autograd::Variable out =
      model.Forward(nn::SequenceModel::ToVariables(batch));
  autograd::Variable loss =
      autograd::BinaryCrossEntropyWithLogits(out, batch.labels);
  for (auto& p : model.Parameters()) p.ZeroGrad();
  loss.Backward();
  int nonzero_params = 0;
  for (auto& p : model.Parameters()) {
    float norm = 0.0f;
    const Tensor& g = p.grad();
    for (int64_t i = 0; i < g.size(); ++i) norm += g[i] * g[i];
    if (norm > 0.0f) ++nonzero_params;
  }
  // Every parameter tensor should receive some gradient (biases of gates
  // always do; weight matrices too for generic inputs).
  EXPECT_EQ(nonzero_params,
            static_cast<int>(model.Parameters().size()));
}

TEST(TitvTest, FeatureImportanceReconstructsPrediction) {
  // Eq. 18: ŷ = σ(Σ_t Σ_d FI(t,d)·x_{t,d} + b) must equal the model's own
  // forward output.
  Titv model(SmallConfig(5));
  const data::Batch batch = RandomBatch(7, 4, 5, 4);
  const FeatureImportanceTrace trace =
      model.ComputeFeatureImportance(batch, /*classification=*/true);
  autograd::Variable logits =
      model.Forward(nn::SequenceModel::ToVariables(batch));
  // The trace reads the pass that scored, so its outputs are the serving
  // activation of the model's own logit, bit for bit.
  EXPECT_TRUE(
      testutil::SameBytes(trace.outputs, tracer::Sigmoid(logits.value())));
  double first_bias = 0.0;
  for (int b = 0; b < batch.batch_size(); ++b) {
    double acc = 0.0;
    for (size_t t = 0; t < trace.fi.size(); ++t) {
      for (int d = 0; d < 5; ++d) {
        acc += static_cast<double>(trace.fi[t].at(b, d)) *
               batch.xs[t].at(b, d);
      }
    }
    // The trace's output must be the sigmoid of the model's own logit.
    const double logit = static_cast<double>(logits.value().at(b, 0));
    const double sigma = 1.0 / (1.0 + std::exp(-logit));
    EXPECT_NEAR(trace.outputs.at(b, 0), sigma, 1e-4) << "sample " << b;
    // The decomposition Σ FI·x must explain the logit up to the bias term,
    // which is identical across samples.
    const double bias = logit - acc;
    if (b == 0) {
      first_bias = bias;
    } else {
      EXPECT_NEAR(bias, first_bias, 1e-3) << "bias not constant across batch";
    }
  }
}

TEST(TitvTest, InvariantOnlyFiIsConstantAcrossWindows) {
  Titv model(SmallConfig(4, TitvAblation::kInvariantOnly));
  const data::Batch batch = RandomBatch(3, 5, 4, 5);
  const FeatureImportanceTrace trace =
      model.ComputeFeatureImportance(batch);
  for (int b = 0; b < 3; ++b) {
    for (int d = 0; d < 4; ++d) {
      for (size_t t = 1; t < trace.fi.size(); ++t) {
        EXPECT_FLOAT_EQ(trace.fi[t].at(b, d), trace.fi[0].at(b, d));
      }
    }
  }
}

TEST(TitvTest, VariantOnlyHasZeroBeta) {
  Titv model(SmallConfig(4, TitvAblation::kVariantOnly));
  const data::Batch batch = RandomBatch(3, 4, 4, 6);
  const FeatureImportanceTrace trace =
      model.ComputeFeatureImportance(batch);
  for (int64_t i = 0; i < trace.beta.size(); ++i) {
    EXPECT_FLOAT_EQ(trace.beta[i], 0.0f);
  }
}

TEST(TitvTest, StateDictRoundTrip) {
  Titv model(SmallConfig(4));
  const data::Batch batch = RandomBatch(4, 3, 4, 7);
  const auto xs = nn::SequenceModel::ToVariables(batch);
  const Tensor before = model.Forward(xs).value();
  const std::vector<Tensor> state = model.StateDict();

  // Perturb all parameters, verify output changes, then restore.
  for (auto& p : model.Parameters()) {
    Tensor& v = p.mutable_value();
    for (int64_t i = 0; i < v.size(); ++i) v[i] += 0.25f;
  }
  const Tensor perturbed = model.Forward(xs).value();
  EXPECT_GT(MaxAbsDiff(before, perturbed), 1e-4f);

  model.LoadStateDict(state);
  const Tensor restored = model.Forward(xs).value();
  EXPECT_LT(MaxAbsDiff(before, restored), 1e-6f);
}


TEST(TitvTest, RegressionFiReconstructsCalibratedPrediction) {
  // With an output transform set (regression calibration), Eq. 18 becomes
  // ŷ = scale·(Σ FI'·x + b) + offset where FI' absorbs the scale; the trace
  // outputs must equal the calibrated prediction.
  Titv model(SmallConfig(4));
  model.SetOutputTransform(2.5f, 10.0f);
  data::Batch batch = RandomBatch(5, 3, 4, 11);
  const FeatureImportanceTrace trace =
      model.ComputeFeatureImportance(batch, /*classification=*/false);
  autograd::Variable raw =
      model.Forward(nn::SequenceModel::ToVariables(batch));
  EXPECT_TRUE(testutil::SameBytes(
      trace.outputs,
      tracer::AddScalar(tracer::Scale(raw.value(), 2.5f), 10.0f)));
  for (int b = 0; b < batch.batch_size(); ++b) {
    const double expected = 2.5 * raw.value().at(b, 0) + 10.0;
    EXPECT_NEAR(trace.outputs.at(b, 0), expected, 1e-4);
    // The FI decomposition carries the scale: Σ FI·x + scale·bias + offset
    // must reproduce the calibrated output.
    double acc = 0.0;
    for (size_t t = 0; t < trace.fi.size(); ++t) {
      for (int d = 0; d < 4; ++d) {
        acc += static_cast<double>(trace.fi[t].at(b, d)) *
               batch.xs[t].at(b, d);
      }
    }
    const double residual = trace.outputs.at(b, 0) - acc;
    // residual = scale·bias + offset: identical across samples.
    static double first_residual = 0.0;
    if (b == 0) {
      first_residual = residual;
    } else {
      EXPECT_NEAR(residual, first_residual, 1e-3);
    }
  }
}

TEST(TitvIntegrationTest, LearnsSyntheticAkiCohort) {
  datagen::EmrCohortConfig config = datagen::NuhAkiDefaultConfig();
  config.num_samples = 600;
  config.num_filler_features = 4;
  config.deteriorating_rate = 0.3;
  config.seed = 99;
  datagen::EmrCohort cohort = datagen::GenerateNuhAkiCohort(config);

  Rng rng(1);
  data::DatasetSplits splits = data::SplitDataset(cohort.dataset, rng);
  data::MinMaxNormalizer normalizer;
  normalizer.Fit(splits.train);
  normalizer.Apply(&splits.train);
  normalizer.Apply(&splits.val);
  normalizer.Apply(&splits.test);

  Titv model(SmallConfig(cohort.dataset.num_features()));
  train::TrainConfig tc;
  tc.max_epochs = 15;
  tc.batch_size = 32;
  tc.patience = 15;
  const train::TrainResult result =
      train::Fit(&model, splits.train, splits.val, tc);
  EXPECT_GT(result.epochs_run, 0);
  // Training loss must fall substantially.
  EXPECT_LT(result.train_loss.back(), result.train_loss.front());

  const train::EvalResult eval = train::Evaluate(&model, splits.test);
  EXPECT_GT(eval.auc, 0.75) << "TITV failed to learn the planted signal";
}

}  // namespace
}  // namespace core
}  // namespace tracer
