// Cross-module integration tests: the claims the paper's evaluation rests
// on, validated end-to-end at small scale.

#include <cmath>

#include <gtest/gtest.h>

#include "baselines/gbdt.h"
#include "baselines/logistic_regression.h"
#include "baselines/retain.h"
#include "core/tracer.h"
#include "datagen/emr_generator.h"
#include "datagen/stock_generator.h"
#include "datagen/temperature_generator.h"
#include "metrics/metrics.h"
#include "train/trainer.h"

namespace tracer {
namespace {

struct Cohort {
  data::DatasetSplits splits;
  int input_dim;
};

Cohort PrepareAki(int samples, uint64_t seed) {
  datagen::EmrCohortConfig config = datagen::NuhAkiDefaultConfig();
  config.num_samples = samples;
  config.deteriorating_rate = 0.25;
  config.seed = seed;
  const datagen::EmrCohort cohort = datagen::GenerateNuhAkiCohort(config);
  Rng rng(seed + 1);
  Cohort out;
  out.splits = data::SplitDataset(cohort.dataset, rng);
  data::MinMaxNormalizer norm;
  norm.Fit(out.splits.train);
  norm.Apply(&out.splits.train);
  norm.Apply(&out.splits.val);
  norm.Apply(&out.splits.test);
  out.input_dim = cohort.dataset.num_features();
  return out;
}

// The paper's central claim, in miniature: a sequence model (TITV)
// outperforms the aggregated linear baseline on EMR-like data whose signal
// lives in within-patient temporal change.
TEST(IntegrationTest, TracerBeatsAggregatedLrOnTemporalSignal) {
  Cohort cohort = PrepareAki(1500, 41);

  baselines::LogisticRegression lr_model(cohort.input_dim);
  train::TrainConfig lr_config;
  lr_config.max_epochs = 50;
  lr_config.patience = 10;
  lr_config.learning_rate = 2e-2f;
  train::Fit(&lr_model, cohort.splits.train, cohort.splits.val, lr_config);
  const double lr_auc =
      train::Evaluate(&lr_model, cohort.splits.test).auc;

  core::TracerConfig config;
  config.model.input_dim = cohort.input_dim;
  config.model.rnn_dim = 16;
  config.model.film_dim = 16;
  config.training.max_epochs = 45;
  config.training.patience = 10;
  config.training.learning_rate = 3e-3f;
  core::Tracer tracer_framework(config);
  tracer_framework.Train(cohort.splits.train, cohort.splits.val);
  const double tracer_auc =
      tracer_framework.Evaluate(cohort.splits.test).auc;

  EXPECT_GT(tracer_auc, lr_auc + 0.05)
      << "TRACER " << tracer_auc << " vs LR " << lr_auc;
}

// Ablation shape of Figure 13: the full model beats the invariant-only
// ablation (which collapses every window to the same importance).
TEST(IntegrationTest, FullModelBeatsInvariantOnly) {
  Cohort cohort = PrepareAki(1200, 43);
  auto train_variant = [&](core::TitvAblation ablation) {
    core::TitvConfig config;
    config.input_dim = cohort.input_dim;
    config.rnn_dim = 12;
    config.film_dim = 12;
    config.ablation = ablation;
    config.seed = 7;
    core::Titv model(config);
    train::TrainConfig tc;
    tc.max_epochs = 35;
    tc.patience = 10;
    tc.learning_rate = 3e-3f;
    train::Fit(&model, cohort.splits.train, cohort.splits.val, tc);
    return train::Evaluate(&model, cohort.splits.test).auc;
  };
  const double full = train_variant(core::TitvAblation::kFull);
  const double inv = train_variant(core::TitvAblation::kInvariantOnly);
  EXPECT_GT(full, inv) << "full " << full << " vs invariant-only " << inv;
}

// Interpretation faithfulness at the framework level: reloading the saved
// checkpoint must reproduce identical feature-importance values.
TEST(IntegrationTest, CheckpointPreservesInterpretation) {
  Cohort cohort = PrepareAki(400, 47);
  core::TracerConfig config;
  config.model.input_dim = cohort.input_dim;
  config.model.rnn_dim = 8;
  config.model.film_dim = 8;
  config.training.max_epochs = 5;
  core::Tracer a(config);
  a.Train(cohort.splits.train, cohort.splits.val);
  const std::string path = ::testing::TempDir() + "/interp_ckpt.bin";
  ASSERT_TRUE(a.SaveCheckpoint(path).ok());

  core::Tracer b(config);
  ASSERT_TRUE(b.LoadCheckpoint(path).ok());
  const core::PatientInterpretation ia =
      a.InterpretPatient(cohort.splits.test, 3);
  const core::PatientInterpretation ib =
      b.InterpretPatient(cohort.splits.test, 3);
  ASSERT_EQ(ia.fi.size(), ib.fi.size());
  for (size_t t = 0; t < ia.fi.size(); ++t) {
    for (size_t d = 0; d < ia.fi[t].size(); ++d) {
      EXPECT_FLOAT_EQ(ia.fi[t][d], ib.fi[t][d]);
    }
  }
  std::remove(path.c_str());
}

// Regression path end-to-end: TITV on the stock cohort must clearly beat
// predicting the training-mean index.
TEST(IntegrationTest, RegressionBeatsMeanPredictor) {
  datagen::StockMarketConfig market;
  market.series_length = 800;
  const datagen::StockCohort cohort = datagen::GenerateStockMarket(market);
  Rng rng(5);
  data::DatasetSplits splits = data::SplitDataset(cohort.dataset, rng);
  data::MinMaxNormalizer norm;
  norm.Fit(splits.train);
  norm.Apply(&splits.train);
  norm.Apply(&splits.val);
  norm.Apply(&splits.test);

  double mean_label = 0.0;
  for (float y : splits.train.labels()) mean_label += y;
  mean_label /= splits.train.num_samples();
  std::vector<float> mean_pred(splits.test.num_samples(),
                               static_cast<float>(mean_label));
  const double baseline_rmse =
      metrics::Rmse(mean_pred, splits.test.labels());

  core::TracerConfig config;
  config.model.input_dim = cohort.dataset.num_features();
  config.model.rnn_dim = 8;
  config.model.film_dim = 8;
  config.training.max_epochs = 35;
  config.training.learning_rate = 3e-3f;
  core::Tracer tracer_framework(config);
  tracer_framework.Train(splits.train, splits.val);
  const double model_rmse =
      tracer_framework.Evaluate(splits.test).rmse;
  EXPECT_LT(model_rmse, 0.75 * baseline_rmse)
      << "model " << model_rmse << " vs mean-predictor " << baseline_rmse;
}

// The GBDT and RETAIN baselines integrate with the same data pipeline and
// land in a sane band (neither degenerate nor perfect) on the AKI task.
TEST(IntegrationTest, BaselinesLandInSaneBand) {
  Cohort cohort = PrepareAki(1000, 53);
  baselines::GbdtConfig gconfig;
  gconfig.num_trees = 60;
  baselines::Gbdt gbdt(gconfig, data::TaskType::kBinaryClassification);
  gbdt.FitDataset(cohort.splits.train);
  const double gbdt_auc = metrics::Auc(
      gbdt.PredictDataset(cohort.splits.test), cohort.splits.test.labels());
  EXPECT_GT(gbdt_auc, 0.55);
  EXPECT_LT(gbdt_auc, 0.999);

  baselines::Retain retain(cohort.input_dim, 12, 12);
  train::TrainConfig tc;
  tc.max_epochs = 25;
  tc.patience = 10;
  tc.learning_rate = 3e-3f;
  train::Fit(&retain, cohort.splits.train, cohort.splits.val, tc);
  const double retain_auc =
      train::Evaluate(&retain, cohort.splits.test).auc;
  EXPECT_GT(retain_auc, 0.6);
}

}  // namespace
}  // namespace tracer
