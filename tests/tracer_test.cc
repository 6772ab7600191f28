#include <cstdio>
#include <cstring>

#include <gtest/gtest.h>

#include "core/tracer.h"
#include "datagen/emr_generator.h"
#include "datagen/temperature_generator.h"
#include "serve/model_registry.h"
#include "serve/server.h"

namespace tracer {
namespace core {
namespace {

struct Fixture {
  data::DatasetSplits splits;
  TracerConfig config;
};

Fixture MakeFixture() {
  datagen::EmrCohortConfig gen = datagen::NuhAkiDefaultConfig();
  gen.num_samples = 900;
  gen.num_filler_features = 4;
  gen.deteriorating_rate = 0.3;
  gen.seed = 77;
  datagen::EmrCohort cohort = datagen::GenerateNuhAkiCohort(gen);
  Rng rng(5);
  Fixture f;
  f.splits = data::SplitDataset(cohort.dataset, rng);
  data::MinMaxNormalizer norm;
  norm.Fit(f.splits.train);
  norm.Apply(&f.splits.train);
  norm.Apply(&f.splits.val);
  norm.Apply(&f.splits.test);
  f.config.model.input_dim = cohort.dataset.num_features();
  f.config.model.rnn_dim = 8;
  f.config.model.film_dim = 8;
  f.config.training.max_epochs = 25;
  f.config.training.learning_rate = 3e-3f;
  f.config.training.batch_size = 32;
  f.config.training.patience = 10;
  return f;
}

TEST(TracerTest, TrainEvaluateInterpretEndToEnd) {
  Fixture f = MakeFixture();
  Tracer tracer_framework(f.config);
  const train::TrainResult result =
      tracer_framework.Train(f.splits.train, f.splits.val);
  EXPECT_GT(result.epochs_run, 0);
  EXPECT_GE(result.best_epoch, 1);

  const train::EvalResult eval = tracer_framework.Evaluate(f.splits.test);
  EXPECT_GT(eval.auc, 0.68);
  EXPECT_GT(eval.cel, 0.0);

  // Patient-level interpretation is well-formed.
  const PatientInterpretation patient =
      tracer_framework.InterpretPatient(f.splits.test, 0);
  EXPECT_EQ(patient.fi.size(),
            static_cast<size_t>(f.splits.test.num_windows()));
  EXPECT_EQ(patient.fi[0].size(),
            static_cast<size_t>(f.splits.test.num_features()));
  EXPECT_GE(patient.probability, 0.0f);
  EXPECT_LE(patient.probability, 1.0f);

  // Feature-level interpretation is well-formed and ordered.
  const FeatureInterpretation urea =
      tracer_framework.InterpretFeature(f.splits.test, "Urea");
  EXPECT_EQ(urea.windows.size(),
            static_cast<size_t>(f.splits.test.num_windows()));
  for (const auto& w : urea.windows) {
    EXPECT_LE(w.min, w.p25);
    EXPECT_LE(w.p25, w.median);
    EXPECT_LE(w.median, w.p75);
    EXPECT_LE(w.p75, w.max);
    EXPECT_GE(w.stddev, 0.0f);
  }
}

TEST(TracerTest, AlertFiresAboveThresholdOnly) {
  Fixture f = MakeFixture();
  f.config.alert_threshold = 0.0f;  // everything alerts
  Tracer always(f.config);
  const AlertDecision a = always.PredictAndAlert(f.splits.test, 0);
  EXPECT_TRUE(a.alert);

  f.config.alert_threshold = 1.1f;  // nothing alerts
  Tracer never(f.config);
  const AlertDecision b = never.PredictAndAlert(f.splits.test, 0);
  EXPECT_FALSE(b.alert);
  EXPECT_GE(b.probability, 0.0f);
  EXPECT_LE(b.probability, 1.0f);
}

TEST(TracerTest, PredictAndAlertMatchesServedScoreBitwise) {
  // Scenario 1 reads the same TITV pass that serving runs, so a patient's
  // offline alert probability and the served score are the same bits.
  Fixture f = MakeFixture();
  f.config.training.max_epochs = 2;
  Tracer tracer_framework(f.config);
  tracer_framework.Train(f.splits.train, f.splits.val);
  const std::string path = ::testing::TempDir() + "/tracer_serve_ckpt.bin";
  ASSERT_TRUE(tracer_framework.SaveCheckpoint(path).ok());
  serve::ModelRegistry registry;
  const auto staged = registry.Load(path, f.config.model);
  ASSERT_TRUE(staged.ok()) << staged.status().ToString();
  ASSERT_TRUE(registry.Publish(staged.value()).ok());
  serve::InferenceServer server(&registry, serve::ServeOptions{});
  const data::TimeSeriesDataset& test = f.splits.test;
  for (int i = 0; i < 8; ++i) {
    serve::ServeRequest request;
    for (int t = 0; t < test.num_windows(); ++t) {
      std::vector<float> window(test.num_features());
      for (int d = 0; d < test.num_features(); ++d) {
        window[d] = test.at(i, t, d);
      }
      request.windows.push_back(std::move(window));
    }
    const serve::ServeResponse served = server.Infer(std::move(request));
    ASSERT_TRUE(served.status.ok()) << served.status.ToString();
    const float offline =
        tracer_framework.PredictAndAlert(test, i).probability;
    EXPECT_EQ(std::memcmp(&offline, &served.decision.probability,
                          sizeof(float)),
              0)
        << "patient " << i << ": " << offline << " vs "
        << served.decision.probability;
  }
  std::remove(path.c_str());
}

TEST(TracerTest, InterpretFeatureRestrictedCohort) {
  Fixture f = MakeFixture();
  Tracer tracer_framework(f.config);
  const FeatureInterpretation all =
      tracer_framework.InterpretFeature(f.splits.test, "Urea");
  const FeatureInterpretation some =
      tracer_framework.InterpretFeature(f.splits.test, "Urea", {0, 1, 2});
  EXPECT_EQ(all.windows.size(), some.windows.size());
  // A 3-sample cohort has min == quantile bounds collapsing more often;
  // just verify it is well-formed and uses the right feature.
  EXPECT_EQ(some.feature_index, f.splits.test.FeatureIndex("Urea"));
}

TEST(TracerTest, CheckpointSaveLoadRoundTrip) {
  Fixture f = MakeFixture();
  Tracer a(f.config);
  f.config.training.max_epochs = 2;
  a.Train(f.splits.train, f.splits.val);
  const std::string path = ::testing::TempDir() + "/tracer_ckpt.bin";
  ASSERT_TRUE(a.SaveCheckpoint(path).ok());

  Tracer b(f.config);
  ASSERT_TRUE(b.LoadCheckpoint(path).ok());
  // Predictions must now agree exactly.
  const auto pa = a.model().Predict(f.splits.test);
  const auto pb = b.model().Predict(f.splits.test);
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_FLOAT_EQ(pa[i], pb[i]);
  }
  std::remove(path.c_str());
}

TEST(TracerTest, LoadCheckpointRejectsWrongArchitecture) {
  Fixture f = MakeFixture();
  Tracer a(f.config);
  const std::string path = ::testing::TempDir() + "/tracer_ckpt2.bin";
  ASSERT_TRUE(a.SaveCheckpoint(path).ok());
  TracerConfig other = f.config;
  other.model.rnn_dim = f.config.model.rnn_dim * 2;
  Tracer b(other);
  EXPECT_FALSE(b.LoadCheckpoint(path).ok());
  std::remove(path.c_str());
}


TEST(TracerTest, RegressionCheckpointPreservesOutputTransform) {
  // Train a tiny regression TRACER (the trainer standardises labels via
  // the output transform), save, reload into a fresh instance and check
  // predictions agree in the *original* label units.
  datagen::TemperatureConfig gen;
  gen.series_length = 300;
  datagen::TemperatureCohort cohort =
      datagen::GenerateTemperatureTrace(gen);
  Rng rng(9);
  data::DatasetSplits splits = data::SplitDataset(cohort.dataset, rng);
  data::MinMaxNormalizer norm;
  norm.Fit(splits.train);
  norm.Apply(&splits.train);
  norm.Apply(&splits.val);
  norm.Apply(&splits.test);

  TracerConfig config;
  config.model.input_dim = cohort.dataset.num_features();
  config.model.rnn_dim = 6;
  config.model.film_dim = 6;
  config.training.max_epochs = 4;
  Tracer a(config);
  a.Train(splits.train, splits.val);
  EXPECT_NE(a.model().output_scale(), 1.0f);  // transform was set

  const std::string path = ::testing::TempDir() + "/reg_ckpt.bin";
  ASSERT_TRUE(a.SaveCheckpoint(path).ok());
  Tracer b(config);
  ASSERT_TRUE(b.LoadCheckpoint(path).ok());
  EXPECT_FLOAT_EQ(b.model().output_scale(), a.model().output_scale());
  EXPECT_FLOAT_EQ(b.model().output_offset(), a.model().output_offset());
  const auto pa = a.model().Predict(splits.test);
  const auto pb = b.model().Predict(splits.test);
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_FLOAT_EQ(pa[i], pb[i]);
  }
  // Sanity: predictions are in °C, not standardized units.
  EXPECT_GT(pa[0], 5.0f);
  std::remove(path.c_str());
}

TEST(TracerDeathTest, UnknownFeatureNameChecks) {
  Fixture f = MakeFixture();
  Tracer tracer_framework(f.config);
  EXPECT_DEATH(
      tracer_framework.InterpretFeature(f.splits.test, "NOT_A_FEATURE"),
      "unknown feature");
}

}  // namespace
}  // namespace core
}  // namespace tracer
