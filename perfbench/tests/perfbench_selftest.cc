// Self-tests of the benchmark's own machinery: the open-loop schedule, the
// percentile helper, SLO accounting and the serve output check.

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "checks.h"
#include "core/titv.h"
#include "schedule.h"
#include "serve/model_registry.h"
#include "serve/server.h"
#include "stats.h"

namespace perfbench {
namespace {

TEST(Schedule, SameSeedGivesSameSchedule) {
  MixSpec spec;
  spec.seconds = 2.0;
  const std::vector<Arrival> a = MakeSchedule(spec, 50, 7);
  const std::vector<Arrival> b = MakeSchedule(spec, 50, 7);
  const std::vector<Arrival> c = MakeSchedule(spec, 50, 8);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].due_ns, b[i].due_ns);
    EXPECT_EQ(a[i].explain, b[i].explain);
    EXPECT_EQ(a[i].patient, b[i].patient);
    EXPECT_EQ(a[i].windows, b[i].windows);
  }
  bool differs = a.size() != c.size();
  for (size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].due_ns != c[i].due_ns;
  }
  EXPECT_TRUE(differs);
}

TEST(Schedule, MatchesTheMix) {
  MixSpec spec;
  spec.seconds = 10.0;
  const std::vector<Arrival> schedule = MakeSchedule(spec, 40, 3);
  // rate x 10 s expected arrivals; the Poisson sd is its square root, at
  // most ~173 for the rates the workload uses.
  EXPECT_NEAR(static_cast<double>(schedule.size()), spec.rate_per_s * 10.0,
              1000.0);
  int explains = 0;
  int short_histories = 0;
  uint64_t previous = 0;
  for (const Arrival& a : schedule) {
    EXPECT_GE(a.due_ns, previous);
    EXPECT_LT(a.due_ns, 10000000000ull);
    previous = a.due_ns;
    EXPECT_GE(a.patient, 0);
    EXPECT_LT(a.patient, 40);
    EXPECT_GE(a.windows, 1);
    EXPECT_LE(a.windows, 7);
    explains += a.explain ? 1 : 0;
    short_histories += a.windows < 7 ? 1 : 0;
  }
  const double n = static_cast<double>(schedule.size());
  EXPECT_NEAR(explains / n, 0.05, 0.01);
  EXPECT_NEAR(short_histories / n, 0.30, 0.02);
}

TEST(Percentile, NearestRank) {
  const std::vector<double> values = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
  EXPECT_EQ(Percentile(values, 0.0), 1.0);
  EXPECT_EQ(Percentile(values, 0.5), 5.0);
  EXPECT_EQ(Percentile(values, 0.9), 9.0);
  EXPECT_EQ(Percentile(values, 0.91), 10.0);
  EXPECT_EQ(Percentile(values, 1.0), 10.0);
  EXPECT_EQ(Median({4.0}), 4.0);
  EXPECT_EQ(Percentile({}, 0.5), 0.0);
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  EXPECT_EQ(Percentile(hundred, 0.99), 99.0);
}

TEST(Slo, ShedAndFailedRequestsCountAsMisses) {
  const std::vector<RequestOutcome> outcomes = {
      {false, true, 1.0},    // score in time
      {false, true, 12.0},   // score late
      {false, false, 0.1},   // shed: answered at once, but not OK
      {true, true, 20.0},    // explain in time
      {true, false, 1.0},    // explain failed
  };
  EXPECT_DOUBLE_EQ(SloAttained(outcomes, 10.0, 25.0), 2.0 / 5.0);
  EXPECT_DOUBLE_EQ(SloAttained({{false, false, 0.0}}, 10.0, 25.0), 0.0);
  EXPECT_DOUBLE_EQ(SloAttained({}, 10.0, 25.0), 0.0);
}

TEST(OutputCheck, FiresOnAPerturbedAnswer) {
  tracer::core::TitvConfig config;
  config.input_dim = 5;
  config.rnn_dim = 4;
  config.film_dim = 4;
  config.seed = 11;
  const tracer::core::Titv model(config);
  std::vector<std::pair<std::string, tracer::Tensor>> tensors;
  for (const auto& [name, param] : model.NamedParameters()) {
    tensors.emplace_back(name, param.value());
  }
  tracer::serve::ModelRegistry registry;
  const tracer::Result<uint64_t> version =
      registry.Register(config, std::move(tensors), "selftest");
  ASSERT_TRUE(version.ok());
  ASSERT_TRUE(registry.Publish(version.value()).ok());
  tracer::serve::InferenceServer server(&registry, {});

  Windows windows(3, std::vector<float>(5));
  for (size_t t = 0; t < windows.size(); ++t) {
    for (size_t d = 0; d < windows[t].size(); ++d) {
      windows[t][d] = 0.1f * static_cast<float>(t + 1) - 0.05f * d;
    }
  }
  tracer::serve::ServeRequest request;
  request.windows = windows;
  tracer::serve::ExplainSpec spec;
  spec.method = tracer::interpret::Method::kIntegratedGradients;
  spec.ig_steps = 8;
  const tracer::serve::ServeResponse response =
      server.Explain(std::move(request), spec);
  ASSERT_TRUE(response.status.ok());

  OfflineReference reference(*registry.Get(version.value()));
  const float score = response.decision.probability;
  EXPECT_TRUE(SameBits(reference.Score(windows), score));
  EXPECT_FALSE(SameBits(reference.Score(windows), std::nextafter(score, 2.0f)));

  const Windows expected = reference.IntegratedGradients(windows, 8);
  EXPECT_TRUE(SameBits(expected, response.attributions));
  Windows perturbed = response.attributions;
  perturbed[1][2] = std::nextafter(perturbed[1][2], 1.0f);
  EXPECT_FALSE(SameBits(expected, perturbed));
  EXPECT_FALSE(SameBits(0.0f, -0.0f));
}

}  // namespace
}  // namespace perfbench
