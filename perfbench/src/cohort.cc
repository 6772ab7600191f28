#include "cohort.h"

#include <numeric>
#include <vector>

#include "common/rng.h"
#include "datagen/emr_generator.h"
#include "obs/obs.h"

namespace perfbench {

Cohort MakeCohort(const CohortSpec& spec, uint64_t seed) {
  using tracer::obs::MonotonicNowNs;
  Cohort cohort;
  uint64_t t0 = MonotonicNowNs();
  tracer::datagen::EmrCohortConfig config =
      spec.mimic ? tracer::datagen::MimicDefaultConfig()
                 : tracer::datagen::NuhAkiDefaultConfig();
  config.num_samples = spec.samples;
  config.seed = seed;
  const tracer::data::TimeSeriesDataset dataset =
      spec.mimic ? tracer::datagen::GenerateMimicMortalityCohort(config).dataset
                 : tracer::datagen::GenerateNuhAkiCohort(config).dataset;
  cohort.cohort_s = static_cast<double>(MonotonicNowNs() - t0) / 1e9;

  t0 = MonotonicNowNs();
  std::vector<int> order(static_cast<size_t>(dataset.num_samples()));
  std::iota(order.begin(), order.end(), 0);
  tracer::Rng rng(seed + 1);
  rng.Shuffle(order);
  const auto slice = [&](int begin, int end) {
    return dataset.Subset(
        std::vector<int>(order.begin() + begin, order.begin() + end));
  };
  cohort.splits.train = slice(0, spec.train);
  cohort.splits.val = slice(spec.train, spec.train + spec.val);
  cohort.splits.test = slice(spec.train + spec.val, dataset.num_samples());
  tracer::data::MinMaxNormalizer normalizer;
  normalizer.Fit(cohort.splits.train);
  normalizer.Apply(&cohort.splits.train);
  normalizer.Apply(&cohort.splits.val);
  normalizer.Apply(&cohort.splits.test);
  cohort.prepare_s = static_cast<double>(MonotonicNowNs() - t0) / 1e9;
  return cohort;
}

}  // namespace perfbench
