#ifndef PERFBENCH_COHORT_H_
#define PERFBENCH_COHORT_H_

#include <cstdint>

#include "data/dataset.h"

namespace perfbench {

/// Which synthetic EMR cohort to generate and how to split it.
struct CohortSpec {
  /// MIMIC-III mortality shape (T=24, D=26) instead of NUH-AKI (T=7, D=31).
  bool mimic = false;
  int samples = 0;
  int train = 0;
  int val = 0;  // the test split is the rest
};

/// A generated, split and min-max normalised cohort, with the time each
/// stage took.
struct Cohort {
  tracer::data::DatasetSplits splits;
  double cohort_s = 0.0;
  double prepare_s = 0.0;
};

/// Generates the cohort from `seed` with the library's generator, splits it
/// into exact-size train/val/test sets and normalises every split with the
/// statistics of the training split.
Cohort MakeCohort(const CohortSpec& spec, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_COHORT_H_
