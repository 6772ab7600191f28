#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <memory>
#include <vector>

#include "core/titv.h"
#include "serve/model_registry.h"

namespace perfbench {

using Windows = std::vector<std::vector<float>>;

/// Offline recomputation of what the server must have answered, on a
/// private replica of the snapshot that served the request: one sample
/// scored alone, and integrated gradients from a zero baseline. The serving
/// layer promises both bitwise (a batched row equals the sample scored
/// alone; explain equals offline IG). One instance per thread.
class OfflineReference {
 public:
  explicit OfflineReference(const tracer::serve::ModelSnapshot& snapshot);

  float Score(const Windows& windows);
  Windows IntegratedGradients(const Windows& windows, int steps);

 private:
  std::unique_ptr<tracer::core::Titv> replica_;
};

/// Bitwise equality: -0.0 differs from 0.0 and a NaN equals only itself.
bool SameBits(float a, float b);
bool SameBits(const Windows& a, const Windows& b);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
