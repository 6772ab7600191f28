#include "checks.h"

#include <cstdint>
#include <cstring>
#include <utility>

#include "autograd/variable.h"
#include "interpret/adapters.h"
#include "interpret/attribution.h"
#include "tensor/tensor_ops.h"

namespace perfbench {
namespace {

std::vector<tracer::Tensor> SingleSample(const Windows& windows) {
  std::vector<tracer::Tensor> xs;
  xs.reserve(windows.size());
  for (const std::vector<float>& window : windows) {
    tracer::Tensor x({1, static_cast<int>(window.size())});
    for (size_t j = 0; j < window.size(); ++j) {
      x.at(0, static_cast<int>(j)) = window[j];
    }
    xs.push_back(std::move(x));
  }
  return xs;
}

}  // namespace

OfflineReference::OfflineReference(
    const tracer::serve::ModelSnapshot& snapshot)
    : replica_(snapshot.NewReplica()) {}

float OfflineReference::Score(const Windows& windows) {
  std::vector<tracer::autograd::Variable> xs;
  for (tracer::Tensor& x : SingleSample(windows)) {
    xs.push_back(tracer::autograd::Variable::Constant(std::move(x)));
  }
  const tracer::autograd::Variable raw = replica_->Forward(xs);
  return tracer::Sigmoid(raw.value()).at(0, 0);
}

Windows OfflineReference::IntegratedGradients(const Windows& windows,
                                              int steps) {
  tracer::interpret::ModelScorer scorer =
      tracer::interpret::WrapSequenceModel(replica_.get());
  tracer::interpret::IntegratedGradientsOptions options;
  options.steps = steps;
  tracer::interpret::BaselineBuilder zero(
      tracer::interpret::BaselineKind::kZero);
  tracer::interpret::IntegratedGradients ig(scorer.tape, std::move(zero),
                                            options, scorer.reset);
  return ig.Attribute(SingleSample(windows)).samples.at(0).fi;
}

bool SameBits(float a, float b) {
  uint32_t x = 0;
  uint32_t y = 0;
  std::memcpy(&x, &a, sizeof(x));
  std::memcpy(&y, &b, sizeof(y));
  return x == y;
}

bool SameBits(const Windows& a, const Windows& b) {
  if (a.size() != b.size()) return false;
  for (size_t t = 0; t < a.size(); ++t) {
    if (a[t].size() != b[t].size()) return false;
    for (size_t d = 0; d < a[t].size(); ++d) {
      if (!SameBits(a[t][d], b[t][d])) return false;
    }
  }
  return true;
}

}  // namespace perfbench
