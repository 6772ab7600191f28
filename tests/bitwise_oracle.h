#ifndef TRACER_TESTS_BITWISE_ORACLE_H_
#define TRACER_TESTS_BITWISE_ORACLE_H_

// Helpers for tests that hold a fused op to byte equality with the composed
// ops it replaced (nn_test's GRU and lstm_test's LSTM gate oracles): run the
// fused graph, harvest every gradient, run the oracle over the same leaves,
// and compare the bytes.

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/variable.h"
#include "nn/module.h"
#include "tensor/tensor_ops.h"

namespace tracer {
namespace testutil {

/// Parameters of `module` by hierarchical name ("fwd.cell.w_z", ...).
inline std::map<std::string, autograd::Variable> ParamsByName(
    const nn::Module& module) {
  std::map<std::string, autograd::Variable> by_name;
  for (const auto& [name, param] : module.NamedParameters()) {
    by_name[name] = param;
  }
  return by_name;
}

/// The parameter called `name`; records a test failure when there is none.
inline autograd::Variable Param(
    const std::map<std::string, autograd::Variable>& by_name,
    const std::string& name) {
  const auto it = by_name.find(name);
  EXPECT_NE(it, by_name.end()) << name;
  return it == by_name.end() ? autograd::Variable() : it->second;
}

inline bool SameBytes(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), sizeof(float) * a.size()) == 0;
}

/// Copies out, then zeroes, the gradients of `vars`.
inline std::vector<Tensor> HarvestGrads(std::vector<autograd::Variable> vars) {
  std::vector<Tensor> grads;
  for (autograd::Variable& v : vars) {
    grads.push_back(v.grad());
    v.ZeroGrad();
  }
  return grads;
}

inline void ExpectSameGrads(const std::vector<Tensor>& fused,
                            const std::vector<Tensor>& oracle,
                            const std::vector<std::string>& names) {
  ASSERT_EQ(fused.size(), oracle.size());
  ASSERT_EQ(fused.size(), names.size());
  for (size_t i = 0; i < fused.size(); ++i) {
    EXPECT_TRUE(SameBytes(fused[i], oracle[i]))
        << names[i] << " gradient differs, max |diff| "
        << MaxAbsDiff(fused[i], oracle[i]);
  }
}

}  // namespace testutil
}  // namespace tracer

#endif  // TRACER_TESTS_BITWISE_ORACLE_H_
