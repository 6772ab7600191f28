#ifndef TRACER_TENSOR_TENSOR_H_
#define TRACER_TENSOR_TENSOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/rng.h"
#include "tensor/arena.h"

namespace tracer {

/// Dense float32 tensor with row-major contiguous storage.
///
/// The library supports arbitrary rank, but the analytics stack uses rank-1
/// (vectors), rank-2 (matrices: batch × features) and rank-3 (sequence
/// batches: batch × time × features). Shape errors are programming errors and
/// CHECK-fail; Tensor itself never allocates past construction except through
/// explicit factory or resize calls.
class Tensor {
 public:
  /// Empty scalar-less tensor (rank 0, size 0).
  Tensor() = default;

  /// Allocates a zero-initialised tensor of the given shape.
  explicit Tensor(std::vector<int> shape);

  /// Builds a tensor with the given shape from existing values.
  Tensor(std::vector<int> shape, std::vector<float> values);

  // -- Factories --------------------------------------------------------

  static Tensor Zeros(std::vector<int> shape);
  static Tensor Ones(std::vector<int> shape);
  static Tensor Full(std::vector<int> shape, float value);
  /// Entries i.i.d. N(0, stddev^2).
  static Tensor Randn(std::vector<int> shape, Rng& rng, float stddev = 1.0f);
  /// Entries i.i.d. uniform in [lo, hi).
  static Tensor RandUniform(std::vector<int> shape, Rng& rng, float lo,
                            float hi);
  /// Xavier/Glorot uniform initialisation for a fan_in × fan_out matrix.
  static Tensor XavierUniform(int fan_in, int fan_out, Rng& rng);

  // -- Shape ------------------------------------------------------------

  const std::vector<int>& shape() const { return shape_; }
  int rank() const { return static_cast<int>(shape_.size()); }
  /// Total number of elements.
  int64_t size() const { return static_cast<int64_t>(data_.size()); }
  /// Extent along dimension `dim`.
  int dim(int d) const {
    TRACER_DCHECK(d >= 0 && d < rank());
    return shape_[d];
  }
  /// Rows of a rank-2 tensor.
  int rows() const {
    TRACER_DCHECK(rank() == 2);
    return shape_[0];
  }
  /// Columns of a rank-2 tensor.
  int cols() const {
    TRACER_DCHECK(rank() == 2);
    return shape_[1];
  }
  bool SameShape(const Tensor& other) const { return shape_ == other.shape_; }

  // -- Element access ---------------------------------------------------

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  float& operator[](int64_t i) {
    TRACER_DCHECK(i >= 0 && i < size());
    return data_[static_cast<size_t>(i)];
  }
  float operator[](int64_t i) const {
    TRACER_DCHECK(i >= 0 && i < size());
    return data_[static_cast<size_t>(i)];
  }

  /// Rank-2 accessor.
  float& at(int r, int c) {
    TRACER_DCHECK(rank() == 2);
    TRACER_DCHECK(r >= 0 && r < shape_[0] && c >= 0 && c < shape_[1]);
    return data_[static_cast<size_t>(r) * shape_[1] + c];
  }
  float at(int r, int c) const {
    TRACER_DCHECK(rank() == 2);
    TRACER_DCHECK(r >= 0 && r < shape_[0] && c >= 0 && c < shape_[1]);
    return data_[static_cast<size_t>(r) * shape_[1] + c];
  }

  /// Rank-3 accessor.
  float& at(int i, int j, int k) {
    TRACER_DCHECK(rank() == 3);
    return data_[(static_cast<size_t>(i) * shape_[1] + j) * shape_[2] + k];
  }
  float at(int i, int j, int k) const {
    TRACER_DCHECK(rank() == 3);
    return data_[(static_cast<size_t>(i) * shape_[1] + j) * shape_[2] + k];
  }

  // -- Mutation ---------------------------------------------------------

  /// Sets all entries to `value`.
  void Fill(float value);
  /// Sets all entries to zero.
  void SetZero() { Fill(0.0f); }
  /// Reinterprets the data with a new shape of equal size.
  Tensor Reshape(std::vector<int> new_shape) const;

  /// Human-readable rendering (small tensors only; large ones abbreviated).
  std::string ToString() const;

 private:
  std::vector<int> shape_;
  // Each buffer counts in ThreadAllocCounters(); see tensor/arena.h.
  FloatBuffer data_;
};

}  // namespace tracer

#endif  // TRACER_TENSOR_TENSOR_H_
