#include "tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>

#include "parallel/parallel_for.h"
#include "tensor/gemm.h"

namespace tracer {

namespace {

// Elementwise loops above this size run on parallel::ParallelFor in chunks
// of kElementwiseGrain. Indices are independent and each is written by
// exactly one chunk, so results are bit-identical at every thread count.
constexpr int64_t kElementwiseParallelMin = int64_t{1} << 16;
constexpr int64_t kElementwiseGrain = int64_t{1} << 14;

void CheckSameShape(const Tensor& a, const Tensor& b, const char* op) {
  TRACER_CHECK(a.SameShape(b)) << op << ": shape mismatch " << a.ToString()
                               << " vs " << b.ToString();
}

template <typename F>
void ForEachIndex(int64_t n, F f) {
  if (n >= kElementwiseParallelMin) {
    parallel::ParallelFor(kElementwiseGrain, n,
                          [&f](int64_t begin, int64_t end) {
                            for (int64_t i = begin; i < end; ++i) f(i);
                          });
  } else {
    for (int64_t i = 0; i < n; ++i) f(i);
  }
}

template <typename F>
Tensor Elementwise(const Tensor& a, F f) {
  Tensor out(a.shape());
  const float* src = a.data();
  float* dst = out.data();
  ForEachIndex(a.size(), [&](int64_t i) { dst[i] = f(src[i]); });
  return out;
}

template <typename F>
Tensor Binary(const Tensor& a, const Tensor& b, F f, const char* op) {
  CheckSameShape(a, b, op);
  Tensor out(a.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* dst = out.data();
  ForEachIndex(a.size(), [&](int64_t i) { dst[i] = f(pa[i], pb[i]); });
  return out;
}

}  // namespace

// The three matmul entry points delegate to the compute-kernel layer
// (tensor/gemm.h): a size heuristic picks between the naive reference and
// the blocked, packed, thread-parallel kernel — both honoring the same
// per-element accumulation order, so the choice never changes results.

void MatMulAccum(const Tensor& a, const Tensor& b, Tensor* out) {
  TRACER_CHECK_EQ(a.rank(), 2);
  TRACER_CHECK_EQ(b.rank(), 2);
  const int m = a.rows(), k = a.cols(), n = b.cols();
  TRACER_CHECK_EQ(k, b.rows()) << "MatMul inner-dimension mismatch";
  TRACER_CHECK(out->rank() == 2 && out->rows() == m && out->cols() == n);
  gemm::Gemm(gemm::Variant::kNN, m, n, k, a.data(), b.data(), out->data());
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  Tensor out({a.rows(), b.cols()});
  MatMulAccum(a, b, &out);
  return out;
}

void MatMulTransAAccum(const Tensor& a, const Tensor& b, Tensor* out) {
  TRACER_CHECK_EQ(a.rank(), 2);
  TRACER_CHECK_EQ(b.rank(), 2);
  const int k = a.rows(), m = a.cols(), n = b.cols();
  TRACER_CHECK_EQ(k, b.rows()) << "MatMulTransA inner-dimension mismatch";
  TRACER_CHECK(out->rank() == 2 && out->rows() == m && out->cols() == n);
  gemm::Gemm(gemm::Variant::kTN, m, n, k, a.data(), b.data(), out->data());
}

Tensor MatMulTransA(const Tensor& a, const Tensor& b) {
  Tensor out({a.cols(), b.cols()});
  MatMulTransAAccum(a, b, &out);
  return out;
}

void MatMulTransBAccum(const Tensor& a, const Tensor& b, Tensor* out) {
  TRACER_CHECK_EQ(a.rank(), 2);
  TRACER_CHECK_EQ(b.rank(), 2);
  const int m = a.rows(), k = a.cols(), n = b.rows();
  TRACER_CHECK_EQ(k, b.cols()) << "MatMulTransB inner-dimension mismatch";
  TRACER_CHECK(out->rank() == 2 && out->rows() == m && out->cols() == n);
  gemm::Gemm(gemm::Variant::kNT, m, n, k, a.data(), b.data(), out->data());
}

Tensor MatMulTransB(const Tensor& a, const Tensor& b) {
  Tensor out({a.rows(), b.rows()});
  MatMulTransBAccum(a, b, &out);
  return out;
}

Tensor Add(const Tensor& a, const Tensor& b) {
  return Binary(a, b, [](float x, float y) { return x + y; }, "Add");
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  return Binary(a, b, [](float x, float y) { return x - y; }, "Sub");
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  return Binary(a, b, [](float x, float y) { return x * y; }, "Mul");
}

Tensor Div(const Tensor& a, const Tensor& b) {
  return Binary(a, b, [](float x, float y) { return x / y; }, "Div");
}

void AddInPlace(Tensor* out, const Tensor& a) {
  CheckSameShape(*out, a, "AddInPlace");
  float* dst = out->data();
  const float* src = a.data();
  ForEachIndex(a.size(), [&](int64_t i) { dst[i] += src[i]; });
}

void Axpy(float scale, const Tensor& a, Tensor* out) {
  CheckSameShape(*out, a, "Axpy");
  float* dst = out->data();
  const float* src = a.data();
  ForEachIndex(a.size(), [&](int64_t i) { dst[i] += scale * src[i]; });
}

void MulAccum(const Tensor& a, const Tensor& b, Tensor* out) {
  CheckSameShape(a, b, "MulAccum");
  CheckSameShape(*out, a, "MulAccum");
  float* dst = out->data();
  const float* pa = a.data();
  const float* pb = b.data();
  ForEachIndex(a.size(), [&](int64_t i) { dst[i] += pa[i] * pb[i]; });
}

void MulColBroadcastAccum(const Tensor& mat, const Tensor& col, Tensor* out) {
  TRACER_CHECK_EQ(mat.rank(), 2);
  TRACER_CHECK(col.rank() == 2 && col.cols() == 1 && col.rows() == mat.rows())
      << "MulColBroadcastAccum: col must be rows×1";
  CheckSameShape(*out, mat, "MulColBroadcastAccum");
  const int m = mat.rows(), n = mat.cols();
  const float* pm = mat.data();
  const float* pc = col.data();
  float* dst = out->data();
  for (int i = 0; i < m; ++i) {
    const float s = pc[i];
    for (int j = 0; j < n; ++j) {
      dst[static_cast<size_t>(i) * n + j] +=
          pm[static_cast<size_t>(i) * n + j] * s;
    }
  }
}

void ColSumAccum(const Tensor& a, Tensor* out) {
  TRACER_CHECK_EQ(a.rank(), 2);
  TRACER_CHECK(out->rank() == 2 && out->rows() == 1 &&
               out->cols() == a.cols())
      << "ColSumAccum: out must be 1×cols";
  const int m = a.rows(), n = a.cols();
  const float* p = a.data();
  float* dst = out->data();
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) dst[j] += p[static_cast<size_t>(i) * n + j];
  }
}

void SliceColsAccum(const Tensor& src, int begin, int end, Tensor* out) {
  TRACER_CHECK_EQ(src.rank(), 2);
  TRACER_CHECK(0 <= begin && begin <= end && end <= src.cols())
      << "SliceColsAccum out of range";
  TRACER_CHECK(out->rank() == 2 && out->rows() == src.rows() &&
               out->cols() == end - begin);
  const int m = src.rows(), n = end - begin;
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) out->at(i, j) += src.at(i, begin + j);
  }
}

Tensor AddRowBroadcast(const Tensor& a, const Tensor& row) {
  TRACER_CHECK_EQ(a.rank(), 2);
  TRACER_CHECK(row.rank() == 2 && row.rows() == 1 && row.cols() == a.cols())
      << "AddRowBroadcast: row must be 1×cols";
  Tensor out(a.shape());
  const int m = a.rows(), n = a.cols();
  const float* pa = a.data();
  const float* pr = row.data();
  float* dst = out.data();
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      dst[static_cast<size_t>(i) * n + j] =
          pa[static_cast<size_t>(i) * n + j] + pr[j];
    }
  }
  return out;
}

Tensor MulColBroadcast(const Tensor& mat, const Tensor& col) {
  TRACER_CHECK_EQ(mat.rank(), 2);
  TRACER_CHECK(col.rank() == 2 && col.cols() == 1 && col.rows() == mat.rows())
      << "MulColBroadcast: col must be rows×1";
  Tensor out(mat.shape());
  const int m = mat.rows(), n = mat.cols();
  const float* pm = mat.data();
  const float* pc = col.data();
  float* dst = out.data();
  for (int i = 0; i < m; ++i) {
    const float s = pc[i];
    for (int j = 0; j < n; ++j) {
      dst[static_cast<size_t>(i) * n + j] =
          pm[static_cast<size_t>(i) * n + j] * s;
    }
  }
  return out;
}

Tensor Scale(const Tensor& a, float s) {
  return Elementwise(a, [s](float x) { return x * s; });
}

Tensor AddScalar(const Tensor& a, float s) {
  return Elementwise(a, [s](float x) { return x + s; });
}

Tensor Sigmoid(const Tensor& a) {
  return Elementwise(a, [](float x) { return SigmoidScalar(x); });
}

Tensor Tanh(const Tensor& a) {
  return Elementwise(a, [](float x) { return std::tanh(x); });
}

Tensor Relu(const Tensor& a) {
  return Elementwise(a, [](float x) { return x > 0.0f ? x : 0.0f; });
}

Tensor Exp(const Tensor& a) {
  return Elementwise(a, [](float x) { return std::exp(x); });
}

Tensor Log(const Tensor& a) {
  return Elementwise(a, [](float x) { return std::log(x); });
}

float SumAll(const Tensor& a) {
  double acc = 0.0;
  const float* p = a.data();
  const int64_t n = a.size();
  for (int64_t i = 0; i < n; ++i) acc += p[i];
  return static_cast<float>(acc);
}

float MeanAll(const Tensor& a) {
  TRACER_CHECK_GT(a.size(), 0);
  return SumAll(a) / static_cast<float>(a.size());
}

Tensor ColSum(const Tensor& a) {
  TRACER_CHECK_EQ(a.rank(), 2);
  Tensor out({1, a.cols()});
  const int m = a.rows(), n = a.cols();
  const float* p = a.data();
  float* dst = out.data();
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) dst[j] += p[static_cast<size_t>(i) * n + j];
  }
  return out;
}

Tensor RowSum(const Tensor& a) {
  TRACER_CHECK_EQ(a.rank(), 2);
  Tensor out({a.rows(), 1});
  const int m = a.rows(), n = a.cols();
  const float* p = a.data();
  float* dst = out.data();
  for (int i = 0; i < m; ++i) {
    double acc = 0.0;
    for (int j = 0; j < n; ++j) acc += p[static_cast<size_t>(i) * n + j];
    dst[i] = static_cast<float>(acc);
  }
  return out;
}

Tensor SoftmaxRows(const Tensor& a) {
  TRACER_CHECK_EQ(a.rank(), 2);
  Tensor out(a.shape());
  const int m = a.rows(), n = a.cols();
  const float* p = a.data();
  float* dst = out.data();
  for (int i = 0; i < m; ++i) {
    const float* row = p + static_cast<size_t>(i) * n;
    float* orow = dst + static_cast<size_t>(i) * n;
    float mx = row[0];
    for (int j = 1; j < n; ++j) mx = std::max(mx, row[j]);
    double sum = 0.0;
    for (int j = 0; j < n; ++j) {
      orow[j] = std::exp(row[j] - mx);
      sum += orow[j];
    }
    const float inv = static_cast<float>(1.0 / sum);
    for (int j = 0; j < n; ++j) orow[j] *= inv;
  }
  return out;
}

Tensor Transpose(const Tensor& a) {
  TRACER_CHECK_EQ(a.rank(), 2);
  Tensor out({a.cols(), a.rows()});
  const int m = a.rows(), n = a.cols();
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) out.at(j, i) = a.at(i, j);
  }
  return out;
}

Tensor ConcatCols(const Tensor& a, const Tensor& b) {
  TRACER_CHECK_EQ(a.rank(), 2);
  TRACER_CHECK_EQ(b.rank(), 2);
  TRACER_CHECK_EQ(a.rows(), b.rows()) << "ConcatCols row mismatch";
  const int m = a.rows(), na = a.cols(), nb = b.cols();
  Tensor out({m, na + nb});
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < na; ++j) out.at(i, j) = a.at(i, j);
    for (int j = 0; j < nb; ++j) out.at(i, na + j) = b.at(i, j);
  }
  return out;
}

Tensor SliceCols(const Tensor& a, int begin, int end) {
  TRACER_CHECK_EQ(a.rank(), 2);
  TRACER_CHECK(0 <= begin && begin <= end && end <= a.cols())
      << "SliceCols out of range";
  const int m = a.rows(), n = end - begin;
  Tensor out({m, n});
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) out.at(i, j) = a.at(i, begin + j);
  }
  return out;
}

Tensor ConcatRows(const std::vector<const Tensor*>& parts) {
  TRACER_CHECK(!parts.empty()) << "ConcatRows: no inputs";
  const int n = parts[0]->cols();
  int rows = 0;
  for (const Tensor* part : parts) {
    TRACER_CHECK_EQ(part->rank(), 2);
    TRACER_CHECK_EQ(part->cols(), n) << "ConcatRows column mismatch";
    rows += part->rows();
  }
  Tensor out({rows, n});
  float* dst = out.data();
  for (const Tensor* part : parts) {
    const int64_t count = part->size();
    std::copy(part->data(), part->data() + count, dst);
    dst += count;
  }
  return out;
}

Tensor SliceRows(const Tensor& a, int begin, int end) {
  TRACER_CHECK_EQ(a.rank(), 2);
  TRACER_CHECK(0 <= begin && begin <= end && end <= a.rows())
      << "SliceRows out of range";
  const int n = a.cols();
  Tensor out({end - begin, n});
  const float* src = a.data() + static_cast<int64_t>(begin) * n;
  std::copy(src, src + out.size(), out.data());
  return out;
}

void SliceRowsAccum(const Tensor& src, int begin, int end, Tensor* out) {
  TRACER_CHECK_EQ(src.rank(), 2);
  TRACER_CHECK(0 <= begin && begin <= end && end <= src.rows())
      << "SliceRowsAccum out of range";
  TRACER_CHECK(out->rank() == 2 && out->rows() == end - begin &&
               out->cols() == src.cols());
  const float* p = src.data() + static_cast<int64_t>(begin) * src.cols();
  float* dst = out->data();
  const int64_t count = out->size();
  for (int64_t i = 0; i < count; ++i) dst[i] += p[i];
}

void AddToRowsAccum(const Tensor& src, int begin, Tensor* dst) {
  TRACER_CHECK_EQ(src.rank(), 2);
  TRACER_CHECK(dst->rank() == 2 && dst->cols() == src.cols() &&
               begin >= 0 && begin + src.rows() <= dst->rows());
  float* p = dst->data() + static_cast<int64_t>(begin) * dst->cols();
  const float* s = src.data();
  const int64_t count = src.size();
  for (int64_t i = 0; i < count; ++i) p[i] += s[i];
}

float MaxAbsDiff(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b, "MaxAbsDiff");
  float mx = 0.0f;
  const float* pa = a.data();
  const float* pb = b.data();
  const int64_t n = a.size();
  for (int64_t i = 0; i < n; ++i) {
    mx = std::max(mx, std::fabs(pa[i] - pb[i]));
  }
  return mx;
}

float Norm(const Tensor& a) {
  double acc = 0.0;
  const float* p = a.data();
  const int64_t n = a.size();
  for (int64_t i = 0; i < n; ++i) acc += static_cast<double>(p[i]) * p[i];
  return static_cast<float>(std::sqrt(acc));
}

}  // namespace tracer
