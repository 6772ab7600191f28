#include <thread>
#include <utility>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tensor/arena.h"
#include "tensor/tensor.h"

namespace tracer {
namespace {

TEST(TensorTest, DefaultIsEmpty) {
  Tensor t;
  EXPECT_EQ(t.rank(), 0);
  EXPECT_EQ(t.size(), 0);
}

TEST(TensorTest, ZerosShapeAndContents) {
  Tensor t = Tensor::Zeros({2, 3});
  EXPECT_EQ(t.rank(), 2);
  EXPECT_EQ(t.rows(), 2);
  EXPECT_EQ(t.cols(), 3);
  EXPECT_EQ(t.size(), 6);
  for (int64_t i = 0; i < t.size(); ++i) EXPECT_FLOAT_EQ(t[i], 0.0f);
}

TEST(TensorTest, FullAndOnes) {
  Tensor t = Tensor::Full({4}, 2.5f);
  for (int64_t i = 0; i < t.size(); ++i) EXPECT_FLOAT_EQ(t[i], 2.5f);
  Tensor ones = Tensor::Ones({2, 2});
  EXPECT_FLOAT_EQ(ones.at(1, 1), 1.0f);
}

TEST(TensorTest, ConstructFromValues) {
  Tensor t({2, 2}, {1.0f, 2.0f, 3.0f, 4.0f});
  EXPECT_FLOAT_EQ(t.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(t.at(0, 1), 2.0f);
  EXPECT_FLOAT_EQ(t.at(1, 0), 3.0f);
  EXPECT_FLOAT_EQ(t.at(1, 1), 4.0f);
}

TEST(TensorTest, Rank3Access) {
  Tensor t({2, 3, 4});
  t.at(1, 2, 3) = 7.0f;
  EXPECT_FLOAT_EQ(t.at(1, 2, 3), 7.0f);
  EXPECT_FLOAT_EQ(t[t.size() - 1], 7.0f);  // last element
}

TEST(TensorTest, RandnIsDeterministicPerSeed) {
  Rng rng1(5), rng2(5);
  Tensor a = Tensor::Randn({3, 3}, rng1);
  Tensor b = Tensor::Randn({3, 3}, rng2);
  for (int64_t i = 0; i < a.size(); ++i) EXPECT_FLOAT_EQ(a[i], b[i]);
}

TEST(TensorTest, RandUniformRange) {
  Rng rng(6);
  Tensor t = Tensor::RandUniform({100}, rng, -2.0f, 3.0f);
  for (int64_t i = 0; i < t.size(); ++i) {
    EXPECT_GE(t[i], -2.0f);
    EXPECT_LT(t[i], 3.0f);
  }
}

TEST(TensorTest, XavierBoundsRespectFanInOut) {
  Rng rng(7);
  Tensor t = Tensor::XavierUniform(10, 20, rng);
  const float bound = std::sqrt(6.0f / 30.0f);
  for (int64_t i = 0; i < t.size(); ++i) {
    EXPECT_LE(std::fabs(t[i]), bound);
  }
  EXPECT_EQ(t.rows(), 10);
  EXPECT_EQ(t.cols(), 20);
}

TEST(TensorTest, FillAndSetZero) {
  Tensor t({2, 2});
  t.Fill(3.0f);
  EXPECT_FLOAT_EQ(t.at(1, 0), 3.0f);
  t.SetZero();
  EXPECT_FLOAT_EQ(t.at(1, 0), 0.0f);
}

TEST(TensorTest, ReshapePreservesData) {
  Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = t.Reshape({3, 2});
  EXPECT_EQ(r.rows(), 3);
  EXPECT_FLOAT_EQ(r.at(2, 1), 6.0f);
}

TEST(TensorTest, SameShape) {
  Tensor a({2, 3});
  Tensor b({2, 3});
  Tensor c({3, 2});
  EXPECT_TRUE(a.SameShape(b));
  EXPECT_FALSE(a.SameShape(c));
}

TEST(TensorTest, ToStringMentionsShape) {
  Tensor t({2, 2});
  EXPECT_NE(t.ToString().find("shape=[2, 2]"), std::string::npos);
}

// ThreadAllocCounters().heap_allocs counts tensor buffers per thread; the
// autograd profiler's per-op alloc columns and perfbench's
// tensor.heap_allocs_per_step are deltas of it.
TEST(TensorAllocCounterTest, ZerosCountsOneHeapAlloc) {
  const int64_t before = ThreadAllocCounters().heap_allocs;
  { Tensor t = Tensor::Zeros({8, 8}); }
  EXPECT_EQ(ThreadAllocCounters().heap_allocs - before, 1);
}

TEST(TensorAllocCounterTest, MoveCountsZeroAndCopyCountsOne) {
  Tensor a = Tensor::Full({4, 4}, 2.0f);
  int64_t before = ThreadAllocCounters().heap_allocs;
  Tensor moved = std::move(a);
  EXPECT_EQ(ThreadAllocCounters().heap_allocs - before, 0);
  before = ThreadAllocCounters().heap_allocs;
  Tensor copied = moved;
  EXPECT_EQ(ThreadAllocCounters().heap_allocs - before, 1);
  EXPECT_FLOAT_EQ(copied.at(3, 3), 2.0f);
}

TEST(TensorAllocCounterTest, OtherThreadsAllocationsDoNotCount) {
  const int64_t before = ThreadAllocCounters().heap_allocs;
  int64_t worker_delta = 0;
  std::thread worker([&worker_delta] {
    const int64_t start = ThreadAllocCounters().heap_allocs;
    { Tensor t = Tensor::Zeros({16, 16}); }
    worker_delta = ThreadAllocCounters().heap_allocs - start;
  });
  worker.join();
  EXPECT_EQ(worker_delta, 1);
  EXPECT_EQ(ThreadAllocCounters().heap_allocs - before, 0);
}

TEST(TensorDeathTest, ReshapeSizeMismatchChecks) {
  Tensor t({2, 3});
  EXPECT_DEATH(t.Reshape({4, 2}), "reshape size mismatch");
}

TEST(TensorDeathTest, ValueCountMismatchChecks) {
  EXPECT_DEATH(Tensor({2, 2}, {1.0f, 2.0f}), "value count");
}

}  // namespace
}  // namespace tracer
