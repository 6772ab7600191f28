#ifndef TRACER_TENSOR_ARENA_H_
#define TRACER_TENSOR_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace tracer {

/// Monotonic per-thread tensor-buffer allocation counters. Deltas around a
/// region measure its allocation behaviour (the autograd profiler's per-op
/// alloc columns are built on these).
struct AllocCounters {
  int64_t heap_allocs = 0;   ///< tensor buffers served by operator new
  int64_t arena_blocks = 0;  ///< always 0; perfbench/src/layers.cc reads it
};

namespace detail {
inline thread_local AllocCounters g_alloc_counters;
}  // namespace detail

inline AllocCounters ThreadAllocCounters() {
  return detail::g_alloc_counters;
}

/// Stateless std::vector allocator that counts each buffer it serves in
/// the calling thread's AllocCounters::heap_allocs.
template <typename T>
struct CountingAllocator {
  using value_type = T;

  CountingAllocator() = default;
  template <typename U>
  CountingAllocator(const CountingAllocator<U>&) {}  // NOLINT(runtime/explicit)

  T* allocate(size_t n) {
    ++detail::g_alloc_counters.heap_allocs;
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }
  void deallocate(T* p, size_t) { ::operator delete(p); }

  friend bool operator==(const CountingAllocator&, const CountingAllocator&) {
    return true;
  }
};

/// Storage type of Tensor::data_.
using FloatBuffer = std::vector<float, CountingAllocator<float>>;

}  // namespace tracer

#endif  // TRACER_TENSOR_ARENA_H_
