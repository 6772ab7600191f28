#ifndef TRACER_COMMON_MUTEX_H_
#define TRACER_COMMON_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "common/thread_annotations.h"

namespace tracer {
namespace common {

// Annotated synchronization primitives. These are thin wrappers over the
// std:: primitives that carry Clang Thread Safety Analysis capabilities
// (common/thread_annotations.h), so the compiler can prove lock discipline
// on every build of the CI `clang-thread-safety` job. They are the ONLY
// place in src/ allowed to name std::mutex / std::lock_guard /
// std::condition_variable — lint rule no-raw-sync (tools/lint.py)
// rejects raw uses anywhere else.
//
// Usage:
//   common::Mutex mutex_;
//   int count_ TRACER_GUARDED_BY(mutex_);
//   { common::MutexLock lock(&mutex_); ++count_; }
//
// Condition waits spell the predicate as an explicit loop so the analysis
// sees every guarded read under the lock (lambda predicates are analyzed
// as lock-free functions and would produce false positives):
//   while (!stop_ && queue_.empty()) cv_.Wait(mutex_);

/// Annotated exclusive mutex. Same cost as std::mutex; Lock/Unlock are
/// public so structured hand-over-hand sections (scheduler loops that
/// release around user callbacks) can be expressed and verified.
class TRACER_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() TRACER_ACQUIRE() { mutex_.lock(); }
  void Unlock() TRACER_RELEASE() { mutex_.unlock(); }
  bool TryLock() TRACER_TRY_ACQUIRE(true) { return mutex_.try_lock(); }

  /// Documents (to the analysis) that the current thread holds this mutex
  /// at a point the flow-sensitive analysis cannot see, e.g. inside a
  /// callback invoked under the lock. Prefer TRACER_REQUIRES on the
  /// callee; this is the runtime-free fallback.
  void AssertHeld() const TRACER_ASSERT_CAPABILITY(this) {}

 private:
  friend class CondVar;
  std::mutex mutex_;
};

/// RAII scoped lock, the annotated std::lock_guard. Acquires on
/// construction, releases on destruction; non-movable.
class TRACER_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mutex) TRACER_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_->Lock();
  }
  ~MutexLock() TRACER_RELEASE() { mutex_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mutex_;
};

/// Condition variable bound to common::Mutex. Waits atomically release and
/// reacquire the caller's mutex, so every Wait* requires it held; notify
/// never needs it.
class CondVar {
 public:
  CondVar() = default;

  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Blocks until notified (spurious wakeups possible — always wait in a
  /// predicate loop).
  void Wait(Mutex& mutex) TRACER_REQUIRES(mutex) {
    std::unique_lock<std::mutex> lock(mutex.mutex_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // the caller still owns the mutex
  }

  /// Blocks until notified or `deadline` passes; true = timed out.
  bool WaitUntil(Mutex& mutex, std::chrono::steady_clock::time_point deadline)
      TRACER_REQUIRES(mutex) {
    std::unique_lock<std::mutex> lock(mutex.mutex_, std::adopt_lock);
    const std::cv_status status = cv_.wait_until(lock, deadline);
    lock.release();
    return status == std::cv_status::timeout;
  }

  /// Blocks until notified or `timeout_ns` elapses; true = timed out.
  bool WaitFor(Mutex& mutex, int64_t timeout_ns) TRACER_REQUIRES(mutex) {
    return WaitUntil(mutex, std::chrono::steady_clock::now() +
                                std::chrono::nanoseconds(timeout_ns));
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace common
}  // namespace tracer

#endif  // TRACER_COMMON_MUTEX_H_
