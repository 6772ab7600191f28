#ifndef TRACER_COMMON_THREAD_ANNOTATIONS_H_
#define TRACER_COMMON_THREAD_ANNOTATIONS_H_

/// Clang Thread Safety Analysis attribute shim.
///
/// The TRACER_* macros below expand to Clang's capability-analysis
/// attributes when the compiler supports them (any clang; the CI
/// `clang-thread-safety` job builds with `-Wthread-safety
/// -Werror=thread-safety`, making them load-bearing) and compile away to
/// nothing on GCC and other compilers. They annotate which mutex guards
/// which state, so lock-discipline violations — reading a guarded member
/// without the lock, calling a *Locked helper unlocked, releasing a mutex
/// twice — become compile errors instead of lucky-schedule TSan findings.
///
/// Conventions (see DESIGN.md "Static analysis"):
///  - every mutex-protected member is TRACER_GUARDED_BY(mutex_);
///  - every private method that assumes the lock is held is named
///    *Locked and annotated TRACER_REQUIRES(mutex_);
///  - functions that acquire a foreign lock internally (metrics lookup,
///    logging sink) are annotated TRACER_EXCLUDES(that_lock) where a
///    lock-order inversion is possible;
///  - raw std::mutex / std::lock_guard / std::condition_variable are
///    banned outside common/mutex.h (lint rule no-raw-sync) — use
///    common::Mutex / common::MutexLock / common::CondVar.

#if defined(__clang__)
#define TRACER_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define TRACER_THREAD_ANNOTATION(x)  // no-op outside clang
#endif

/// Declares a type to be a lockable capability ("mutex").
#define TRACER_CAPABILITY(x) TRACER_THREAD_ANNOTATION(capability(x))

/// Declares an RAII type whose lifetime acquires/releases a capability.
#define TRACER_SCOPED_CAPABILITY TRACER_THREAD_ANNOTATION(scoped_lockable)

/// A data member that may only be accessed while `x` is held.
#define TRACER_GUARDED_BY(x) TRACER_THREAD_ANNOTATION(guarded_by(x))

/// A pointer member whose *pointee* is protected by `x`.
#define TRACER_PT_GUARDED_BY(x) TRACER_THREAD_ANNOTATION(pt_guarded_by(x))

/// The function may only be called while the listed capabilities are held
/// (and does not release them).
#define TRACER_REQUIRES(...) \
  TRACER_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// The function acquires the listed capabilities and holds them on return.
#define TRACER_ACQUIRE(...) \
  TRACER_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// The function releases the listed capabilities.
#define TRACER_RELEASE(...) \
  TRACER_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// The function acquires the capability iff it returns `result`.
#define TRACER_TRY_ACQUIRE(result, ...) \
  TRACER_THREAD_ANNOTATION(try_acquire_capability(result, __VA_ARGS__))

/// The caller must NOT hold the listed capabilities (deadlock guard for
/// functions that acquire them internally).
#define TRACER_EXCLUDES(...) \
  TRACER_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Informs the analysis that the capability is held (runtime-checked
/// assertion, e.g. Mutex::AssertHeld).
#define TRACER_ASSERT_CAPABILITY(x) \
  TRACER_THREAD_ANNOTATION(assert_capability(x))

/// The function returns a reference to the named capability.
#define TRACER_RETURN_CAPABILITY(x) TRACER_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch: the function is exempt from analysis. Use only for code
/// whose locking is correct but inexpressible (document why at the site).
#define TRACER_NO_THREAD_SAFETY_ANALYSIS \
  TRACER_THREAD_ANNOTATION(no_thread_safety_analysis)

#endif  // TRACER_COMMON_THREAD_ANNOTATIONS_H_
