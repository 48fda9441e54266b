// Compile-time thread-safety capability annotations (DESIGN.md section 16).
//
// Thin GTS_* wrappers around Clang's thread-safety attributes
// (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html). Under
// `clang++ -Wthread-safety` (the `thread-safety` CMake preset and the
// static-analysis CI job) the analysis proves, per translation unit, that
// every access to a `GTS_GUARDED_BY(mu)` member happens with `mu` held and
// that lock/unlock pairs balance. Under GCC — the default dev-container
// compiler — every macro expands to nothing, so annotated code carries
// zero cost and zero semantic change.
//
// The annotated primitives that make the analysis useful live in
// util/sync.hpp (util::Mutex, util::MutexLock, util::SerialCapability);
// std::mutex itself is not annotated under libstdc++, so annotated code
// must hold locks through those wrappers.
#pragma once

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(guarded_by)
#define GTS_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef GTS_THREAD_ANNOTATION
#define GTS_THREAD_ANNOTATION(x)  // no-op outside Clang
#endif

/// Marks a type as a capability (lockable). The string names the
/// capability kind in diagnostics, e.g. GTS_CAPABILITY("mutex").
#define GTS_CAPABILITY(x) GTS_THREAD_ANNOTATION(capability(x))

/// Marks an RAII type whose constructor acquires and destructor releases
/// a capability (lock guards).
#define GTS_SCOPED_CAPABILITY GTS_THREAD_ANNOTATION(scoped_lockable)

/// Data member readable/writable only with the given capability held.
#define GTS_GUARDED_BY(x) GTS_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member whose *pointee* is protected by the given capability
/// (the pointer itself may be read freely).
#define GTS_PT_GUARDED_BY(x) GTS_THREAD_ANNOTATION(pt_guarded_by(x))

/// Lock-ordering declarations on capability members.
#define GTS_ACQUIRED_BEFORE(...) \
  GTS_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define GTS_ACQUIRED_AFTER(...) \
  GTS_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

/// Function requires the capability held (exclusively / shared) on entry,
/// and does not release it.
#define GTS_REQUIRES(...) \
  GTS_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define GTS_REQUIRES_SHARED(...) \
  GTS_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

/// Function acquires the capability (must not be held on entry).
#define GTS_ACQUIRE(...) \
  GTS_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define GTS_ACQUIRE_SHARED(...) \
  GTS_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))

/// Function releases the capability (must be held on entry).
#define GTS_RELEASE(...) \
  GTS_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define GTS_RELEASE_SHARED(...) \
  GTS_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))

/// Function tries to acquire the capability; first argument is the return
/// value that means success, e.g. GTS_TRY_ACQUIRE(true).
#define GTS_TRY_ACQUIRE(...) \
  GTS_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/// Function must be called with the capability NOT held (deadlock guard
/// for functions that acquire it internally).
#define GTS_EXCLUDES(...) GTS_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Runtime assertion that the calling thread already holds the capability
/// (tells the analysis to trust it from here on).
#define GTS_ASSERT_CAPABILITY(x) \
  GTS_THREAD_ANNOTATION(assert_capability(x))

/// Function returns a reference to the given capability (accessors that
/// expose a member mutex).
#define GTS_RETURN_CAPABILITY(x) GTS_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Use only with a
/// comment explaining why the analysis cannot see the invariant.
#define GTS_NO_THREAD_SAFETY_ANALYSIS \
  GTS_THREAD_ANNOTATION(no_thread_safety_analysis)
