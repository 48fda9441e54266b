// Annotated synchronization primitives (DESIGN.md section 16).
//
// libstdc++'s std::mutex carries no thread-safety attributes, so Clang's
// analysis cannot reason about code that locks it directly. These wrappers
// add the capability annotations while staying zero-overhead: Mutex is
// layout-identical to std::mutex, MutexLock to std::lock_guard, and every
// method is a forwarding inline. Concurrent subsystems (obs
// buffers/registry, svc, util logger) hold locks exclusively through
// these types.
//
// SerialCapability is the second, zero-size kind of capability: it models
// single-thread confinement instead of mutual exclusion. State that is
// only ever touched from one logical context (the svc reactor loop, one
// runner replica's scheduler instance) is declared
// GTS_GUARDED_BY(serial_), and the context entry point takes a
// SerialGuard. The analysis then proves no new code path reaches that
// state without going through the entry point — and when a future PR
// makes the context concurrent, swapping SerialCapability for Mutex turns
// every such access into a compile error until it is really locked.
#pragma once

#include <mutex>

#include "util/annotations.hpp"

namespace gts::util {

/// Annotated std::mutex.
class GTS_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() GTS_ACQUIRE() { mutex_.lock(); }
  void unlock() GTS_RELEASE() { mutex_.unlock(); }
  bool try_lock() GTS_TRY_ACQUIRE(true) { return mutex_.try_lock(); }

 private:
  std::mutex mutex_;
};

/// Annotated scoped lock (std::lock_guard shape: no unlock, no move).
class GTS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) GTS_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~MutexLock() GTS_RELEASE() { mutex_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mutex_;
};

/// Zero-size capability modelling single-thread confinement (see file
/// comment). acquire()/release() are annotation-only no-ops.
class GTS_CAPABILITY("role") SerialCapability {
 public:
  SerialCapability() = default;
  SerialCapability(const SerialCapability&) = delete;
  SerialCapability& operator=(const SerialCapability&) = delete;

  void acquire() GTS_ACQUIRE() {}
  void release() GTS_RELEASE() {}
};

/// Scoped entry into a serial context. Purely a compile-time artifact.
class GTS_SCOPED_CAPABILITY SerialGuard {
 public:
  explicit SerialGuard(SerialCapability& role) GTS_ACQUIRE(role)
      : role_(role) {
    role_.acquire();
  }
  ~SerialGuard() GTS_RELEASE() { role_.release(); }

  SerialGuard(const SerialGuard&) = delete;
  SerialGuard& operator=(const SerialGuard&) = delete;

 private:
  SerialCapability& role_;
};

}  // namespace gts::util
