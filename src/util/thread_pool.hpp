// Fixed-size thread pool for embarrassingly parallel fan-out.
//
// Deliberately minimal: submit() enqueues a task, wait_idle() blocks until
// every submitted task has finished. No futures, no work stealing — every
// user writes each task's result into a pre-sized slot indexed by task
// number (the sweep runner per replica, the sharded driver per cell), so
// completion order never influences output order and results stay
// byte-identical regardless of thread count.
#pragma once

#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/annotations.hpp"
#include "util/sync.hpp"

namespace gts::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers; <= 0 means std::thread::hardware_concurrency
  /// (at least 1).
  explicit ThreadPool(int threads);

  /// Drains outstanding tasks (wait_idle) and joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int thread_count() const noexcept { return static_cast<int>(workers_.size()); }

  /// Enqueues a task. Tasks must not throw — wrap fallible work and stash
  /// the error (the sweep runner records an exception slot per replica).
  void submit(std::function<void()> task);

  /// Blocks until the queue is empty and no worker is mid-task.
  void wait_idle();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  util::Mutex mutex_;
  std::deque<std::function<void()>> tasks_ GTS_GUARDED_BY(mutex_);
  util::CondVar work_cv_;  // workers wait for tasks
  util::CondVar idle_cv_;  // wait_idle waits for quiescence
  int active_ GTS_GUARDED_BY(mutex_) = 0;
  bool stop_ GTS_GUARDED_BY(mutex_) = false;
};

/// Runs fn(0..count-1) across the pool and waits for all of them.
void parallel_for(ThreadPool& pool, int count,
                  const std::function<void(int)>& fn);

}  // namespace gts::util
