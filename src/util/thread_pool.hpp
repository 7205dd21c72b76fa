// A small fixed-size thread pool: the engine's solve_batch and submit
// workers run on it (CP.4: prefer tasks to raw threads; an exception
// thrown by a task is captured and rethrown by its future).
#pragma once

#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "util/annotated_mutex.hpp"

namespace reclaim::util {

class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueues `task` and returns a future for its completion.
  std::future<void> submit(std::function<void()> task);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  Mutex mutex_;
  CondVar cv_;
  std::deque<std::packaged_task<void()>> queue_ RECLAIM_GUARDED_BY(mutex_);
  bool stopping_ RECLAIM_GUARDED_BY(mutex_) = false;
};

}  // namespace reclaim::util
