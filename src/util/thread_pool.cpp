#include "util/thread_pool.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace reclaim::util {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const MutexLock lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  auto future = packaged.get_future();
  {
    const MutexLock lock(mutex_);
    require(!stopping_, "submit on a stopping ThreadPool");
    queue_.push_back(std::move(packaged));
  }
  cv_.notify_one();
  return future;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      const MutexLock lock(mutex_);
      while (!stopping_ && queue_.empty()) cv_.wait(mutex_);
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // exceptions propagate through the packaged_task's future
  }
}

}  // namespace reclaim::util
