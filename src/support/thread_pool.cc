#include "src/support/thread_pool.h"

#include <algorithm>
#include <latch>

namespace spex {

ThreadPool::ThreadPool(size_t num_threads) {
  size_t count = std::max<size_t>(1, num_threads);
  workers_.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  task_ready_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_ready_.wait(lock, [this] { return shutting_down_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        return;  // Shutdown with a drained queue.
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::ShardRange(size_t count, size_t workers,
                            const std::function<void(size_t, size_t)>& fn) {
  if (count == 0) {
    return;
  }
  workers = std::min(workers, count);
  if (workers <= 1) {
    fn(0, count);
    return;
  }
  const size_t chunk = (count + workers - 1) / workers;
  std::latch done(static_cast<std::ptrdiff_t>((count + chunk - 1) / chunk));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (size_t begin = 0; begin < count; begin += chunk) {
      size_t end = std::min(begin + chunk, count);
      // By reference: done.wait() below keeps fn and the latch alive past
      // every shard of this call.
      tasks_.push([&fn, &done, begin, end] {
        fn(begin, end);
        done.count_down();
      });
    }
  }
  task_ready_.notify_all();
  done.wait();
}

size_t ThreadPool::ResolveThreadCount(size_t requested) {
  if (requested != 0) {
    return requested;
  }
  unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 1 : hardware;
}

}  // namespace spex
