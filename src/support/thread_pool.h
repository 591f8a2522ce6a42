// Fixed-size worker pool for fan-out/join parallelism.
//
// SPEX's parallel workloads (injection campaigns, sharded batches, corpus
// runs) are embarrassingly parallel over pre-sized result slots, so this is
// deliberately a plain shared-queue pool: no work stealing, no futures.
// ShardRange is the only entry point: it queues one task per shard and
// waits on a latch local to the call, so any number of callers may share
// one pool and each waits only for its own shards. Determinism is the
// caller's job — write results into per-shard slots, never append.
#ifndef SPEX_SUPPORT_THREAD_POOL_H_
#define SPEX_SUPPORT_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace spex {

class ThreadPool {
 public:
  // Spawns `num_threads` workers (clamped to at least 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t size() const { return workers_.size(); }

  // Fans [0, count) over at most `workers` contiguous shards, calling
  // fn(begin, end) once per shard on the pool, and returns when every
  // shard of *this call* has finished. Runs fn(0, count) inline when a
  // single shard suffices. `fn` must not throw, and must not call
  // ShardRange on the same pool (a worker waiting on its own pool can
  // deadlock it).
  void ShardRange(size_t count, size_t workers,
                  const std::function<void(size_t, size_t)>& fn);

  // Maps a user-facing thread-count knob to a worker count:
  // 0 = hardware concurrency (at least 1), otherwise the value itself.
  static size_t ResolveThreadCount(size_t requested);

  // The worker-count rule of every sharded call (batches, campaigns):
  // 0 = `width` (a pool's), negative = 1, else the count itself.
  static size_t WorkerCount(int64_t requested, size_t width) {
    return requested == 0 ? width : requested < 0 ? 1 : static_cast<size_t>(requested);
  }

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable task_ready_;
  bool shutting_down_ = false;
};

}  // namespace spex

#endif  // SPEX_SUPPORT_THREAD_POOL_H_
