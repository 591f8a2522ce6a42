// ThreadPool tests: ShardRange covers every index exactly once, and each
// call waits only for its own shards, so callers can share one pool.
#include "src/support/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <vector>

namespace spex {
namespace {

TEST(ThreadPoolTest, ShardRangeCoversEveryIndexOnce) {
  ThreadPool pool(3);
  for (size_t count : {0, 1, 2, 7, 64}) {
    for (size_t workers : {1, 2, 3, 8}) {
      std::vector<std::atomic<int>> hits(count);
      pool.ShardRange(count, workers, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          hits[i].fetch_add(1);
        }
      });
      for (size_t i = 0; i < count; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << count << " items, " << workers << " workers, #" << i;
      }
    }
  }
}

// Two callers on one 2-worker pool. The first caller's shard 0 blocks
// until the test releases it; the second caller's shards run on the other
// worker and it must return while the first is still blocked.
TEST(ThreadPoolTest, CallerWaitsOnlyForItsOwnShards) {
  ThreadPool pool(2);
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::promise<void> blocked;
  auto blocking = std::async(std::launch::async, [&] {
    pool.ShardRange(2, 2, [&](size_t begin, size_t) {
      if (begin == 0) {
        blocked.set_value();
        released.wait();
      }
    });
  });
  blocked.get_future().wait();

  std::atomic<size_t> ran{0};
  auto quick = std::async(std::launch::async, [&] {
    pool.ShardRange(4, 2, [&](size_t begin, size_t end) { ran.fetch_add(end - begin); });
  });
  const bool returned = quick.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  EXPECT_TRUE(returned) << "ShardRange waited on another caller's shard";
  EXPECT_EQ(blocking.wait_for(std::chrono::seconds(0)), std::future_status::timeout);

  release.set_value();
  blocking.wait();
  quick.wait();
  EXPECT_EQ(ran.load(), 4u);
}

}  // namespace
}  // namespace spex
