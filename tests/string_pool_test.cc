// StringPool tests: round-trip, uniqueness, pointer stability and stats.
#include "src/support/string_pool.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace spex {
namespace {

TEST(StringPoolTest, RoundTripAndUniqueness) {
  StringPool pool;
  const std::string* hello = pool.Intern("hello");
  const std::string* world = pool.Intern("world");
  ASSERT_NE(hello, nullptr);
  ASSERT_NE(world, nullptr);
  EXPECT_NE(hello, world);
  EXPECT_EQ(*hello, "hello");
  EXPECT_EQ(*world, "world");
  // Re-interning the same text yields the same pointer.
  EXPECT_EQ(pool.Intern("hello"), hello);
  EXPECT_EQ(pool.stats().strings, 2u);
}

TEST(StringPoolTest, PointersStableAcrossGrowth) {
  StringPool pool;
  const std::string* first = pool.Intern("first");
  std::vector<const std::string*> pointers;
  for (int i = 0; i < 10000; ++i) {
    pointers.push_back(pool.Intern("filler_" + std::to_string(i)));
  }
  // Growth must not move previously interned strings.
  EXPECT_EQ(first, pool.Intern("first"));
  EXPECT_EQ(*first, "first");
  for (int i = 0; i < 10000; ++i) {
    EXPECT_EQ(*pointers[i], "filler_" + std::to_string(i));
  }
  EXPECT_EQ(pool.stats().strings, 10001u);
}

TEST(StringPoolTest, StatsCountPayloadBytes) {
  StringPool pool;
  pool.Intern("abc");
  pool.Intern("defgh");
  pool.Intern("abc");  // Duplicate: no growth.
  StringPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.strings, 2u);
  EXPECT_EQ(stats.bytes, 8u);
}

}  // namespace
}  // namespace spex
