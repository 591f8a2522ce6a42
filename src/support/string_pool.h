// Interned-string pool with stable storage.
//
// The interpreter's runtime values used to carry an owned std::string each;
// register moves, Reset() image copies and snapshot restores all paid an
// allocation per string value. Interning replaces the payload with a pointer
// into pool-stable storage, so copying a runtime value is trivial and
// comparing two values interned in the same pool is a pointer check.
// Storage is a deque, so interned strings never move: a pointer handed out
// by the pool stays valid for the pool's lifetime regardless of later
// Intern() calls.
//
// Not thread-safe: each Interpreter owns one pool and is driven by one
// thread at a time.
#ifndef SPEX_SUPPORT_STRING_POOL_H_
#define SPEX_SUPPORT_STRING_POOL_H_

#include <cstddef>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>

namespace spex {

class StringPool {
 public:
  struct Stats {
    size_t strings = 0;  // Distinct interned strings.
    size_t bytes = 0;    // Total payload bytes held.
  };

  StringPool() = default;
  StringPool(const StringPool&) = delete;
  StringPool& operator=(const StringPool&) = delete;

  // Returns the stable storage for `text`, interning it on first sight.
  const std::string* Intern(std::string_view text);

  Stats stats() const { return Stats{storage_.size(), bytes_}; }

 private:
  // index_ keys are views into the stored strings themselves.
  std::deque<std::string> storage_;
  std::unordered_map<std::string_view, const std::string*> index_;
  size_t bytes_ = 0;
};

}  // namespace spex

#endif  // SPEX_SUPPORT_STRING_POOL_H_
