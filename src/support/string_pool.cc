#include "src/support/string_pool.h"

namespace spex {

const std::string* StringPool::Intern(std::string_view text) {
  auto it = index_.find(text);
  if (it != index_.end()) {
    return it->second;
  }
  const std::string* stored = &storage_.emplace_back(text);
  bytes_ += text.size();
  index_.emplace(std::string_view(*stored), stored);
  return stored;
}

}  // namespace spex
