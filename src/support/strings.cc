#include "src/support/strings.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <sstream>

namespace spex {

namespace {

bool IsSpaceChar(char c) { return std::isspace(static_cast<unsigned char>(c)) != 0; }

char ToLowerChar(char c) {
  return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
}

char ToUpperChar(char c) {
  return static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
}

}  // namespace

std::string_view TrimWhitespace(std::string_view text) {
  size_t begin = 0;
  while (begin < text.size() && IsSpaceChar(text[begin])) {
    ++begin;
  }
  size_t end = text.size();
  while (end > begin && IsSpaceChar(text[end - 1])) {
    --end;
  }
  return text.substr(begin, end - begin);
}

std::vector<std::string> SplitString(std::string_view text, char delimiter) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(delimiter, start);
    if (pos == std::string_view::npos) {
      parts.emplace_back(text.substr(start));
      break;
    }
    parts.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return parts;
}

std::vector<std::string> SplitWhitespace(std::string_view text) {
  std::vector<std::string> parts;
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && IsSpaceChar(text[i])) {
      ++i;
    }
    size_t start = i;
    while (i < text.size() && !IsSpaceChar(text[i])) {
      ++i;
    }
    if (i > start) {
      parts.emplace_back(text.substr(start, i - start));
    }
  }
  return parts;
}

std::string JoinStrings(const std::vector<std::string>& parts, std::string_view separator) {
  std::ostringstream out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) {
      out << separator;
    }
    out << parts[i];
  }
  return out.str();
}

std::string ToLowerCopy(std::string_view text) {
  std::string result(text);
  std::transform(result.begin(), result.end(), result.begin(), ToLowerChar);
  return result;
}

std::string ToUpperCopy(std::string_view text) {
  std::string result(text);
  std::transform(result.begin(), result.end(), result.begin(), ToUpperChar);
  return result;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (ToLowerChar(a[i]) != ToLowerChar(b[i])) {
      return false;
    }
  }
  return true;
}

int CompareStrings(std::string_view a, std::string_view b) {
  int order = a.compare(b);
  return order < 0 ? -1 : (order > 0 ? 1 : 0);
}

int CompareStringsIgnoreCase(std::string_view a, std::string_view b) {
  size_t common = std::min(a.size(), b.size());
  for (size_t i = 0; i < common; ++i) {
    unsigned char ca = static_cast<unsigned char>(ToLowerChar(a[i]));
    unsigned char cb = static_cast<unsigned char>(ToLowerChar(b[i]));
    if (ca != cb) {
      return ca < cb ? -1 : 1;
    }
  }
  if (a.size() == b.size()) {
    return 0;
  }
  return a.size() < b.size() ? -1 : 1;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

bool ContainsSubstringIgnoreCase(std::string_view haystack, std::string_view needle) {
  if (needle.empty()) {
    return true;
  }
  std::string lowered_haystack = ToLowerCopy(haystack);
  std::string lowered_needle = ToLowerCopy(needle);
  return lowered_haystack.find(lowered_needle) != std::string::npos;
}

std::optional<int64_t> ParseInt64(std::string_view text) {
  std::string_view trimmed = TrimWhitespace(text);
  if (trimmed.empty()) {
    return std::nullopt;
  }
  std::string buffer(trimmed);
  errno = 0;
  char* end = nullptr;
  long long value = std::strtoll(buffer.c_str(), &end, 10);
  if (errno == ERANGE || end == buffer.c_str() || *end != '\0') {
    return std::nullopt;
  }
  return static_cast<int64_t>(value);
}

std::optional<double> ParseDouble(std::string_view text) {
  std::string_view trimmed = TrimWhitespace(text);
  if (trimmed.empty()) {
    return std::nullopt;
  }
  std::string buffer(trimmed);
  errno = 0;
  char* end = nullptr;
  double value = std::strtod(buffer.c_str(), &end);
  if (errno == ERANGE || end == buffer.c_str() || *end != '\0') {
    return std::nullopt;
  }
  return value;
}

std::string ReplaceAll(std::string text, std::string_view from, std::string_view to) {
  if (from.empty()) {
    return text;
  }
  size_t pos = 0;
  while ((pos = text.find(from, pos)) != std::string::npos) {
    text.replace(pos, from.size(), to);
    pos += to.size();
  }
  return text;
}

}  // namespace spex
