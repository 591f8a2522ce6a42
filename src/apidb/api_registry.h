// Registry of known system / library APIs.
//
// Semantic-type inference (Section 2.2.2) works by recognizing what known
// functions do with a parameter: a value passed to open() is a file path, a
// value passed to usleep() is a time in microseconds, a value compared via
// strcasecmp() is case-insensitive. The registry holds those facts for the
// standard C library (built in), and supports importing proprietary APIs
// from a spec file — the mechanism the paper uses for Storage-A's internal
// libraries.
#ifndef SPEX_APIDB_API_REGISTRY_H_
#define SPEX_APIDB_API_REGISTRY_H_

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/apidb/semantic_types.h"
#include "src/support/diagnostics.h"

namespace spex {

struct ApiParamSpec {
  int index = -1;
  SemanticType semantic = SemanticType::kNone;
  TimeUnit time_unit = TimeUnit::kNone;
  SizeUnit size_unit = SizeUnit::kNone;
};

struct ApiSpec {
  std::string name;
  std::vector<ApiParamSpec> params;
  SemanticType return_semantic = SemanticType::kNone;
  TimeUnit return_time_unit = TimeUnit::kNone;

  bool is_terminating = false;          // exit / abort — never returns.
  bool is_unsafe_transform = false;     // atoi / sscanf / sprintf (Section 3.2).
  bool is_case_sensitive_cmp = false;   // strcmp family.
  bool is_case_insensitive_cmp = false; // strcasecmp family.
  bool is_logging = false;              // emits a log message.
  bool is_error_logging = false;        // emits an *error* log message.

  const ApiParamSpec* FindParam(int index) const;
  bool IsStringCompare() const { return is_case_sensitive_cmp || is_case_insensitive_cmp; }
};

class ApiRegistry {
 public:
  // The registry pre-populated with the standard C library surface SPEX
  // understands (file, network, user, time, memory, string APIs).
  static ApiRegistry BuiltinC();

  // Imports custom APIs from a spec text (one declaration per line):
  //
  //   api my_open(0:FILE) returns NONE
  //   api cluster_sleep(0:TIME_S)
  //   api fatal_error() terminating log
  //   # comments and blank lines are ignored
  //
  // Parameter kinds: FILE DIR PORT IP HOST USER GROUP PERM COUNT BOOL COMMAND
  // TIME_US TIME_MS TIME_S TIME_M TIME_H SIZE_B SIZE_KB SIZE_MB SIZE_GB.
  // Flags after the parens: terminating unsafe cmp_sensitive cmp_insensitive
  // log errlog. Returns false if any line failed to parse.
  bool ImportSpec(std::string_view text, DiagnosticEngine* diags);

  void Add(ApiSpec spec);
  const ApiSpec* Find(const std::string& name) const;
  size_t size() const { return specs_.size(); }

  bool IsTerminating(const std::string& name) const;

 private:
  std::map<std::string, ApiSpec> specs_;
};

// Parses a parameter-kind token ("FILE", "TIME_S", ...) used by ImportSpec
// and by tests. Returns nullopt on unknown tokens.
std::optional<ApiParamSpec> ParseParamKind(std::string_view token);

}  // namespace spex

#endif  // SPEX_APIDB_API_REGISTRY_H_
