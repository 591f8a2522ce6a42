// Diagnostic collection for the front-end and the analysis pipeline.
//
// The engine records errors and warnings with source locations instead of
// throwing; callers check HasErrors() at phase boundaries. This mirrors how a
// compiler front-end degrades gracefully on malformed input, which matters
// here because SPEX must keep analyzing the rest of a target after one bad
// function.
#ifndef SPEX_SUPPORT_DIAGNOSTICS_H_
#define SPEX_SUPPORT_DIAGNOSTICS_H_

#include <string>
#include <vector>

#include "src/support/source_loc.h"

namespace spex {

enum class DiagSeverity { kWarning, kError };

struct Diagnostic {
  DiagSeverity severity = DiagSeverity::kError;
  SourceLoc loc;
  std::string message;

  std::string ToString() const;
};

class DiagnosticEngine {
 public:
  void Error(const SourceLoc& loc, std::string message);
  void Warning(const SourceLoc& loc, std::string message);

  bool HasErrors() const { return error_count_ > 0; }
  size_t error_count() const { return error_count_; }
  size_t warning_count() const { return warning_count_; }
  const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }

  // All diagnostics joined by newlines; convenient for test assertions and
  // for surfacing parse failures in tools.
  std::string Render() const;

  // Appends every diagnostic `other` recorded, counts included.
  void Append(const DiagnosticEngine& other);

 private:
  std::vector<Diagnostic> diagnostics_;
  size_t error_count_ = 0;
  size_t warning_count_ = 0;
};

}  // namespace spex

#endif  // SPEX_SUPPORT_DIAGNOSTICS_H_
