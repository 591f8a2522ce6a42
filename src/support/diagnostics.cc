#include "src/support/diagnostics.h"

#include <sstream>

namespace spex {

namespace {

const char* SeverityLabel(DiagSeverity severity) {
  switch (severity) {
    case DiagSeverity::kWarning:
      return "warning";
    case DiagSeverity::kError:
      return "error";
  }
  return "unknown";
}

}  // namespace

std::string Diagnostic::ToString() const {
  return loc.ToString() + ": " + SeverityLabel(severity) + ": " + message;
}

void DiagnosticEngine::Error(const SourceLoc& loc, std::string message) {
  diagnostics_.push_back({DiagSeverity::kError, loc, std::move(message)});
  ++error_count_;
}

void DiagnosticEngine::Warning(const SourceLoc& loc, std::string message) {
  diagnostics_.push_back({DiagSeverity::kWarning, loc, std::move(message)});
  ++warning_count_;
}

std::string DiagnosticEngine::Render() const {
  std::ostringstream out;
  for (const Diagnostic& diag : diagnostics_) {
    out << diag.ToString() << "\n";
  }
  return out.str();
}

void DiagnosticEngine::Append(const DiagnosticEngine& other) {
  diagnostics_.insert(diagnostics_.end(), other.diagnostics_.begin(), other.diagnostics_.end());
  error_count_ += other.error_count_;
  warning_count_ += other.warning_count_;
}

}  // namespace spex
