// The one JSON encoder for every machine-readable report: spexcheck's
// JSONL stream and spexcheckd's response bodies both call the encoders
// below, so the two surfaces cannot drift apart. Each Append*Json appends
// one JSON object to the caller's string, with no trailing newline (JSONL
// framing is the caller's). docs/api.md ("Report records") has the schemas.
//
// The violation record is the same on both surfaces:
//   {"type":"violation"[,"config"],"file","line","category","param",
//    "value","message"[,"note"][,"reaction","prediction"]}
// spexcheckd writes it as a line (`config` tags /batch lines); spexcheck
// nests it, untagged, in each per-config "violations" array.
#ifndef SPEX_API_REPORT_JSON_H_
#define SPEX_API_REPORT_JSON_H_

#include <optional>
#include <string>
#include <string_view>

#include "src/api/batch_check.h"
#include "src/api/config_set.h"
#include "src/matrix/matrix_check.h"
#include "src/support/status.h"

namespace spex {

struct ServerStats;

// JSON string escaping: quotes, backslashes and C0 controls are escaped,
// well-formed UTF-8 passes through, and any other byte (a lone 0xff, a
// truncated or overlong sequence) becomes \u00XX, so output is always
// valid JSON. Lossless: a real U+0080..U+00FF is well-formed UTF-8 and
// written raw, so \u0080..\u00ff only ever stands for an invalid byte.
std::string JsonEscape(std::string_view text);

// Both surfaces. `config` (a /batch line's report name) may be null.
void AppendViolationJson(std::string* out, const Violation& violation,
                         const std::string* config = nullptr);

// spexcheck: the per-config record, {"summary":{...}}, an unreadable file
// ({"config","error"}, typed "config_error" in the matrix stream), the
// "config_set" record ahead of an include tree's report, and the matrix
// stream's "cell", "version", "diff" and "matrix_summary" records.
void AppendConfigReportJson(std::string* out, size_t index, const ConfigReport& report);
void AppendBatchSummaryJson(std::string* out, const BatchSummary& summary);
void AppendConfigErrorJson(std::string* out, std::string_view config, std::string_view error,
                           bool typed);
void AppendConfigSetJson(std::string* out, const ResolvedConfigSet& set);
void AppendMatrixCellJson(std::string* out, size_t version, std::string_view version_label,
                          const ConfigReport& report);
void AppendVersionJson(std::string* out, const VersionReport& column);
void AppendTransitionJson(std::string* out, const ConfigTransition& transition);
void AppendMatrixSummaryJson(std::string* out, const MatrixSummary& summary);

// spexcheckd: a rejected request's "error" line, /check's
// "config_set_error" lines, /batch's per-config "report" lines, the
// closing "summary" (/check) or "batch_summary" (/batch), and /statz.
void AppendStatusJson(std::string* out, const Status& status);
void AppendConfigSetErrorJson(std::string* out, const ConfigSetError& error);
void AppendServedReportJson(std::string* out, const ConfigReport& report);
// What a served request adds to its BatchSummary.
struct ServedCheck {
  StatusCode status = StatusCode::kOk;  // kOk, or why the request's token fired.
  std::string_view target;
  CheckMode mode = CheckMode::kDynamic;  // After degradation.
  bool degraded = false;
  std::optional<size_t> files;  // Files resolved, for a config-set body.
};
void AppendServedSummaryJson(std::string* out, const ServedCheck& served,
                             const BatchSummary& summary, bool batch);
void AppendStatzJson(std::string* out, const ServerStats& stats);

}  // namespace spex

#endif  // SPEX_API_REPORT_JSON_H_
