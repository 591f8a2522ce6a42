#include "src/api/report_json.h"

#include <charconv>
#include <cstdio>
#include <type_traits>

#include "src/serve/server.h"
#include "src/support/strings.h"

namespace spex {

namespace {

void AppendEscaped(std::string* out, std::string_view text) {
  for (size_t i = 0; i < text.size(); ++i) {
    const auto c = static_cast<unsigned char>(text[i]);
    size_t length = 0;
    if (c == '"' || c == '\\') {
      (*out += '\\') += static_cast<char>(c);
    } else if (c == '\n' || c == '\r' || c == '\t') {
      *out += c == '\n' ? "\\n" : c == '\r' ? "\\r" : "\\t";
    } else if (c >= 0x20 && c < 0x80) {
      *out += static_cast<char>(c);
    } else if (c >= 0x80 && (length = Utf8SequenceLength(text, i)) != 0) {
      out->append(text.substr(i, length));
      i += length - 1;
    } else {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      *out += buffer;
    }
  }
}

// Minimal append-only JSON writer; commas are placed automatically.
// Fields() takes key/value pairs: strings are escaped, bools print as
// true/false, doubles as %g (what an ostream prints by default), any
// other number as an unsigned integer.
class JsonWriter {
 public:
  explicit JsonWriter(std::string* out) : out_(out) {}

  JsonWriter& Open(char bracket) {
    Separate();
    return Put(bracket, /*first=*/true);
  }
  JsonWriter& Close(char bracket) { return Put(bracket, /*first=*/false); }
  // The key of a nested array or object.
  JsonWriter& Key(std::string_view key) {
    Separate();
    (*out_ += '"').append(key) += '"';
    return Put(':', /*first=*/true);
  }
  template <typename Value, typename... Rest>
  JsonWriter& Fields(std::string_view key, const Value& value, const Rest&... rest) {
    Key(key);
    first_ = false;
    if constexpr (std::is_same_v<Value, bool>) {
      *out_ += value ? "true" : "false";
    } else if constexpr (std::is_floating_point_v<Value>) {
      char buffer[32];
      std::snprintf(buffer, sizeof(buffer), "%g", value);
      *out_ += buffer;
    } else if constexpr (std::is_arithmetic_v<Value>) {
      char buffer[24];  // Any uint64_t fits.
      out_->append(buffer, std::to_chars(buffer, buffer + sizeof(buffer), uint64_t{value}).ptr);
    } else {
      *out_ += '"';
      AppendEscaped(out_, value);
      *out_ += '"';
    }
    if constexpr (sizeof...(rest) > 0) {
      Fields(rest...);
    }
    return *this;
  }

 private:
  JsonWriter& Put(char c, bool first) {
    *out_ += c;
    first_ = first;
    return *this;
  }
  void Separate() {
    if (!first_) {
      *out_ += ',';
    }
    first_ = false;
  }

  std::string* out_;
  bool first_ = true;  // Next item opens a container or follows a key.
};

// A config-set resolution fault: the CLI's nested "errors" entries and the
// daemon's config_set_error lines.
JsonWriter& WriteConfigSetError(JsonWriter& json, const ConfigSetError& error) {
  return json.Fields("kind", ConfigSetErrorKindName(error.kind), "file", error.file,
                     "line", error.line, "target", error.target);
}

JsonWriter& WriteViolation(JsonWriter& json, const Violation& violation,
                           const std::string* config) {
  json.Open('{').Fields("type", "violation");
  if (config != nullptr) {
    json.Fields("config", *config);
  }
  json.Fields("file", violation.file, "line", violation.line,
              "category", ViolationCategoryName(violation.category), "param", violation.param,
              "value", violation.value, "message", violation.message);
  if (!violation.override_note.empty()) {
    json.Fields("note", violation.override_note);
  }
  if (violation.reaction.has_value()) {
    json.Fields("reaction", ReactionCategoryName(*violation.reaction),
                "prediction", violation.prediction);
  }
  return json.Close('}');
}

// The CLI's per-config fields, shared by plain and matrix-cell records.
JsonWriter& WriteConfigReport(JsonWriter& json, size_t index, const ConfigReport& report) {
  json.Fields("config", report.name, "index", index, "suspects", report.suspects,
              "shared_replays", report.shared_replays);
  if (!report.status.ok()) {
    json.Fields("status", StatusCodeName(report.status.code()),
                "error", report.status.message());
  }
  json.Key("violations").Open('[');
  for (const Violation& violation : report.violations) {
    WriteViolation(json, violation, nullptr);
  }
  return json.Close(']');
}

}  // namespace

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 8);
  AppendEscaped(&out, text);
  return out;
}

void AppendViolationJson(std::string* out, const Violation& violation,
                         const std::string* config) {
  JsonWriter json(out);
  WriteViolation(json, violation, config);
}

void AppendConfigReportJson(std::string* out, size_t index, const ConfigReport& report) {
  JsonWriter json(out);
  WriteConfigReport(json.Open('{'), index, report).Close('}');
}

void AppendBatchSummaryJson(std::string* out, const BatchSummary& summary) {
  JsonWriter json(out);
  json.Open('{').Key("summary").Open('{');
  json.Fields("configs_checked", summary.configs_checked,
              "configs_with_errors", summary.configs_with_errors,
              "configs_with_violations", summary.configs_with_violations,
              "total_violations", summary.total_violations,
              "total_suspects", summary.total_suspects, "unique_replays", summary.unique_replays,
              "dedup_ratio", summary.DedupRatio(), "store_hits", summary.store_hits,
              "store_misses", summary.store_misses, "store_appends", summary.store_appends);
  json.Close('}').Close('}');
}

void AppendConfigErrorJson(std::string* out, std::string_view config, std::string_view error,
                           bool typed) {
  JsonWriter json(out);
  json.Open('{');
  if (typed) {
    json.Fields("type", "config_error");
  }
  json.Fields("config", config, "error", error).Close('}');
}

void AppendConfigSetJson(std::string* out, const ResolvedConfigSet& set) {
  JsonWriter json(out);
  json.Open('{').Fields("type", "config_set", "config", set.name, "files", set.files_resolved);
  json.Key("errors").Open('[');
  for (const ConfigSetError& error : set.errors) {
    WriteConfigSetError(json.Open('{'), error).Close('}');
  }
  json.Close(']').Close('}');
}

void AppendMatrixCellJson(std::string* out, size_t version, std::string_view version_label,
                          const ConfigReport& report) {
  JsonWriter json(out);
  json.Open('{').Fields("type", "cell", "version", version, "version_label", version_label);
  WriteConfigReport(json, report.index, report).Close('}');
}

void AppendVersionJson(std::string* out, const VersionReport& column) {
  JsonWriter json(out);
  json.Open('{').Fields("type", "version", "version", column.index, "label", column.label);
  const BatchSummary& batch = column.batch;
  if (!column.status.ok()) {
    json.Fields("status", StatusCodeName(column.status.code()), "error", column.status.message());
  } else {
    json.Fields("configs_checked", batch.configs_checked,
                "configs_with_violations", batch.configs_with_violations,
                "configs_with_errors", batch.configs_with_errors,
                "total_violations", batch.total_violations, "total_suspects", batch.total_suspects,
                "unique_replays", batch.unique_replays, "store_hits", batch.store_hits,
                "store_appends", batch.store_appends);
  }
  json.Close('}');
}

void AppendTransitionJson(std::string* out, const ConfigTransition& transition) {
  JsonWriter json(out);
  json.Open('{').Fields("type", "diff", "config", transition.config,
                        "config_index", transition.config_index, "from", transition.from_version,
                        "to", transition.to_version, "from_label", transition.from_label,
                        "to_label", transition.to_label,
                        "transition", TransitionName(transition.transition),
                        "added", transition.added, "removed", transition.removed,
                        "changed", transition.changed, "detail", transition.detail);
  json.Close('}');
}

void AppendMatrixSummaryJson(std::string* out, const MatrixSummary& summary) {
  auto count = [&](Transition transition) {
    return summary.transitions_by_kind[static_cast<size_t>(transition)];
  };
  JsonWriter json(out);
  json.Open('{').Fields("type", "matrix_summary", "versions_requested", summary.versions_requested,
                        "versions_checked", summary.versions_checked, "configs", summary.configs,
                        "cells", summary.cells, "total_violations", summary.total_violations,
                        "unique_replays", summary.unique_replays, "store_hits", summary.store_hits,
                        "regressions", count(Transition::kRegression),
                        "fixes", count(Transition::kFix),
                        "changed_reactions", count(Transition::kChangedReaction),
                        "stable", count(Transition::kStable));
  json.Close('}');
}

void AppendStatusJson(std::string* out, const Status& status) {
  JsonWriter json(out);
  json.Open('{').Fields("type", "error", "status", StatusCodeName(status.code()),
                        "message", status.message());
  json.Close('}');
}

void AppendConfigSetErrorJson(std::string* out, const ConfigSetError& error) {
  JsonWriter json(out);
  WriteConfigSetError(json.Open('{').Fields("type", "config_set_error"), error).Close('}');
}

void AppendServedReportJson(std::string* out, const ConfigReport& report) {
  JsonWriter json(out);
  json.Open('{').Fields("type", "report", "index", report.index, "config", report.name,
                        "status", StatusCodeName(report.status.code()));
  if (!report.status.ok()) {
    json.Fields("error", report.status.message());
  }
  json.Fields("violations", report.violations.size(), "suspects", report.suspects,
              "shared_replays", report.shared_replays);
  json.Close('}');
}

void AppendServedSummaryJson(std::string* out, const ServedCheck& served,
                             const BatchSummary& summary, bool batch) {
  JsonWriter json(out);
  json.Open('{').Fields("type", batch ? "batch_summary" : "summary",
                        "status", StatusCodeName(served.status));
  if (batch) {
    json.Fields("configs", summary.configs_checked, "errors", summary.configs_with_errors,
                "violations", summary.total_violations, "total_suspects", summary.total_suspects,
                "unique_replays", summary.unique_replays);
  } else {
    json.Fields("target", served.target,
                "mode", served.mode == CheckMode::kDynamic ? "dynamic" : "static",
                "violations", summary.total_violations);
    if (served.files.has_value()) {
      json.Fields("files", *served.files);
    }
  }
  // cached: every suspect execution was served from the persistent
  // verdict store — nothing replayed for this request.
  const bool cached =
      summary.total_suspects > 0 && summary.unique_replays == 0 && summary.store_hits > 0;
  json.Fields("degraded", served.degraded, "cached", cached).Close('}');
}

void AppendStatzJson(std::string* out, const ServerStats& stats) {
  JsonWriter json(out);
  json.Open('{').Fields("accepted", stats.accepted, "served_ok", stats.served_ok,
                        "shed", stats.shed, "degraded", stats.degraded,
                        "budget_degraded", stats.budget_degraded,
                        "invalid_requests", stats.invalid_requests, "not_found", stats.not_found,
                        "deadline_exceeded", stats.deadline_exceeded, "cancelled", stats.cancelled,
                        "read_timeouts", stats.read_timeouts,
                        "internal_errors", stats.internal_errors,
                        "batch_configs", stats.batch_configs,
                        "keepalive_reuses", stats.keepalive_reuses, "store_hits", stats.store_hits,
                        "partial_reads", stats.partial_reads, "client_aborts", stats.client_aborts,
                        "open_connections", stats.open_connections,
                        "idle_keepalive", stats.idle_keepalive,
                        "max_connections", stats.max_connections, "queue_depth", stats.queue_depth,
                        "inflight_replays", stats.inflight_replays,
                        "per_target_replay_budget", stats.per_target_replay_budget,
                        "targets_loaded", stats.targets_loaded, "target_loads", stats.target_loads,
                        "target_hits", stats.target_hits,
                        "target_evictions", stats.target_evictions);
  // Per-target budget state: which target is the noisy one.
  json.Key("target_budget").Open('[');
  for (const TargetPool::BudgetState& state : stats.target_budget) {
    json.Open('{').Fields("name", state.name, "tokens", static_cast<uint64_t>(state.tokens),
                          "degraded", state.degraded);
    json.Close('}');
  }
  json.Close(']').Fields("draining", stats.draining).Close('}');
}

}  // namespace spex
