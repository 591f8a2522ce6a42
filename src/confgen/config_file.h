// Configuration-file abstract representation (AR).
//
// SPEX-INJ mutates a template configuration file into test configurations
// (Section 3.1; the paper reuses ConfErr's parser for this). The AR keeps
// comments, blank lines and entry order so a serialized mutation looks like
// something a user actually wrote.
#ifndef SPEX_CONFGEN_CONFIG_FILE_H_
#define SPEX_CONFGEN_CONFIG_FILE_H_

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/support/status.h"

namespace spex {

enum class ConfigDialect {
  kKeyEqualsValue,  // `key = value`   (MySQL/PostgreSQL-style)
  kKeyValue,        // `key value`     (Apache/Squid-style)
};

// Canonical user-facing name ("key=value" / "key-value").
const char* ConfigDialectName(ConfigDialect dialect);

// Parses a user-supplied dialect name; nullopt for anything unknown.
std::optional<ConfigDialect> ParseConfigDialectName(std::string_view name);

// "key=value, key-value" — the single source of truth for every "unknown
// dialect" error message (spexcheck's --dialect, tools that grow one later).
std::string SupportedConfigDialectNames();

struct ConfigEntry {
  enum class Kind { kSetting, kComment, kBlank };
  Kind kind = Kind::kSetting;
  std::string key;
  std::string value;  // For a comment, the whole line verbatim.
  uint32_t line = 0;
  // Why a settings line is malformed, e.g. "settings line has no '='";
  // null when well formed. The line is still kept as a setting.
  const char* defect = nullptr;
};

class ConfigFile {
 public:
  ConfigFile() = default;
  explicit ConfigFile(ConfigDialect dialect) : dialect_(dialect) {}
  // Adopts `entries` as they are; the caller keeps setting keys unique.
  ConfigFile(ConfigDialect dialect, std::vector<ConfigEntry> entries)
      : dialect_(dialect), entries_(std::move(entries)) {}

  // The one syntax rule for config text: a key=value settings line with no
  // '=' or an empty key is malformed; key-value accepts bare directives.
  // Parsing never fails; `error`, when given, receives Ok or
  // kInvalidArgument "line N: <defect>" for the first malformed line.
  static ConfigFile Parse(std::string_view text, ConfigDialect dialect, Status* error = nullptr);

  ConfigDialect dialect() const { return dialect_; }
  const std::vector<ConfigEntry>& entries() const { return entries_; }

  std::optional<std::string> Get(std::string_view key) const;
  // Line number of a key's setting (for error reports), 0 if absent.
  uint32_t LineOf(std::string_view key) const;
  // Overwrites the first setting of `key`, or appends one.
  void Set(std::string_view key, std::string_view value);
  bool Remove(std::string_view key);
  void AppendComment(std::string_view text);

  size_t SettingCount() const;
  std::string Serialize() const;

 private:
  ConfigDialect dialect_ = ConfigDialect::kKeyEqualsValue;
  std::vector<ConfigEntry> entries_;
};

}  // namespace spex

#endif  // SPEX_CONFGEN_CONFIG_FILE_H_
