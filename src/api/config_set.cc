#include "src/api/config_set.h"

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <unordered_map>
#include <unordered_set>

#include "src/support/strings.h"

namespace spex {

const char* ConfigSetErrorKindName(ConfigSetError::Kind kind) {
  switch (kind) {
    case ConfigSetError::Kind::kMissingInclude:
      return "missing-include";
    case ConfigSetError::Kind::kIncludeCycle:
      return "include-cycle";
    case ConfigSetError::Kind::kDepthExceeded:
      return "depth-exceeded";
    case ConfigSetError::Kind::kTooManyFiles:
      return "too-many-files";
  }
  return "?";
}

std::string ConfigSetError::ToString() const {
  std::string at = file.empty() ? std::string("<root>")
                                : file + ":" + std::to_string(line);
  switch (kind) {
    case Kind::kMissingInclude:
      return at + ": missing include: '" + target + "' could not be loaded";
    case Kind::kIncludeCycle:
      return at + ": include cycle: '" + target + "' is already being included";
    case Kind::kDepthExceeded:
      return at + ": include chain too deep at '" + target + "'";
    case Kind::kTooManyFiles:
      return at + ": too many files in include tree (expansion stopped at '" + target + "')";
  }
  return at + ": ?";
}

std::optional<size_t> ResolvedConfigSet::FindEntry(std::string_view key) const {
  const std::vector<ConfigEntry>& entries = effective.entries();
  for (size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].key == key) {
      return i;
    }
  }
  return std::nullopt;
}

MemoryConfigSetSource::MemoryConfigSetSource(std::span<const ConfigInput> files) {
  for (const ConfigInput& file : files) {
    files_.emplace(file.name, file.text);  // First occurrence of a name wins.
  }
}

std::optional<std::string> MemoryConfigSetSource::Load(const std::string& name) {
  auto it = files_.find(name);
  if (it == files_.end()) {
    return std::nullopt;
  }
  return it->second;
}

std::optional<std::vector<std::string>> MemoryConfigSetSource::ListDir(const std::string& dir) {
  std::string prefix = dir + "/";
  std::vector<std::string> names;
  // files_ is an ordered map, so the result is already name-sorted.
  for (auto it = files_.lower_bound(prefix); it != files_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) {
      break;
    }
    names.push_back(it->first);
  }
  if (names.empty()) {
    return std::nullopt;  // A memory "directory" exists iff it has files.
  }
  return names;
}

bool ParseIncludeDirective(const ConfigEntry& entry, bool* is_dir, std::string* operand) {
  if (entry.kind != ConfigEntry::Kind::kSetting) {
    return false;
  }
  std::string_view word = entry.key;
  std::string_view rest = entry.value;
  if (entry.value.empty()) {
    // key=value dialect: `include "x"` has no '=', so the whole line landed
    // in the key. Split it back into directive word + operand.
    size_t space = word.find_first_of(" \t");
    if (space != std::string_view::npos) {
      rest = TrimWhitespace(word.substr(space + 1));
      word = word.substr(0, space);
    }
  }
  bool dir = false;
  if (word == "include") {
    dir = false;
  } else if (word == "include_dir" || word == "includedir") {
    dir = true;
  } else {
    return false;
  }
  std::string_view target = TrimWhitespace(rest);
  if (target.size() >= 2 &&
      ((target.front() == '"' && target.back() == '"') ||
       (target.front() == '\'' && target.back() == '\'') ||
       (target.front() == '<' && target.back() == '>'))) {
    target = target.substr(1, target.size() - 2);
  }
  *is_dir = dir;
  *operand = std::string(target);
  return true;
}

std::string JoinIncludePath(std::string_view including_file, std::string_view operand) {
  if (operand.empty() || operand.front() == '/') {
    return std::string(operand);
  }
  std::filesystem::path base(including_file);
  std::filesystem::path joined = base.parent_path() / std::filesystem::path(operand);
  return joined.lexically_normal().generic_string();
}

namespace {

// Depth-first include expansion with per-fault containment. One instance
// resolves one root; all state is local, so concurrent resolutions never
// share anything but the (read-only) source.
class SetResolver {
 public:
  SetResolver(ConfigSetSource& source, ConfigDialect dialect, const ConfigSetOptions& options)
      : source_(source), dialect_(dialect), options_(options) {}

  ResolvedConfigSet Run(const std::string& root_name) {
    out_.name = root_name;
    ExpandFile(root_name, /*from_file=*/"", /*from_line=*/0, /*depth=*/0);
    if (!out_.resolved()) {  // The root's load failure is the first error.
      out_.status = Status::InvalidArgument("config set '" + root_name +
                                            "' unresolvable: " + out_.errors.front().ToString());
    }
    // Materialize the effective config: each key once, at the position of
    // its first assignment, carrying the value of its last. Keys are
    // unique by construction, so one pass builds it.
    std::vector<ConfigEntry> entries(out_.provenance.size());
    for (const auto& [key, index] : key_index_) {
      entries[index].key = key;
    }
    for (size_t i = 0; i < entries.size(); ++i) {
      entries[i].value = std::move(values_[i]);
      entries[i].line = static_cast<uint32_t>(i + 1);
    }
    out_.effective = ConfigFile(dialect_, std::move(entries));
    return std::move(out_);
  }

 private:
  void AddError(ConfigSetError::Kind kind, const std::string& file, uint32_t line,
                const std::string& target) {
    ConfigSetError error;
    error.kind = kind;
    error.file = file;
    error.line = line;
    error.target = target;
    out_.errors.push_back(std::move(error));
  }

  void Apply(uint32_t file, const ConfigEntry& entry) {
    auto [it, inserted] = key_index_.try_emplace(entry.key, out_.provenance.size());
    const size_t index = it->second;
    if (inserted) {
      out_.provenance.push_back(SettingOrigin{file, entry.line});
      values_.push_back(entry.value);
      return;
    }
    out_.shadowed.push_back(ShadowedSetting{static_cast<uint32_t>(index), out_.provenance[index],
                                            std::move(values_[index])});
    out_.provenance[index] = SettingOrigin{file, entry.line};
    values_[index] = entry.value;
  }

  void ExpandFile(const std::string& name, const std::string& from_file, uint32_t from_line,
                  size_t depth) {
    if (expansion_stopped_ || !out_.status.ok()) {
      return;
    }
    if (depth > options_.max_include_depth) {
      AddError(ConfigSetError::Kind::kDepthExceeded, from_file, from_line, name);
      return;
    }
    if (stack_.count(name) > 0) {
      AddError(ConfigSetError::Kind::kIncludeCycle, from_file, from_line, name);
      return;
    }
    if (out_.files_resolved >= options_.max_files) {
      // Include-bomb guard: one record, then stop expanding entirely —
      // a bomb would otherwise flood the error list too.
      AddError(ConfigSetError::Kind::kTooManyFiles, from_file, from_line, name);
      expansion_stopped_ = true;
      return;
    }
    std::optional<std::string> text = source_.Load(name);
    if (!text.has_value()) {
      AddError(ConfigSetError::Kind::kMissingInclude, from_file, from_line, name);
      return;
    }
    const uint32_t file_index = static_cast<uint32_t>(out_.files.size());
    out_.files.push_back(name);
    ++out_.files_resolved;
    stack_.insert(name);
    ConfigFile file = ConfigFile::Parse(*text, dialect_);
    for (const ConfigEntry& entry : file.entries()) {
      if (!out_.status.ok()) {
        break;  // An included file had a malformed line: the set fails.
      }
      if (entry.kind != ConfigEntry::Kind::kSetting) {
        continue;
      }
      bool is_dir = false;
      std::string operand;
      if (!ParseIncludeDirective(entry, &is_dir, &operand)) {
        if (entry.defect != nullptr) {
          out_.status = Status::InvalidArgument(name + ": line " + std::to_string(entry.line) +
                                                ": " + entry.defect);
          break;
        }
        Apply(file_index, entry);
        continue;
      }
      if (operand.empty()) {
        AddError(ConfigSetError::Kind::kMissingInclude, name, entry.line, "");
        continue;
      }
      std::string target = JoinIncludePath(name, operand);
      if (!is_dir) {
        ExpandFile(target, name, entry.line, depth + 1);
        continue;
      }
      std::optional<std::vector<std::string>> listed = source_.ListDir(target);
      if (!listed.has_value()) {
        AddError(ConfigSetError::Kind::kMissingInclude, name, entry.line, target);
        continue;
      }
      for (const std::string& child : *listed) {
        ExpandFile(child, name, entry.line, depth + 1);
      }
    }
    stack_.erase(name);
  }

  ConfigSetSource& source_;
  ConfigDialect dialect_;
  ConfigSetOptions options_;
  ResolvedConfigSet out_;
  std::unordered_map<std::string, size_t> key_index_;
  std::vector<std::string> values_;  // Each key's winning value, by index.
  std::unordered_set<std::string> stack_;
  bool expansion_stopped_ = false;
};

}  // namespace

ResolvedConfigSet ResolveConfigSet(const std::string& root_name, ConfigSetSource& source,
                                   ConfigDialect dialect, const ConfigSetOptions& options) {
  return SetResolver(source, dialect, options).Run(root_name);
}

ResolvedConfigSet ResolveConfigSet(std::span<const ConfigInput> files, ConfigDialect dialect,
                                   const ConfigSetOptions& options) {
  MemoryConfigSetSource source(files);
  std::string root = files.empty() ? std::string("<empty>") : files.front().name;
  return ResolveConfigSet(root, source, dialect, options);
}

namespace {

std::string OriginRef(const ResolvedConfigSet& set, const SettingOrigin& origin) {
  return set.files[origin.file] + ":" + std::to_string(origin.line);
}

void AppendNote(std::string* note, std::string text) {
  if (!note->empty()) {
    *note += "; ";
  }
  *note += std::move(text);
}

}  // namespace

void RewriteViolationsWithProvenance(const ResolvedConfigSet& set,
                                     const ModuleConstraints& constraints,
                                     std::vector<Violation>* violations) {
  for (Violation& violation : *violations) {
    const std::optional<size_t> index = set.FindEntry(violation.param);
    if (!index.has_value()) {
      continue;  // Not a key of this set (defensive; should not happen).
    }
    const SettingOrigin& winner = set.provenance[*index];
    violation.file = set.files[winner.file];
    violation.line = winner.line;
    std::string note;
    for (const ShadowedSetting& shadow : set.shadowed) {
      if (shadow.entry == *index) {
        AppendNote(&note, "overridden at " + OriginRef(set, shadow.origin) + " (earlier value '" +
                              shadow.value + "')");
      }
    }
    // Cross-parameter findings: name the file the peer resolved from when
    // it is not the same file as the primary — the whole point of checking
    // the set instead of its fragments. Names, not indices, are compared:
    // one file can load twice.
    auto note_peer = [&](const std::string& peer_key) {
      const std::optional<size_t> peer = set.FindEntry(peer_key);
      if (peer.has_value() && set.files[set.provenance[*peer].file] != set.files[winner.file]) {
        AppendNote(&note, "cross-file: " + peer_key + " = '" +
                              set.effective.entries()[*peer].value + "' resolves from " +
                              OriginRef(set, set.provenance[*peer]));
      }
    };
    if (violation.category == ViolationCategory::kValueRel) {
      for (const ValueRelConstraint& rel : constraints.value_rels) {
        if (rel.lhs == violation.param) {
          note_peer(rel.rhs);
        }
      }
    } else if (violation.category == ViolationCategory::kControlDep) {
      for (const ControlDepConstraint& dep : constraints.control_deps) {
        if (dep.dependent == violation.param) {
          note_peer(dep.master);
        }
      }
    }
    violation.override_note = std::move(note);
  }
}

namespace {

// Minimal strict JSON scanner for the one shape the /check endpoint
// accepts. Hand-rolled on purpose: the boundary wants a parser whose
// worst case on hostile input is a clean kInvalidArgument, and the repo
// takes no third-party dependencies.
class SetJsonParser {
 public:
  explicit SetJsonParser(std::string_view text) : text_(text) {}

  Status Parse(ConfigSetInput* out) {
    if (!Consume('{')) {
      return Bad("expected '{'");
    }
    std::string key;
    Status status = ParseString(&key);
    if (!status.ok()) {
      return status;
    }
    if (key != "files") {
      return Bad("expected a \"files\" key");
    }
    if (!Consume(':')) {
      return Bad("expected ':' after \"files\"");
    }
    if (!Consume('[')) {
      return Bad("expected '[' to open the files array");
    }
    if (!Consume(']')) {
      do {
        ConfigInput file;
        status = ParseFile(&file);
        if (!status.ok()) {
          return status;
        }
        out->files.push_back(std::move(file));
      } while (Consume(','));
      if (!Consume(']')) {
        return Bad("expected ',' or ']' in the files array");
      }
    }
    if (!Consume('}')) {
      return Bad("expected '}' to close the request");
    }
    SkipSpace();
    if (pos_ != text_.size()) {
      return Bad("trailing bytes after the request object");
    }
    if (out->files.empty()) {
      return Bad("\"files\" must name at least one file");
    }
    out->name = out->files.front().name;
    return Status::Ok();
  }

 private:
  Status ParseFile(ConfigInput* out) {
    if (!Consume('{')) {
      return Bad("expected '{' to open a file object");
    }
    bool saw_name = false;
    bool saw_text = false;
    if (!Consume('}')) {
      do {
        std::string key;
        std::string value;
        Status status = ParseString(&key);
        if (status.ok() && !Consume(':')) {
          status = Bad("expected ':' in a file object");
        }
        if (status.ok()) {
          status = ParseString(&value);
        }
        if (!status.ok()) {
          return status;
        }
        if (key == "name") {
          out->name = std::move(value);
          saw_name = true;
        } else if (key == "text") {
          out->text = std::move(value);
          saw_text = true;
        } else {
          return Bad("unknown file field \"" + key + "\" (want name/text)");
        }
      } while (Consume(','));
      if (!Consume('}')) {
        return Bad("expected ',' or '}' in a file object");
      }
    }
    if (!saw_name || out->name.empty()) {
      return Bad("every file needs a non-empty \"name\"");
    }
    if (!saw_text) {
      return Bad("every file needs a \"text\" field");
    }
    return Status::Ok();
  }

  // A JSON string. Raw bytes must be well-formed UTF-8 and a \u escape a
  // scalar value (a surrogate only as half of a pair), so every accepted
  // string is UTF-8 that JsonEscape writes back unchanged.
  Status ParseString(std::string* out) {
    if (!Consume('"')) {
      return Bad("expected a string");
    }
    out->clear();
    while (pos_ < text_.size()) {
      if (static_cast<unsigned char>(text_[pos_]) >= 0x80) {
        size_t length = Utf8SequenceLength(text_, pos_);
        if (length == 0) {
          return Bad("string is not valid UTF-8");
        }
        out->append(text_.substr(pos_, length));
        pos_ += length;
        continue;
      }
      char c = text_[pos_++];
      if (c == '"') {
        return Status::Ok();
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        break;
      }
      char escape = text_[pos_++];
      static constexpr std::string_view kEscaped = "\"\\/ntrbf";
      static constexpr std::string_view kDecoded = "\"\\/\n\t\r\b\f";
      if (size_t simple = kEscaped.find(escape); simple != std::string_view::npos) {
        out->push_back(kDecoded[simple]);
        continue;
      }
      if (escape != 'u') {
        return Bad(std::string("unknown escape '\\") + escape + "'");
      }
      uint32_t code = 0;
      uint32_t low = 0;
      Status status = ParseHex4(&code);
      const bool high_half = code >= 0xD800 && code <= 0xDBFF;
      if (status.ok() && high_half && text_.substr(pos_, 2) == "\\u") {
        pos_ += 2;
        status = ParseHex4(&low);
      }
      if (!status.ok()) {
        return status;
      }
      if (high_half != (low >= 0xDC00 && low <= 0xDFFF) || (code >= 0xDC00 && code <= 0xDFFF)) {
        return Bad("lone surrogate in \\u escape");
      }
      AppendUtf8(high_half ? 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00) : code, out);
    }
    return Bad("unterminated string");
  }

  // The four hex digits of a \u escape.
  Status ParseHex4(uint32_t* code) {
    if (pos_ + 4 > text_.size()) {
      return Bad("truncated \\u escape");
    }
    const char* digits = text_.data() + pos_;
    if (std::from_chars(digits, digits + 4, *code, 16).ptr != digits + 4) {
      return Bad("bad hex digit in \\u escape");
    }
    pos_ += 4;
    return Status::Ok();
  }

  static void AppendUtf8(uint32_t code, std::string* out) {
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
      return;
    }
    const int trail = code < 0x800 ? 1 : code < 0x10000 ? 2 : 3;
    out->push_back(static_cast<char>((0xFF << (7 - trail)) | (code >> (6 * trail))));
    for (int shift = 6 * (trail - 1); shift >= 0; shift -= 6) {
      out->push_back(static_cast<char>(0x80 | ((code >> shift) & 0x3F)));
    }
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  // Takes `c` if it is the next byte after JSON whitespace.
  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status Bad(std::string what) const {
    return Status::InvalidArgument("config-set body: " + std::move(what) + " at byte " +
                                   std::to_string(pos_));
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Status ParseConfigSetJson(std::string_view body, ConfigSetInput* out) {
  *out = ConfigSetInput{};
  return SetJsonParser(body).Parse(out);
}

}  // namespace spex
