#include "src/apidb/api_registry.h"

#include "src/support/strings.h"

namespace spex {

const ApiParamSpec* ApiSpec::FindParam(int index) const {
  for (const ApiParamSpec& param : params) {
    if (param.index == index) {
      return &param;
    }
  }
  return nullptr;
}

namespace {

ApiParamSpec Param(int index, SemanticType semantic, TimeUnit time_unit = TimeUnit::kNone,
                   SizeUnit size_unit = SizeUnit::kNone) {
  ApiParamSpec spec;
  spec.index = index;
  spec.semantic = semantic;
  spec.time_unit = time_unit;
  spec.size_unit = size_unit;
  return spec;
}

ApiSpec Api(std::string name, std::vector<ApiParamSpec> params) {
  ApiSpec spec;
  spec.name = std::move(name);
  spec.params = std::move(params);
  return spec;
}

}  // namespace

ApiRegistry ApiRegistry::BuiltinC() {
  ApiRegistry registry;

  // --- Files and directories.
  registry.Add(Api("open", {Param(0, SemanticType::kFilePath)}));
  registry.Add(Api("fopen", {Param(0, SemanticType::kFilePath)}));
  registry.Add(Api("my_open", {Param(0, SemanticType::kFilePath)}));
  registry.Add(Api("unlink", {Param(0, SemanticType::kFilePath)}));
  registry.Add(Api("access", {Param(0, SemanticType::kFilePath)}));
  registry.Add(Api("stat_file", {Param(0, SemanticType::kFilePath)}));
  registry.Add(Api("opendir", {Param(0, SemanticType::kDirPath)}));
  registry.Add(Api("chdir", {Param(0, SemanticType::kDirPath)}));
  registry.Add(Api("mkdir", {Param(0, SemanticType::kDirPath)}));
  registry.Add(Api("chroot", {Param(0, SemanticType::kDirPath)}));
  registry.Add(Api("chown", {Param(0, SemanticType::kFilePath), Param(1, SemanticType::kUserName)}));
  registry.Add(Api("chmod", {Param(0, SemanticType::kFilePath),
                             Param(1, SemanticType::kPermissionMask)}));

  // --- Network.
  registry.Add(Api("bind", {Param(1, SemanticType::kPort)}));
  registry.Add(Api("connect", {Param(1, SemanticType::kHostname), Param(2, SemanticType::kPort)}));
  registry.Add(Api("htons", {Param(0, SemanticType::kPort)}));
  registry.Add(Api("set_port", {Param(0, SemanticType::kPort)}));
  registry.Add(Api("inet_addr", {Param(0, SemanticType::kIpAddress)}));
  registry.Add(Api("inet_aton", {Param(0, SemanticType::kIpAddress)}));
  registry.Add(Api("gethostbyname", {Param(0, SemanticType::kHostname)}));

  // --- Users and groups.
  registry.Add(Api("getpwnam", {Param(0, SemanticType::kUserName)}));
  registry.Add(Api("getgrnam", {Param(0, SemanticType::kGroupName)}));
  registry.Add(Api("setuid_user", {Param(0, SemanticType::kUserName)}));
  registry.Add(Api("umask", {Param(0, SemanticType::kPermissionMask)}));

  // --- Time.
  registry.Add(Api("sleep", {Param(0, SemanticType::kTime, TimeUnit::kSeconds)}));
  registry.Add(Api("usleep", {Param(0, SemanticType::kTime, TimeUnit::kMicroseconds)}));
  registry.Add(Api("poll_wait", {Param(0, SemanticType::kTime, TimeUnit::kMilliseconds)}));
  registry.Add(
      Api("set_timeout_ms", {Param(0, SemanticType::kTime, TimeUnit::kMilliseconds)}));
  registry.Add(Api("alarm", {Param(0, SemanticType::kTime, TimeUnit::kSeconds)}));
  {
    ApiSpec time_spec = Api("time", {});
    time_spec.return_semantic = SemanticType::kTime;
    time_spec.return_time_unit = TimeUnit::kSeconds;
    registry.Add(std::move(time_spec));
  }

  // --- Memory / sizes.
  registry.Add(Api("malloc",
                   {Param(0, SemanticType::kSize, TimeUnit::kNone, SizeUnit::kBytes)}));
  registry.Add(Api("alloc_buffer",
                   {Param(0, SemanticType::kSize, TimeUnit::kNone, SizeUnit::kBytes)}));
  registry.Add(Api("set_buffer_size",
                   {Param(0, SemanticType::kSize, TimeUnit::kNone, SizeUnit::kBytes)}));

  // --- String comparisons.
  {
    ApiSpec spec = Api("strcmp", {});
    spec.is_case_sensitive_cmp = true;
    registry.Add(std::move(spec));
  }
  {
    ApiSpec spec = Api("strncmp", {});
    spec.is_case_sensitive_cmp = true;
    registry.Add(std::move(spec));
  }
  {
    ApiSpec spec = Api("strcasecmp", {});
    spec.is_case_insensitive_cmp = true;
    registry.Add(std::move(spec));
  }
  {
    ApiSpec spec = Api("strncasecmp", {});
    spec.is_case_insensitive_cmp = true;
    registry.Add(std::move(spec));
  }

  // --- Unsafe string-to-number transformations (Section 3.2).
  for (const char* name : {"atoi", "atol", "sscanf", "sprintf"}) {
    ApiSpec spec = Api(name, {});
    spec.is_unsafe_transform = true;
    registry.Add(std::move(spec));
  }

  // parse_int_strict is the safe strtol-with-checks idiom; registered so it
  // is recognized (and NOT flagged unsafe).
  registry.Add(Api("parse_int_strict", {}));

  // --- Termination.
  for (const char* name : {"exit", "abort", "_exit"}) {
    ApiSpec spec = Api(name, {});
    spec.is_terminating = true;
    registry.Add(std::move(spec));
  }

  // --- Logging.
  for (const char* name : {"log_info", "log_warn", "printf", "fprintf"}) {
    ApiSpec spec = Api(name, {});
    spec.is_logging = true;
    registry.Add(std::move(spec));
  }
  for (const char* name : {"log_error", "log_fatal"}) {
    ApiSpec spec = Api(name, {});
    spec.is_logging = true;
    spec.is_error_logging = true;
    registry.Add(std::move(spec));
  }

  return registry;
}

void ApiRegistry::Add(ApiSpec spec) { specs_[spec.name] = std::move(spec); }

const ApiSpec* ApiRegistry::Find(const std::string& name) const {
  auto it = specs_.find(name);
  return it != specs_.end() ? &it->second : nullptr;
}

bool ApiRegistry::IsTerminating(const std::string& name) const {
  const ApiSpec* spec = Find(name);
  return spec != nullptr && spec->is_terminating;
}

std::optional<ApiParamSpec> ParseParamKind(std::string_view token) {
  ApiParamSpec spec;
  std::string upper = ToUpperCopy(token);
  if (upper == "FILE") {
    spec.semantic = SemanticType::kFilePath;
  } else if (upper == "DIR") {
    spec.semantic = SemanticType::kDirPath;
  } else if (upper == "PORT") {
    spec.semantic = SemanticType::kPort;
  } else if (upper == "IP") {
    spec.semantic = SemanticType::kIpAddress;
  } else if (upper == "HOST") {
    spec.semantic = SemanticType::kHostname;
  } else if (upper == "USER") {
    spec.semantic = SemanticType::kUserName;
  } else if (upper == "GROUP") {
    spec.semantic = SemanticType::kGroupName;
  } else if (upper == "PERM") {
    spec.semantic = SemanticType::kPermissionMask;
  } else if (upper == "COUNT") {
    spec.semantic = SemanticType::kCount;
  } else if (upper == "BOOL") {
    spec.semantic = SemanticType::kBoolean;
  } else if (upper == "COMMAND") {
    spec.semantic = SemanticType::kCommand;
  } else if (upper == "TIME_US") {
    spec.semantic = SemanticType::kTime;
    spec.time_unit = TimeUnit::kMicroseconds;
  } else if (upper == "TIME_MS") {
    spec.semantic = SemanticType::kTime;
    spec.time_unit = TimeUnit::kMilliseconds;
  } else if (upper == "TIME_S") {
    spec.semantic = SemanticType::kTime;
    spec.time_unit = TimeUnit::kSeconds;
  } else if (upper == "TIME_M") {
    spec.semantic = SemanticType::kTime;
    spec.time_unit = TimeUnit::kMinutes;
  } else if (upper == "TIME_H") {
    spec.semantic = SemanticType::kTime;
    spec.time_unit = TimeUnit::kHours;
  } else if (upper == "SIZE_B") {
    spec.semantic = SemanticType::kSize;
    spec.size_unit = SizeUnit::kBytes;
  } else if (upper == "SIZE_KB") {
    spec.semantic = SemanticType::kSize;
    spec.size_unit = SizeUnit::kKilobytes;
  } else if (upper == "SIZE_MB") {
    spec.semantic = SemanticType::kSize;
    spec.size_unit = SizeUnit::kMegabytes;
  } else if (upper == "SIZE_GB") {
    spec.semantic = SemanticType::kSize;
    spec.size_unit = SizeUnit::kGigabytes;
  } else {
    return std::nullopt;
  }
  return spec;
}

bool ApiRegistry::ImportSpec(std::string_view text, DiagnosticEngine* diags) {
  bool ok = true;
  uint32_t line_number = 0;
  for (const std::string& raw_line : SplitString(text, '\n')) {
    ++line_number;
    std::string_view line = TrimWhitespace(raw_line);
    if (line.empty() || line[0] == '#') {
      continue;
    }
    SourceLoc loc{"<api-spec>", line_number, 1};
    if (!StartsWith(line, "api ")) {
      diags->Error(loc, "expected 'api <name>(...)': " + std::string(line));
      ok = false;
      continue;
    }
    line.remove_prefix(4);
    size_t open_paren = line.find('(');
    size_t close_paren = line.find(')');
    if (open_paren == std::string_view::npos || close_paren == std::string_view::npos ||
        close_paren < open_paren) {
      diags->Error(loc, "malformed api declaration");
      ok = false;
      continue;
    }
    ApiSpec spec;
    spec.name = std::string(TrimWhitespace(line.substr(0, open_paren)));
    std::string_view params = line.substr(open_paren + 1, close_paren - open_paren - 1);
    if (!TrimWhitespace(params).empty()) {
      for (const std::string& entry : SplitString(params, ',')) {
        auto parts = SplitString(entry, ':');
        if (parts.size() != 2) {
          diags->Error(loc, "malformed parameter '" + entry + "' (want index:KIND)");
          ok = false;
          continue;
        }
        auto index = ParseInt64(parts[0]);
        auto kind = ParseParamKind(TrimWhitespace(parts[1]));
        if (!index.has_value() || !kind.has_value()) {
          diags->Error(loc, "unknown parameter kind in '" + entry + "'");
          ok = false;
          continue;
        }
        kind->index = static_cast<int>(*index);
        spec.params.push_back(*kind);
      }
    }
    // Trailing tokens: `returns KIND` and boolean flags.
    auto tail = SplitWhitespace(line.substr(close_paren + 1));
    for (size_t i = 0; i < tail.size(); ++i) {
      if (tail[i] == "returns" && i + 1 < tail.size()) {
        auto kind = ParseParamKind(tail[i + 1]);
        if (kind.has_value()) {
          spec.return_semantic = kind->semantic;
          spec.return_time_unit = kind->time_unit;
        }
        ++i;
      } else if (tail[i] == "terminating") {
        spec.is_terminating = true;
      } else if (tail[i] == "unsafe") {
        spec.is_unsafe_transform = true;
      } else if (tail[i] == "cmp_sensitive") {
        spec.is_case_sensitive_cmp = true;
      } else if (tail[i] == "cmp_insensitive") {
        spec.is_case_insensitive_cmp = true;
      } else if (tail[i] == "log") {
        spec.is_logging = true;
      } else if (tail[i] == "errlog") {
        spec.is_logging = true;
        spec.is_error_logging = true;
      } else {
        diags->Error(loc, "unknown api flag '" + tail[i] + "'");
        ok = false;
      }
    }
    Add(std::move(spec));
  }
  return ok;
}

}  // namespace spex
