// spexcheck — fleet-scale configuration checking from the command line.
//
// The first end-user-runnable binary of the reproduction: load a target
// (corpus name or MiniC source + annotations), glob a directory of user
// configs, run one batch check (Target::CheckConfigBatch — unique
// mistakes replay once, verdicts fan out), and report per config as text
// or JSON-lines. With --matrix, the same fleet is checked against every
// listed version of the target (Session::CheckMatrix) and each config's
// transition between adjacent versions is classified — "which upgrade
// breaks whose config". See docs/api.md ("spexcheck CLI reference") for
// flags, exit codes and the JSONL schema.
//
//   spexcheck --target squid configs/                 # every *.conf in configs/
//   spexcheck --target mysql --format jsonl my.cnf
//   spexcheck --source server.c --annotations server.ann --template base.conf my.conf
//   spexcheck --matrix --source v1.c --annotations s.ann \
//             --source v2.c --annotations s.ann configs/  # upgrade report
//   spexcheck --target squid --dump-template > base.conf
//
// Exit codes: 0 = every config clean (--matrix: no regressions), 1 = at
// least one violation or per-config error (--matrix: at least one
// regression), 2 = usage / load error, or NO config could be checked at
// all. A single unreadable or unparseable file inside a directory scan is
// contained as a per-config error record — it never aborts the rest of
// the fleet.
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/api/config_set.h"
#include "src/api/report_json.h"
#include "src/api/session.h"
#include "src/corpus/spec.h"
#include "src/support/verdict_store.h"

namespace spex {
namespace {

namespace fs = std::filesystem;

constexpr const char* kUsage =
    R"(usage: spexcheck --target <name> [options] <config-file-or-dir>...
       spexcheck --source <f> --annotations <f> [--template <f>] [options] <configs>...
       spexcheck --matrix (--target <name> | --source <f> ...)... [options] <configs>...

Check a fleet of configuration files against a target and report, per
file, which inferred constraint each line violates and (in dynamic mode)
what the system will actually do with the setting. With --matrix, check
the fleet against every listed version of the target and classify each
config's transition between adjacent versions — regression, fix,
changed-reaction or stable ("which upgrade breaks whose config").

target selection (each --target or --source starts a version; repeatable
with --matrix, exactly one otherwise):
  --target <name>      corpus target to check against (see --list-targets)
  --source <file>      target from MiniC source instead of the corpus
  --annotations <file> mapping annotations for the preceding --source
  --template <file>    known-good template config for the preceding --source
                       (required for dynamic replay; optional for static)
  --dialect <d>        config dialect for the preceding --source:
                       key=value | key-value (default: key=value)
  --label <name>       report label for the preceding version

options:
  --matrix             version-matrix mode: check the fleet against every
                       listed version, diff adjacent columns (text: grid +
                       transitions; jsonl: cell/version/diff records)
  --mode <m>           static | dynamic (default: dynamic)
  --threads <n>        batch shards: 1 = serial, 0 = hardware (default: 0)
  --format <f>         text | jsonl (default: text)
  --pattern <glob>     filename filter for directories, * and ? wildcards
                       (default: *.conf)
  --include-roots <dir> multi-file mode (repeatable): every file matching
                       --pattern directly in <dir> is the root of a config
                       *set* — its include/include_dir directives are
                       resolved (relative to the including file), later
                       assignments override earlier ones, and the flattened
                       effective config is checked. Violations point at the
                       winning assignment's file:line; missing includes and
                       include cycles are contained per set as config_set
                       error records (exit 1). Exit 2 only when no set
                       could be resolved at all. Not available with --matrix.
  --store <path>       persistent verdict store: known verdicts are served
                       from disk instead of replayed, fresh ones appended —
                       a re-check of an unchanged fleet replays nothing
                       (--matrix: each version gets its own scope, so a
                       version bump re-checks only the bumped column)
  --dump-template      print the target's known-good template config and exit
  --list-targets       print available corpus target names and exit
  --help               this message

exit codes: 0 = all configs clean (--matrix: no regressions),
            1 = violations or per-config errors (--matrix: a regression),
            2 = usage/load error or no config checked
)";

// Minimal * / ? glob over filenames (no character classes, no path
// separators) — enough for `--pattern '*.conf'` without regex machinery.
// Iterative two-pointer match: on mismatch, retry from the last '*' with
// one more character consumed — O(pattern * text), so a hostile
// many-star pattern cannot pin the CPU the way naive backtracking would.
bool GlobMatch(const std::string& pattern, const std::string& text) {
  size_t p = 0;
  size_t t = 0;
  size_t star = std::string::npos;   // Position of the last '*' seen.
  size_t star_t = 0;                 // Text position that star is matching from.
  while (t < text.size()) {
    if (p < pattern.size() && (pattern[p] == '?' || pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      star_t = t;
    } else if (star != std::string::npos) {
      p = star + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') {
    ++p;
  }
  return p == pattern.size();
}

// One version of the target as named on the command line — file paths,
// not contents; BuildVersions reads them.
struct VersionArg {
  std::string label;
  std::string corpus;
  std::string source_path;
  std::string annotations_path;
  std::string template_path;
  ConfigDialect dialect = ConfigDialect::kKeyEqualsValue;
};

struct CliOptions {
  bool matrix = false;
  std::vector<VersionArg> versions;
  CheckMode mode = CheckMode::kDynamic;
  int threads = 0;
  bool jsonl = false;
  std::string pattern = "*.conf";
  std::vector<std::string> include_roots;
  std::string store_path;
  bool dump_template = false;
  bool list_targets = false;
  std::vector<std::string> paths;
};

// A config that could not be checked at all — unreadable on disk, or
// rejected by the batch layer's admission validation. Reported alongside
// the real reports so one bad file never hides the rest of the fleet.
struct ConfigError {
  std::string name;
  std::string message;
};

// A report format: the batch stream, the matrix stream, and the records
// neither check produces — unreadable files and include-tree resolutions.
class ReportWriter : public BatchObserver, public MatrixObserver {
 public:
  virtual void OnConfigError(const ConfigError& error) = 0;
  virtual void OnConfigSet(const ResolvedConfigSet& set) = 0;

  void OnVersionLoaded(const LoadedVersion& version) override {
    if (!version.status.ok()) {
      std::cerr << "spexcheck: version '" << version.label
                << "' failed to load: " << version.status.message() << "\n";
    }
  }
};

// One JSON line per config as its report streams in, plus a summary line —
// the format a fleet pipeline tails. The matrix stream is typed records:
// "cell", "version", "diff" and one "matrix_summary".
class JsonlWriter : public ReportWriter {
 public:
  explicit JsonlWriter(bool matrix) : matrix_(matrix) {}

  void OnConfigError(const ConfigError& error) override {
    Print(AppendConfigErrorJson, error.name, error.message, /*typed=*/matrix_);
  }
  void OnConfigSet(const ResolvedConfigSet& set) override { Print(AppendConfigSetJson, set); }
  void OnConfigChecked(size_t index, const ConfigReport& report) override {
    Print(AppendConfigReportJson, index, report);
  }
  void OnBatchEnd(const BatchSummary& summary) override { Print(AppendBatchSummaryJson, summary); }
  void OnCellChecked(size_t version, const std::string& version_label,
                     const ConfigReport& report) override {
    Print(AppendMatrixCellJson, version, version_label, report);
  }
  void OnVersionChecked(const VersionReport& column) override { Print(AppendVersionJson, column); }
  void OnTransition(const ConfigTransition& transition) override {
    Print(AppendTransitionJson, transition);
  }
  void OnMatrixEnd(const MatrixSummary& summary) override {
    Print(AppendMatrixSummaryJson, summary);
  }

 private:
  // Prints one record built by an encoder from src/api/report_json.h.
  template <typename Encode, typename... Args>
  static void Print(Encode encode, const Args&... args) {
    std::string line;
    encode(&line, args...);
    line += '\n';
    std::cout << line;
  }

  const bool matrix_;
};

// Human-readable report: a line per config plus its violations. In matrix
// mode, per-version lines and non-stable transitions, then the config ×
// version grid. Per-cell violation detail is the jsonl format's job — a
// text grid that printed every violation would bury the upgrade story.
class TextWriter : public ReportWriter {
 public:
  void OnConfigError(const ConfigError& error) override {
    std::cout << error.name << ": ERROR " << error.message << "\n";
  }

  void OnConfigSet(const ResolvedConfigSet& set) override {
    for (const ConfigSetError& error : set.errors) {
      std::cout << set.name << ": include error: " << error.ToString() << "\n";
    }
  }

  void OnConfigChecked(size_t, const ConfigReport& report) override {
    if (!report.status.ok()) {
      std::cout << report.name << ": ERROR " << report.status.message() << "\n";
      return;
    }
    if (report.violations.empty()) {
      std::cout << report.name << ": OK\n";
      return;
    }
    std::cout << report.name << ": " << report.violations.size() << " violation"
              << (report.violations.size() == 1 ? "" : "s") << "\n";
    for (const Violation& violation : report.violations) {
      std::cout << "  " << violation.ToString() << "\n";
    }
  }

  void OnBatchEnd(const BatchSummary& summary) override {
    std::cout << "checked " << summary.configs_checked << " config(s): "
              << summary.configs_with_violations << " with violations, "
              << summary.total_violations << " violation(s) total";
    if (summary.configs_with_errors != 0) {
      std::cout << "; " << summary.configs_with_errors << " with errors";
    }
    if (summary.total_suspects != 0) {
      std::cout << "; " << summary.total_suspects << " suspect setting(s), "
                << summary.unique_replays << " unique replay(s) (dedup "
                << static_cast<int>(summary.DedupRatio() * 100.0) << "%)";
    }
    if (summary.store_hits != 0 || summary.store_appends != 0) {
      std::cout << "; verdict store: " << summary.store_hits << " hit(s), "
                << summary.store_appends << " appended";
    }
    std::cout << "\n";
  }

  void OnMatrixBegin(size_t versions, size_t configs) override {
    std::cout << "matrix: " << versions << " version(s) x " << configs
              << " config(s)\n";
  }

  void OnVersionChecked(const VersionReport& column) override {
    if (!column.status.ok()) {
      return;
    }
    std::cout << "version " << column.label << ": "
              << column.batch.configs_with_violations << "/"
              << column.batch.configs_checked << " config(s) with violations, "
              << column.batch.total_violations << " violation(s)";
    if (column.batch.total_suspects != 0) {
      std::cout << "; " << column.batch.unique_replays << " unique replay(s)";
      if (column.batch.store_hits != 0) {
        std::cout << ", " << column.batch.store_hits << " store hit(s)";
      }
    }
    std::cout << "\n";
  }

  void OnTransition(const ConfigTransition& transition) override {
    if (transition.transition == Transition::kStable) {
      return;
    }
    std::cout << "  " << transition.from_label << " -> " << transition.to_label
              << "  " << transition.config << ": "
              << TransitionName(transition.transition);
    if (!transition.detail.empty()) {
      std::cout << "  " << transition.detail;
    }
    std::cout << "\n";
  }

  void OnMatrixEnd(const MatrixSummary& summary) override {
    // Grid of violation counts, checked columns only.
    size_t name_width = std::strlen("config");
    for (const ConfigRollup& rollup : summary.per_config) {
      name_width = std::max(name_width, rollup.name.size());
    }
    std::cout << "\n" << std::left << std::setw(static_cast<int>(name_width))
              << "config" << std::right;
    for (const VersionReport& column : summary.columns) {
      if (column.status.ok()) {
        std::cout << "  " << std::setw(ColumnWidth(column)) << column.label;
      }
    }
    std::cout << "  trend\n";
    for (const ConfigRollup& rollup : summary.per_config) {
      std::cout << std::left << std::setw(static_cast<int>(name_width)) << rollup.name
                << std::right;
      for (const VersionReport& column : summary.columns) {
        if (!column.status.ok()) {
          continue;
        }
        std::cout << "  " << std::setw(ColumnWidth(column));
        if (rollup.index < column.batch.reports.size()) {
          std::cout << column.batch.reports[rollup.index].violations.size();
        } else {
          std::cout << "-";
        }
      }
      std::cout << "  " << Trend(rollup) << "\n";
    }
    std::cout << "matrix: " << summary.versions_checked << " version(s) checked, "
              << summary.cells << " cell(s), "
              << summary.transitions_by_kind[static_cast<size_t>(Transition::kRegression)]
              << " regression(s), "
              << summary.transitions_by_kind[static_cast<size_t>(Transition::kFix)]
              << " fix(es), "
              << summary.transitions_by_kind[static_cast<size_t>(
                     Transition::kChangedReaction)]
              << " changed reaction(s)\n";
  }

 private:
  static int ColumnWidth(const VersionReport& column) {
    return static_cast<int>(std::max<size_t>(column.label.size(), 3));
  }

  static const char* Trend(const ConfigRollup& rollup) {
    if (rollup.regressions != 0) return "REGRESSED";
    if (rollup.changed_reactions != 0) return "changed";
    if (rollup.fixes != 0) return "fixed";
    return "";
  }
};

int Fail(const std::string& message) {
  std::cerr << "spexcheck: " << message << "\n";
  return 2;
}

bool ParseArgs(int argc, char** argv, CliOptions* options, std::string* error) {
  // Flags that take the next argument as their value.
  static const std::set<std::string> kValueFlags = {
      "--target", "--source",  "--annotations", "--template", "--dialect",       "--label",
      "--mode",   "--threads", "--format",      "--pattern",  "--include-roots", "--store"};
  // Binds a per-version flag to the version it follows.
  auto last_source = [&](const char* flag) -> VersionArg* {
    if (options->versions.empty() || options->versions.back().corpus.empty() == false) {
      *error = std::string(flag) + " must follow a --source version";
      return nullptr;
    }
    return &options->versions.back();
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    const char* value = nullptr;
    if (kValueFlags.count(arg) != 0) {
      if (i + 1 >= argc) {
        *error = arg + " requires an argument";
        return false;
      }
      value = argv[++i];
    }
    if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      std::exit(0);
    } else if (arg == "--matrix") {
      options->matrix = true;
    } else if (arg == "--target") {
      options->versions.emplace_back().corpus = value;
    } else if (arg == "--source") {
      options->versions.emplace_back().source_path = value;
    } else if (arg == "--annotations") {
      VersionArg* version = last_source("--annotations");
      if (version == nullptr) return false;
      version->annotations_path = value;
    } else if (arg == "--template") {
      VersionArg* version = last_source("--template");
      if (version == nullptr) return false;
      version->template_path = value;
    } else if (arg == "--dialect") {
      VersionArg* version = last_source("--dialect");
      if (version == nullptr) return false;
      std::optional<ConfigDialect> dialect = ParseConfigDialectName(value);
      if (!dialect.has_value()) {
        *error = "unknown dialect '" + std::string(value) +
                 "' (supported dialects: " + SupportedConfigDialectNames() + ")";
        return false;
      }
      version->dialect = *dialect;
    } else if (arg == "--label") {
      if (options->versions.empty()) {
        *error = "--label must follow a --target or --source version";
        return false;
      }
      options->versions.back().label = value;
    } else if (arg == "--mode") {
      if (std::strcmp(value, "static") == 0) {
        options->mode = CheckMode::kStatic;
      } else if (std::strcmp(value, "dynamic") == 0) {
        options->mode = CheckMode::kDynamic;
      } else {
        *error = "unknown --mode (want static|dynamic): " + std::string(value);
        return false;
      }
    } else if (arg == "--threads") {
      char* end = nullptr;
      long threads = std::strtol(value, &end, 10);
      if (end == value || *end != '\0' || threads < 0) {
        *error = "--threads wants a non-negative integer, got: " + std::string(value);
        return false;
      }
      options->threads = static_cast<int>(threads);
    } else if (arg == "--format") {
      if (std::strcmp(value, "text") == 0) {
        options->jsonl = false;
      } else if (std::strcmp(value, "jsonl") == 0) {
        options->jsonl = true;
      } else {
        *error = "unknown --format (want text|jsonl): " + std::string(value);
        return false;
      }
    } else if (arg == "--pattern") {
      options->pattern = value;
    } else if (arg == "--include-roots") {
      options->include_roots.push_back(value);
    } else if (arg == "--store") {
      options->store_path = value;
    } else if (arg == "--dump-template") {
      options->dump_template = true;
    } else if (arg == "--list-targets") {
      options->list_targets = true;
    } else if (!arg.empty() && arg[0] == '-') {
      *error = "unknown flag: " + arg;
      return false;
    } else {
      options->paths.push_back(std::move(arg));
    }
  }
  return true;
}

// The regular files directly in `dir` whose names match `pattern`, sorted
// by name so report order (and the JSONL stream) is stable across
// filesystems; nullopt (and `*error`) when the directory cannot be read.
// Non-throwing: a file vanishing mid-scan (or turning stat-inaccessible)
// is an error, not std::terminate.
std::optional<std::vector<std::string>> ListMatching(const std::string& dir,
                                                     const std::string& pattern,
                                                     std::string* error) {
  std::vector<std::string> names;
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  for (; !ec && it != fs::directory_iterator(); it.increment(ec)) {
    std::error_code entry_ec;
    if (it->is_regular_file(entry_ec) && GlobMatch(pattern, it->path().filename())) {
      names.push_back(it->path().generic_string());
    }
  }
  if (ec) {
    *error = "cannot read directory " + dir + ": " + ec.message();
    return std::nullopt;
  }
  std::sort(names.begin(), names.end());
  return names;
}

// Reads one file whole; nullopt when it cannot be opened or (`*mid_file`
// set) fails mid-read.
std::optional<std::string> ReadWholeFile(const std::string& path, bool* mid_file) {
  std::ifstream stream(path, std::ios::binary);
  if (!stream) {
    return std::nullopt;
  }
  std::ostringstream content;
  content << stream.rdbuf();
  *mid_file = stream.bad();
  return *mid_file ? std::nullopt : std::optional<std::string>(content.str());
}

// A config reachable twice — a directory listed twice, a symlinked
// sibling of itself, a file repeated on the command line — is checked
// and counted once: dedup by canonical path, first mention wins (so
// report order still follows the command line).
std::vector<std::string> UniqueByCanonicalPath(std::vector<std::string> files) {
  std::set<std::string> seen;
  std::erase_if(files, [&](const std::string& file) {
    std::error_code ec;
    fs::path canonical = fs::weakly_canonical(file, ec);
    return !seen.insert(ec ? file : canonical.string()).second;
  });
  return files;
}

// Expands files and directories into the config list. Directory scans are
// non-recursive and filtered by --pattern.
//
// Containment boundary: a file that cannot be READ (vanished mid-scan,
// permission denied) becomes a per-config error record in `errors` and
// the rest of the fleet is still checked. Only structural problems with
// the invocation itself — a path that does not exist, an unlistable
// directory, a glob matching nothing — fail the whole run.
bool CollectConfigs(const CliOptions& options, std::vector<ConfigInput>* configs,
                    std::vector<ConfigError>* errors, std::string* error) {
  std::vector<std::string> files;
  for (const std::string& path : options.paths) {
    std::error_code ec;
    if (fs::is_directory(path, ec)) {
      std::optional<std::vector<std::string>> in_dir = ListMatching(path, options.pattern, error);
      if (!in_dir.has_value()) {
        return false;
      }
      if (in_dir->empty()) {
        *error = "no files matching '" + options.pattern + "' in " + path;
        return false;
      }
      files.insert(files.end(), in_dir->begin(), in_dir->end());
    } else if (fs::is_regular_file(path, ec)) {
      files.push_back(path);
    } else {
      *error = "no such file or directory: " + path;
      return false;
    }
  }
  for (const std::string& file : UniqueByCanonicalPath(std::move(files))) {
    bool mid_file = false;
    std::optional<std::string> text = ReadWholeFile(file, &mid_file);
    if (!text.has_value()) {
      errors->push_back(ConfigError{file, mid_file ? "read failed mid-file" : "cannot read file"});
      continue;
    }
    configs->push_back(ConfigInput{file, std::move(*text)});
  }
  return true;
}

// Filesystem loader behind --include-roots. Load never throws: an
// unreadable file is a missing include (contained per set). include_dir
// applies the same --pattern filter as root collection, so an include
// tree and a flat directory scan agree about what counts as a config.
class FileConfigSetSource : public ConfigSetSource {
 public:
  explicit FileConfigSetSource(std::string pattern) : pattern_(std::move(pattern)) {}

  std::optional<std::string> Load(const std::string& name) override {
    bool mid_file = false;
    return ReadWholeFile(name, &mid_file);
  }

  std::optional<std::vector<std::string>> ListDir(const std::string& dir) override {
    std::string error;
    return ListMatching(dir, pattern_, &error);
  }

 private:
  std::string pattern_;
};

// Expands --include-roots directories into root file paths (every
// --pattern match directly in each directory, deduped like
// CollectConfigs). Structural problems — a root dir that is not a
// directory, zero matches overall — fail the run (exit 2).
bool CollectConfigSetRoots(const CliOptions& options, std::vector<std::string>* roots,
                           std::string* error) {
  std::vector<std::string> files;
  for (const std::string& dir : options.include_roots) {
    std::error_code ec;
    if (!fs::is_directory(dir, ec)) {
      *error = "--include-roots: not a directory: " + dir;
      return false;
    }
    std::optional<std::vector<std::string>> in_dir = ListMatching(dir, options.pattern, error);
    if (!in_dir.has_value()) {
      return false;
    }
    files.insert(files.end(), in_dir->begin(), in_dir->end());
  }
  *roots = UniqueByCanonicalPath(std::move(files));
  if (roots->empty()) {
    *error = "no files matching '" + options.pattern + "' in any --include-roots directory";
    return false;
  }
  return true;
}

// Reads one target-definition file whole. Unlike fleet configs, these are
// structural inputs: a missing annotations file fails the run (exit 2).
bool ReadFile(const std::string& path, std::string* out, std::string* error) {
  bool mid_file = false;
  std::optional<std::string> text = ReadWholeFile(path, &mid_file);
  if (!text.has_value()) {
    *error = mid_file ? "read failed mid-file: " + path : "cannot read " + path;
    return false;
  }
  *out = std::move(*text);
  return true;
}

// Turns command-line version args into loadable TargetVersion specs:
// corpus names pass through; source versions read their files here so a
// missing file is a clean exit 2 before any analysis runs.
bool BuildVersions(const CliOptions& options, std::vector<TargetVersion>* versions,
                   std::string* error) {
  for (const VersionArg& arg : options.versions) {
    TargetVersion version;
    version.label = arg.label;
    if (!arg.corpus.empty()) {
      if (LookupTarget(arg.corpus) == nullptr) {
        *error = "unknown target '" + arg.corpus + "' (try --list-targets)";
        return false;
      }
      version.corpus = arg.corpus;
    } else {
      if (arg.annotations_path.empty()) {
        *error = "--source " + arg.source_path + " needs --annotations";
        return false;
      }
      if (!ReadFile(arg.source_path, &version.source, error) ||
          !ReadFile(arg.annotations_path, &version.annotations, error)) {
        return false;
      }
      if (!arg.template_path.empty() &&
          !ReadFile(arg.template_path, &version.template_config, error)) {
        return false;
      }
      version.file_name = fs::path(arg.source_path).filename().string();
      version.dialect = arg.dialect;
      if (version.label.empty()) {
        version.label = fs::path(arg.source_path).stem().string();
      }
    }
    versions->push_back(std::move(version));
  }
  return true;
}

int Run(int argc, char** argv) {
  CliOptions options;
  std::string error;
  if (!ParseArgs(argc, argv, &options, &error)) {
    std::cerr << "spexcheck: " << error << "\n" << kUsage;
    return 2;
  }
  if (options.list_targets) {
    for (const TargetSpec& spec : EvaluatedTargets()) {
      std::cout << spec.name << "\t" << spec.display_name << "\n";
    }
    return 0;
  }
  if (options.versions.empty()) {
    std::cerr << "spexcheck: --target or --source is required\n" << kUsage;
    return 2;
  }
  if (!options.matrix && options.versions.size() > 1) {
    std::cerr << "spexcheck: multiple versions need --matrix\n" << kUsage;
    return 2;
  }
  if (!options.include_roots.empty()) {
    if (options.matrix) {
      return Fail("--include-roots is not supported with --matrix");
    }
    if (!options.paths.empty()) {
      return Fail("--include-roots and positional config paths are mutually exclusive");
    }
  }

  std::vector<TargetVersion> versions;
  if (!BuildVersions(options, &versions, &error)) {
    return Fail(error);
  }

  // Open never hard-fails: a corrupt/locked/unwritable store degrades to
  // read-only or empty (warn so the operator knows re-checks stay cold).
  std::shared_ptr<VerdictStore> store;
  if (!options.store_path.empty()) {
    Status store_status;
    store = VerdictStore::Open(options.store_path, {}, &store_status);
    if (!store_status.ok()) {
      std::cerr << "spexcheck: verdict store '" << options.store_path
                << "' degraded: " << store_status.message() << "\n";
    }
  }

  Session session;
  JsonlWriter jsonl(options.matrix);
  TextWriter text;
  ReportWriter& writer = options.jsonl ? static_cast<ReportWriter&>(jsonl) : text;
  BatchOptions batch;
  batch.check.mode = options.mode;
  batch.num_threads = options.threads;

  Target* target = nullptr;
  if (!options.matrix) {
    const TargetVersion& spec = versions.front();
    target = !spec.corpus.empty()
                 ? session.LoadTarget(spec.corpus)
                 : session.LoadSource(spec.source, spec.annotations, spec.file_name,
                                      spec.dialect, spec.sut, spec.template_config);
    if (target == nullptr) {
      return Fail("loading target failed:\n" + session.RenderDiagnostics());
    }
    if (store != nullptr) {
      target->AttachVerdictStore(store);
    }
    if (options.dump_template) {
      std::cout << target->analysis().bundle.template_config;
      return 0;
    }

    if (!options.include_roots.empty()) {
      // Multi-file mode: each root file in the include-roots directories
      // is an include tree, resolved against the filesystem and checked
      // as one flattened effective config.
      std::vector<std::string> roots;
      if (!CollectConfigSetRoots(options, &roots, &error)) {
        return Fail(error);
      }
      FileConfigSetSource source(options.pattern);
      std::vector<ResolvedConfigSet> sets;
      sets.reserve(roots.size());
      size_t resolvable = 0;
      bool any_set_error = false;
      for (const std::string& root : roots) {
        ResolvedConfigSet set = ResolveConfigSet(root, source, target->dialect());
        resolvable += set.resolved() ? 1 : 0;
        any_set_error = any_set_error || !set.errors.empty();
        sets.push_back(std::move(set));
      }
      if (resolvable == 0) {
        // The multi-file twin of "no config could be checked": exit 2 is
        // reserved for a run that produced no verdicts at all.
        return Fail("no config set could be resolved (" + std::to_string(sets.size()) +
                    " unresolvable root(s))");
      }
      BatchSummary summary = target->CheckResolvedConfigSets(sets, batch, nullptr);
      for (size_t i = 0; i < summary.reports.size(); ++i) {
        writer.OnConfigSet(sets[i]);
        writer.OnConfigChecked(i, summary.reports[i]);
      }
      writer.OnBatchEnd(summary);
      bool any_error = any_set_error || summary.configs_with_errors != 0;
      return summary.total_violations == 0 && !any_error ? 0 : 1;
    }
  } else if (options.dump_template) {
    return Fail("--dump-template takes a single version, not --matrix");
  }

  if (options.paths.empty()) {
    std::cerr << "spexcheck: no config files or directories given\n" << kUsage;
    return 2;
  }
  std::vector<ConfigInput> configs;
  std::vector<ConfigError> read_errors;
  if (!CollectConfigs(options, &configs, &read_errors, &error)) {
    return Fail(error);
  }
  for (const ConfigError& record : read_errors) {
    std::cerr << "spexcheck: " << record.name << ": " << record.message << "\n";
    writer.OnConfigError(record);
  }
  if (configs.empty()) {
    // Exit 2 is reserved for "nothing was checked at all" — if even one
    // config made it through, the run reports what it found instead.
    return Fail("no config could be checked (" + std::to_string(read_errors.size()) +
                " unreadable)");
  }

  if (!options.matrix) {
    BatchSummary summary = target->CheckConfigBatch(configs, batch, &writer);
    bool any_error = !read_errors.empty() || summary.configs_with_errors != 0;
    return summary.total_violations == 0 && !any_error ? 0 : 1;
  }

  // --matrix: the fleet against every version, columns diffed pairwise.
  MatrixOptions matrix_options;
  matrix_options.check = batch.check;
  matrix_options.num_threads = batch.num_threads;
  matrix_options.store = store;
  MatrixSummary summary = session.CheckMatrix(versions, configs, matrix_options, &writer);
  if (summary.versions_checked != summary.versions_requested) {
    return Fail(std::to_string(summary.versions_requested - summary.versions_checked) +
                " version(s) failed to load");
  }
  // The matrix verdict is the upgrade story: only a regression — a config
  // some version-step breaks — is a failure. A fleet that is equally
  // broken everywhere is stable, and stable is exit 0.
  return summary.AnyRegression() ? 1 : 0;
}

}  // namespace
}  // namespace spex

int main(int argc, char** argv) { return spex::Run(argc, argv); }
