// User-facing configuration checker: validate a concrete config file
// against inferred constraints *before* it reaches the target system.
//
// This is the paper's end goal ("do not blame users"): SPEX infers the
// constraints from source code, and a vendor-embedded checker flags the
// violating line of the user's config file with an explanation — instead
// of letting the system crash, exit, or silently misbehave at runtime.
// Five violation categories are checked statically, mirroring the
// constraint taxonomy of Section 2.1: basic type, data range, unit scale,
// case sensitivity, and control dependency (plus value relationships and
// unknown-parameter typo detection, which fall out of the same data).
//
// On top of the static pass, Target::CheckConfig has a *dynamic* mode
// (CheckMode::kDynamic): the settings that deviate from the target's
// template are replayed through the interpreter + simulated OS from the
// injection campaign's snapshot cache, and each Violation additionally
// carries the observed Table-3 reaction — what the system will actually do
// with the bad setting — plus the log evidence of the replay. The dynamic
// machinery lives in src/api/dynamic_check.h; this header only defines the
// mode/option types and the verdict-carrying fields of Violation.
//
// Static checking is a pure read over ModuleConstraints: any number of
// threads may check configs against the same constraints concurrently (the
// spex::Session TSan smoke test does exactly that).
#ifndef SPEX_API_CONFIG_CHECKER_H_
#define SPEX_API_CONFIG_CHECKER_H_

#include <chrono>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/confgen/config_file.h"
#include "src/core/constraints.h"
#include "src/inject/reaction.h"
#include "src/support/cancellation.h"

namespace spex {

enum class ViolationCategory {
  kBasicType,        // Value does not parse as the parameter's basic type.
  kRange,            // Value outside the accepted numeric/enumerated range.
  kUnit,             // Unit-suffixed value for a plain-number parameter, or
                     // a suffix in the wrong scale (ms where seconds expected).
  kCase,             // Differs only in case from an accepted value of a
                     // case-sensitive parameter.
  kControlDep,       // Dependent parameter set while its master disables it.
  kValueRel,         // Violates an inferred cross-parameter relationship.
  kUnknownParam,     // Key matches no inferred parameter (likely a typo).
  kDynamicReaction,  // Passed every static constraint, but the dynamic
                     // replay observed a Table-3 vulnerability reaction.
  kPermission,       // Octal-mode/ACL parameter outside its permission
                     // policy: grants bits the code treats as dangerous
                     // (too permissive) or drops bits the system needs to
                     // function (too restrictive), or is not a mode at all.
};

inline constexpr size_t kViolationCategoryCount = 9;
static_assert(kViolationCategoryCount ==
                  static_cast<size_t>(ViolationCategory::kPermission) + 1,
              "keep kViolationCategoryCount in sync with the enum — arrays "
              "indexed by static_cast<size_t>(category) are sized by it");

const char* ViolationCategoryName(ViolationCategory category);

// How Target::CheckConfig examines a config file.
enum class CheckMode {
  // Constraint checks only (the default): pure read, no execution.
  kStatic,
  // Static checks *plus* a replay of the user's template-delta through the
  // interpreter: every Violation gains the observed ReactionCategory, and
  // vulnerabilities the static pass cannot see (silent clamps, late
  // failures) are reported as kDynamicReaction violations.
  kDynamic,
};

// Options for Target::CheckConfig. Value type, freely copyable; one
// options struct may serve any number of concurrent checks.
struct CheckOptions {
  CheckMode mode = CheckMode::kStatic;
  // Dynamic mode only: replay from the campaign's persistent snapshot
  // cache (default) or force a ground-truth full replay per suspect.
  // Verdicts are bit-identical either way — the flag exists so tests and
  // embedders can prove exactly that.
  bool use_parse_snapshot = true;
  // Dynamic mode only: per-suspect replay budget (0 = unlimited). A replay
  // that exceeds it is cut off at the interpreter's next cancellation poll
  // and reported with ReactionCategory::kDeadlineExceeded — a verdict about
  // the *check's* time budget, never conflated with the target hanging.
  // The budget restarts per suspect, so one pathological setting cannot
  // starve the verdicts of its file-mates.
  std::chrono::nanoseconds deadline{0};
  // Borrowed request-wide kill switch (may be null; must outlive the
  // check). Firing it — from any thread, at any time — converts every
  // replay not yet finished to kDeadlineExceeded; static results produced
  // so far are returned as-is. This is how a serving layer detaches a
  // check whose client has gone away.
  const CancelToken* cancel = nullptr;
};

// One file/line-addressable finding against a user's config file.
struct Violation {
  ViolationCategory category = ViolationCategory::kBasicType;
  std::string param;   // The offending key (primary parameter).
  std::string value;   // The value as written by the user.
  std::string file;    // Config file name as passed to the checker.
  uint32_t line = 0;   // 1-based line of the offending setting.
  std::string message; // Human-facing explanation with the expected form.
  SourceLoc constraint_loc;  // Where in the target's source the constraint
                             // was inferred (for "fix the code" reports).
  // Multi-file checks only (src/api/config_set.h): the assignments this
  // setting's effective value overrode ("overridden at base.conf:5 ...")
  // and, for cross-parameter findings, the file the peer parameter
  // resolved from. Empty for single-file checks — the field is additive,
  // so a flattened-set violation stays bit-identical to its single-file
  // twin in every other field.
  std::string override_note;

  // --- Dynamic-mode verdict (nullopt/empty after a static-only check).
  // The Table-3 reaction observed when the user's delta was replayed
  // through the interpreter; IsVulnerability(*reaction) says whether the
  // system mishandles the setting.
  std::optional<ReactionCategory> reaction;
  // Replay observable behind the verdict: trap reason, failing test, or
  // the effective value the system silently substituted.
  std::string reaction_detail;
  // Log lines the system emitted during the replay (pinpointing evidence,
  // or the absence that makes a reaction "silent").
  std::vector<std::string> evidence_logs;
  // One-sentence "what the system will do with this setting" message.
  std::string prediction;

  // "server.conf:12: [range] worker_threads = 99: <message>"; dynamic
  // verdicts append " | observed: <reaction> — <prediction>".
  std::string ToString() const;
};

// Checks every setting of `config` against `constraints` — the static
// pass. Violations are reported in file order (then per-key category
// order), so output is deterministic and diffable.
std::vector<Violation> CheckConfigFile(const ModuleConstraints& constraints,
                                       const ConfigFile& config, std::string_view file_name);

// Numeric meaning of a config value: a strict integer, or a boolean word
// ("on"/"off"/"yes"/"no"...) as 1/0, else nullopt. Shared by the static
// cross-parameter checks and the dynamic suspect builder (a replayed "off"
// must carry intent 0, or a well-behaved boolean parser would be
// misreported as silently accepting garbage).
std::optional<int64_t> EffectiveConfigInt(std::string_view value);

// A value of the form `<integer><unit-suffix>` ("500ms", "9G", "2 min").
// Parsers built on atoi silently drop the suffix, so these are exactly the
// inputs where a pre-flight unit check — and a dynamic replay with the
// right numeric intent — saves the user. The bare "m" suffix is ambiguous
// (minutes or megabytes): both fields are set and the consumer picks the
// interpretation matching the parameter's inferred unit kind.
struct SuffixedConfigValue {
  int64_t magnitude = 0;
  TimeUnit time_unit = TimeUnit::kNone;
  SizeUnit size_unit = SizeUnit::kNone;
};

// nullopt for plain numbers, plain text, and unknown suffixes.
std::optional<SuffixedConfigValue> ParseSuffixedConfigValue(std::string_view text);

// A Unix permission mode as users write them: octal digits, optional
// leading zeros ("644", "0644", "02755"), at most the 12 mode bits
// (07777). nullopt for anything else — including decimal-looking values
// with digits 8/9, which an octal-expecting parser would reject or,
// worse, strtol-with-base-8 would silently truncate.
std::optional<uint32_t> ParseOctalMode(std::string_view text);

}  // namespace spex

#endif  // SPEX_API_CONFIG_CHECKER_H_
