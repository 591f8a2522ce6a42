// Corpus target specifications.
//
// Each of the paper's seven evaluated systems is modeled as a TargetSpec: a
// list of parameter archetypes (each combining a type, a planted constraint,
// a planted reaction to violations, and documentation/parsing knobs) plus
// target-level conventions (mapping style per Table 1, config dialect,
// parser strictness). The synthesizer turns a spec into MiniC source,
// annotations, a template config, a manual, a test suite and ground truth.
//
// Counts are calibrated at roughly quarter scale of the paper's systems
// (documented in EXPERIMENTS.md); the *shape* — which systems crash, where
// silent violations dominate, who has unsafe parsers — follows Table 5–12.
#ifndef SPEX_CORPUS_SPEC_H_
#define SPEX_CORPUS_SPEC_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/confgen/config_file.h"

namespace spex {

// How the target reacts when a planted resource/validity check fails.
enum class FailMode {
  kSilentSkip,     // Feature silently disabled -> functional failure.
  kExitNoMsg,      // exit(1) with no message -> early termination.
  kExitMisleading, // exit(1) with a message that names no parameter.
  kExitPinpoint,   // log_error naming the parameter, then reject -> good.
  kLogContinue,    // log_warn naming the parameter, keep going -> good.
};

enum class Archetype {
  kPlainInt,            // Unconstrained int; silent wraps on bad input.
  kPlainString,         // Unconstrained string.
  kStrictInt,           // Custom parse with parse_int_strict + pinpointing.
  kAdHocInt,            // Custom parse with atoi regardless of the target's
                        // table discipline: the unsafe-API / silent pool.
  kRangeTable,          // Range declared in the mapping table; parser enforces.
  kRangeCheckPinpoint,  // Code range check, pinpointing rejection.
  kRangeCheckExit,      // Code range check, exit without message.
  kRangeClampSilent,    // Code range check, silent clamp (silent overruling).
  kDivisorInt,          // Used as divisor: 0 crashes.
  kCrashArrayCount,     // Fills a fixed-size array: big values segfault.
  kHangLoop,            // Count-down loop: negative/huge values hang.
  kPort,                // bind(); `fail` decides the reaction.
  kFile,                // open(); `fail` decides.
  kDir,                 // chdir(); `fail` decides.
  kUser,                // getpwnam(); `fail` decides.
  kHost,                // gethostbyname(); `fail` decides.
  kTimeSec,             // sleep(value) on the request path (huge -> hang).
  kTimeSecChecked,      // sleep with a pinpointing range check.
  kTimeUsec,            // usleep(value).
  kTimeUsecChecked,     // usleep with a pinpointing range check.
  kTimeMsec,            // poll_wait(value).
  kTimeMsecChecked,     // poll_wait with a pinpointing range check.
  kTimeMinScaled,       // sleep(value * 60): minutes parameter.
  kTimeMinChecked,      // Checked minutes parameter.
  kSizeBytes,           // alloc_buffer(value); `fail` decides (kSilentSkip -> crash-on-null).
  kSizeKbScaled,        // alloc_buffer(value * 1024): kilobytes parameter.
  kBoolSilent,          // on/off via strcasecmp; anything else silently off.
  kBoolReject,          // on/off via strcasecmp; anything else pinpointed+rejected.
  kEnumSensitive,       // strcmp value set; miss silently defaults.
  kEnumInsensitive,     // strcasecmp value set; miss pinpointed+rejected.
  kDependent,           // Only used when `master` (a bool param) is on.
  kRelPair,             // This (min) must stay below `peer` (max), checked on
                        // the request path only -> functional failure.
  kRelPairChecked,      // Same, but init rejects with a pinpointing message.
  kAliasPair,           // Reused-pointer clamp: the check really guards `peer`;
                        // inference misattributes it to this parameter too.
};

struct ParamSpec {
  std::string key;         // Configuration name ("listener-threads").
  std::string var;         // Variable name in source ("listener_threads").
  Archetype archetype = Archetype::kPlainInt;
  int count = 1;           // Multiplicity: expands to key_0, key_1, ...

  int64_t def_int = 8;     // Default value (template config + initializer).
  std::string def_str;     // Default for string parameters.
  int64_t min = 0;         // Range archetypes.
  int64_t max = 0;
  int64_t cap = 16;        // kCrashArrayCount array size.
  FailMode fail = FailMode::kSilentSkip;
  std::vector<std::string> enum_values;  // kEnum*/kBool* accepted values.
  std::string master;      // kDependent: controlling parameter key.
  std::string peer;        // kRelPair/kAliasPair: the other parameter key.
  bool documented = false; // Manual mentions the constraint.
  bool unsafe_parse = true;  // Custom parse uses atoi/sscanf (vs strict).
  bool warn_when_ignored = false;  // kDependent: log when ignored.
};

// How a target parses integers reached through its mapping table.
enum class TableParseStyle {
  kAtoi,         // *var = atoi(value): silent on garbage/overflow.
  kStrictRange,  // parse_int_strict + table min/max check, pinpointing.
};

struct TargetSpec {
  std::string name;         // "mysql"
  std::string display_name; // "MySQL"
  ConfigDialect dialect = ConfigDialect::kKeyEqualsValue;
  bool uses_struct_table = true;      // Structure-based mapping (Table 1).
  bool uses_handler_table = false;    // Apache-style struct(function) mapping.
  bool uses_comparison = false;       // Redis/Squid-style comparison mapping.
  TableParseStyle table_parse = TableParseStyle::kAtoi;
  // Number of int mapping tables the parameters are spread over. Real
  // systems (MySQL) keep many tables, which is why their annotation counts
  // (LoA, Table 4) are higher.
  int table_shards = 1;
  std::vector<ParamSpec> params;

  size_t TotalParams() const;
};

// The seven evaluated systems (paper Table 4), quarter scale.
std::vector<TargetSpec> EvaluatedTargets();
// Look up one target by name; null if unknown.
const TargetSpec* LookupTarget(std::string_view name);
// Look up one target by name; aborts if unknown.
const TargetSpec& FindTarget(const std::string& name);

}  // namespace spex

#endif  // SPEX_CORPUS_SPEC_H_
