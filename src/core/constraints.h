// The configuration-constraint model (Section 2.1 of the paper).
//
// A constraint is a rule that separates correct configurations from
// misconfigurations. Five kinds are modeled, exactly the paper's taxonomy:
// basic type, semantic type, data range (numeric and enumerative, with
// per-interval validity), control dependency (P,V,op) -> Q, and value
// relationship P op Q.
#ifndef SPEX_CORE_CONSTRAINTS_H_
#define SPEX_CORE_CONSTRAINTS_H_

#include <optional>
#include <string>
#include <vector>

#include "src/apidb/semantic_types.h"
#include "src/ir/ir.h"
#include "src/mapping/extractor.h"
#include "src/support/source_loc.h"

namespace spex {

// ---------------------------------------------------------------------------
// Per-parameter constraints.

struct BasicTypeConstraint {
  const IrType* type = nullptr;
  SourceLoc loc;  // Where the type is established (declaration or first cast).

  std::string ToString() const;
};

struct SemanticTypeConstraint {
  SemanticType semantic = SemanticType::kNone;
  TimeUnit time_unit = TimeUnit::kNone;  // Parameter-level unit, transform-adjusted.
  SizeUnit size_unit = SizeUnit::kNone;
  std::string evidence_api;  // The call that revealed the semantic type.
  SourceLoc loc;

  std::string ToString() const;
};

// One maximal interval of a numeric range partition.
struct RangeInterval {
  std::optional<int64_t> min;  // Inclusive; nullopt = -inf.
  std::optional<int64_t> max;  // Inclusive; nullopt = +inf.
  bool valid = true;

  bool Contains(int64_t v) const {
    return (!min.has_value() || v >= *min) && (!max.has_value() || v <= *max);
  }
  std::string ToString() const;
};

// Behaviour of the region handling values outside the accepted set.
enum class OutOfRangeBehavior {
  kUnknown,      // No else/default handling was identified.
  kError,        // Region terminates / returns an error / logs an error.
  kSilentReset,  // Region silently overwrites the parameter (silent overruling).
};

struct RangeConstraint {
  bool is_enum = false;

  // Numeric form: a partition of the integer line.
  std::vector<RangeInterval> intervals;

  // Enumerative form: accepted values.
  std::vector<std::string> enum_strings;
  std::vector<int64_t> enum_ints;

  OutOfRangeBehavior out_of_range = OutOfRangeBehavior::kUnknown;
  SourceLoc loc;

  // The valid intervals only (numeric form).
  std::vector<RangeInterval> ValidIntervals() const;
  std::string ToString() const;
};

enum class CaseSensitivity { kUnknown, kSensitive, kInsensitive };

// Uses of unsafe transformation APIs on this parameter (Section 3.2).
struct UnsafeApiUse {
  std::string api;
  SourceLoc loc;
};

// Permission policy for an octal-mode/ACL parameter (one whose value
// flows into a kPermissionMask API argument — chmod, umask, open's mode).
// Misconfigured permissions cut both ways, so the policy has two sides:
// `forbidden_bits` the mode must not grant (too permissive — the classic
// world-writable config), `required_bits` it must grant (too restrictive
// — a mode the owner cannot even read breaks the system just as surely).
// Defaults encode the least-surprise policy (no world-write, owner-read
// present); bits the target's own code masks out and rejects are folded
// into forbidden_bits by the engine.
struct PermissionConstraint {
  uint32_t forbidden_bits = 0002;
  uint32_t required_bits = 0400;
  std::string evidence_api;  // The call that revealed the mode semantics.
  SourceLoc loc;

  std::string ToString() const;
};

struct ParamConstraints {
  std::string param;
  MappingStyle style = MappingStyle::kStructureDirect;
  SourceLoc loc;

  std::optional<BasicTypeConstraint> basic_type;
  std::vector<SemanticTypeConstraint> semantic_types;
  std::optional<RangeConstraint> range;
  std::optional<PermissionConstraint> permission;

  CaseSensitivity case_sensitivity = CaseSensitivity::kUnknown;
  TimeUnit time_unit = TimeUnit::kNone;
  SizeUnit size_unit = SizeUnit::kNone;
  std::vector<UnsafeApiUse> unsafe_uses;

  // True if the parameter's storage is read anywhere outside its parsing
  // path (used by silent-ignorance classification).
  bool has_usage = false;

  bool HasSemantic(SemanticType semantic) const;
  const SemanticTypeConstraint* FindSemantic(SemanticType semantic) const;
};

// ---------------------------------------------------------------------------
// Cross-parameter constraints.

// (master, value, pred) -> dependent: `dependent` takes effect only when
// `master` pred `value` holds.
struct ControlDepConstraint {
  std::string master;
  std::string dependent;
  IrCmpPred pred = IrCmpPred::kNe;
  int64_t value = 0;
  double confidence = 0.0;  // MAY-belief confidence (Section 2.2.4).
  SourceLoc loc;

  std::string ToString() const;
};

// lhs pred rhs must hold for a valid configuration.
struct ValueRelConstraint {
  std::string lhs;
  std::string rhs;
  IrCmpPred pred = IrCmpPred::kLt;
  bool via_transitivity = false;  // Composed through an intermediate variable.
  SourceLoc loc;

  std::string ToString() const;
};

// ---------------------------------------------------------------------------
// Whole-module result.

struct ModuleConstraints {
  std::vector<ParamConstraints> params;
  std::vector<ControlDepConstraint> control_deps;
  std::vector<ValueRelConstraint> value_rels;

  const ParamConstraints* FindParam(const std::string& name) const;

  // Counts for Table 11.
  size_t CountBasicTypes() const;
  size_t CountSemanticTypes() const;
  size_t CountRanges() const;
  size_t TotalConstraints() const;
};

}  // namespace spex

#endif  // SPEX_CORE_CONSTRAINTS_H_
