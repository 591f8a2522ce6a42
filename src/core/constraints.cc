#include "src/core/constraints.h"

#include <sstream>

namespace spex {

std::string BasicTypeConstraint::ToString() const {
  return type != nullptr ? type->ToString() : "?";
}

std::string SemanticTypeConstraint::ToString() const {
  std::string out = SemanticTypeName(semantic);
  if (time_unit != TimeUnit::kNone) {
    out += std::string("(") + TimeUnitName(time_unit) + ")";
  }
  if (size_unit != SizeUnit::kNone) {
    out += std::string("(") + SizeUnitName(size_unit) + ")";
  }
  if (!evidence_api.empty()) {
    out += " via " + evidence_api;
  }
  return out;
}

std::string RangeInterval::ToString() const {
  std::ostringstream out;
  out << (min.has_value() ? "[" + std::to_string(*min) : "(-inf");
  out << ", ";
  out << (max.has_value() ? std::to_string(*max) + "]" : "+inf)");
  out << (valid ? " valid" : " invalid");
  return out.str();
}

namespace {

std::string OctalString(uint32_t bits) {
  std::string out;
  do {
    out.insert(out.begin(), static_cast<char>('0' + (bits & 7)));
    bits >>= 3;
  } while (bits != 0);
  return "0" + out;
}

}  // namespace

std::string PermissionConstraint::ToString() const {
  std::ostringstream out;
  out << "mode: forbid " << OctalString(forbidden_bits) << ", require "
      << OctalString(required_bits);
  if (!evidence_api.empty()) {
    out << " via " << evidence_api;
  }
  return out.str();
}

std::vector<RangeInterval> RangeConstraint::ValidIntervals() const {
  std::vector<RangeInterval> result;
  for (const RangeInterval& interval : intervals) {
    if (interval.valid) {
      result.push_back(interval);
    }
  }
  return result;
}

std::string RangeConstraint::ToString() const {
  std::ostringstream out;
  if (is_enum) {
    out << "enum {";
    bool first = true;
    for (const std::string& value : enum_strings) {
      out << (first ? "" : ", ") << "\"" << value << "\"";
      first = false;
    }
    for (int64_t value : enum_ints) {
      out << (first ? "" : ", ") << value;
      first = false;
    }
    out << "}";
  } else {
    bool first = true;
    for (const RangeInterval& interval : intervals) {
      out << (first ? "" : " ") << interval.ToString();
      first = false;
    }
  }
  switch (out_of_range) {
    case OutOfRangeBehavior::kError:
      out << " ; out-of-range -> error";
      break;
    case OutOfRangeBehavior::kSilentReset:
      out << " ; out-of-range -> SILENT RESET";
      break;
    case OutOfRangeBehavior::kUnknown:
      break;
  }
  return out.str();
}

bool ParamConstraints::HasSemantic(SemanticType semantic) const {
  return FindSemantic(semantic) != nullptr;
}

const SemanticTypeConstraint* ParamConstraints::FindSemantic(SemanticType semantic) const {
  for (const SemanticTypeConstraint& constraint : semantic_types) {
    if (constraint.semantic == semantic) {
      return &constraint;
    }
  }
  return nullptr;
}

std::string ControlDepConstraint::ToString() const {
  std::ostringstream out;
  out << "(\"" << master << "\", " << value << ", " << IrCmpPredName(pred) << ") -> \""
      << dependent << "\"  [confidence " << confidence << "]";
  return out.str();
}

std::string ValueRelConstraint::ToString() const {
  std::ostringstream out;
  out << "\"" << lhs << "\" " << IrCmpPredName(pred) << " \"" << rhs << "\"";
  if (via_transitivity) {
    out << " (transitive)";
  }
  return out.str();
}

const ParamConstraints* ModuleConstraints::FindParam(const std::string& name) const {
  for (const ParamConstraints& param : params) {
    if (param.param == name) {
      return &param;
    }
  }
  return nullptr;
}

size_t ModuleConstraints::CountBasicTypes() const {
  size_t count = 0;
  for (const ParamConstraints& param : params) {
    if (param.basic_type.has_value()) {
      ++count;
    }
  }
  return count;
}

size_t ModuleConstraints::CountSemanticTypes() const {
  size_t count = 0;
  for (const ParamConstraints& param : params) {
    count += param.semantic_types.size();
  }
  return count;
}

size_t ModuleConstraints::CountRanges() const {
  size_t count = 0;
  for (const ParamConstraints& param : params) {
    if (param.range.has_value()) {
      ++count;
    }
  }
  return count;
}

size_t ModuleConstraints::TotalConstraints() const {
  return CountBasicTypes() + CountSemanticTypes() + CountRanges() + control_deps.size() +
         value_rels.size();
}

}  // namespace spex
