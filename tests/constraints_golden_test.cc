// Golden test: every field of the inferred ModuleConstraints, locations
// included, for all seven corpus targets, compared byte for byte against
// tests/golden/corpus_constraints.txt.
//
// The golden pins "inference output unchanged" across refactors and
// optimisations of the inference pipeline. When an intended change alters
// the output, regenerate it and review the diff:
//   SPEX_REGENERATE_GOLDEN=1 ./constraints_golden_test
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "src/api/session.h"

namespace spex {
namespace {

const char* kGoldenPath = SPEX_SOURCE_DIR "/tests/golden/corpus_constraints.txt";

std::string Loc(const SourceLoc& loc) {
  return loc.file + ":" + std::to_string(loc.line) + ":" + std::to_string(loc.column);
}

std::string Bound(const std::optional<int64_t>& bound) {
  return bound.has_value() ? std::to_string(*bound) : "none";
}

const char* CaseName(CaseSensitivity sensitivity) {
  switch (sensitivity) {
    case CaseSensitivity::kUnknown:
      return "unknown";
    case CaseSensitivity::kSensitive:
      return "sensitive";
    case CaseSensitivity::kInsensitive:
      return "insensitive";
  }
  return "?";
}

const char* OutOfRangeName(OutOfRangeBehavior behavior) {
  switch (behavior) {
    case OutOfRangeBehavior::kUnknown:
      return "unknown";
    case OutOfRangeBehavior::kError:
      return "error";
    case OutOfRangeBehavior::kSilentReset:
      return "silent-reset";
  }
  return "?";
}

// %a prints the exact bits of a double, so the golden catches any change
// to a confidence value, not just a visible one.
std::string Exact(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%a", value);
  return buffer;
}

void DumpParam(const ParamConstraints& p, std::ostream& out) {
  out << "param " << p.param << " style=" << MappingStyleName(p.style) << " loc=" << Loc(p.loc)
      << " case=" << CaseName(p.case_sensitivity) << " time_unit=" << TimeUnitName(p.time_unit)
      << " size_unit=" << SizeUnitName(p.size_unit) << " has_usage=" << p.has_usage << "\n";
  if (p.basic_type.has_value()) {
    out << "  basic " << p.basic_type->ToString() << " loc=" << Loc(p.basic_type->loc) << "\n";
  }
  for (const SemanticTypeConstraint& s : p.semantic_types) {
    out << "  semantic " << SemanticTypeName(s.semantic) << " time_unit="
        << TimeUnitName(s.time_unit) << " size_unit=" << SizeUnitName(s.size_unit)
        << " api=" << s.evidence_api << " loc=" << Loc(s.loc) << "\n";
  }
  if (p.range.has_value()) {
    const RangeConstraint& r = *p.range;
    out << "  range enum=" << r.is_enum << " out_of_range=" << OutOfRangeName(r.out_of_range)
        << " loc=" << Loc(r.loc) << "\n";
    for (const RangeInterval& interval : r.intervals) {
      out << "    interval " << Bound(interval.min) << " " << Bound(interval.max)
          << " valid=" << interval.valid << "\n";
    }
    for (const std::string& value : r.enum_strings) {
      out << "    enum_string \"" << value << "\"\n";
    }
    for (int64_t value : r.enum_ints) {
      out << "    enum_int " << value << "\n";
    }
  }
  if (p.permission.has_value()) {
    out << "  permission " << p.permission->ToString() << " loc=" << Loc(p.permission->loc)
        << "\n";
  }
  for (const UnsafeApiUse& use : p.unsafe_uses) {
    out << "  unsafe " << use.api << " loc=" << Loc(use.loc) << "\n";
  }
}

std::string DumpCorpus() {
  Session session;
  std::ostringstream out;
  for (const TargetSpec& spec : EvaluatedTargets()) {
    Target* target = session.LoadTarget(spec.name);
    EXPECT_NE(target, nullptr) << session.RenderDiagnostics();
    if (target == nullptr) {
      continue;
    }
    const ModuleConstraints& c = target->InferConstraints();
    out << "target " << spec.name << " params=" << c.params.size()
        << " control_deps=" << c.control_deps.size() << " value_rels=" << c.value_rels.size()
        << "\n";
    for (const ParamConstraints& p : c.params) {
      DumpParam(p, out);
    }
    for (const ControlDepConstraint& d : c.control_deps) {
      out << "control_dep " << d.master << " " << IrCmpPredName(d.pred) << " " << d.value
          << " -> " << d.dependent << " confidence=" << Exact(d.confidence)
          << " loc=" << Loc(d.loc) << "\n";
    }
    for (const ValueRelConstraint& v : c.value_rels) {
      out << "value_rel " << v.lhs << " " << IrCmpPredName(v.pred) << " " << v.rhs
          << " transitive=" << v.via_transitivity << " loc=" << Loc(v.loc) << "\n";
    }
  }
  return out.str();
}

TEST(ConstraintsGoldenTest, CorpusConstraintsMatchGolden) {
  std::string actual = DumpCorpus();
  if (std::getenv("SPEX_REGENERATE_GOLDEN") != nullptr) {
    std::ofstream(kGoldenPath, std::ios::binary) << actual;
    GTEST_SKIP() << "regenerated " << kGoldenPath;
  }
  std::ifstream in(kGoldenPath, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << kGoldenPath;
  std::stringstream expected;
  expected << in.rdbuf();
  // Line-by-line first so a mismatch names the first differing line.
  std::istringstream want(expected.str());
  std::istringstream got(actual);
  std::string want_line;
  std::string got_line;
  for (int line = 1; std::getline(want, want_line); ++line) {
    ASSERT_TRUE(std::getline(got, got_line)) << "output ends before golden line " << line;
    ASSERT_EQ(got_line, want_line) << "first difference at golden line " << line;
  }
  EXPECT_EQ(actual, expected.str());
}

// Inference is a pure function of the target: loading twice in one process
// (different heap layout) must give the same dump.
TEST(ConstraintsGoldenTest, RepeatedLoadsAreIdentical) { EXPECT_EQ(DumpCorpus(), DumpCorpus()); }

}  // namespace
}  // namespace spex
