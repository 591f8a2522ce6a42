#include "src/cases/case_db.h"

#include <map>

namespace spex {

namespace {

// Per-target category proportions, from Tables 9 and 10 of the paper.
// {avoidable, single_sw, cross_sw, conform, good}; remainders (cases the
// paper attributes to fixable-but-unfixed categories) are folded into the
// avoidable pool, matching the paper's accounting.
struct CategoryCounts {
  size_t avoidable;
  size_t single_sw;
  size_t cross_sw;
  size_t conform;
  size_t good;
};

const std::map<std::string, CategoryCounts>& PaperBreakdown() {
  static const auto* kTable = new std::map<std::string, CategoryCounts>{
      {"storage_a", {68, 19, 51, 76, 32}},
      {"apache", {19, 5, 12, 9, 5}},
      {"mysql", {14, 1, 12, 18, 2}},
      {"openldap", {12, 9, 4, 12, 12}},
  };
  return *kTable;
}

}  // namespace

std::vector<HistoricalCase> BuildCaseDb(const std::string& target, size_t samples,
                                        const std::vector<std::string>& constrained_params) {
  std::vector<HistoricalCase> cases;
  auto it = PaperBreakdown().find(target);
  if (it == PaperBreakdown().end() || constrained_params.empty()) {
    return cases;
  }
  CategoryCounts counts = it->second;
  size_t paper_total =
      counts.avoidable + counts.single_sw + counts.cross_sw + counts.conform + counts.good;
  // Rescale if the caller asked for a different sample size.
  auto scale = [&](size_t n) {
    return samples == paper_total ? n : (n * samples + paper_total / 2) / paper_total;
  };

  size_t cursor = 0;
  auto next_param = [&]() {
    const std::string& param = constrained_params[cursor % constrained_params.size()];
    ++cursor;
    return param;
  };

  for (size_t i = 0; i < scale(counts.avoidable); ++i) {
    HistoricalCase c;
    c.target = target;
    c.param = next_param();
    c.kind = HistoricalCase::Kind::kParamViolation;
    c.note = "user set an invalid value; system reacted badly";
    cases.push_back(std::move(c));
  }
  for (size_t i = 0; i < scale(counts.single_sw); ++i) {
    HistoricalCase c;
    c.target = target;
    c.param = "acl_rule_expression_" + std::to_string(i);
    c.kind = HistoricalCase::Kind::kComplexConstraint;
    c.note = "nested/semi-structured rule syntax; no concrete code pattern";
    cases.push_back(std::move(c));
  }
  for (size_t i = 0; i < scale(counts.cross_sw); ++i) {
    HistoricalCase c;
    c.target = target;
    c.param = "peer_software_setting_" + std::to_string(i);
    c.kind = HistoricalCase::Kind::kCrossSoftware;
    c.note = "correlation with another component's configuration";
    cases.push_back(std::move(c));
  }
  for (size_t i = 0; i < scale(counts.conform); ++i) {
    HistoricalCase c;
    c.target = target;
    c.param = next_param();
    c.kind = HistoricalCase::Kind::kLegalButWrongIntent;
    c.note = "valid per constraints but insufficient for the user's goal";
    cases.push_back(std::move(c));
  }
  for (size_t i = 0; i < scale(counts.good); ++i) {
    HistoricalCase c;
    c.target = target;
    c.param = next_param();
    c.kind = HistoricalCase::Kind::kGoodReactionStill;
    c.note = "system pinpointed the error; message was still confusing";
    cases.push_back(std::move(c));
  }
  return cases;
}

BenefitBreakdown AnalyzeBenefit(const std::vector<HistoricalCase>& cases,
                                const ModuleConstraints& constraints) {
  BenefitBreakdown breakdown;
  breakdown.total = cases.size();
  for (const HistoricalCase& historical : cases) {
    switch (historical.kind) {
      case HistoricalCase::Kind::kParamViolation: {
        const ParamConstraints* param = constraints.FindParam(historical.param);
        bool has_constraint =
            param != nullptr && (param->basic_type.has_value() ||
                                 !param->semantic_types.empty() || param->range.has_value());
        if (has_constraint) {
          ++breakdown.avoidable;
        } else {
          ++breakdown.single_software;  // SPEX could not infer it.
        }
        break;
      }
      case HistoricalCase::Kind::kComplexConstraint:
        ++breakdown.single_software;
        break;
      case HistoricalCase::Kind::kCrossSoftware:
        ++breakdown.cross_software;
        break;
      case HistoricalCase::Kind::kLegalButWrongIntent:
        ++breakdown.conform_constraints;
        break;
      case HistoricalCase::Kind::kGoodReactionStill:
        ++breakdown.good_reactions;
        break;
    }
  }
  return breakdown;
}

}  // namespace spex
