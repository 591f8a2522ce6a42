// Historical misconfiguration case database (paper Section 4.2).
//
// The paper samples real user-committed misconfigurations (246 from
// Storage-A's customer-issue database, 177 from forums for Apache, MySQL,
// OpenLDAP) and asks: how many could SPEX have avoided? The real case
// texts are proprietary/scattered; this module synthesizes a case DB with
// the published per-category structure, referencing the corpus targets'
// actual parameters, so the Table 9/10 analysis runs against the real
// inferred constraints rather than a hard-coded answer.
#ifndef SPEX_CASES_CASE_DB_H_
#define SPEX_CASES_CASE_DB_H_

#include <string>
#include <vector>

#include "src/core/constraints.h"

namespace spex {

struct HistoricalCase {
  enum class Kind {
    kParamViolation,       // User violated a parameter constraint.
    kComplexConstraint,    // Constraint exists but has no concrete code
                           // pattern (SPEX's single-software blind spot).
    kCrossSoftware,        // Correlation across software components.
    kLegalButWrongIntent,  // Setting is valid but not what the user meant.
    kGoodReactionStill,    // System pinpointed it; user still filed a case.
  };
  std::string target;  // Corpus target name.
  std::string param;   // Referenced parameter (may be synthetic for
                       // kComplexConstraint / kCrossSoftware).
  Kind kind = Kind::kParamViolation;
  std::string note;
};

// Deterministic case DB for one target, with the sample sizes the paper
// reports (Storage-A 246, Apache 50, MySQL 47, OpenLDAP 49). Parameter
// references cycle through `constrained_params`, the parameters the current
// analysis actually produced constraints for.
std::vector<HistoricalCase> BuildCaseDb(const std::string& target, size_t samples,
                                        const std::vector<std::string>& constrained_params);

struct BenefitBreakdown {
  size_t total = 0;
  size_t avoidable = 0;       // Table 9: bad reactions SPEX avoids.
  size_t single_software = 0; // Table 10 columns.
  size_t cross_software = 0;
  size_t conform_constraints = 0;
  size_t good_reactions = 0;

  double AvoidableRatio() const {
    return total == 0 ? 0 : static_cast<double>(avoidable) / static_cast<double>(total);
  }
};

// Classifies each case against the constraints SPEX inferred for the
// target: a parameter-violation case is avoidable iff SPEX inferred any
// constraint for that parameter.
BenefitBreakdown AnalyzeBenefit(const std::vector<HistoricalCase>& cases,
                                const ModuleConstraints& constraints);

}  // namespace spex

#endif  // SPEX_CASES_CASE_DB_H_
