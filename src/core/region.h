// Branch-region behaviour classification.
//
// Range inference (Section 2.2.3) decides whether a range is valid or
// invalid by looking at what the program does in the corresponding branch
// region: exiting, aborting, returning an error code, or resetting the
// parameter all mark the region's range as invalid.
#ifndef SPEX_CORE_REGION_H_
#define SPEX_CORE_REGION_H_

#include <vector>

#include "src/analysis/dataflow.h"
#include "src/apidb/api_registry.h"

namespace spex {

struct RegionBehavior {
  bool terminates = false;    // Calls exit/abort (or another terminating API).
  bool error_return = false;  // Returns a negative constant.
  bool error_log = false;     // Calls an error-logging API.
  bool resets_param = false;  // Overwrites the parameter with a non-parameter value.
  bool logs = false;          // Any logging call at all.
  bool empty = true;          // The region contains no blocks.

  // The paper's "invalid range" signal.
  bool IsInvalid() const { return terminates || error_return || error_log || resets_param; }
  // Reset without telling anyone: the silent-overruling signature.
  bool IsSilentReset() const {
    return resets_param && !terminates && !error_return && !error_log;
  }
};

class RegionAnalyzer {
 public:
  explicit RegionAnalyzer(const ApiRegistry& apis) : apis_(apis) {}

  // Classifies the behaviour of a region (a ControlDependence::Region or
  // DirectRegion) with respect to parameter `df`.
  RegionBehavior Classify(const std::vector<const BasicBlock*>& blocks,
                          const ParamDataflow& df) const;

 private:
  const ApiRegistry& apis_;
};

}  // namespace spex

#endif  // SPEX_CORE_REGION_H_
