#include "src/core/region.h"

#include <algorithm>

namespace spex {

RegionBehavior RegionAnalyzer::Classify(const std::vector<const BasicBlock*>& blocks,
                                        const ParamDataflow& df) const {
  RegionBehavior behavior;
  behavior.empty = blocks.empty();

  for (const BasicBlock* block : blocks) {
    for (const auto& instr : block->instructions()) {
      switch (instr->instr_kind()) {
        case InstrKind::kCall: {
          const ApiSpec* spec = apis_.Find(instr->callee());
          if (spec != nullptr) {
            if (spec->is_terminating) {
              behavior.terminates = true;
            }
            if (spec->is_logging) {
              behavior.logs = true;
            }
            if (spec->is_error_logging) {
              behavior.error_log = true;
            }
          }
          break;
        }
        case InstrKind::kRet: {
          if (instr->operand_count() == 1 &&
              instr->operand(0)->value_kind() == ValueKind::kConstantInt &&
              instr->operand(0)->constant_int() < 0) {
            behavior.error_return = true;
          }
          break;
        }
        default:
          break;
      }
    }
  }
  // A reset is a store into one of the parameter's locations whose stored
  // value does not come from the parameter itself.
  for (const StoreDef& store : df.stores) {
    if (!store.value_tainted &&
        std::find(blocks.begin(), blocks.end(), store.store->parent()) != blocks.end()) {
      behavior.resets_param = true;
    }
  }
  return behavior;
}

}  // namespace spex
