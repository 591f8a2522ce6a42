// Inter-procedural, field-sensitive data-flow ("taint") analysis.
//
// This is the engine behind Section 2.2 of the paper: starting from the
// program values / memory locations that hold one configuration parameter,
// it computes the parameter's whole data-flow path and records every fact
// the five inference engines need — casts (type evolution), comparisons
// (ranges, relationships), call-argument uses (semantic types, units),
// arithmetic transforms (unit scaling), and the stores that define or reset
// the parameter.
//
// Context handling: taint entering a callee through argument i at call site
// s is tracked under context s (k=1 call strings). A tainted return value
// only flows back to the call sites whose context produced it, which is the
// place where context-insensitivity would otherwise smear parameters into
// each other through shared helpers.
#ifndef SPEX_ANALYSIS_DATAFLOW_H_
#define SPEX_ANALYSIS_DATAFLOW_H_

#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/analysis/memloc.h"
#include "src/ir/dominance.h"
#include "src/ir/ir.h"

namespace spex {

// Module-wide indexes shared by every per-parameter analysis. Build once.
class AnalysisContext {
 public:
  explicit AnalysisContext(const Module& module);

  const Module& module() const { return module_; }

  // Resolves an address-typed value to an abstract location. Returns nullopt
  // for addresses that flow through memory (pointer aliasing) — the paper's
  // stated limitation, surfaced here on purpose.
  std::optional<MemLoc> ResolveAddress(const Value* address) const;

  const std::vector<const Instruction*>& LoadsFrom(const MemLoc& loc) const;
  const std::vector<const Instruction*>& StoresTo(const MemLoc& loc) const;
  const std::vector<const Instruction*>& UsersOf(const Value* value) const;
  const std::vector<const Instruction*>& CallSitesOf(const std::string& callee) const;

  // All return instructions of a function.
  const std::vector<const Instruction*>& ReturnsOf(const Function* fn) const;

  const Function* FindFunction(const std::string& name) const {
    return module_.FindFunction(name);
  }

  // The control-dependence index of `fn`, built on first use and shared by
  // mapping extraction and every inference engine. Thread-safe.
  const ControlDependence& ControlDepsFor(const Function& fn) const;
  // Drops every cached index (a later query rebuilds it), so a loaded
  // target does not keep load-only state for its lifetime.
  void ReleaseControlDeps();

 private:
  // Hashed, not ordered: these indexes are only ever point-queried (never
  // iterated), and SpexEngine::Run re-queries them for every parameter.
  const Module& module_;
  std::unordered_map<MemLoc, std::vector<const Instruction*>, MemLocHash> loads_by_loc_;
  std::unordered_map<MemLoc, std::vector<const Instruction*>, MemLocHash> stores_by_loc_;
  std::unordered_map<const Value*, std::vector<const Instruction*>> users_;
  std::unordered_map<std::string, std::vector<const Instruction*>> call_sites_;
  std::unordered_map<const Function*, std::vector<const Instruction*>> returns_;
  std::vector<const Instruction*> empty_;
  mutable std::mutex control_deps_mutex_;
  mutable std::unordered_map<const Function*, std::unique_ptr<ControlDependence>> control_deps_;
};

// ---------------------------------------------------------------------------
// Facts recorded along a parameter's data-flow path.

// The parameter value is passed as argument `arg_index` of `call`.
struct CallArgUse {
  const Instruction* call = nullptr;
  int arg_index = -1;
};

// The parameter value is compared: `cmp`'s operand `tainted_side` (0 = lhs)
// carries the parameter; `other` is the opposite operand.
struct CmpUse {
  const Instruction* cmp = nullptr;
  int tainted_side = 0;
  const Value* other = nullptr;
};

// A cast the parameter value goes through (explicit or implicit).
struct CastStep {
  const Instruction* cast = nullptr;
};

// The parameter value is transformed arithmetically; `other` is the second
// operand (unit-scale inference looks for constant factors here).
struct TransformUse {
  const Instruction* binop = nullptr;
  int tainted_side = 0;
  const Value* other = nullptr;
};

// A store to one of the parameter's own locations. `value_tainted` is false
// for a "reset" (something else — often a constant — overwrites the
// parameter).
struct StoreDef {
  const Instruction* store = nullptr;
  MemLoc loc;
  bool value_tainted = false;
};

// Result of analyzing one parameter.
struct ParamDataflow {
  // Every value on the parameter's data-flow path.
  std::set<const Value*> tainted_values;
  // Memory locations that hold the parameter's value.
  std::set<MemLoc> locations;

  std::vector<CallArgUse> call_arg_uses;
  std::vector<CmpUse> cmp_uses;
  std::vector<CastStep> casts;
  std::vector<TransformUse> transforms;
  std::vector<StoreDef> stores;
  // Loads of the parameter's locations (read sites).
  std::vector<const Instruction*> loads;
  // Switch statements driven by the parameter (enumerative-range usage).
  std::vector<const Instruction*> switch_uses;

  bool Contains(const Value* value) const { return tainted_values.count(value) > 0; }
  bool HoldsLocation(const MemLoc& loc) const { return locations.count(loc) > 0; }
};

// ---------------------------------------------------------------------------
// Engine.

struct DataflowSeeds {
  std::vector<const Value*> values;  // e.g. a parse-function argument.
  std::vector<MemLoc> locations;     // e.g. a global config variable.
};

class DataflowEngine {
 public:
  // `max_steps` bounds the worklist as a defense against pathological code.
  explicit DataflowEngine(const AnalysisContext& context, size_t max_steps = 200000)
      : context_(context), max_steps_(max_steps) {}

  ParamDataflow Analyze(const DataflowSeeds& seeds) const;

 private:
  const AnalysisContext& context_;
  size_t max_steps_;
};

}  // namespace spex

#endif  // SPEX_ANALYSIS_DATAFLOW_H_
