// SpexEngine: the paper's constraint-inference pipeline (Section 2.2).
//
// Most embedders should not drive this directly — spex::Session wires the
// whole flow (and keeps the result queryable for its lifetime):
//   spex::Session session;
//   spex::Target* target = session.LoadSource(src, annotation_text, "app.c");
//   const ModuleConstraints& constraints = target->InferConstraints();
//
// Direct usage (tests, custom pipelines) remains:
//   auto module = LowerToIr(*ParseSource(src, "app.c", &diags), &diags);
//   auto annotations = ParseAnnotations(annotation_text, &diags);
//   SpexEngine engine(*module, registry);
//   ModuleConstraints constraints = engine.Run(annotations, &diags);
//
// The engine owns the analysis context and the per-parameter data-flow
// results, which tests and custom drivers may query after Run. Session
// keeps only Run's ModuleConstraints: the engine is a local of each load.
#ifndef SPEX_CORE_ENGINE_H_
#define SPEX_CORE_ENGINE_H_

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/analysis/dataflow.h"
#include "src/apidb/api_registry.h"
#include "src/core/constraints.h"
#include "src/core/region.h"
#include "src/ir/ir.h"
#include "src/mapping/annotations.h"
#include "src/mapping/extractor.h"

namespace spex {

struct SpexOptions {
  // MAY-belief confidence threshold for control dependencies (paper: 0.75).
  double confidence_threshold = 0.75;
};

class SpexEngine {
 public:
  SpexEngine(const Module& module, const ApiRegistry& apis, SpexOptions options = {});

  // Full pipeline: mapping extraction, per-parameter data-flow, all five
  // inference engines.
  ModuleConstraints Run(const AnnotationFile& annotations, DiagnosticEngine* diags);

  // As Run, but with pre-extracted mappings (used by tests).
  ModuleConstraints InferFromMappings(const std::vector<MappedParam>& mappings);

  const AnalysisContext& context() const { return context_; }
  const std::vector<MappedParam>& mappings() const { return mappings_; }
  const ParamDataflow* DataflowFor(const std::string& param) const;

 private:
  struct ParamState {
    const MappedParam* mapping = nullptr;
    ParamDataflow dataflow;
    std::vector<const Instruction*> usage_sites;  // Branch/arith/library-arg uses.
  };

  void InferBasicType(ParamState& state, ParamConstraints* out);
  void InferSemanticTypes(ParamState& state, ParamConstraints* out);
  void InferRange(ParamState& state, ParamConstraints* out);
  void InferPermission(ParamState& state, ParamConstraints* out);
  void CollectUsageSites(ParamState& state);
  void InferControlDeps(std::vector<ParamState>& states, ModuleConstraints* out);
  void InferValueRels(std::vector<ParamState>& states, ModuleConstraints* out);

  // Which parameters taint `value` (indices into states).
  std::vector<size_t> ParamsTainting(const Value* value) const;

  // Finds the conditional branch controlled by `cmp` (directly or through
  // the short-circuit temp) and returns it, or nullptr.
  const Instruction* BranchFor(const Instruction* cmp) const;

  // Multiplicative factor applied to the parameter value on the way into
  // `value` (for unit inference). 1 if none.
  int64_t ScaleFactorOf(const Value* value, const ParamDataflow& df) const;

  const Module& module_;
  const ApiRegistry& apis_;
  SpexOptions options_;
  AnalysisContext context_;
  DataflowEngine dataflow_engine_;
  RegionAnalyzer region_analyzer_;
  std::vector<MappedParam> mappings_;
  std::map<std::string, ParamDataflow> dataflows_;
  // Hashed: point-queried once per cmp operand during control-dep and
  // value-relationship inference, never iterated.
  std::unordered_map<const Value*, std::vector<size_t>> value_to_params_;
};

}  // namespace spex

#endif  // SPEX_CORE_ENGINE_H_
