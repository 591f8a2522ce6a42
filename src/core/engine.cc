#include "src/core/engine.h"

#include <algorithm>
#include <set>

#include "src/ir/cond_eval.h"

namespace spex {

namespace {

// Words whose presence as the complete accepted-value set marks a string
// parameter as boolean.
bool IsBooleanWord(const std::string& word) {
  static const std::set<std::string>* kWords = new std::set<std::string>{
      "on", "off", "yes", "no", "true", "false", "0", "1", "enable", "disable", "enabled",
      "disabled"};
  return kWords->count(word) > 0;
}

// Normalizes a comparison so the parameter sits on the left-hand side.
IrCmpPred NormalizePred(IrCmpPred pred, int tainted_side) {
  return tainted_side == 0 ? pred : SwapCmpPred(pred);
}

// One "param pred V => invalid" fact collected during range inference.
struct InvalidCond {
  IrCmpPred pred;
  int64_t value;
};

bool CondHolds(const InvalidCond& cond, int64_t v) {
  switch (cond.pred) {
    case IrCmpPred::kEq:
      return v == cond.value;
    case IrCmpPred::kNe:
      return v != cond.value;
    case IrCmpPred::kLt:
      return v < cond.value;
    case IrCmpPred::kLe:
      return v <= cond.value;
    case IrCmpPred::kGt:
      return v > cond.value;
    case IrCmpPred::kGe:
      return v >= cond.value;
  }
  return false;
}

std::vector<RangeInterval> BuildIntervals(const std::vector<InvalidCond>& conds) {
  // Collect boundary points, then classify representative values of every
  // maximal segment. Segments with equal validity are merged.
  std::set<int64_t> points;
  for (const InvalidCond& cond : conds) {
    points.insert(cond.value - 1);
    points.insert(cond.value);
    points.insert(cond.value + 1);
  }
  std::vector<int64_t> pts(points.begin(), points.end());

  auto invalid_at = [&conds](int64_t v) {
    for (const InvalidCond& cond : conds) {
      if (CondHolds(cond, v)) {
        return true;
      }
    }
    return false;
  };

  std::vector<RangeInterval> raw;
  if (pts.empty()) {
    return raw;
  }
  // (-inf, pts[0] - 1]
  {
    RangeInterval interval;
    interval.max = pts[0] - 1;
    interval.valid = !invalid_at(pts[0] - 10);
    raw.push_back(interval);
  }
  for (size_t i = 0; i < pts.size(); ++i) {
    RangeInterval point;
    point.min = pts[i];
    point.max = pts[i];
    point.valid = !invalid_at(pts[i]);
    raw.push_back(point);
    if (i + 1 < pts.size() && pts[i + 1] > pts[i] + 1) {
      RangeInterval gap;
      gap.min = pts[i] + 1;
      gap.max = pts[i + 1] - 1;
      gap.valid = !invalid_at(pts[i] + 1);
      raw.push_back(gap);
    }
  }
  {
    RangeInterval tail;
    tail.min = pts.back() + 1;
    tail.valid = !invalid_at(pts.back() + 10);
    raw.push_back(tail);
  }
  // Merge adjacent intervals of equal validity.
  std::vector<RangeInterval> merged;
  for (const RangeInterval& interval : raw) {
    if (!merged.empty() && merged.back().valid == interval.valid) {
      merged.back().max = interval.max;
    } else {
      merged.push_back(interval);
    }
  }
  return merged;
}

}  // namespace

SpexEngine::SpexEngine(const Module& module, const ApiRegistry& apis, SpexOptions options)
    : module_(module),
      apis_(apis),
      options_(options),
      context_(module),
      dataflow_engine_(context_),
      region_analyzer_(apis) {}

const ParamDataflow* SpexEngine::DataflowFor(const std::string& param) const {
  auto it = dataflows_.find(param);
  return it != dataflows_.end() ? &it->second : nullptr;
}

ModuleConstraints SpexEngine::Run(const AnnotationFile& annotations, DiagnosticEngine* diags) {
  MappingExtractor extractor(module_, context_, apis_);
  return InferFromMappings(extractor.Extract(annotations, diags));
}

ModuleConstraints SpexEngine::InferFromMappings(const std::vector<MappedParam>& mappings) {
  mappings_ = mappings;
  dataflows_.clear();
  value_to_params_.clear();

  std::vector<ParamState> states;
  states.reserve(mappings_.size());
  for (const MappedParam& mapping : mappings_) {
    ParamState state;
    state.mapping = &mapping;
    state.dataflow = dataflow_engine_.Analyze(mapping.seeds);
    states.push_back(std::move(state));
  }
  size_t tainted_total = 0;
  for (const ParamState& state : states) {
    tainted_total += state.dataflow.tainted_values.size();
  }
  value_to_params_.reserve(tainted_total);
  for (size_t i = 0; i < states.size(); ++i) {
    dataflows_[mappings_[i].name] = states[i].dataflow;
    for (const Value* value : states[i].dataflow.tainted_values) {
      value_to_params_[value].push_back(i);
    }
  }

  ModuleConstraints result;
  for (ParamState& state : states) {
    ParamConstraints constraints;
    constraints.param = state.mapping->name;
    constraints.style = state.mapping->style;
    constraints.loc = state.mapping->loc;
    CollectUsageSites(state);
    constraints.has_usage = !state.usage_sites.empty();
    InferBasicType(state, &constraints);
    InferSemanticTypes(state, &constraints);
    InferRange(state, &constraints);
    InferPermission(state, &constraints);
    result.params.push_back(std::move(constraints));
  }
  InferControlDeps(states, &result);
  InferValueRels(states, &result);
  context_.ReleaseControlDeps();
  return result;
}

std::vector<size_t> SpexEngine::ParamsTainting(const Value* value) const {
  auto it = value_to_params_.find(value);
  return it != value_to_params_.end() ? it->second : std::vector<size_t>{};
}

const Instruction* SpexEngine::BranchFor(const Instruction* cmp) const {
  // Follow the pure-expression user chain (casts / derived comparisons) to a
  // conditional branch. Short-circuit chains go through memory and are
  // deliberately not followed: their regions do not correspond to this
  // comparison alone.
  const Instruction* current = cmp;
  for (int depth = 0; depth < 5; ++depth) {
    const Instruction* next = nullptr;
    for (const Instruction* user : context_.UsersOf(current)) {
      if (user->instr_kind() == InstrKind::kCondBr) {
        return user;
      }
      if (user->instr_kind() == InstrKind::kCmp || user->instr_kind() == InstrKind::kCast) {
        next = user;
      }
    }
    if (next == nullptr) {
      return nullptr;
    }
    current = next;
  }
  return nullptr;
}

int64_t SpexEngine::ScaleFactorOf(const Value* value, const ParamDataflow& df) const {
  int64_t factor = 1;
  const Value* current = value;
  for (int depth = 0; depth < 12; ++depth) {
    if (current->value_kind() != ValueKind::kInstruction) {
      return factor;
    }
    const auto* instr = static_cast<const Instruction*>(current);
    if (instr->instr_kind() == InstrKind::kCast) {
      current = instr->operand(0);
      continue;
    }
    if (instr->instr_kind() == InstrKind::kLoad) {
      // Follow the value back through a local temp: `bytes = p * 1024;
      // malloc(bytes)`. Only unambiguous single-definition temps are
      // traced.
      auto loc = context_.ResolveAddress(instr->operand(0));
      if (!loc.has_value()) {
        return factor;
      }
      const Value* stored = nullptr;
      for (const StoreDef& def : df.stores) {
        if (def.loc == *loc && def.value_tainted) {
          if (stored != nullptr) {
            return factor;  // Multiple definitions: give up.
          }
          stored = def.store->operand(0);
        }
      }
      if (stored == nullptr) {
        return factor;
      }
      current = stored;
      continue;
    }
    if (instr->instr_kind() == InstrKind::kBinOp && instr->bin_op() == IrBinOp::kMul) {
      const Value* lhs = instr->operand(0);
      const Value* rhs = instr->operand(1);
      if (lhs->value_kind() == ValueKind::kConstantInt && df.Contains(rhs)) {
        factor *= lhs->constant_int();
        current = rhs;
        continue;
      }
      if (rhs->value_kind() == ValueKind::kConstantInt && df.Contains(lhs)) {
        factor *= rhs->constant_int();
        current = lhs;
        continue;
      }
    }
    if (instr->instr_kind() == InstrKind::kBinOp && instr->bin_op() == IrBinOp::kShl) {
      const Value* rhs = instr->operand(1);
      if (rhs->value_kind() == ValueKind::kConstantInt && df.Contains(instr->operand(0))) {
        factor <<= rhs->constant_int();
        current = instr->operand(0);
        continue;
      }
    }
    return factor;
  }
  return factor;
}

void SpexEngine::InferBasicType(ParamState& state, ParamConstraints* out) {
  const ParamDataflow& df = state.dataflow;
  BasicTypeConstraint constraint;
  if (state.mapping->storage != nullptr) {
    constraint.type = state.mapping->storage->value_type();
    constraint.loc = state.mapping->storage->loc();
    out->basic_type = constraint;
    return;
  }
  // The "first cast" rule: parameters commonly arrive as strings and are
  // converted once; the conversion target is the basic type.
  for (const CastStep& step : df.casts) {
    const IrType* type = step.cast->type();
    if (type->IsNumeric() || type->IsBool()) {
      constraint.type = type;
      constraint.loc = step.cast->loc();
      out->basic_type = constraint;
      return;
    }
  }
  // No cast: the type of the first location the parameter is stored into —
  // but only stores on the parsing path count. A downstream use like
  // `tuned = param + 1` stores into an unrelated variable and must not
  // define the parameter's type.
  std::set<const Function*> parse_fns;
  for (const Value* seed : state.mapping->seeds.values) {
    if (seed->value_kind() == ValueKind::kArgument) {
      parse_fns.insert(static_cast<const Argument*>(seed)->parent());
    } else if (seed->value_kind() == ValueKind::kInstruction) {
      parse_fns.insert(static_cast<const Instruction*>(seed)->parent()->parent());
    }
  }
  for (const StoreDef& store : df.stores) {
    if (!store.value_tainted || parse_fns.count(store.store->parent()->parent()) == 0) {
      continue;
    }
    if (store.store->operand(0)->value_kind() == ValueKind::kArgument) {
      continue;  // Prologue spill of the parse argument, not a conversion.
    }
    const IrType* target = store.store->operand(1)->type();
    if (target->IsPointer()) {
      constraint.type = target->pointee();
      constraint.loc = store.store->loc();
      out->basic_type = constraint;
      return;
    }
  }
  if (!state.mapping->seeds.values.empty()) {
    constraint.type = state.mapping->seeds.values.front()->type();
    constraint.loc = state.mapping->loc;
    out->basic_type = constraint;
  }
}

void SpexEngine::InferSemanticTypes(ParamState& state, ParamConstraints* out) {
  const ParamDataflow& df = state.dataflow;
  std::set<std::tuple<SemanticType, TimeUnit, SizeUnit>> seen;
  bool used_case_sensitive = false;
  bool used_case_insensitive = false;

  for (const CallArgUse& use : df.call_arg_uses) {
    const ApiSpec* spec = apis_.Find(use.call->callee());
    if (spec == nullptr) {
      continue;
    }
    if (spec->IsStringCompare()) {
      if (spec->is_case_sensitive_cmp) {
        used_case_sensitive = true;
      } else {
        used_case_insensitive = true;
      }
    }
    if (spec->is_unsafe_transform) {
      out->unsafe_uses.push_back(UnsafeApiUse{spec->name, use.call->loc()});
    }
    const ApiParamSpec* param_spec = spec->FindParam(use.arg_index);
    if (param_spec == nullptr || param_spec->semantic == SemanticType::kNone) {
      continue;
    }
    SemanticTypeConstraint constraint;
    constraint.semantic = param_spec->semantic;
    constraint.evidence_api = spec->name;
    constraint.loc = use.call->loc();
    int64_t factor =
        ScaleFactorOf(use.call->operand(static_cast<size_t>(use.arg_index)), df);
    constraint.time_unit = ScaleTimeUnit(param_spec->time_unit, factor);
    constraint.size_unit = ScaleSizeUnit(param_spec->size_unit, factor);
    if (seen.insert({constraint.semantic, constraint.time_unit, constraint.size_unit}).second) {
      out->semantic_types.push_back(constraint);
    }
  }

  // Pattern 2: the parameter is compared with the return value of a call
  // with known return semantics (e.g. `if (deadline < time(NULL))`).
  for (const CmpUse& use : df.cmp_uses) {
    if (use.other->value_kind() != ValueKind::kInstruction) {
      continue;
    }
    const auto* other = static_cast<const Instruction*>(use.other);
    if (other->instr_kind() != InstrKind::kCall) {
      continue;
    }
    const ApiSpec* spec = apis_.Find(other->callee());
    if (spec == nullptr || spec->return_semantic == SemanticType::kNone) {
      continue;
    }
    SemanticTypeConstraint constraint;
    constraint.semantic = spec->return_semantic;
    constraint.time_unit = spec->return_time_unit;
    constraint.evidence_api = spec->name;
    constraint.loc = use.cmp->loc();
    if (seen.insert({constraint.semantic, constraint.time_unit, constraint.size_unit}).second) {
      out->semantic_types.push_back(constraint);
    }
  }

  if (used_case_sensitive) {
    out->case_sensitivity = CaseSensitivity::kSensitive;
  } else if (used_case_insensitive) {
    out->case_sensitivity = CaseSensitivity::kInsensitive;
  }
  for (const SemanticTypeConstraint& constraint : out->semantic_types) {
    if (constraint.time_unit != TimeUnit::kNone && out->time_unit == TimeUnit::kNone) {
      out->time_unit = constraint.time_unit;
    }
    if (constraint.size_unit != SizeUnit::kNone && out->size_unit == SizeUnit::kNone) {
      out->size_unit = constraint.size_unit;
    }
  }
}

void SpexEngine::InferPermission(ParamState& state, ParamConstraints* out) {
  // A parameter is a permission mode iff its value reaches a
  // kPermissionMask API argument (chmod, umask, open's mode...) — the
  // semantic-type pass already found that evidence, so the policy anchors
  // on it rather than re-walking the calls.
  const SemanticTypeConstraint* semantic = out->FindSemantic(SemanticType::kPermissionMask);
  if (semantic == nullptr) {
    return;
  }
  PermissionConstraint constraint;  // Defaults: forbid 0002, require 0400.
  constraint.evidence_api = semantic->evidence_api;
  constraint.loc = semantic->loc;
  // Refinement from the code's own checks: a bitwise AND of the parameter
  // against an octal literal (`if (mode & 022) reject(...)`) names the
  // bits the target itself treats as dangerous. Only the group/other
  // *write* bits of such masks are folded in — inspecting read bits is
  // normalization, not policy.
  const ParamDataflow& df = state.dataflow;
  for (const TransformUse& use : df.transforms) {
    if (use.binop->bin_op() != IrBinOp::kAnd || use.other == nullptr ||
        use.other->value_kind() != ValueKind::kConstantInt) {
      continue;
    }
    int64_t mask = use.other->constant_int();
    if (mask > 0 && mask <= 07777) {
      constraint.forbidden_bits |= static_cast<uint32_t>(mask) & 0022;
    }
  }
  out->permission = constraint;
}

void SpexEngine::InferRange(ParamState& state, ParamConstraints* out) {
  const ParamDataflow& df = state.dataflow;
  std::vector<InvalidCond> invalid_conds;
  bool any_silent = false;
  bool any_error = false;
  SourceLoc range_loc = state.mapping->loc;

  // Declared range from the mapping table (PostgreSQL-style config tables).
  if (state.mapping->table_min.has_value()) {
    invalid_conds.push_back({IrCmpPred::kLt, *state.mapping->table_min});
    any_error = true;  // Table-driven checking logs and rejects.
  }
  if (state.mapping->table_max.has_value()) {
    invalid_conds.push_back({IrCmpPred::kGt, *state.mapping->table_max});
    any_error = true;
  }

  // Comparisons against integer constants whose branch regions misbehave.
  for (const CmpUse& use : df.cmp_uses) {
    if (use.other->value_kind() != ValueKind::kConstantInt) {
      continue;
    }
    int64_t threshold = use.other->constant_int();
    IrCmpPred pred = NormalizePred(use.cmp->cmp_pred(), use.tainted_side);
    const Instruction* branch = BranchFor(use.cmp);
    if (branch == nullptr) {
      continue;
    }
    auto true_edge = EdgeTakenWhen(branch, use.cmp, 1);
    auto false_edge = EdgeTakenWhen(branch, use.cmp, 0);
    if (!true_edge.has_value() || !false_edge.has_value() || *true_edge == *false_edge) {
      continue;
    }
    const ControlDependence& cdeps = context_.ControlDepsFor(*branch->parent()->parent());
    // Direct regions first: an else-if chain's nested reset must not be
    // attributed to the outer comparison. Fall back to the transitive
    // region only when the direct bodies show no signal at all.
    RegionBehavior when_true =
        region_analyzer_.Classify(cdeps.DirectRegion(branch, *true_edge), df);
    RegionBehavior when_false =
        region_analyzer_.Classify(cdeps.DirectRegion(branch, *false_edge), df);
    if (!when_true.IsInvalid() && !when_false.IsInvalid()) {
      when_true = region_analyzer_.Classify(cdeps.Region(branch, *true_edge), df);
      when_false = region_analyzer_.Classify(cdeps.Region(branch, *false_edge), df);
    }
    if (when_true.IsInvalid() && !when_false.IsInvalid()) {
      invalid_conds.push_back({pred, threshold});
      any_silent |= when_true.IsSilentReset();
      any_error |= !when_true.IsSilentReset();
      range_loc = use.cmp->loc();
    } else if (when_false.IsInvalid() && !when_true.IsInvalid()) {
      invalid_conds.push_back({NegateCmpPred(pred), threshold});
      any_silent |= when_false.IsSilentReset();
      any_error |= !when_false.IsSilentReset();
      range_loc = use.cmp->loc();
    }
  }

  // Switch on the parameter: enumerated integer values; everything else is
  // handled by the default arm.
  std::vector<int64_t> enum_ints;
  OutOfRangeBehavior switch_behavior = OutOfRangeBehavior::kUnknown;
  for (const Instruction* sw : df.switch_uses) {
    for (int64_t value : sw->switch_values()) {
      if (std::find(enum_ints.begin(), enum_ints.end(), value) == enum_ints.end()) {
        enum_ints.push_back(value);
      }
    }
    const ControlDependence& cdeps = context_.ControlDepsFor(*sw->parent()->parent());
    RegionBehavior default_behavior = region_analyzer_.Classify(cdeps.DirectRegion(sw, 0), df);
    if (!default_behavior.IsInvalid()) {
      default_behavior = region_analyzer_.Classify(cdeps.Region(sw, 0), df);
    }
    if (default_behavior.IsSilentReset()) {
      switch_behavior = OutOfRangeBehavior::kSilentReset;
    } else if (default_behavior.IsInvalid()) {
      switch_behavior = OutOfRangeBehavior::kError;
    }
    range_loc = sw->loc();
  }

  // String-compare chains: enumerated string values. Membership checks use
  // the set, but iteration follows call_arg_uses (program) order — a
  // pointer-ordered walk would make enum_strings' order, and therefore the
  // values the injection generator derives from it, vary run to run with
  // heap layout.
  std::vector<std::string> enum_strings;
  OutOfRangeBehavior string_behavior = OutOfRangeBehavior::kUnknown;
  std::set<const Instruction*> param_compare_calls;
  std::vector<const Instruction*> compare_order;
  for (const CallArgUse& use : df.call_arg_uses) {
    const ApiSpec* spec = apis_.Find(use.call->callee());
    if (spec != nullptr && spec->IsStringCompare() &&
        param_compare_calls.insert(use.call).second) {
      compare_order.push_back(use.call);
    }
  }
  for (const Instruction* call : compare_order) {
    const Value* literal = nullptr;
    for (const Value* operand : call->operands()) {
      if (operand->value_kind() == ValueKind::kConstantString) {
        literal = operand;
      }
    }
    if (literal == nullptr) {
      continue;
    }
    if (std::find(enum_strings.begin(), enum_strings.end(), literal->constant_string()) ==
        enum_strings.end()) {
      enum_strings.push_back(literal->constant_string());
    }
    // Behaviour of the no-match region — but only for the final compare of
    // an if/else-if chain (a region containing further compares on the same
    // parameter is just the next link of the chain).
    const Instruction* branch = BranchFor(call);
    if (branch == nullptr) {
      continue;
    }
    auto match_edge = EdgeTakenWhen(branch, call, 0);
    auto miss_edge_a = EdgeTakenWhen(branch, call, 1);
    auto miss_edge_b = EdgeTakenWhen(branch, call, -1);
    if (!match_edge.has_value() || !miss_edge_a.has_value() || miss_edge_a != miss_edge_b ||
        *match_edge == *miss_edge_a) {
      continue;
    }
    const ControlDependence& cdeps = context_.ControlDepsFor(*branch->parent()->parent());
    const std::vector<const BasicBlock*>& miss_blocks = cdeps.DirectRegion(branch, *miss_edge_a);
    bool chain_continues = false;
    for (const BasicBlock* block : miss_blocks) {
      for (const auto& instr : block->instructions()) {
        if (instr.get() != call && param_compare_calls.count(instr.get()) > 0) {
          chain_continues = true;
        }
      }
    }
    if (chain_continues) {
      continue;
    }
    RegionBehavior miss = region_analyzer_.Classify(miss_blocks, df);
    if (miss.IsSilentReset()) {
      string_behavior = OutOfRangeBehavior::kSilentReset;
    } else if (miss.IsInvalid()) {
      string_behavior = OutOfRangeBehavior::kError;
    }
    range_loc = call->loc();
  }

  // Assemble the constraint. Numeric intervals win if both exist (rare).
  if (!invalid_conds.empty()) {
    RangeConstraint range;
    range.is_enum = false;
    range.intervals = BuildIntervals(invalid_conds);
    range.out_of_range = any_error              ? OutOfRangeBehavior::kError
                         : any_silent           ? OutOfRangeBehavior::kSilentReset
                                                : OutOfRangeBehavior::kUnknown;
    range.loc = range_loc;
    out->range = std::move(range);
    return;
  }
  if (!enum_ints.empty()) {
    RangeConstraint range;
    range.is_enum = true;
    range.enum_ints = std::move(enum_ints);
    range.out_of_range = switch_behavior;
    range.loc = range_loc;
    out->range = std::move(range);
    return;
  }
  if (!enum_strings.empty()) {
    RangeConstraint range;
    range.is_enum = true;
    range.enum_strings = enum_strings;
    range.out_of_range = string_behavior;
    range.loc = range_loc;
    out->range = std::move(range);
    // A string parameter whose accepted values are all boolean words is a
    // boolean in disguise.
    bool all_boolean = true;
    for (const std::string& value : enum_strings) {
      all_boolean = all_boolean && IsBooleanWord(value);
    }
    if (all_boolean && !out->HasSemantic(SemanticType::kBoolean)) {
      SemanticTypeConstraint constraint;
      constraint.semantic = SemanticType::kBoolean;
      constraint.loc = range_loc;
      out->semantic_types.push_back(constraint);
    }
  }
}

void SpexEngine::CollectUsageSites(ParamState& state) {
  const ParamDataflow& df = state.dataflow;
  // "Usage" per the paper: branches, arithmetic, library-call arguments.
  // Passing to a module-defined function or assigning is not usage. Sites in
  // the parameter's own parsing function(s) are excluded so that the parse
  // path does not dilute control-dependency confidence.
  std::set<const Function*> parse_fns;
  for (const Value* seed : state.mapping->seeds.values) {
    if (seed->value_kind() == ValueKind::kArgument) {
      parse_fns.insert(static_cast<const Argument*>(seed)->parent());
    } else if (seed->value_kind() == ValueKind::kInstruction) {
      parse_fns.insert(static_cast<const Instruction*>(seed)->parent()->parent());
    }
  }
  auto in_parse_fn = [&parse_fns](const Instruction* instr) {
    return parse_fns.count(instr->parent()->parent()) > 0;
  };

  // Dedup via the set, but keep dataflow (program) order: usage_sites'
  // order decides which branch location a control-dep constraint reports
  // (first usage wins), and a pointer-ordered walk would make that vary
  // with heap layout across runs.
  std::set<const Instruction*> sites;
  std::vector<const Instruction*> ordered;
  auto add = [&sites, &ordered](const Instruction* site) {
    if (sites.insert(site).second) {
      ordered.push_back(site);
    }
  };
  for (const CmpUse& use : df.cmp_uses) {
    if (!in_parse_fn(use.cmp)) {
      add(use.cmp);
    }
  }
  for (const TransformUse& use : df.transforms) {
    if (!in_parse_fn(use.binop)) {
      add(use.binop);
    }
  }
  for (const CallArgUse& use : df.call_arg_uses) {
    const Function* callee = context_.FindFunction(use.call->callee());
    bool external = callee == nullptr || callee->IsDeclaration();
    if (external && !in_parse_fn(use.call)) {
      add(use.call);
    }
  }
  for (const Instruction* sw : df.switch_uses) {
    if (!in_parse_fn(sw)) {
      add(sw);
    }
  }
  state.usage_sites = std::move(ordered);
}

void SpexEngine::InferControlDeps(std::vector<ParamState>& states, ModuleConstraints* out) {
  struct Key {
    size_t master;
    IrCmpPred pred;
    int64_t value;
    bool operator<(const Key& other) const {
      return std::tie(master, pred, value) < std::tie(other.master, other.pred, other.value);
    }
  };

  for (size_t qi = 0; qi < states.size(); ++qi) {
    ParamState& q = states[qi];
    if (q.usage_sites.empty()) {
      continue;
    }
    std::map<Key, std::set<const Instruction*>> controlled;
    std::map<Key, SourceLoc> dep_locs;
    for (const Instruction* usage : q.usage_sites) {
      const ControlDependence& cdeps = context_.ControlDepsFor(*usage->parent()->parent());
      for (const ControlDep& dep : cdeps.TransitiveDeps(usage->parent())) {
        if (dep.branch->instr_kind() != InstrKind::kCondBr) {
          continue;
        }
        const Value* condition = dep.branch->operand(0);
        if (condition->value_kind() != ValueKind::kInstruction) {
          continue;
        }
        const auto* cmp = static_cast<const Instruction*>(condition);
        if (cmp->instr_kind() != InstrKind::kCmp) {
          continue;
        }
        const Value* lhs = cmp->operand(0);
        const Value* rhs = cmp->operand(1);
        int tainted_side = -1;
        const Value* constant = nullptr;
        if (rhs->value_kind() == ValueKind::kConstantInt) {
          tainted_side = 0;
          constant = rhs;
        } else if (lhs->value_kind() == ValueKind::kConstantInt) {
          tainted_side = 1;
          constant = lhs;
        } else {
          continue;
        }
        const Value* param_side = tainted_side == 0 ? lhs : rhs;
        for (size_t pi : ParamsTainting(param_side)) {
          if (pi == qi) {
            continue;
          }
          IrCmpPred pred = NormalizePred(cmp->cmp_pred(), tainted_side);
          if (dep.successor_index == 1) {
            pred = NegateCmpPred(pred);
          }
          Key key{pi, pred, constant->constant_int()};
          controlled[key].insert(usage);
          // The earliest controlling branch names the constraint, whatever
          // order the usages and their deps are visited in.
          const SourceLoc& loc = dep.branch->loc();
          auto [it, inserted] = dep_locs.emplace(key, loc);
          if (!inserted && std::tie(loc.line, loc.column) <
                               std::tie(it->second.line, it->second.column)) {
            it->second = loc;
          }
        }
      }
    }
    for (const auto& [key, usages] : controlled) {
      double confidence =
          static_cast<double>(usages.size()) / static_cast<double>(q.usage_sites.size());
      if (confidence + 1e-9 < options_.confidence_threshold) {
        continue;
      }
      ControlDepConstraint constraint;
      constraint.master = states[key.master].mapping->name;
      constraint.dependent = q.mapping->name;
      constraint.pred = key.pred;
      constraint.value = key.value;
      constraint.confidence = confidence;
      constraint.loc = dep_locs[key];
      out->control_deps.push_back(std::move(constraint));
    }
  }
  std::sort(out->control_deps.begin(), out->control_deps.end(),
            [](const ControlDepConstraint& a, const ControlDepConstraint& b) {
              return std::tie(a.dependent, a.master, a.value) <
                     std::tie(b.dependent, b.master, b.value);
            });
}

void SpexEngine::InferValueRels(std::vector<ParamState>& states, ModuleConstraints* out) {
  std::set<std::tuple<std::string, std::string, IrCmpPred>> seen;

  auto emit = [&](std::string lhs, std::string rhs, IrCmpPred pred, bool transitive,
                  SourceLoc loc) {
    if (lhs == rhs) {
      return;
    }
    if (rhs < lhs) {
      std::swap(lhs, rhs);
      pred = SwapCmpPred(pred);
    }
    if (!seen.insert({lhs, rhs, pred}).second) {
      return;
    }
    ValueRelConstraint constraint;
    constraint.lhs = std::move(lhs);
    constraint.rhs = std::move(rhs);
    constraint.pred = pred;
    constraint.via_transitivity = transitive;
    constraint.loc = std::move(loc);
    out->value_rels.push_back(std::move(constraint));
  };

  // Direct comparisons between two parameters.
  for (size_t pi = 0; pi < states.size(); ++pi) {
    const ParamState& p = states[pi];
    for (const CmpUse& use : p.dataflow.cmp_uses) {
      for (size_t qi : ParamsTainting(use.other)) {
        if (qi == pi) {
          continue;
        }
        IrCmpPred pred = NormalizePred(use.cmp->cmp_pred(), use.tainted_side);
        // Validity: if the region guarded by the comparison misbehaves, the
        // valid relationship is the negation.
        const Instruction* branch = BranchFor(use.cmp);
        if (branch != nullptr) {
          auto true_edge = EdgeTakenWhen(branch, use.cmp, 1);
          auto false_edge = EdgeTakenWhen(branch, use.cmp, 0);
          if (true_edge.has_value() && false_edge.has_value() && *true_edge != *false_edge) {
            const ControlDependence& cdeps =
                context_.ControlDepsFor(*branch->parent()->parent());
            RegionBehavior when_true =
                region_analyzer_.Classify(cdeps.Region(branch, *true_edge), p.dataflow);
            if (when_true.IsInvalid()) {
              pred = NegateCmpPred(pred);
            }
          }
        }
        emit(p.mapping->name, states[qi].mapping->name, pred, false, use.cmp->loc());
      }
    }
  }

  // One-hop transitivity: P <= X and X < Q (same intermediate value or two
  // loads of the same location) compose to P < Q.
  auto same_intermediate = [this](const Value* a, const Value* b) {
    if (a == b) {
      return true;
    }
    if (a->value_kind() != ValueKind::kInstruction ||
        b->value_kind() != ValueKind::kInstruction) {
      return false;
    }
    const auto* ia = static_cast<const Instruction*>(a);
    const auto* ib = static_cast<const Instruction*>(b);
    if (ia->instr_kind() != InstrKind::kLoad || ib->instr_kind() != InstrKind::kLoad) {
      return false;
    }
    auto la = context_.ResolveAddress(ia->operand(0));
    auto lb = context_.ResolveAddress(ib->operand(0));
    return la.has_value() && lb.has_value() && *la == *lb;
  };
  auto compose = [](IrCmpPred a, IrCmpPred b) -> std::optional<IrCmpPred> {
    auto is_less = [](IrCmpPred p) { return p == IrCmpPred::kLt || p == IrCmpPred::kLe; };
    auto is_greater = [](IrCmpPred p) { return p == IrCmpPred::kGt || p == IrCmpPred::kGe; };
    if (a == IrCmpPred::kEq) {
      return b;
    }
    if (b == IrCmpPred::kEq) {
      return a;
    }
    if (is_less(a) && is_less(b)) {
      return (a == IrCmpPred::kLe && b == IrCmpPred::kLe) ? IrCmpPred::kLe : IrCmpPred::kLt;
    }
    if (is_greater(a) && is_greater(b)) {
      return (a == IrCmpPred::kGe && b == IrCmpPred::kGe) ? IrCmpPred::kGe : IrCmpPred::kGt;
    }
    return std::nullopt;
  };

  for (size_t pi = 0; pi < states.size(); ++pi) {
    const ParamState& p = states[pi];
    for (const CmpUse& use_p : p.dataflow.cmp_uses) {
      if (use_p.other->value_kind() == ValueKind::kConstantInt ||
          !ParamsTainting(use_p.other).empty()) {
        continue;  // Not an intermediate: constant or another parameter.
      }
      IrCmpPred p_rel_x = NormalizePred(use_p.cmp->cmp_pred(), use_p.tainted_side);
      for (size_t qi = 0; qi < states.size(); ++qi) {
        if (qi == pi) {
          continue;
        }
        const ParamState& q = states[qi];
        for (const CmpUse& use_q : q.dataflow.cmp_uses) {
          if (!same_intermediate(use_p.other, use_q.other)) {
            continue;
          }
          // Q rel X, flipped to X rel Q for composition.
          IrCmpPred x_rel_q =
              SwapCmpPred(NormalizePred(use_q.cmp->cmp_pred(), use_q.tainted_side));
          auto composed = compose(p_rel_x, x_rel_q);
          if (composed.has_value()) {
            emit(p.mapping->name, q.mapping->name, *composed, true, use_p.cmp->loc());
          }
        }
      }
    }
  }
  std::sort(out->value_rels.begin(), out->value_rels.end(),
            [](const ValueRelConstraint& a, const ValueRelConstraint& b) {
              return std::tie(a.lhs, a.rhs, a.pred) < std::tie(b.lhs, b.rhs, b.pred);
            });
}

}  // namespace spex
