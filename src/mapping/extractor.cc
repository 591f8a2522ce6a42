#include "src/mapping/extractor.h"

#include <algorithm>
#include <set>

namespace spex {

const char* MappingStyleName(MappingStyle style) {
  switch (style) {
    case MappingStyle::kStructureDirect:
      return "struct";
    case MappingStyle::kStructureFunction:
      return "struct(function)";
    case MappingStyle::kComparison:
      return "comparison";
    case MappingStyle::kContainer:
      return "container";
  }
  return "?";
}

namespace {

// Does `value`'s operand tree contain `needle`? Bounded walk.
bool DependsOn(const Value* value, const Value* needle, int depth = 0) {
  if (value == needle) {
    return true;
  }
  if (depth > 16 || value->value_kind() != ValueKind::kInstruction) {
    return false;
  }
  const auto* instr = static_cast<const Instruction*>(value);
  for (const Value* operand : instr->operands()) {
    if (DependsOn(operand, needle, depth + 1)) {
      return true;
    }
  }
  return false;
}

// Evaluates a boolean condition under the assumption that `call` returned 0
// (string-compare match). Returns nullopt if the condition involves anything
// non-constant other than `call`.
std::optional<int64_t> EvalAssumingZero(const Value* value, const Value* call, int depth = 0) {
  if (depth > 16) {
    return std::nullopt;
  }
  if (value == call) {
    return 0;
  }
  if (value->value_kind() == ValueKind::kConstantInt) {
    return value->constant_int();
  }
  if (value->value_kind() != ValueKind::kInstruction) {
    return std::nullopt;
  }
  const auto* instr = static_cast<const Instruction*>(value);
  switch (instr->instr_kind()) {
    case InstrKind::kCast:
      return EvalAssumingZero(instr->operand(0), call, depth + 1);
    case InstrKind::kCmp: {
      auto lhs = EvalAssumingZero(instr->operand(0), call, depth + 1);
      auto rhs = EvalAssumingZero(instr->operand(1), call, depth + 1);
      if (!lhs.has_value() || !rhs.has_value()) {
        return std::nullopt;
      }
      switch (instr->cmp_pred()) {
        case IrCmpPred::kEq:
          return *lhs == *rhs ? 1 : 0;
        case IrCmpPred::kNe:
          return *lhs != *rhs ? 1 : 0;
        case IrCmpPred::kLt:
          return *lhs < *rhs ? 1 : 0;
        case IrCmpPred::kLe:
          return *lhs <= *rhs ? 1 : 0;
        case IrCmpPred::kGt:
          return *lhs > *rhs ? 1 : 0;
        case IrCmpPred::kGe:
          return *lhs >= *rhs ? 1 : 0;
      }
      return std::nullopt;
    }
    default:
      return std::nullopt;
  }
}

}  // namespace

const Instruction* MappingExtractor::FindArgSlot(const Function& fn, int arg_index) const {
  if (arg_index < 0 || static_cast<size_t>(arg_index) >= fn.arguments().size()) {
    return nullptr;
  }
  const Argument* arg = fn.arguments()[static_cast<size_t>(arg_index)].get();
  const BasicBlock* entry = fn.entry();
  if (entry == nullptr) {
    return nullptr;
  }
  for (const auto& instr : entry->instructions()) {
    if (instr->instr_kind() == InstrKind::kStore && instr->operand(0) == arg) {
      const Value* target = instr->operand(1);
      if (target->value_kind() == ValueKind::kInstruction &&
          static_cast<const Instruction*>(target)->instr_kind() == InstrKind::kAlloca) {
        return static_cast<const Instruction*>(target);
      }
    }
  }
  return nullptr;
}

std::vector<const Value*> MappingExtractor::FindArgRefLoads(const Function& fn,
                                                            const ArgRef& ref) const {
  std::vector<const Value*> result;
  const Instruction* slot = FindArgSlot(fn, ref.arg_index);
  if (slot == nullptr) {
    return result;
  }
  for (const auto& block : fn.blocks()) {
    for (const auto& instr : block->instructions()) {
      if (instr->instr_kind() != InstrKind::kLoad) {
        continue;
      }
      const Value* address = instr->operand(0);
      if (!ref.has_subscript) {
        if (address == slot) {
          result.push_back(instr.get());
        }
        continue;
      }
      // argN[M]: load of indexaddr(load(slot), M).
      if (address->value_kind() != ValueKind::kInstruction) {
        continue;
      }
      const auto* index_addr = static_cast<const Instruction*>(address);
      if (index_addr->instr_kind() != InstrKind::kIndexAddr) {
        continue;
      }
      const Value* index = index_addr->operand(1);
      if (index->value_kind() != ValueKind::kConstantInt ||
          index->constant_int() != ref.subscript) {
        continue;
      }
      const Value* base = index_addr->operand(0);
      if (base->value_kind() == ValueKind::kInstruction &&
          static_cast<const Instruction*>(base)->instr_kind() == InstrKind::kLoad &&
          static_cast<const Instruction*>(base)->operand(0) == slot) {
        result.push_back(instr.get());
      }
    }
  }
  return result;
}

void MappingExtractor::ExtractStructDirect(const MappingAnnotation& annotation,
                                           std::vector<MappedParam>* out,
                                           DiagnosticEngine* diags) {
  const GlobalVariable* table = module_.FindGlobal(annotation.target);
  if (table == nullptr) {
    diags->Error(annotation.loc, "@STRUCT: no global named '" + annotation.target + "'");
    return;
  }
  if (table->init().kind != GlobalInit::Kind::kList) {
    diags->Error(annotation.loc, "@STRUCT: '" + annotation.target + "' has no table initializer");
    return;
  }
  for (const GlobalInit& row : table->init().elements) {
    if (row.kind != GlobalInit::Kind::kList) {
      continue;
    }
    auto field = [&row](int index) -> const GlobalInit* {
      if (index < 0 || static_cast<size_t>(index) >= row.elements.size()) {
        return nullptr;
      }
      return &row.elements[static_cast<size_t>(index)];
    };
    const GlobalInit* name_field = field(annotation.par_field);
    const GlobalInit* var_field = field(annotation.var_field);
    if (name_field == nullptr || name_field->kind != GlobalInit::Kind::kString ||
        var_field == nullptr || var_field->kind != GlobalInit::Kind::kGlobalRef) {
      continue;  // Sentinel rows ({NULL, ...}) terminate real-world tables.
    }
    const GlobalVariable* storage = module_.FindGlobal(var_field->string_value);
    if (storage == nullptr) {
      diags->Warning(annotation.loc, "@STRUCT row '" + name_field->string_value +
                                         "' references unknown global '" +
                                         var_field->string_value + "'");
      continue;
    }
    MappedParam param;
    param.name = name_field->string_value;
    param.style = MappingStyle::kStructureDirect;
    param.storage = storage;
    MemLoc loc;
    loc.root = storage;
    param.seeds.locations.push_back(loc);
    param.loc = storage->loc();
    const GlobalInit* min_field = field(annotation.min_field);
    const GlobalInit* max_field = field(annotation.max_field);
    if (min_field != nullptr && min_field->kind == GlobalInit::Kind::kInt) {
      param.table_min = min_field->int_value;
    }
    if (max_field != nullptr && max_field->kind == GlobalInit::Kind::kInt) {
      param.table_max = max_field->int_value;
    }
    out->push_back(std::move(param));
  }
}

void MappingExtractor::ExtractStructFunction(const MappingAnnotation& annotation,
                                             std::vector<MappedParam>* out,
                                             DiagnosticEngine* diags) {
  const GlobalVariable* table = module_.FindGlobal(annotation.target);
  if (table == nullptr || table->init().kind != GlobalInit::Kind::kList) {
    diags->Error(annotation.loc,
                 "@STRUCT(func): no table global named '" + annotation.target + "'");
    return;
  }
  for (const GlobalInit& row : table->init().elements) {
    if (row.kind != GlobalInit::Kind::kList) {
      continue;
    }
    if (annotation.par_field < 0 ||
        static_cast<size_t>(annotation.par_field) >= row.elements.size() ||
        annotation.func_field < 0 ||
        static_cast<size_t>(annotation.func_field) >= row.elements.size()) {
      continue;
    }
    const GlobalInit& name_field = row.elements[static_cast<size_t>(annotation.par_field)];
    const GlobalInit& func_field = row.elements[static_cast<size_t>(annotation.func_field)];
    if (name_field.kind != GlobalInit::Kind::kString ||
        func_field.kind != GlobalInit::Kind::kGlobalRef) {
      continue;
    }
    const Function* handler = module_.FindFunction(func_field.string_value);
    if (handler == nullptr || handler->IsDeclaration()) {
      diags->Warning(annotation.loc, "@STRUCT(func) row '" + name_field.string_value +
                                         "' references unknown handler '" +
                                         func_field.string_value + "'");
      continue;
    }
    if (annotation.handler_arg < 0 ||
        static_cast<size_t>(annotation.handler_arg) >= handler->arguments().size()) {
      diags->Warning(annotation.loc, "@STRUCT(func): handler '" + handler->name() +
                                         "' has no argument " +
                                         std::to_string(annotation.handler_arg));
      continue;
    }
    MappedParam param;
    param.name = name_field.string_value;
    param.style = MappingStyle::kStructureFunction;
    param.seeds.values.push_back(
        handler->arguments()[static_cast<size_t>(annotation.handler_arg)].get());
    param.loc = SourceLoc{module_.name(), annotation.loc.line, 1};
    out->push_back(std::move(param));
  }
}

void MappingExtractor::ExtractComparison(const MappingAnnotation& annotation,
                                         std::vector<MappedParam>* out,
                                         DiagnosticEngine* diags) {
  const Function* parser = module_.FindFunction(annotation.target);
  if (parser == nullptr || parser->IsDeclaration()) {
    diags->Error(annotation.loc, "@PARSER: no function named '" + annotation.target + "'");
    return;
  }
  std::vector<const Value*> par_loads = FindArgRefLoads(*parser, annotation.parser_par);
  if (par_loads.empty()) {
    diags->Warning(annotation.loc,
                   "@PARSER: no reads of the parameter-name argument were found");
    return;
  }
  std::set<const Value*> par_set(par_loads.begin(), par_loads.end());
  std::vector<const Value*> var_loads = FindArgRefLoads(*parser, annotation.parser_var);
  const ControlDependence& cdeps = context_.ControlDepsFor(*parser);

  for (const auto& block : parser->blocks()) {
    for (const auto& instr : block->instructions()) {
      if (instr->instr_kind() != InstrKind::kCall) {
        continue;
      }
      const ApiSpec* spec = apis_.Find(instr->callee());
      if (spec == nullptr || !spec->IsStringCompare()) {
        continue;
      }
      // One operand must read the name argument, another must be a string
      // constant: that constant is the parameter name.
      bool uses_par = false;
      const Value* name_constant = nullptr;
      for (const Value* operand : instr->operands()) {
        if (par_set.count(operand) > 0) {
          uses_par = true;
        } else if (operand->value_kind() == ValueKind::kConstantString) {
          name_constant = operand;
        }
      }
      if (!uses_par || name_constant == nullptr) {
        continue;
      }
      // Find the branch edge taken when the comparison matches (returns 0).
      const Instruction* match_branch = nullptr;
      int match_edge = -1;
      for (const auto& candidate_block : parser->blocks()) {
        const Instruction* term = candidate_block->terminator();
        if (term == nullptr || term->instr_kind() != InstrKind::kCondBr) {
          continue;
        }
        const Value* condition = term->operand(0);
        if (!DependsOn(condition, instr.get())) {
          continue;
        }
        auto result = EvalAssumingZero(condition, instr.get());
        if (result.has_value()) {
          match_branch = term;
          match_edge = (*result != 0) ? 0 : 1;
          break;
        }
      }
      if (match_branch == nullptr) {
        continue;
      }
      // Seeds: reads of the value argument inside the matched region.
      const std::vector<const BasicBlock*>& region = cdeps.Region(match_branch, match_edge);
      MappedParam param;
      param.name = name_constant->constant_string();
      param.style = MappingStyle::kComparison;
      param.loc = instr->loc();
      for (const Value* load : var_loads) {
        const BasicBlock* block = static_cast<const Instruction*>(load)->parent();
        if (std::find(region.begin(), region.end(), block) != region.end()) {
          param.seeds.values.push_back(load);
        }
      }
      // Global stores inside the matched region are this parameter's
      // storage even when the stored value is a constant rather than the
      // value string itself — the boolean idiom `*var = 1` / `*var = 0`
      // assigns by control flow, not data flow.
      for (const BasicBlock* region_block : region) {
        for (const auto& region_instr : region_block->instructions()) {
          if (region_instr->instr_kind() != InstrKind::kStore) {
            continue;
          }
          auto loc = context_.ResolveAddress(region_instr->operand(1));
          if (loc.has_value() && loc->root->value_kind() == ValueKind::kGlobal) {
            param.seeds.locations.push_back(*loc);
          }
        }
      }
      if (!param.seeds.values.empty() || !param.seeds.locations.empty()) {
        out->push_back(std::move(param));
      }
    }
  }
}

void MappingExtractor::ExtractContainer(const MappingAnnotation& annotation,
                                        std::vector<MappedParam>* out,
                                        DiagnosticEngine* diags) {
  const auto& sites = context_.CallSitesOf(annotation.target);
  if (sites.empty()) {
    diags->Warning(annotation.loc,
                   "@GETTER: no calls to '" + annotation.target + "' were found");
    return;
  }
  for (const Instruction* call : sites) {
    if (annotation.getter_key_arg < 0 ||
        static_cast<size_t>(annotation.getter_key_arg) >= call->operand_count()) {
      continue;
    }
    const Value* key = call->operand(static_cast<size_t>(annotation.getter_key_arg));
    if (key->value_kind() != ValueKind::kConstantString) {
      continue;  // Dynamic keys cannot be mapped statically.
    }
    MappedParam param;
    param.name = key->constant_string();
    param.style = MappingStyle::kContainer;
    param.seeds.values.push_back(call);
    param.loc = call->loc();
    out->push_back(std::move(param));
  }
}

std::vector<MappedParam> MappingExtractor::Extract(const AnnotationFile& file,
                                                   DiagnosticEngine* diags) {
  std::vector<MappedParam> result;
  for (const MappingAnnotation& annotation : file.annotations) {
    switch (annotation.kind) {
      case AnnotationKind::kStructDirect:
        ExtractStructDirect(annotation, &result, diags);
        break;
      case AnnotationKind::kStructFunction:
        ExtractStructFunction(annotation, &result, diags);
        break;
      case AnnotationKind::kParser:
        ExtractComparison(annotation, &result, diags);
        break;
      case AnnotationKind::kGetter:
        ExtractContainer(annotation, &result, diags);
        break;
    }
  }
  // Merge duplicates (hybrid conventions can surface one parameter twice)
  // and order deterministically by name.
  std::sort(result.begin(), result.end(),
            [](const MappedParam& a, const MappedParam& b) { return a.name < b.name; });
  std::vector<MappedParam> merged;
  for (MappedParam& param : result) {
    if (!merged.empty() && merged.back().name == param.name) {
      MappedParam& target = merged.back();
      for (const Value* seed : param.seeds.values) {
        target.seeds.values.push_back(seed);
      }
      for (const MemLoc& loc : param.seeds.locations) {
        target.seeds.locations.push_back(loc);
      }
      if (target.storage == nullptr) {
        target.storage = param.storage;
      }
      if (!target.table_min.has_value()) {
        target.table_min = param.table_min;
      }
      if (!target.table_max.has_value()) {
        target.table_max = param.table_max;
      }
      continue;
    }
    merged.push_back(std::move(param));
  }
  return merged;
}

}  // namespace spex
