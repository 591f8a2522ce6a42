#include "src/analysis/dataflow.h"

#include <algorithm>
#include <cassert>
#include <deque>

namespace spex {

namespace {

// External functions whose return value carries their (tainted) argument:
// string-to-number conversions, byte-order/canonicalization helpers, and
// string duplication. Calls to functions defined in the module are handled
// precisely and do not consult this list.
const std::set<std::string>& ValuePropagatingExternals() {
  static const auto* kSet = new std::set<std::string>{
      "atoi",    "atol",    "strtol",  "strtoll", "strtoul", "strtod", "htons",
      "ntohs",   "htonl",   "ntohl",   "strdup",  "abs",     "labs",
      "canonicalize_path",  "tolower_str",        "toupper_str",
  };
  return *kSet;
}

// Sort key that is stable across runs (no pointer ordering).
struct InstrOrder {
  bool operator()(const Instruction* a, const Instruction* b) const {
    if (a == b) {
      return false;
    }
    const std::string& fa = a->parent()->parent()->name();
    const std::string& fb = b->parent()->parent()->name();
    if (fa != fb) {
      return fa < fb;
    }
    if (a->parent()->index() != b->parent()->index()) {
      return a->parent()->index() < b->parent()->index();
    }
    return a->id() < b->id();
  }
};

}  // namespace

AnalysisContext::AnalysisContext(const Module& module) : module_(module) {
  // Reserve up front. The instruction count is a cheap upper bound for all
  // of these: users_ holds at most one entry per distinct operand value
  // (many instructions share operands or have none), and the loc/call
  // indexes hold one entry per distinct location/callee.
  size_t instruction_count = 0;
  for (const auto& fn : module.functions()) {
    for (const auto& block : fn->blocks()) {
      instruction_count += block->instructions().size();
    }
  }
  users_.reserve(instruction_count);
  loads_by_loc_.reserve(instruction_count / 4 + 1);
  stores_by_loc_.reserve(instruction_count / 4 + 1);
  call_sites_.reserve(instruction_count / 4 + 1);
  returns_.reserve(module.functions().size());

  for (const auto& fn : module.functions()) {
    for (const auto& block : fn->blocks()) {
      for (const auto& instr : block->instructions()) {
        for (const Value* operand : instr->operands()) {
          users_[operand].push_back(instr.get());
        }
        switch (instr->instr_kind()) {
          case InstrKind::kLoad: {
            auto loc = ResolveAddress(instr->operand(0));
            if (loc.has_value()) {
              loads_by_loc_[*loc].push_back(instr.get());
            }
            break;
          }
          case InstrKind::kStore: {
            auto loc = ResolveAddress(instr->operand(1));
            if (loc.has_value()) {
              stores_by_loc_[*loc].push_back(instr.get());
            }
            break;
          }
          case InstrKind::kCall:
            call_sites_[instr->callee()].push_back(instr.get());
            break;
          case InstrKind::kRet:
            returns_[fn.get()].push_back(instr.get());
            break;
          default:
            break;
        }
      }
    }
  }
}

std::optional<MemLoc> AnalysisContext::ResolveAddress(const Value* address) const {
  // Walk the address chain bottom-up, collecting path steps. -1 = array
  // element wildcard, -2 = pointer dereference (one level through a local
  // pointer variable, e.g. a `ConfigArgs *c` parameter).
  std::vector<int> reversed_path;
  const Value* current = address;
  for (int depth = 0; depth < 32; ++depth) {
    if (current->value_kind() == ValueKind::kGlobal) {
      MemLoc loc;
      loc.root = current;
      loc.path.assign(reversed_path.rbegin(), reversed_path.rend());
      return loc;
    }
    if (current->value_kind() != ValueKind::kInstruction) {
      return std::nullopt;
    }
    const auto* instr = static_cast<const Instruction*>(current);
    switch (instr->instr_kind()) {
      case InstrKind::kAlloca: {
        MemLoc loc;
        loc.root = current;
        loc.path.assign(reversed_path.rbegin(), reversed_path.rend());
        return loc;
      }
      case InstrKind::kFieldAddr:
        reversed_path.push_back(instr->field_index());
        current = instr->operand(0);
        break;
      case InstrKind::kIndexAddr:
        reversed_path.push_back(-1);
        current = instr->operand(0);
        break;
      case InstrKind::kLoad:
        // Address loaded through a pointer variable: keep resolving with a
        // deref marker so `c->field` stays field-sensitive per pointer
        // variable. This is the single level of indirection SPEX models;
        // anything deeper is the aliasing blind spot discussed in the paper.
        reversed_path.push_back(-2);
        current = instr->operand(0);
        break;
      default:
        return std::nullopt;
    }
  }
  return std::nullopt;
}

const std::vector<const Instruction*>& AnalysisContext::LoadsFrom(const MemLoc& loc) const {
  auto it = loads_by_loc_.find(loc);
  return it != loads_by_loc_.end() ? it->second : empty_;
}

const std::vector<const Instruction*>& AnalysisContext::StoresTo(const MemLoc& loc) const {
  auto it = stores_by_loc_.find(loc);
  return it != stores_by_loc_.end() ? it->second : empty_;
}

const std::vector<const Instruction*>& AnalysisContext::UsersOf(const Value* value) const {
  auto it = users_.find(value);
  return it != users_.end() ? it->second : empty_;
}

const std::vector<const Instruction*>& AnalysisContext::CallSitesOf(
    const std::string& callee) const {
  auto it = call_sites_.find(callee);
  return it != call_sites_.end() ? it->second : empty_;
}

const ControlDependence& AnalysisContext::ControlDepsFor(const Function& fn) const {
  std::lock_guard<std::mutex> lock(control_deps_mutex_);
  std::unique_ptr<ControlDependence>& entry = control_deps_[&fn];
  if (entry == nullptr) {
    entry = std::make_unique<ControlDependence>(fn);
  }
  return *entry;
}

void AnalysisContext::ReleaseControlDeps() {
  std::lock_guard<std::mutex> lock(control_deps_mutex_);
  control_deps_.clear();
}

const std::vector<const Instruction*>& AnalysisContext::ReturnsOf(const Function* fn) const {
  auto it = returns_.find(fn);
  return it != returns_.end() ? it->second : empty_;
}

namespace {

class Propagation {
 public:
  Propagation(const AnalysisContext& context, size_t max_steps)
      : context_(context), max_steps_(max_steps) {}

  ParamDataflow Run(const DataflowSeeds& seeds) {
    for (const Value* seed : seeds.values) {
      Push(seed, nullptr);
    }
    for (const MemLoc& loc : seeds.locations) {
      TaintLoc(loc, nullptr);
    }
    size_t steps = 0;
    while (!work_.empty() && steps < max_steps_) {
      ++steps;
      auto [value, ctx] = work_.front();
      work_.pop_front();
      Process(value, ctx);
    }
    FinalizeStores();
    SortRecords();
    return std::move(result_);
  }

 private:
  using Ctx = const Instruction*;  // The call that injected taint into the
                                   // value's enclosing function (k=1).

  void Push(const Value* value, Ctx ctx) {
    if (visited_.insert({value, ctx}).second) {
      result_.tainted_values.insert(value);
      work_.push_back({value, ctx});
    }
  }

  void TaintLoc(const MemLoc& loc, Ctx ctx) {
    if (!result_.locations.insert(loc).second) {
      return;
    }
    for (const Instruction* load : context_.LoadsFrom(loc)) {
      if (recorded_loads_.insert(load).second) {
        result_.loads.push_back(load);
      }
      Push(load, ctx);
    }
    // The address of the parameter's own storage is parameter data too: it
    // flows into alias pointers (`cur = &param`) and output-parameter calls
    // (`sscanf(s, "%d", &param)`), and writes through it are parameter
    // definitions.
    if (loc.path.empty() && loc.root->value_kind() == ValueKind::kGlobal) {
      Push(loc.root, ctx);
    }
  }

  void Process(const Value* value, Ctx ctx) {
    for (const Instruction* user : context_.UsersOf(value)) {
      switch (user->instr_kind()) {
        case InstrKind::kStore:
          if (user->operand(0) == value) {
            auto loc = context_.ResolveAddress(user->operand(1));
            if (loc.has_value()) {
              TaintLoc(*loc, ctx);
            }
          } else if (user->operand(1) == value) {
            // The parameter's *address* is the store target (writes through
            // an alias pointer such as `*cur = 255`). The written location
            // belongs to the parameter's storage.
            auto loc = context_.ResolveAddress(user->operand(1));
            if (loc.has_value()) {
              TaintLoc(*loc, ctx);
            }
          }
          break;
        case InstrKind::kLoad:
          // `value` is a (tainted) address; the loaded data carries taint.
          Push(user, ctx);
          break;
        case InstrKind::kBinOp: {
          int side = user->operand(0) == value ? 0 : 1;
          if (recorded_transforms_.insert({user, side}).second) {
            result_.transforms.push_back(TransformUse{user, side, user->operand(1 - side)});
          }
          Push(user, ctx);
          break;
        }
        case InstrKind::kCmp: {
          int side = user->operand(0) == value ? 0 : 1;
          if (recorded_cmps_.insert({user, side}).second) {
            result_.cmp_uses.push_back(CmpUse{user, side, user->operand(1 - side)});
          }
          break;  // Comparison results are guards, not parameter data.
        }
        case InstrKind::kCast:
          if (recorded_casts_.insert(user).second) {
            result_.casts.push_back(CastStep{user});
          }
          Push(user, ctx);
          break;
        case InstrKind::kFieldAddr:
        case InstrKind::kIndexAddr:
          Push(user, ctx);  // Derived address; loads of it handled above.
          break;
        case InstrKind::kCall:
          ProcessCallUse(user, value, ctx);
          break;
        case InstrKind::kSwitch:
          if (user->operand(0) == value && recorded_switches_.insert(user).second) {
            result_.switch_uses.push_back(user);
          }
          break;
        case InstrKind::kRet:
          ProcessReturn(user, ctx);
          break;
        default:
          break;
      }
    }
  }

  void ProcessCallUse(const Instruction* call, const Value* value, Ctx ctx) {
    for (size_t i = 0; i < call->operand_count(); ++i) {
      if (call->operand(i) != value) {
        continue;
      }
      int index = static_cast<int>(i);
      if (recorded_calls_.insert({call, index}).second) {
        result_.call_arg_uses.push_back(CallArgUse{call, index});
      }
      const Function* callee = context_.FindFunction(call->callee());
      if (callee != nullptr && !callee->IsDeclaration()) {
        if (i < callee->arguments().size()) {
          if (ctx_parent_.find(call) == ctx_parent_.end()) {
            ctx_parent_[call] = ctx;
          }
          Push(callee->arguments()[i].get(), call);
        }
      } else if (ValuePropagatingExternals().count(call->callee()) > 0) {
        Push(call, ctx);
      }
      // Output-parameter externals: the input string's value re-emerges
      // through a pointer argument (sscanf-style).
      static const std::map<std::string, std::pair<int, int>>* kOutParams =
          new std::map<std::string, std::pair<int, int>>{
              {"sscanf", {0, 2}},
              {"parse_int_strict", {0, 1}},
          };
      auto out_it = kOutParams->find(call->callee());
      if (out_it != kOutParams->end() && index == out_it->second.first &&
          static_cast<size_t>(out_it->second.second) < call->operand_count()) {
        auto loc = context_.ResolveAddress(
            call->operand(static_cast<size_t>(out_it->second.second)));
        if (loc.has_value()) {
          TaintLoc(*loc, ctx);
        }
      }
    }
  }

  void ProcessReturn(const Instruction* ret, Ctx ctx) {
    const Function* fn = ret->parent()->parent();
    if (ctx != nullptr) {
      // Taint entered this function through `ctx`; the return flows back to
      // exactly that call site.
      auto parent_it = ctx_parent_.find(ctx);
      Push(ctx, parent_it != ctx_parent_.end() ? parent_it->second : nullptr);
      return;
    }
    // Root-context taint (e.g. a global): every caller receives it.
    for (const Instruction* site : context_.CallSitesOf(fn->name())) {
      Push(site, nullptr);
    }
  }

  void FinalizeStores() {
    for (const MemLoc& loc : result_.locations) {
      for (const Instruction* store : context_.StoresTo(loc)) {
        bool tainted = result_.tainted_values.count(store->operand(0)) > 0;
        result_.stores.push_back(StoreDef{store, loc, tainted});
      }
    }
  }

  void SortRecords() {
    InstrOrder order;
    std::sort(result_.call_arg_uses.begin(), result_.call_arg_uses.end(),
              [&](const CallArgUse& a, const CallArgUse& b) {
                if (a.call != b.call) {
                  return order(a.call, b.call);
                }
                return a.arg_index < b.arg_index;
              });
    std::sort(result_.cmp_uses.begin(), result_.cmp_uses.end(),
              [&](const CmpUse& a, const CmpUse& b) {
                if (a.cmp != b.cmp) {
                  return order(a.cmp, b.cmp);
                }
                return a.tainted_side < b.tainted_side;
              });
    // Casts are deliberately left in discovery (BFS) order: the first cast
    // reached from the seed is the "first cast" of the basic-type rule.
    std::sort(result_.transforms.begin(), result_.transforms.end(),
              [&](const TransformUse& a, const TransformUse& b) {
                if (a.binop != b.binop) {
                  return order(a.binop, b.binop);
                }
                return a.tainted_side < b.tainted_side;
              });
    std::sort(result_.stores.begin(), result_.stores.end(),
              [&](const StoreDef& a, const StoreDef& b) {
                if (a.store != b.store) {
                  return order(a.store, b.store);
                }
                return a.loc < b.loc;
              });
    std::sort(result_.loads.begin(), result_.loads.end(), order);
    std::sort(result_.switch_uses.begin(), result_.switch_uses.end(), order);
  }

  const AnalysisContext& context_;
  size_t max_steps_;
  ParamDataflow result_;
  std::deque<std::pair<const Value*, Ctx>> work_;
  std::set<std::pair<const Value*, Ctx>> visited_;
  std::map<const Instruction*, Ctx> ctx_parent_;
  std::set<std::pair<const Instruction*, int>> recorded_calls_;
  std::set<std::pair<const Instruction*, int>> recorded_cmps_;
  std::set<const Instruction*> recorded_casts_;
  std::set<std::pair<const Instruction*, int>> recorded_transforms_;
  std::set<const Instruction*> recorded_loads_;
  std::set<const Instruction*> recorded_switches_;
};

}  // namespace

ParamDataflow DataflowEngine::Analyze(const DataflowSeeds& seeds) const {
  Propagation propagation(context_, max_steps_);
  return propagation.Run(seeds);
}

}  // namespace spex
