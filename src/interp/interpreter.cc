#include "src/interp/interpreter.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/support/hashing.h"
#include "src/support/strings.h"

namespace spex {

// ---------------------------------------------------------------------------
// RtValue helpers.

namespace {

const std::string& EmptyString() {
  static const std::string* kEmpty = new std::string();
  return *kEmpty;
}

bool HasStringPayload(RtValue::Kind kind) {
  return kind == RtValue::Kind::kString || kind == RtValue::Kind::kFnRef;
}

}  // namespace

RtValue RtValue::Int(int64_t v) {
  RtValue value;
  value.kind = Kind::kInt;
  value.i = v;
  return value;
}

RtValue RtValue::Float(double v) {
  RtValue value;
  value.kind = Kind::kFloat;
  value.f = v;
  return value;
}

RtValue RtValue::Null() {
  RtValue value;
  value.kind = Kind::kNull;
  return value;
}

RtValue RtValue::PooledStr(const std::string* sp) {
  RtValue value;
  value.kind = Kind::kString;
  value.sp = sp;
  return value;
}

RtValue RtValue::PooledFnRef(const std::string* sp) {
  RtValue value;
  value.kind = Kind::kFnRef;
  value.sp = sp;
  return value;
}

const std::string& RtValue::str() const {
  return HasStringPayload(kind) && sp != nullptr ? *sp : EmptyString();
}

bool RtValue::SamePayload(const RtValue& other) const {
  return HasStringPayload(kind) && HasStringPayload(other.kind) && sp == other.sp;
}

bool RtValue::IsTruthy() const {
  switch (kind) {
    case Kind::kInt:
      return i != 0;
    case Kind::kFloat:
      return f != 0;
    case Kind::kString:
      return true;  // Non-null pointer.
    case Kind::kNull:
      return false;
    case Kind::kAddr:
    case Kind::kFnRef:
      return true;
  }
  return false;
}

int64_t RtValue::AsInt() const {
  switch (kind) {
    case Kind::kInt:
      return i;
    case Kind::kFloat:
      // [-2^63, 2^63) converts exactly; NaN fails both comparisons.
      if (f >= -9223372036854775808.0 && f < 9223372036854775808.0) {
        return static_cast<int64_t>(f);
      }
      return std::numeric_limits<int64_t>::min();
    default:
      return 0;
  }
}

double RtValue::AsFloat() const {
  switch (kind) {
    case Kind::kFloat:
      return f;
    case Kind::kInt:
      return static_cast<double>(i);
    default:
      return 0;
  }
}

std::string RtValue::ToDebugString() const {
  switch (kind) {
    case Kind::kInt:
      return std::to_string(i);
    case Kind::kFloat:
      return std::to_string(f);
    case Kind::kString:
      return "\"" + str() + "\"";
    case Kind::kNull:
      return "null";
    case Kind::kAddr:
      return "<addr>";
    case Kind::kFnRef:
      return "<fn " + str() + ">";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Compiled functions.

namespace {

// Offsets with this bit set name an interned overflow path, not a cell.
constexpr uint32_t kOverflowBit = 1u << 31;
// Layout::Step's answer for a path the layout cannot index.
constexpr uint32_t kNoCell = std::numeric_limits<uint32_t>::max();
// A root whose flat layout would exceed this many cells keeps only its root
// cell flat; its elements go to the sparse overflow map, so a huge array
// costs nothing until touched.
constexpr int64_t kMaxFlatCells = 1024;

uint64_t OverflowKey(uint32_t storage, uint32_t offset) {
  return static_cast<uint64_t>(storage) << 32 | offset;
}

RtValue Address(uint32_t storage, uint32_t offset) {
  RtValue value;
  value.kind = RtValue::Kind::kAddr;
  value.addr = {storage, offset};
  return value;
}

enum class OpKind : uint8_t {
  kAlloca,
  kLoad,
  kStore,
  kBinOp,
  kCmp,
  kCast,
  kCallFunction,
  kCallIntrinsic,
  kFieldAddr,
  kIndexAddr,
  kBr,
  kCondBr,
  kSwitch,
  kRet,
  kUnreachable,
  kFallOff,  // End of a block without a terminator: return the default.
};

// Target class of a cast, decided once from the IR type.
enum class CastTo : uint8_t { kFloat, kBool, kInt8, kInt16, kInt32, kInt64, kSame };

}  // namespace

// One IR instruction with its operands resolved. Operand refs index the
// frame's registers when >= 0 and the plan's constants (~ref) otherwise.
struct Interpreter::Op {
  OpKind kind = OpKind::kUnreachable;
  uint8_t code = 0;  // IrBinOp, IrCmpPred, IntrinsicId or CastTo.
  uint32_t dst = 0;  // Result register (the instruction's Value::id()).
  int32_t a = 0;
  int32_t b = 0;
  // Alloca: cell offset. FieldAddr: field index. Br/CondBr: target op.
  // Call: first entry in call_args. Switch: first entry in switch_targets.
  uint32_t x = 0;
  // CondBr: false target op. Call: argument count. Switch: case count.
  // Ret: 1 when it returns a value.
  uint32_t y = 0;
  uint32_t callee = 0;  // kCallFunction: function index.
  const Instruction* instr = nullptr;
};

struct Interpreter::FunctionPlan {
  uint32_t function = 0;
  uint32_t regs = 0;
  std::vector<Op> ops;
  std::vector<int32_t> call_args;
  std::vector<uint32_t> switch_targets;  // Per switch: default, then cases.
  std::vector<RtValue> consts;
  std::vector<uint32_t> arg_regs;
  std::vector<RtValue> arg_defaults;
  RtValue result_default;
  // Alloca layouts in instruction order; their cells tile the frame.
  std::vector<Layout> allocas;
  std::vector<uint32_t> cell_owner;  // Frame cell -> alloca index.
  std::vector<RtValue> cell_init;    // Untouched frame cells, by leaf type.
};

Interpreter::Layout Interpreter::Layout::For(const Value* root, const IrType* type,
                                             int64_t bound, uint32_t base) {
  Layout layout;
  layout.root = root;
  layout.bound = bound;
  layout.base = base;
  uint32_t fields =
      type != nullptr && type->IsStruct() ? static_cast<uint32_t>(type->field_types().size()) : 0;
  if (bound <= 0) {
    layout.fields = fields;
    layout.size = 1 + fields;
  } else if (bound <= (kMaxFlatCells - 1) / (1 + fields)) {
    layout.elems = static_cast<uint32_t>(bound);
    layout.fields = fields;
    layout.size = 1 + layout.elems * (1 + fields);
  }
  return layout;
}

uint32_t Interpreter::Layout::Step(uint32_t local, int64_t step) const {
  if (local == 0) {
    if (elems > 0) {
      return step >= 0 && step < elems ? 1 + static_cast<uint32_t>(step) * (1 + fields) : kNoCell;
    }
    return step >= 0 && step < fields ? 1 + static_cast<uint32_t>(step) : kNoCell;
  }
  // Only an element cell of an array of structs has further in-layout steps.
  if (elems > 0 && fields > 0 && (local - 1) % (1 + fields) == 0 && step >= 0 && step < fields) {
    return local + 1 + static_cast<uint32_t>(step);
  }
  return kNoCell;
}

size_t Interpreter::Layout::PathOf(uint32_t local, int64_t (&steps)[2]) const {
  if (local == 0) {
    return 0;
  }
  if (elems == 0) {
    steps[0] = local - 1;
    return 1;
  }
  steps[0] = (local - 1) / (1 + fields);
  uint32_t within = (local - 1) % (1 + fields);
  if (within == 0) {
    return 1;
  }
  steps[1] = within - 1;
  return 2;
}

size_t Interpreter::OverflowPathHash::operator()(const OverflowPath& path) const {
  size_t h = std::hash<uint32_t>()(path.root);
  for (int64_t step : path.steps) {
    h = HashCombine(h, std::hash<int64_t>()(step));
  }
  return h;
}

// ---------------------------------------------------------------------------
// Construction and global initialization.

Interpreter::Interpreter(const Module& module, OsSimulator* os, InterpOptions options)
    : module_(module), os_(os), options_(options) {
  BuildModuleIndex();
  BuildInitImage();
  Reset();
}

Interpreter::~Interpreter() = default;

RtValue Interpreter::InternedString(std::string_view text) {
  return RtValue::PooledStr(pool_.Intern(text));
}

Interpreter::IntrinsicId Interpreter::IntrinsicNamed(std::string_view name) {
  // Name -> intrinsic id; built once, consulted when a function is compiled.
  using IntrinsicTable = std::unordered_map<std::string_view, uint8_t>;
  static const IntrinsicTable* kIntrinsics = [] {
    auto* table = new IntrinsicTable{
        {"strcmp", uint8_t(IntrinsicId::kStrcmp)},
        {"strcasecmp", uint8_t(IntrinsicId::kStrcasecmp)},
        {"strncmp", uint8_t(IntrinsicId::kStrncmp)},
        {"strncasecmp", uint8_t(IntrinsicId::kStrncasecmp)},
        {"strlen", uint8_t(IntrinsicId::kStrlen)},
        {"strdup", uint8_t(IntrinsicId::kStrdup)},
        {"canonicalize_path", uint8_t(IntrinsicId::kCanonicalizePath)},
        {"tolower_str", uint8_t(IntrinsicId::kTolowerStr)},
        {"toupper_str", uint8_t(IntrinsicId::kToupperStr)},
        {"strchr", uint8_t(IntrinsicId::kStrchr)},
        {"strstr", uint8_t(IntrinsicId::kStrstr)},
        {"atoi", uint8_t(IntrinsicId::kAtoi)},
        {"atol", uint8_t(IntrinsicId::kAtol)},
        {"strtol", uint8_t(IntrinsicId::kAtol)},
        {"strtoll", uint8_t(IntrinsicId::kAtol)},
        {"strtoul", uint8_t(IntrinsicId::kAtol)},
        {"strtod", uint8_t(IntrinsicId::kStrtod)},
        {"sscanf", uint8_t(IntrinsicId::kSscanf)},
        {"parse_int_strict", uint8_t(IntrinsicId::kParseIntStrict)},
        {"open", uint8_t(IntrinsicId::kOpen)},
        {"fopen", uint8_t(IntrinsicId::kFopen)},
        {"opendir", uint8_t(IntrinsicId::kOpendir)},
        {"access", uint8_t(IntrinsicId::kAccess)},
        {"stat_file", uint8_t(IntrinsicId::kAccess)},
        {"unlink", uint8_t(IntrinsicId::kUnlink)},
        {"mkdir", uint8_t(IntrinsicId::kMkdir)},
        {"chdir", uint8_t(IntrinsicId::kChdir)},
        {"chroot", uint8_t(IntrinsicId::kChdir)},
        {"chown", uint8_t(IntrinsicId::kChown)},
        {"chmod", uint8_t(IntrinsicId::kRetZero)},
        {"umask", uint8_t(IntrinsicId::kRetZero)},
        {"close", uint8_t(IntrinsicId::kRetZero)},
        {"read", uint8_t(IntrinsicId::kRetZero)},
        {"write", uint8_t(IntrinsicId::kRetZero)},
        {"free", uint8_t(IntrinsicId::kRetZero)},
        {"listen", uint8_t(IntrinsicId::kRetZero)},
        {"set_buffer_size", uint8_t(IntrinsicId::kRetZero)},
        {"daemonize", uint8_t(IntrinsicId::kRetZero)},
        {"socket", uint8_t(IntrinsicId::kSocket)},
        {"bind", uint8_t(IntrinsicId::kBind)},
        {"connect", uint8_t(IntrinsicId::kConnect)},
        {"htons", uint8_t(IntrinsicId::kHtons)},
        {"ntohs", uint8_t(IntrinsicId::kHtons)},
        {"set_port", uint8_t(IntrinsicId::kHtons)},
        {"htonl", uint8_t(IntrinsicId::kHtonl)},
        {"ntohl", uint8_t(IntrinsicId::kHtonl)},
        {"inet_addr", uint8_t(IntrinsicId::kInetAddr)},
        {"inet_aton", uint8_t(IntrinsicId::kInetAton)},
        {"gethostbyname", uint8_t(IntrinsicId::kGethostbyname)},
        {"getpwnam", uint8_t(IntrinsicId::kGetpwnam)},
        {"getgrnam", uint8_t(IntrinsicId::kGetgrnam)},
        {"setuid_user", uint8_t(IntrinsicId::kSetuidUser)},
        {"sleep", uint8_t(IntrinsicId::kSleep)},
        {"alarm", uint8_t(IntrinsicId::kSleep)},
        {"usleep", uint8_t(IntrinsicId::kUsleep)},
        {"poll_wait", uint8_t(IntrinsicId::kPollWait)},
        {"set_timeout_ms", uint8_t(IntrinsicId::kPollWait)},
        {"time", uint8_t(IntrinsicId::kTime)},
        {"malloc", uint8_t(IntrinsicId::kMalloc)},
        {"alloc_buffer", uint8_t(IntrinsicId::kMalloc)},
        {"exit", uint8_t(IntrinsicId::kExit)},
        {"_exit", uint8_t(IntrinsicId::kExit)},
        {"abort", uint8_t(IntrinsicId::kAbort)},
        {"printf", uint8_t(IntrinsicId::kPrintf)},
        {"fprintf", uint8_t(IntrinsicId::kFprintf)},
        {"sprintf", uint8_t(IntrinsicId::kSprintf)},
        {"log_info", uint8_t(IntrinsicId::kLogInfo)},
        {"log_warn", uint8_t(IntrinsicId::kLogWarn)},
        {"log_error", uint8_t(IntrinsicId::kLogError)},
        {"log_fatal", uint8_t(IntrinsicId::kLogFatal)},
        {"invoke_handler1", uint8_t(IntrinsicId::kInvokeHandler)},
        {"invoke_handler2", uint8_t(IntrinsicId::kInvokeHandler)},
    };
    return table;
  }();
  auto it = kIntrinsics->find(name);
  return it != kIntrinsics->end() ? IntrinsicId(it->second) : IntrinsicId::kNone;
}

void Interpreter::BuildModuleIndex() {
  const auto& functions = module_.functions();
  functions_by_name_.reserve(functions.size());
  for (size_t i = 0; i < functions.size(); ++i) {
    // Like Module::FindFunction, a definition wins over a declaration of
    // the same name.
    const Function& fn = *functions[i];
    auto [it, inserted] = functions_by_name_.emplace(fn.name(), static_cast<int32_t>(i));
    if (!inserted && functions[it->second]->IsDeclaration() && !fn.IsDeclaration()) {
      it->second = static_cast<int32_t>(i);
    }
  }
  plans_.resize(functions.size());

  const auto& globals = module_.globals();
  num_globals_ = static_cast<uint32_t>(globals.size());
  globals_by_name_.reserve(globals.size());
  global_slot_.reserve(globals.size());
  global_layouts_.reserve(globals.size());
  uint32_t cells = 0;
  for (size_t i = 0; i < globals.size(); ++i) {
    const GlobalVariable* global = globals[i].get();
    globals_by_name_.emplace(global->name(), static_cast<uint32_t>(i));
    global_slot_.emplace(global, static_cast<uint32_t>(i));
    global_layouts_.push_back(Layout::For(global, global->value_type(),
                                          global->is_array() ? global->array_size() : 0, cells));
    cells += global_layouts_.back().size;
  }
  init_cells_.resize(cells);
  global_read_stamps_.assign(globals.size(), 0);
  global_write_stamps_.assign(globals.size(), 0);
}

int32_t Interpreter::LookupFunction(std::string_view name) const {
  auto it = functions_by_name_.find(name);
  if (it == functions_by_name_.end() || module_.functions()[it->second]->IsDeclaration()) {
    return -1;
  }
  return it->second;
}

int32_t Interpreter::LookupGlobal(const std::string& name) const {
  auto it = globals_by_name_.find(name);
  return it != globals_by_name_.end() ? static_cast<int32_t>(it->second) : -1;
}

const Interpreter::FunctionPlan& Interpreter::PlanFor(uint32_t function) {
  std::unique_ptr<FunctionPlan>& plan = plans_[function];
  if (plan == nullptr) {
    plan = BuildPlan(function);
  }
  return *plan;
}

std::unique_ptr<Interpreter::FunctionPlan> Interpreter::BuildPlan(uint32_t function) {
  const Function& fn = *module_.functions()[function];
  auto plan = std::make_unique<FunctionPlan>();
  plan->function = function;
  plan->regs = fn.value_id_count();
  for (const auto& arg : fn.arguments()) {
    plan->arg_regs.push_back(arg->id());
    plan->arg_defaults.push_back(DefaultValueFor(arg->type()));
  }
  plan->result_default = DefaultValueFor(fn.return_type());

  // Operands: registers for arguments and instructions, constant slots for
  // everything else (string constants interned once, here).
  std::unordered_map<const Value*, int32_t> const_slots;
  auto ref = [&](const Value* value) -> int32_t {
    ValueKind kind = value->value_kind();
    if ((kind == ValueKind::kArgument || kind == ValueKind::kInstruction) &&
        value->id() < plan->regs) {
      return static_cast<int32_t>(value->id());
    }
    auto [it, inserted] = const_slots.emplace(value, ~static_cast<int32_t>(plan->consts.size()));
    if (inserted) {
      RtValue constant = RtValue::Int(0);
      switch (kind) {
        case ValueKind::kConstantInt:
          constant = RtValue::Int(value->constant_int());
          break;
        case ValueKind::kConstantFloat:
          constant = RtValue::Float(value->constant_float());
          break;
        case ValueKind::kConstantString:
          constant = InternedString(value->constant_string());
          break;
        case ValueKind::kConstantNull:
          constant = RtValue::Null();
          break;
        case ValueKind::kGlobal: {
          uint32_t slot = global_slot_.at(value);
          constant = Address(slot, global_layouts_[slot].base);
          break;
        }
        case ValueKind::kArgument:
        case ValueKind::kInstruction:
          break;  // A foreign register reads as 0.
      }
      plan->consts.push_back(constant);
    }
    return it->second;
  };

  // Ops: each block up to its first terminator; branch targets are patched
  // once every block's first op is known.
  std::vector<uint32_t> block_start;
  block_start.reserve(fn.blocks().size());
  for (const auto& block : fn.blocks()) {
    block_start.push_back(static_cast<uint32_t>(plan->ops.size()));
    bool terminated = false;
    for (const auto& instr_ptr : block->instructions()) {
      const Instruction* instr = instr_ptr.get();
      Op op;
      op.instr = instr;
      op.dst = instr->id();
      switch (instr->instr_kind()) {
        case InstrKind::kAlloca: {
          // A dense index per function; the allocas' cells tile the frame.
          op.kind = OpKind::kAlloca;
          op.x = static_cast<uint32_t>(plan->cell_owner.size());
          plan->allocas.push_back(Layout::For(instr, instr->allocated_type(),
                                              instr->alloca_array_size(), op.x));
          const Layout& layout = plan->allocas.back();
          for (uint32_t local = 0; local < layout.size; ++local) {
            plan->cell_owner.push_back(static_cast<uint32_t>(plan->allocas.size() - 1));
            plan->cell_init.push_back(DefaultCellValue(layout, local));
          }
          break;
        }
        case InstrKind::kLoad:
          op.kind = OpKind::kLoad;
          op.a = ref(instr->operand(0));
          break;
        case InstrKind::kStore:
          op.kind = OpKind::kStore;
          op.a = ref(instr->operand(0));
          op.b = ref(instr->operand(1));
          break;
        case InstrKind::kBinOp:
          op.kind = OpKind::kBinOp;
          op.code = static_cast<uint8_t>(instr->bin_op());
          op.a = ref(instr->operand(0));
          op.b = ref(instr->operand(1));
          break;
        case InstrKind::kCmp:
          op.kind = OpKind::kCmp;
          op.code = static_cast<uint8_t>(instr->cmp_pred());
          op.a = ref(instr->operand(0));
          op.b = ref(instr->operand(1));
          break;
        case InstrKind::kCast: {
          op.kind = OpKind::kCast;
          op.a = ref(instr->operand(0));
          const IrType* to = instr->type();
          CastTo cast = CastTo::kSame;
          if (to->kind() == IrTypeKind::kFloat) {
            cast = CastTo::kFloat;
          } else if (to->IsBool()) {
            cast = CastTo::kBool;
          } else if (to->IsInteger()) {
            // Integer truncation — this is where 9000000000 silently becomes
            // an overflowed 32-bit value (paper Figure 5(a)).
            cast = to->bit_width() == 8    ? CastTo::kInt8
                   : to->bit_width() == 16 ? CastTo::kInt16
                   : to->bit_width() == 32 ? CastTo::kInt32
                                           : CastTo::kInt64;
          }
          op.code = static_cast<uint8_t>(cast);
          break;
        }
        case InstrKind::kCall: {
          int32_t callee = LookupFunction(instr->callee());
          if (callee >= 0) {
            op.kind = OpKind::kCallFunction;
            op.callee = static_cast<uint32_t>(callee);
          } else {
            op.kind = OpKind::kCallIntrinsic;
            op.code = static_cast<uint8_t>(IntrinsicNamed(instr->callee()));
          }
          op.x = static_cast<uint32_t>(plan->call_args.size());
          op.y = static_cast<uint32_t>(instr->operand_count());
          for (const Value* arg : instr->operands()) {
            plan->call_args.push_back(ref(arg));
          }
          break;
        }
        case InstrKind::kFieldAddr:
          op.kind = OpKind::kFieldAddr;
          op.a = ref(instr->operand(0));
          op.x = static_cast<uint32_t>(instr->field_index());
          break;
        case InstrKind::kIndexAddr:
          op.kind = OpKind::kIndexAddr;
          op.a = ref(instr->operand(0));
          op.b = ref(instr->operand(1));
          break;
        case InstrKind::kBr:
          op.kind = OpKind::kBr;
          break;
        case InstrKind::kCondBr:
          op.kind = OpKind::kCondBr;
          op.a = ref(instr->operand(0));
          break;
        case InstrKind::kSwitch:
          op.kind = OpKind::kSwitch;
          op.a = ref(instr->operand(0));
          op.x = static_cast<uint32_t>(plan->switch_targets.size());
          op.y = static_cast<uint32_t>(instr->switch_values().size());
          plan->switch_targets.resize(plan->switch_targets.size() + op.y + 1);
          break;
        case InstrKind::kRet:
          op.kind = OpKind::kRet;
          if (instr->operand_count() == 1) {
            op.a = ref(instr->operand(0));
            op.y = 1;
          }
          break;
        case InstrKind::kUnreachable:
          op.kind = OpKind::kUnreachable;
          break;
      }
      plan->ops.push_back(op);
      if (instr->IsTerminator()) {
        terminated = true;
        break;
      }
    }
    if (!terminated) {
      Op fall_off;
      fall_off.kind = OpKind::kFallOff;
      plan->ops.push_back(fall_off);
    }
  }
  // Patch branch targets now that every block's first op is known.
  auto start_of = [&](const BasicBlock* block) {
    size_t index = block->index();
    if (index >= fn.blocks().size() || fn.blocks()[index].get() != block) {
      // Block indices are stale (the function was never finalized).
      index = 0;
      while (index + 1 < fn.blocks().size() && fn.blocks()[index].get() != block) {
        ++index;
      }
    }
    return block_start[index];
  };
  for (Op& op : plan->ops) {
    if (op.kind == OpKind::kBr || op.kind == OpKind::kCondBr) {
      op.x = start_of(op.instr->successors()[0]);
    }
    if (op.kind == OpKind::kCondBr) {
      op.y = start_of(op.instr->successors()[1]);
    }
    if (op.kind == OpKind::kSwitch) {
      for (uint32_t i = 0; i <= op.y; ++i) {
        plan->switch_targets[op.x + i] = start_of(op.instr->successors()[i]);
      }
    }
  }
  return plan;
}

void Interpreter::Reset() {
  global_cells_ = init_cells_;
  overflow_cells_ = init_overflow_;
  overflow_paths_ = init_paths_;
  RebuildOverflowIndex();
  spilled_.clear();
  std::fill(global_read_stamps_.begin(), global_read_stamps_.end(), 0);
  std::fill(global_write_stamps_.begin(), global_write_stamps_.end(), 0);
  logs_.clear();
  log_bytes_ = 0;
  UnwindFrames();
  arg_stack_.clear();
  steps_ = 0;
  next_frame_id_ = num_globals_;
  os_ops_ = 0;
  stale_cell_ops_ = 0;
  access_stamp_ = 1;
  call_depth_ = 0;
}

Interpreter::Snapshot Interpreter::TakeSnapshot() const {
  Snapshot snapshot;
  snapshot.cells_ = global_cells_;
  snapshot.spilled_ = spilled_;
  snapshot.paths_ = overflow_paths_;
  snapshot.overflow_ = overflow_cells_;
  snapshot.read_stamps_ = global_read_stamps_;
  snapshot.write_stamps_ = global_write_stamps_;
  snapshot.logs_ = logs_;
  snapshot.log_bytes_ = log_bytes_;
  snapshot.steps_ = steps_;
  snapshot.os_ops_ = os_ops_;
  snapshot.stale_cell_ops_ = stale_cell_ops_;
  snapshot.next_frame_id_ = next_frame_id_;
  snapshot.access_stamp_ = access_stamp_;
  return snapshot;
}

void Interpreter::RestoreSnapshot(const Snapshot& snapshot) {
  UnwindFrames();
  global_cells_ = snapshot.cells_;
  spilled_ = snapshot.spilled_;
  overflow_paths_ = snapshot.paths_;
  RebuildOverflowIndex();
  overflow_cells_ = snapshot.overflow_;
  global_read_stamps_ = snapshot.read_stamps_;
  global_write_stamps_ = snapshot.write_stamps_;
  logs_ = snapshot.logs_;
  log_bytes_ = snapshot.log_bytes_;
  steps_ = snapshot.steps_;
  os_ops_ = snapshot.os_ops_;
  stale_cell_ops_ = snapshot.stale_cell_ops_;
  next_frame_id_ = snapshot.next_frame_id_;
  access_stamp_ = snapshot.access_stamp_;
  arg_stack_.clear();
  call_depth_ = 0;
}

RtValue Interpreter::DefaultValueFor(const IrType* type) const {
  if (type == nullptr) {
    return RtValue::Int(0);
  }
  switch (type->kind()) {
    case IrTypeKind::kFloat:
      return RtValue::Float(0);
    case IrTypeKind::kString:
    case IrTypeKind::kPointer:
      return RtValue::Null();
    default:
      return RtValue::Int(0);
  }
}

void Interpreter::BuildInitImage() {
  for (uint32_t g = 0; g < num_globals_; ++g) {
    const Layout& layout = global_layouts_[g];
    for (uint32_t local = 0; local < layout.size; ++local) {
      init_cells_[layout.base + local] = DefaultCellValue(layout, local);
    }
  }
  for (uint32_t g = 0; g < num_globals_; ++g) {
    const GlobalVariable* global = module_.globals()[g].get();
    const Layout& layout = global_layouts_[g];
    const GlobalInit& init = global->init();

    auto leaf_value = [this](const GlobalInit& leaf) -> RtValue {
      switch (leaf.kind) {
        case GlobalInit::Kind::kInt:
          return RtValue::Int(leaf.int_value);
        case GlobalInit::Kind::kFloat:
          return RtValue::Float(leaf.float_value);
        case GlobalInit::Kind::kString:
          return InternedString(leaf.string_value);
        case GlobalInit::Kind::kNull:
          return RtValue::Null();
        case GlobalInit::Kind::kGlobalRef: {
          // Address of another global, or a function reference.
          int32_t target = LookupGlobal(leaf.string_value);
          if (target >= 0) {
            return Address(target, global_layouts_[target].base);
          }
          return RtValue::PooledFnRef(pool_.Intern(leaf.string_value));
        }
        default:
          return RtValue::Int(0);
      }
    };
    auto store_leaf = [&](std::vector<int64_t> steps, const GlobalInit& leaf) {
      uint32_t local = 0;
      for (int64_t step : steps) {
        local = local == kNoCell ? kNoCell : layout.Step(local, step);
      }
      if (local != kNoCell) {
        init_cells_[layout.base + local] = leaf_value(leaf);
        return;
      }
      uint32_t path = InternOverflowPath({g, std::move(steps)});
      init_overflow_[OverflowKey(g, kOverflowBit | path)] = leaf_value(leaf);
    };

    if (init.kind == GlobalInit::Kind::kNone) {
      continue;  // The root cell already holds the type default.
    }
    if (init.kind != GlobalInit::Kind::kList) {
      init_cells_[layout.base] = leaf_value(init);
      continue;
    }
    // Array and/or struct initializer.
    const IrType* type = global->value_type();
    for (size_t i = 0; i < init.elements.size(); ++i) {
      const GlobalInit& element = init.elements[i];
      if (element.kind == GlobalInit::Kind::kList) {
        // Struct row (possibly inside an array).
        for (size_t j = 0; j < element.elements.size(); ++j) {
          store_leaf({static_cast<int64_t>(i), static_cast<int64_t>(j)}, element.elements[j]);
        }
      } else if (global->is_array()) {
        store_leaf({static_cast<int64_t>(i)}, element);
      } else if (type->IsStruct()) {
        // Struct initializer without nesting: field i.
        store_leaf({static_cast<int64_t>(i)}, element);
      }
    }
  }
  init_paths_ = overflow_paths_;
}

// ---------------------------------------------------------------------------
// Memory.

Interpreter::Frame& Interpreter::PushFrame(const FunctionPlan& plan) {
  if (next_frame_id_ == std::numeric_limits<uint32_t>::max()) {
    // Only a run far past any step budget gets here: treat it as a hang.
    throw HangError();
  }
  auto take_buffer = [this] {
    std::vector<RtValue> buffer;
    if (!buffer_pool_.empty()) {
      buffer = std::move(buffer_pool_.back());
      buffer_pool_.pop_back();
    }
    return buffer;
  };
  Frame& frame = frames_.emplace_back();
  frame.plan = &plan;
  frame.id = next_frame_id_++;
  frame.regs = take_buffer();
  frame.regs.assign(plan.regs, RtValue());
  if (!plan.cell_init.empty()) {
    frame.cells = take_buffer();
    frame.cells.assign(plan.cell_init.begin(), plan.cell_init.end());
  }
  return frame;
}

void Interpreter::PopFrame() {
  Frame& frame = frames_.back();
  if (frame.escaped) {
    // Some address of this frame outlives it: keep its cells for stale
    // reads (and snapshots) under the frame's id.
    SpilledFrame spilled{frame.id, frame.plan->function, std::move(frame.cells)};
    auto at = std::upper_bound(
        spilled_.begin(), spilled_.end(), frame.id,
        [](uint32_t id, const SpilledFrame& other) { return id < other.id; });
    spilled_.insert(at, std::move(spilled));
  } else {
    if (frame.overflowed) {
      uint32_t id = frame.id;
      std::erase_if(overflow_cells_, [id](const auto& cell) { return cell.first >> 32 == id; });
    }
    if (frame.cells.capacity() > 0) {
      buffer_pool_.push_back(std::move(frame.cells));
    }
  }
  buffer_pool_.push_back(std::move(frame.regs));
  frames_.pop_back();
}

void Interpreter::UnwindFrames() {
  while (!frames_.empty()) {
    PopFrame();
  }
}

Interpreter::Frame* Interpreter::LiveFrame(uint32_t id) {
  for (auto it = frames_.rbegin(); it != frames_.rend(); ++it) {
    if (it->id == id) {
      return &*it;
    }
  }
  return nullptr;
}

Interpreter::SpilledFrame* Interpreter::FindSpilled(uint32_t id) {
  auto it = std::lower_bound(spilled_.begin(), spilled_.end(), id,
                             [](const SpilledFrame& frame, uint32_t key) { return frame.id < key; });
  return it != spilled_.end() && it->id == id ? &*it : nullptr;
}

const Interpreter::FunctionPlan& Interpreter::FramePlan(uint32_t storage) {
  if (Frame* frame = LiveFrame(storage)) {
    return *frame->plan;
  }
  if (SpilledFrame* spilled = FindSpilled(storage)) {
    return PlanFor(spilled->function);
  }
  throw TrapError("Segmentation fault (dangling frame address)");
}

const Interpreter::Layout& Interpreter::RootLayout(uint32_t storage, uint32_t root) {
  return storage < num_globals_ ? global_layouts_[storage] : FramePlan(storage).allocas[root];
}

uint32_t Interpreter::InternOverflowPath(OverflowPath path) {
  auto it = overflow_path_ids_.find(path);
  if (it != overflow_path_ids_.end()) {
    return it->second;
  }
  if (overflow_paths_.size() >= kOverflowBit) {
    throw HangError();  // As with frame ids: only reachable far past any step budget.
  }
  uint32_t id = static_cast<uint32_t>(overflow_paths_.size());
  overflow_path_ids_.emplace(path, id);
  overflow_paths_.push_back(std::move(path));
  return id;
}

void Interpreter::RebuildOverflowIndex() {
  if (!overflow_path_ids_.empty()) {
    overflow_path_ids_.clear();
  }
  for (uint32_t id = 0; id < overflow_paths_.size(); ++id) {
    overflow_path_ids_.emplace(overflow_paths_[id], id);
  }
}

RtValue Interpreter::StepAddress(RtValue base, int64_t step) {
  uint32_t storage = base.addr.storage;
  uint32_t offset = base.addr.offset;
  if ((offset & kOverflowBit) != 0) {
    OverflowPath path = overflow_paths_[offset & ~kOverflowBit];
    path.steps.push_back(step);
    base.addr.offset = kOverflowBit | InternOverflowPath(std::move(path));
    return base;
  }
  uint32_t root = storage;
  const Layout* layout = nullptr;
  if (storage < num_globals_) {
    layout = &global_layouts_[storage];
  } else {
    const FunctionPlan& plan = FramePlan(storage);
    root = plan.cell_owner[offset];
    layout = &plan.allocas[root];
  }
  uint32_t local = offset - layout->base;
  uint32_t next = layout->Step(local, step);
  if (next != kNoCell) {
    base.addr.offset = layout->base + next;
    return base;
  }
  int64_t prefix[2];
  size_t length = layout->PathOf(local, prefix);
  OverflowPath path{root, std::vector<int64_t>(prefix, prefix + length)};
  path.steps.push_back(step);
  base.addr.offset = kOverflowBit | InternOverflowPath(std::move(path));
  return base;
}

void Interpreter::CheckBounds(uint32_t storage, uint32_t offset, const Instruction* at) {
  // In-layout cells of an array are in bounds by construction; only an
  // overflow path can carry an out-of-range first step.
  if ((offset & kOverflowBit) == 0) {
    return;
  }
  const OverflowPath& path = overflow_paths_[offset & ~kOverflowBit];
  int64_t bound = RootLayout(storage, path.root).bound;
  if (bound <= 0) {
    return;
  }
  int64_t index = path.steps.front();
  if (index < 0 || index >= bound) {
    throw TrapError("Segmentation fault (array index " + std::to_string(index) +
                    " out of bounds 0.." + std::to_string(bound - 1) + " at " +
                    (at != nullptr ? at->loc().ToString() : "<unknown>") + ")");
  }
}

RtValue* Interpreter::ResolveCell(const RtValue& addr, const Instruction* at, bool write) {
  uint32_t storage = addr.addr.storage;
  uint32_t offset = addr.addr.offset;
  bool overflow = (offset & kOverflowBit) != 0;
  CheckBounds(storage, offset, at);
  RtValue* cells = nullptr;
  if (storage < num_globals_) {
    (write ? global_write_stamps_ : global_read_stamps_)[storage] = access_stamp_;
    cells = global_cells_.data();
  } else if (Frame* frame = LiveFrame(storage)) {
    frame->overflowed = frame->overflowed || (overflow && write);
    cells = frame->cells.data();
  } else if (SpilledFrame* spilled = FindSpilled(storage)) {
    ++stale_cell_ops_;  // Escaped &local from a completed call.
    cells = spilled->cells.data();
  } else {
    throw TrapError("Segmentation fault (dangling frame address)");
  }
  if (!overflow) {
    return &cells[offset];
  }
  uint64_t key = OverflowKey(storage, offset);
  if (write) {
    return &overflow_cells_[key];
  }
  auto it = overflow_cells_.find(key);
  return it != overflow_cells_.end() ? &it->second : nullptr;
}

RtValue Interpreter::DefaultCellValue(const Value* root, std::span<const int64_t> steps) const {
  const IrType* type = nullptr;
  bool array = false;
  if (root->value_kind() == ValueKind::kGlobal) {
    const auto* global = static_cast<const GlobalVariable*>(root);
    type = global->value_type();
    array = global->is_array();
  } else if (root->value_kind() == ValueKind::kInstruction) {
    const auto* alloca = static_cast<const Instruction*>(root);
    type = alloca->allocated_type();
    array = alloca->alloca_array_size() > 0;
  }
  // An array's first step is the element index, which keeps the element
  // type (arrays are typed by their element); every later step into a
  // struct selects a field.
  for (size_t i = array ? 1 : 0; i < steps.size() && type != nullptr; ++i) {
    if (type->IsStruct()) {
      size_t field = static_cast<size_t>(steps[i]);
      type = field < type->field_types().size() ? type->field_types()[field] : nullptr;
    }
  }
  return DefaultValueFor(type);
}

RtValue Interpreter::DefaultCellValue(const Layout& layout, uint32_t local) const {
  int64_t steps[2];
  size_t length = layout.PathOf(local, steps);
  return DefaultCellValue(layout.root, std::span<const int64_t>(steps, length));
}

RtValue Interpreter::LoadCell(const RtValue& addr, const Instruction* at) {
  if (addr.kind == RtValue::Kind::kNull) {
    throw TrapError("Segmentation fault (null pointer dereference)");
  }
  if (addr.kind != RtValue::Kind::kAddr) {
    throw TrapError("Segmentation fault (load through non-pointer value)");
  }
  if (const RtValue* cell = ResolveCell(addr, at, /*write=*/false)) {
    return *cell;
  }
  // Untouched overflow cell: default by leaf type.
  const OverflowPath& path = overflow_paths_[addr.addr.offset & ~kOverflowBit];
  return DefaultCellValue(RootLayout(addr.addr.storage, path.root).root, path.steps);
}

void Interpreter::StoreCell(const RtValue& addr, const RtValue& value, const Instruction* at) {
  if (addr.kind == RtValue::Kind::kNull) {
    throw TrapError("Segmentation fault (null pointer write)");
  }
  if (addr.kind != RtValue::Kind::kAddr) {
    throw TrapError("Segmentation fault (store through non-pointer value)");
  }
  *ResolveCell(addr, at, /*write=*/true) = value;
  NoteStoredAddress(value);
}

void Interpreter::NoteStoredAddress(const RtValue& value) {
  if (value.kind == RtValue::Kind::kAddr && value.addr.storage >= num_globals_) {
    if (Frame* frame = LiveFrame(value.addr.storage)) {
      frame->escaped = true;
    }
  }
}

// ---------------------------------------------------------------------------
// Execution.

void Interpreter::Step() {
  if (++steps_ > options_.max_steps) {
    throw HangError();
  }
  // The deadline check rides the step-budget path: same counter, same
  // unwind mechanism, polled once per kCancelPollInterval steps so the
  // request deadline interrupts even a loop the step budget would take
  // milliseconds to catch.
  if ((steps_ & (kCancelPollInterval - 1)) == 0 && cancel_ != nullptr &&
      cancel_->ShouldCancel()) {
    throw CancelError();
  }
}

CallOutcome Interpreter::Call(const std::string& function, std::vector<RtValue> args) {
  CallOutcome outcome;
  int32_t fn = LookupFunction(function);
  if (fn < 0) {
    outcome.status = CallOutcome::Status::kTrap;
    outcome.trap_reason = "no such function: " + function;
    return outcome;
  }
  try {
    size_t base = arg_stack_.size();
    arg_stack_.insert(arg_stack_.end(), args.begin(), args.end());
    outcome.return_value = RunFunction(static_cast<uint32_t>(fn), base, args.size());
    outcome.status = CallOutcome::Status::kOk;
  } catch (const ExitRequest& exit_request) {
    outcome.status = CallOutcome::Status::kExit;
    outcome.exit_code = exit_request.code();
  } catch (const TrapError& trap) {
    outcome.status = CallOutcome::Status::kTrap;
    outcome.trap_reason = trap.reason();
  } catch (const HangError&) {
    outcome.status = CallOutcome::Status::kHang;
    outcome.trap_reason = "step budget exhausted";
  } catch (const CancelError&) {
    outcome.status = CallOutcome::Status::kCancelled;
    outcome.trap_reason = cancel_ != nullptr &&
                                  cancel_->reason() == CancelToken::Reason::kDeadline
                              ? "request deadline exceeded mid-execution"
                              : "request cancelled mid-execution";
  }
  // Trap/exit/hang unwinding skips RunFunction's frame pops.
  UnwindFrames();
  arg_stack_.clear();
  call_depth_ = 0;
  return outcome;
}

RtValue Interpreter::RunFunction(uint32_t function, size_t args_base, size_t argc) {
  if (++call_depth_ > options_.max_call_depth) {
    --call_depth_;
    throw TrapError("Segmentation fault (stack overflow)");
  }
  const FunctionPlan& plan = PlanFor(function);
  Frame& frame = PushFrame(plan);
  RtValue* regs = frame.regs.data();
  RtValue* cells = frame.cells.data();
  const RtValue* consts = plan.consts.data();
  const uint32_t self = frame.id;
  for (size_t i = 0; i < plan.arg_regs.size(); ++i) {
    regs[plan.arg_regs[i]] = i < argc ? arg_stack_[args_base + i] : plan.arg_defaults[i];
  }
  auto value = [regs, consts](int32_t ref) -> const RtValue& {
    return ref >= 0 ? regs[ref] : consts[~ref];
  };
  auto global_cell = [this](const RtValue& addr) {
    return addr.kind == RtValue::Kind::kAddr && addr.addr.storage < num_globals_ &&
           (addr.addr.offset & kOverflowBit) == 0;
  };
  auto own_cell = [self](const RtValue& addr) {
    return addr.kind == RtValue::Kind::kAddr && addr.addr.storage == self &&
           (addr.addr.offset & kOverflowBit) == 0;
  };

  const Op* ops = plan.ops.data();
  uint32_t pc = 0;
  while (true) {
    const Op& op = ops[pc++];
    if (op.kind == OpKind::kFallOff) {
      --call_depth_;
      PopFrame();
      return plan.result_default;
    }
    Step();
    switch (op.kind) {
      case OpKind::kAlloca:
        regs[op.dst] = Address(self, op.x);
        break;
      case OpKind::kLoad: {
        const RtValue& addr = value(op.a);
        if (own_cell(addr)) {
          regs[op.dst] = cells[addr.addr.offset];
        } else if (global_cell(addr)) {
          global_read_stamps_[addr.addr.storage] = access_stamp_;
          regs[op.dst] = global_cells_[addr.addr.offset];
        } else {
          regs[op.dst] = LoadCell(addr, op.instr);
        }
        break;
      }
      case OpKind::kStore: {
        const RtValue& stored = value(op.a);
        const RtValue& addr = value(op.b);
        if (stored.kind != RtValue::Kind::kAddr && own_cell(addr)) {
          cells[addr.addr.offset] = stored;
        } else if (stored.kind != RtValue::Kind::kAddr && global_cell(addr)) {
          global_write_stamps_[addr.addr.storage] = access_stamp_;
          global_cells_[addr.addr.offset] = stored;
        } else {
          StoreCell(addr, stored, op.instr);
        }
        break;
      }
      case OpKind::kBinOp: {
        const RtValue& lhs = value(op.a);
        const RtValue& rhs = value(op.b);
        if (lhs.kind == RtValue::Kind::kFloat || rhs.kind == RtValue::Kind::kFloat) {
          double a = lhs.AsFloat();
          double b = rhs.AsFloat();
          double out = 0;
          switch (static_cast<IrBinOp>(op.code)) {
            case IrBinOp::kAdd:
              out = a + b;
              break;
            case IrBinOp::kSub:
              out = a - b;
              break;
            case IrBinOp::kMul:
              out = a * b;
              break;
            case IrBinOp::kDiv:
              if (b == 0) {
                throw TrapError("Floating point exception (division by zero)");
              }
              out = a / b;
              break;
            default:
              out = 0;
              break;
          }
          regs[op.dst] = RtValue::Float(out);
          break;
        }
        int64_t out = 0;
        if (const char* trap =
                EvalIntBinOp(static_cast<IrBinOp>(op.code), lhs.AsInt(), rhs.AsInt(), &out)) {
          throw TrapError(trap);
        }
        regs[op.dst] = RtValue::Int(out);
        break;
      }
      case OpKind::kCmp: {
        const RtValue& lhs = value(op.a);
        const RtValue& rhs = value(op.b);
        bool result_bool = false;
        bool string_side = lhs.kind == RtValue::Kind::kString ||
                           rhs.kind == RtValue::Kind::kString ||
                           lhs.kind == RtValue::Kind::kNull || rhs.kind == RtValue::Kind::kNull;
        auto holds = [pred = static_cast<IrCmpPred>(op.code)](auto a, auto b) {
          switch (pred) {
            case IrCmpPred::kEq:
              return a == b;
            case IrCmpPred::kNe:
              return a != b;
            case IrCmpPred::kLt:
              return a < b;
            case IrCmpPred::kLe:
              return a <= b;
            case IrCmpPred::kGt:
              return a > b;
            case IrCmpPred::kGe:
              return a >= b;
          }
          return false;
        };
        if (string_side) {
          bool lhs_null = lhs.kind == RtValue::Kind::kNull;
          bool rhs_null = rhs.kind == RtValue::Kind::kNull;
          int order;
          if (lhs_null || rhs_null) {
            order = (lhs_null && rhs_null) ? 0 : (lhs_null ? -1 : 1);
          } else if (lhs.SamePayload(rhs)) {
            order = 0;  // Same pooled payload.
          } else {
            order = CompareStrings(lhs.str(), rhs.str());
          }
          result_bool = holds(order, 0);
        } else if (lhs.kind == RtValue::Kind::kFloat || rhs.kind == RtValue::Kind::kFloat) {
          result_bool = holds(lhs.AsFloat(), rhs.AsFloat());
        } else {
          result_bool = holds(lhs.AsInt(), rhs.AsInt());
        }
        regs[op.dst] = RtValue::Int(result_bool ? 1 : 0);
        break;
      }
      case OpKind::kCast: {
        const RtValue& operand = value(op.a);
        switch (static_cast<CastTo>(op.code)) {
          case CastTo::kFloat:
            regs[op.dst] = RtValue::Float(operand.AsFloat());
            break;
          case CastTo::kBool:
            regs[op.dst] = RtValue::Int(operand.IsTruthy() ? 1 : 0);
            break;
          case CastTo::kInt8:
            regs[op.dst] = RtValue::Int(WrapToIntWidth(operand.AsInt(), 8));
            break;
          case CastTo::kInt16:
            regs[op.dst] = RtValue::Int(WrapToIntWidth(operand.AsInt(), 16));
            break;
          case CastTo::kInt32:
            regs[op.dst] = RtValue::Int(WrapToIntWidth(operand.AsInt(), 32));
            break;
          case CastTo::kInt64:
            regs[op.dst] = RtValue::Int(operand.AsInt());
            break;
          case CastTo::kSame:
            regs[op.dst] = operand;
            break;
        }
        break;
      }
      case OpKind::kCallFunction:
      case OpKind::kCallIntrinsic: {
        size_t base = arg_stack_.size();
        for (uint32_t i = 0; i < op.y; ++i) {
          arg_stack_.push_back(value(plan.call_args[op.x + i]));
        }
        RtValue result = op.kind == OpKind::kCallFunction
                             ? RunFunction(op.callee, base, op.y)
                             : Intrinsic(static_cast<IntrinsicId>(op.code), op.instr, base, op.y);
        arg_stack_.resize(base);
        regs[op.dst] = result;
        break;
      }
      case OpKind::kFieldAddr: {
        const RtValue& base = value(op.a);
        if (base.kind == RtValue::Kind::kNull) {
          throw TrapError("Segmentation fault (null pointer field access)");
        }
        if (base.kind != RtValue::Kind::kAddr) {
          throw TrapError("Segmentation fault (field access on non-pointer)");
        }
        regs[op.dst] = StepAddress(base, op.x);
        break;
      }
      case OpKind::kIndexAddr: {
        const RtValue& base = value(op.a);
        if (base.kind == RtValue::Kind::kNull) {
          throw TrapError("Segmentation fault (null pointer indexing)");
        }
        if (base.kind != RtValue::Kind::kAddr) {
          throw TrapError("Segmentation fault (indexing a non-pointer)");
        }
        regs[op.dst] = StepAddress(base, value(op.b).AsInt());
        break;
      }
      case OpKind::kBr:
        pc = op.x;
        break;
      case OpKind::kCondBr:
        pc = value(op.a).IsTruthy() ? op.x : op.y;
        break;
      case OpKind::kSwitch: {
        int64_t subject = value(op.a).AsInt();
        const std::vector<int64_t>& cases = op.instr->switch_values();
        pc = plan.switch_targets[op.x];  // default
        for (uint32_t i = 0; i < op.y; ++i) {
          if (cases[i] == subject) {
            pc = plan.switch_targets[op.x + 1 + i];
            break;
          }
        }
        break;
      }
      case OpKind::kRet: {
        --call_depth_;
        RtValue ret = op.y != 0 ? value(op.a) : plan.result_default;
        if (ret.kind == RtValue::Kind::kAddr && ret.addr.storage == self) {
          frame.escaped = true;  // Returning &local: the cells outlive the call.
        }
        PopFrame();
        return ret;
      }
      case OpKind::kUnreachable:
        throw TrapError("Segmentation fault (unreachable code executed)");
      case OpKind::kFallOff:
        break;  // Handled before Step().
    }
  }
}

// ---------------------------------------------------------------------------
// Logging.

void Interpreter::AppendLog(std::string level, const std::string& message) {
  std::string line = std::move(level) + ": " + message;
  if (line.size() > kMaxLogBytes - log_bytes_) {
    throw TrapError("log budget of " + std::to_string(kMaxLogBytes) + " bytes exhausted");
  }
  log_bytes_ += line.size();
  logs_.push_back(std::move(line));
}

std::string Interpreter::FormatMessage(const std::string& format,
                                       std::span<const RtValue> args,
                                       size_t first_arg) const {
  std::string out;
  size_t arg_index = first_arg;
  for (size_t i = 0; i < format.size(); ++i) {
    if (format[i] != '%' || i + 1 >= format.size()) {
      out.push_back(format[i]);
      continue;
    }
    // Accept %d %i %s %u and the l-prefixed variants.
    size_t j = i + 1;
    while (j < format.size() && format[j] == 'l') {
      ++j;
    }
    if (j < format.size() &&
        (format[j] == 'd' || format[j] == 'i' || format[j] == 'u' || format[j] == 's')) {
      if (arg_index < args.size()) {
        const RtValue& arg = args[arg_index++];
        if (format[j] == 's') {
          out += arg.kind == RtValue::Kind::kNull ? "(null)" : arg.str();
        } else {
          out += std::to_string(arg.AsInt());
        }
      }
      i = j;
    } else {
      out.push_back(format[i]);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Intrinsics (simulated C library + OS surface).

namespace {

// C-style prefix integer parse (what atoi/strtol do with garbage input).
// Overlong digit strings wrap in two's complement, like the target's own
// unchecked accumulation loop.
int64_t ParsePrefixInt(const std::string& text) {
  size_t i = 0;
  while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i])) != 0) {
    ++i;
  }
  bool negative = false;
  if (i < text.size() && (text[i] == '-' || text[i] == '+')) {
    negative = text[i] == '-';
    ++i;
  }
  uint64_t value = 0;
  while (i < text.size() && std::isdigit(static_cast<unsigned char>(text[i])) != 0) {
    value = value * 10 + static_cast<uint64_t>(text[i] - '0');
    ++i;
  }
  return static_cast<int64_t>(negative ? 0 - value : value);
}

}  // namespace

RtValue Interpreter::Intrinsic(IntrinsicId id, const Instruction* instr, size_t args_base,
                               size_t argc) {
  // A view of the argument stack: valid until the next push, so only
  // kInvokeHandler (whose callee pushes) must not read it after calling.
  std::span<const RtValue> args(arg_stack_.data() + args_base, argc);
  const std::string& name = instr->callee();
  auto need_string = [&](size_t index) -> const std::string& {
    if (index >= args.size() || args[index].kind == RtValue::Kind::kNull) {
      throw TrapError("Segmentation fault (null string passed to " + name + ")");
    }
    if (args[index].kind != RtValue::Kind::kString) {
      throw TrapError("Segmentation fault (non-string passed to " + name + ")");
    }
    return args[index].str();
  };
  auto arg_int = [&](size_t index) -> int64_t {
    return index < args.size() ? args[index].AsInt() : 0;
  };

  // Count every intrinsic whose answer or effect involves mutable
  // simulated-OS state (filesystem, ports, users, clock, allocator). The
  // campaign's snapshot-replay hazard check treats any OS traffic in both
  // reordered segments as a conflict.
  switch (id) {
    case IntrinsicId::kOpen:
    case IntrinsicId::kFopen:
    case IntrinsicId::kOpendir:
    case IntrinsicId::kAccess:
    case IntrinsicId::kUnlink:
    case IntrinsicId::kMkdir:
    case IntrinsicId::kChdir:
    case IntrinsicId::kChown:
    case IntrinsicId::kBind:
    case IntrinsicId::kConnect:
    case IntrinsicId::kInetAddr:
    case IntrinsicId::kInetAton:
    case IntrinsicId::kGethostbyname:
    case IntrinsicId::kGetpwnam:
    case IntrinsicId::kGetgrnam:
    case IntrinsicId::kSetuidUser:
    case IntrinsicId::kSleep:
    case IntrinsicId::kUsleep:
    case IntrinsicId::kPollWait:
    case IntrinsicId::kTime:
    case IntrinsicId::kMalloc:
      ++os_ops_;
      break;
    default:
      break;
  }

  switch (id) {
    // --- Strings.
    case IntrinsicId::kStrcmp: {
      const std::string& a = need_string(0);
      const std::string& b = need_string(1);
      if (args[0].sp == args[1].sp) {
        return RtValue::Int(0);  // Same pooled payload.
      }
      return RtValue::Int(CompareStrings(a, b));
    }
    case IntrinsicId::kStrcasecmp: {
      const std::string& a = need_string(0);
      const std::string& b = need_string(1);
      if (args[0].sp == args[1].sp) {
        return RtValue::Int(0);
      }
      return RtValue::Int(CompareStringsIgnoreCase(a, b));
    }
    case IntrinsicId::kStrncmp:
    case IntrinsicId::kStrncasecmp: {
      // Compare the length-limited prefixes in place — no substr/lowercase
      // temporaries. A negative count converts to a huge size_t in C, i.e.
      // the whole strings compare; substr clamps to size() for us.
      size_t limit = static_cast<size_t>(arg_int(2));
      std::string_view a = std::string_view(need_string(0)).substr(0, limit);
      std::string_view b = std::string_view(need_string(1)).substr(0, limit);
      int order = id == IntrinsicId::kStrncasecmp ? CompareStringsIgnoreCase(a, b)
                                                  : CompareStrings(a, b);
      return RtValue::Int(order);
    }
    case IntrinsicId::kStrlen:
      return RtValue::Int(static_cast<int64_t>(need_string(0).size()));
    case IntrinsicId::kStrdup:
      need_string(0);
      // Strings are immutable values here; "duplicating" an interned
      // payload is the identity.
      return args[0];
    case IntrinsicId::kCanonicalizePath:
      return InternedString(ReplaceAll(need_string(0), "//", "/"));
    case IntrinsicId::kTolowerStr:
      return InternedString(ToLowerCopy(need_string(0)));
    case IntrinsicId::kToupperStr:
      return InternedString(ToUpperCopy(need_string(0)));
    case IntrinsicId::kStrchr: {
      const std::string& s = need_string(0);
      char c = static_cast<char>(arg_int(1));
      size_t pos = s.find(c);
      return pos == std::string::npos ? RtValue::Null()
                                      : InternedString(std::string_view(s).substr(pos));
    }
    case IntrinsicId::kStrstr: {
      const std::string& s = need_string(0);
      const std::string& sub = need_string(1);
      size_t pos = s.find(sub);
      return pos == std::string::npos ? RtValue::Null()
                                      : InternedString(std::string_view(s).substr(pos));
    }

    // --- Conversions.
    case IntrinsicId::kAtoi:
      // Classic atoi: parses a prefix, wraps silently on 32-bit overflow.
      return RtValue::Int(static_cast<int32_t>(ParsePrefixInt(need_string(0))));
    case IntrinsicId::kAtol:
      return RtValue::Int(ParsePrefixInt(need_string(0)));
    case IntrinsicId::kStrtod: {
      const std::string& s = need_string(0);
      return RtValue::Float(std::strtod(s.c_str(), nullptr));
    }
    case IntrinsicId::kSscanf: {
      // Supported form: sscanf(text, "%d"-like, &out). Parses a prefix; on
      // total mismatch returns 0 and leaves the output untouched (the
      // undefined-on-garbage behaviour Figure 6(d) warns about).
      const std::string& text = need_string(0);
      size_t i = 0;
      while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i])) != 0) {
        ++i;
      }
      bool has_digits =
          i < text.size() && (std::isdigit(static_cast<unsigned char>(text[i])) != 0 ||
                              ((text[i] == '-' || text[i] == '+') && i + 1 < text.size() &&
                               std::isdigit(static_cast<unsigned char>(text[i + 1])) != 0));
      if (!has_digits) {
        return RtValue::Int(0);
      }
      if (args.size() >= 3 && args[2].kind == RtValue::Kind::kAddr) {
        StoreCell(args[2], RtValue::Int(ParsePrefixInt(text)), instr);
      }
      return RtValue::Int(1);
    }
    case IntrinsicId::kParseIntStrict: {
      // The safe-API alternative: whole-string parse with error reporting.
      const std::string& text = need_string(0);
      auto parsed = ParseInt64(text);
      if (!parsed.has_value()) {
        return RtValue::Int(-1);
      }
      if (args.size() >= 2 && args[1].kind == RtValue::Kind::kAddr) {
        StoreCell(args[1], RtValue::Int(*parsed), instr);
      }
      return RtValue::Int(0);
    }

    // --- Filesystem.
    case IntrinsicId::kOpen:
    case IntrinsicId::kFopen: {
      const std::string& path = need_string(0);
      if (os_->DirectoryExists(path)) {
        return RtValue::Int(-1);  // EISDIR
      }
      if (!os_->FileExists(path) || !os_->IsReadable(path)) {
        return id == IntrinsicId::kOpen ? RtValue::Int(-1) : RtValue::Int(0);
      }
      return RtValue::Int(3);
    }
    case IntrinsicId::kOpendir:
      return RtValue::Int(os_->DirectoryExists(need_string(0)) ? 3 : 0);
    case IntrinsicId::kAccess: {
      const std::string& path = need_string(0);
      bool exists = os_->FileExists(path) || os_->DirectoryExists(path);
      return RtValue::Int(exists ? 0 : -1);
    }
    case IntrinsicId::kUnlink:
      return RtValue::Int(os_->RemoveFile(need_string(0)) ? 0 : -1);
    case IntrinsicId::kMkdir:
      os_->AddDirectory(need_string(0));
      return RtValue::Int(0);
    case IntrinsicId::kChdir:
      return RtValue::Int(os_->DirectoryExists(need_string(0)) ? 0 : -1);
    case IntrinsicId::kChown: {
      const std::string& path = need_string(0);
      const std::string& user = need_string(1);
      bool ok = (os_->FileExists(path) || os_->DirectoryExists(path)) && os_->UserExists(user);
      return RtValue::Int(ok ? 0 : -1);
    }
    case IntrinsicId::kRetZero:
      return RtValue::Int(0);

    // --- Network.
    case IntrinsicId::kSocket:
      return RtValue::Int(3);
    case IntrinsicId::kBind:
      return RtValue::Int(os_->PortAvailable(arg_int(1)) ? 0 : -1);
    case IntrinsicId::kConnect: {
      bool ok = args.size() >= 3 && args[1].kind == RtValue::Kind::kString &&
                os_->ResolvesHost(args[1].str()) && arg_int(2) >= 1 && arg_int(2) <= 65535;
      return RtValue::Int(ok ? 0 : -1);
    }
    case IntrinsicId::kHtons:
      // 16-bit truncation: port 70000 silently becomes 4464.
      return RtValue::Int(arg_int(0) & 0xFFFF);
    case IntrinsicId::kHtonl:
      return RtValue::Int(arg_int(0) & 0xFFFFFFFFLL);
    case IntrinsicId::kInetAddr: {
      const std::string& text = need_string(0);
      return RtValue::Int(os_->IsValidIpAddress(text) ? 0x7f000001 : -1);
    }
    case IntrinsicId::kInetAton:
      return RtValue::Int(os_->IsValidIpAddress(need_string(0)) ? 1 : 0);
    case IntrinsicId::kGethostbyname:
      return RtValue::Int(os_->ResolvesHost(need_string(0)) ? 1 : 0);

    // --- Users.
    case IntrinsicId::kGetpwnam:
      return RtValue::Int(os_->UserExists(need_string(0)) ? 1 : 0);
    case IntrinsicId::kGetgrnam:
      return RtValue::Int(os_->GroupExists(need_string(0)) ? 1 : 0);
    case IntrinsicId::kSetuidUser:
      return RtValue::Int(os_->UserExists(need_string(0)) ? 0 : -1);

    // --- Time. Virtual sleeping burns steps so that absurd durations are
    // detected as hangs (100 steps per simulated second).
    case IntrinsicId::kSleep: {
      int64_t seconds = std::max<int64_t>(0, arg_int(0));
      os_->AdvanceClock(seconds);
      steps_ += std::min<int64_t>(seconds, 1'000'000) * 100;
      if (steps_ > options_.max_steps) {
        throw HangError();
      }
      // A simulated sleep can jump the step counter across many poll
      // intervals at once — poll the deadline here so "sleep(600)" in a
      // parse handler cannot dodge cancellation until the next real step.
      if (cancel_ != nullptr && cancel_->ShouldCancel()) {
        throw CancelError();
      }
      return RtValue::Int(0);
    }
    case IntrinsicId::kUsleep: {
      int64_t usec = std::max<int64_t>(0, arg_int(0));
      os_->AdvanceClock(usec / 1'000'000);
      steps_ += std::min<int64_t>(usec / 10'000, 100'000'000);
      if (steps_ > options_.max_steps) {
        throw HangError();
      }
      // A simulated sleep can jump the step counter across many poll
      // intervals at once — poll the deadline here so "sleep(600)" in a
      // parse handler cannot dodge cancellation until the next real step.
      if (cancel_ != nullptr && cancel_->ShouldCancel()) {
        throw CancelError();
      }
      return RtValue::Int(0);
    }
    case IntrinsicId::kPollWait: {
      int64_t msec = std::max<int64_t>(0, arg_int(0));
      os_->AdvanceClock(msec / 1000);
      steps_ += std::min<int64_t>(msec / 10, 100'000'000);
      if (steps_ > options_.max_steps) {
        throw HangError();
      }
      // A simulated sleep can jump the step counter across many poll
      // intervals at once — poll the deadline here so "sleep(600)" in a
      // parse handler cannot dodge cancellation until the next real step.
      if (cancel_ != nullptr && cancel_->ShouldCancel()) {
        throw CancelError();
      }
      return RtValue::Int(0);
    }
    case IntrinsicId::kTime:
      return RtValue::Int(os_->now());

    // --- Memory.
    case IntrinsicId::kMalloc:
      return RtValue::Int(os_->TryAllocate(arg_int(0)));

    // --- Process control.
    case IntrinsicId::kExit:
      throw ExitRequest(arg_int(0));
    case IntrinsicId::kAbort:
      throw TrapError("Segmentation fault (abort)");

    // --- Logging.
    case IntrinsicId::kPrintf:
      AppendLog("OUT", FormatMessage(need_string(0), args, 1));
      return RtValue::Int(0);
    case IntrinsicId::kFprintf:
      AppendLog("OUT", FormatMessage(need_string(1), args, 2));
      return RtValue::Int(0);
    case IntrinsicId::kSprintf:
      // sprintf(out_ignored, fmt, ...) — MiniC uses it only as the
      // unsafe-API example; formatting result is discarded.
      return RtValue::Int(0);
    case IntrinsicId::kLogInfo:
      AppendLog("INFO", FormatMessage(need_string(0), args, 1));
      return RtValue::Int(0);
    case IntrinsicId::kLogWarn:
      AppendLog("WARN", FormatMessage(need_string(0), args, 1));
      return RtValue::Int(0);
    case IntrinsicId::kLogError:
      AppendLog("ERROR", FormatMessage(need_string(0), args, 1));
      return RtValue::Int(0);
    case IntrinsicId::kLogFatal:
      AppendLog("FATAL", FormatMessage(need_string(0), args, 1));
      return RtValue::Int(0);

    // --- Indirect handler invocation (configuration dispatch tables).
    case IntrinsicId::kInvokeHandler: {
      if (args.empty() || args[0].kind != RtValue::Kind::kFnRef) {
        throw TrapError("Segmentation fault (call through non-function value)");
      }
      int32_t handler = LookupFunction(args[0].str());
      if (handler < 0) {
        throw TrapError("Segmentation fault (call through dangling handler '" + args[0].str() +
                        "')");
      }
      // The handler's arguments are ours minus the function reference.
      return RunFunction(static_cast<uint32_t>(handler), args_base + 1, argc - 1);
    }

    case IntrinsicId::kNone:
      break;
  }
  throw TrapError("unresolved external function: " + name);
}

std::optional<RtValue> Interpreter::ReadGlobal(const std::string& name) const {
  int32_t global = LookupGlobal(name);
  if (global < 0) {
    return std::nullopt;
  }
  return global_cells_[global_layouts_[global].base];
}

void Interpreter::WriteGlobal(const std::string& name, RtValue value) {
  int32_t global = LookupGlobal(name);
  if (global < 0) {
    return;
  }
  global_cells_[global_layouts_[global].base] = value;
}

bool Interpreter::GlobalWasRead(const std::string& name) const {
  int32_t global = LookupGlobal(name);
  return global >= 0 && global_read_stamps_[global] != 0;
}

}  // namespace spex
