// Core IR: values, instructions, basic blocks, functions, modules.
//
// The IR is a typed, memory-form (pre-mem2reg) SSA-like representation in the
// spirit of LLVM IR, which the paper's analyses run on. Locals live behind
// Alloca slots; every read is a Load and every write a Store, which is what
// makes the inference field-sensitive: addresses are (root, field-path)
// pairs built by FieldAddr/IndexAddr.
//
// Ownership: Module owns globals, functions and constants; Function owns its
// blocks; BasicBlock owns its instructions. Raw pointers elsewhere are
// non-owning borrows with module lifetime.
#ifndef SPEX_IR_IR_H_
#define SPEX_IR_IR_H_

#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/ir/type.h"
#include "src/support/source_loc.h"

namespace spex {

class BasicBlock;
class Function;
class Module;

// ---------------------------------------------------------------------------
// Values.

enum class ValueKind {
  kConstantInt,
  kConstantFloat,
  kConstantString,
  kConstantNull,
  kGlobal,
  kArgument,
  kInstruction,
};

class Value {
 public:
  virtual ~Value() = default;

  ValueKind value_kind() const { return value_kind_; }
  const IrType* type() const { return type_; }
  const std::string& name() const { return name_; }
  uint32_t id() const { return id_; }

  int64_t constant_int() const { return constant_int_; }
  double constant_float() const { return constant_float_; }
  const std::string& constant_string() const { return constant_string_; }

  std::string Label() const;

 protected:
  Value(ValueKind kind, const IrType* type) : value_kind_(kind), type_(type) {}

  ValueKind value_kind_;
  const IrType* type_;
  std::string name_;
  uint32_t id_ = 0;
  int64_t constant_int_ = 0;
  double constant_float_ = 0;
  std::string constant_string_;

  friend class Module;
  friend class Function;
};

// A formal parameter of a function.
class Argument : public Value {
 public:
  Argument(const IrType* type, std::string name, int index, Function* parent)
      : Value(ValueKind::kArgument, type), index_(index), parent_(parent) {
    name_ = std::move(name);
  }
  int index() const { return index_; }
  Function* parent() const { return parent_; }

 private:
  int index_;
  Function* parent_;
};

// ---------------------------------------------------------------------------
// Global variables and their initializers.

// Constant initializer tree for globals: scalars, global references
// (address-of, for mapping tables), and nested lists for arrays/structs.
struct GlobalInit {
  enum class Kind { kNone, kInt, kFloat, kString, kNull, kGlobalRef, kList };
  Kind kind = Kind::kNone;
  int64_t int_value = 0;
  double float_value = 0;
  std::string string_value;  // kString payload or kGlobalRef target name.
  std::vector<GlobalInit> elements;

  static GlobalInit Int(int64_t v);
  static GlobalInit Float(double v);
  static GlobalInit Str(std::string v);
  static GlobalInit Null();
  static GlobalInit Ref(std::string global_name);
  static GlobalInit List(std::vector<GlobalInit> items);
};

class GlobalVariable : public Value {
 public:
  // The global value itself is an address: its Value type is
  // pointer-to-value_type. A Load through it yields value_type.
  GlobalVariable(const IrType* pointer_type, const IrType* value_type, std::string name,
                 bool is_array, int64_t array_size)
      : Value(ValueKind::kGlobal, pointer_type),
        value_type_(value_type),
        is_array_(is_array),
        array_size_(array_size) {
    name_ = std::move(name);
  }

  const IrType* value_type() const { return value_type_; }
  bool is_array() const { return is_array_; }
  int64_t array_size() const { return array_size_; }
  const GlobalInit& init() const { return init_; }
  void set_init(GlobalInit init) { init_ = std::move(init); }
  const SourceLoc& loc() const { return loc_; }
  void set_loc(SourceLoc loc) { loc_ = std::move(loc); }

 private:
  const IrType* value_type_;
  bool is_array_;
  int64_t array_size_;
  GlobalInit init_;
  SourceLoc loc_;
};

// ---------------------------------------------------------------------------
// Instructions.

enum class InstrKind {
  kAlloca,
  kLoad,
  kStore,
  kBinOp,
  kCmp,
  kCast,
  kCall,
  kFieldAddr,
  kIndexAddr,
  kBr,
  kCondBr,
  kSwitch,
  kRet,
  kUnreachable,
};

enum class IrBinOp { kAdd, kSub, kMul, kDiv, kRem, kShl, kShr, kAnd, kOr, kXor };
enum class IrCmpPred { kEq, kNe, kLt, kLe, kGt, kGe };

const char* IrBinOpName(IrBinOp op);
const char* IrCmpPredName(IrCmpPred pred);
// The predicate that holds when `pred` is false (e.g. kLt -> kGe).
IrCmpPred NegateCmpPred(IrCmpPred pred);
// The predicate with operands swapped (e.g. a<b -> b>a).
IrCmpPred SwapCmpPred(IrCmpPred pred);

// MiniC integer conversion to an N-bit integer type: keep the low N bits and
// sign-extend them (for unsigned types too), as the interpreter's casts do.
inline int64_t WrapToIntWidth(int64_t value, int bit_width) {
  switch (bit_width) {
    case 8:
      return static_cast<int8_t>(value);
    case 16:
      return static_cast<int16_t>(value);
    case 32:
      return static_cast<int32_t>(value);
    default:
      return value;
  }
}

// MiniC integer arithmetic, shared by the interpreter and constant folding
// so that a folded integer global, converted to its declared type as a run
// time cast would convert it, equals the same expression computed at run time.
// Add, sub and mul wrap in two's complement; shift counts outside [0, 63]
// shift every bit out. Returns the trap reason for `/` and `%` by zero and
// for INT64_MIN / -1 (x86 raises SIGFPE for both), else nullptr with the
// result in *out.
inline const char* EvalIntBinOp(IrBinOp op, int64_t a, int64_t b, int64_t* out) {
  uint64_t ua = static_cast<uint64_t>(a);
  uint64_t ub = static_cast<uint64_t>(b);
  switch (op) {
    case IrBinOp::kAdd:
      *out = static_cast<int64_t>(ua + ub);
      break;
    case IrBinOp::kSub:
      *out = static_cast<int64_t>(ua - ub);
      break;
    case IrBinOp::kMul:
      *out = static_cast<int64_t>(ua * ub);
      break;
    case IrBinOp::kDiv:
    case IrBinOp::kRem:
      if (b == 0) {
        return "Floating point exception (integer division by zero)";
      }
      if (b == -1 && a == std::numeric_limits<int64_t>::min()) {
        return "Floating point exception (integer division overflow)";
      }
      *out = op == IrBinOp::kDiv ? a / b : a % b;
      break;
    case IrBinOp::kShl:
      *out = b < 0 || b >= 64 ? 0 : static_cast<int64_t>(ua << b);
      break;
    case IrBinOp::kShr:
      *out = b < 0 || b >= 64 ? 0 : a >> b;
      break;
    case IrBinOp::kAnd:
      *out = a & b;
      break;
    case IrBinOp::kOr:
      *out = a | b;
      break;
    case IrBinOp::kXor:
      *out = a ^ b;
      break;
  }
  return nullptr;
}

class Instruction : public Value {
 public:
  InstrKind instr_kind() const { return instr_kind_; }
  const SourceLoc& loc() const { return loc_; }
  BasicBlock* parent() const { return parent_; }

  const std::vector<Value*>& operands() const { return operands_; }
  Value* operand(size_t i) const { return operands_[i]; }
  size_t operand_count() const { return operands_.size(); }

  // kAlloca.
  const IrType* allocated_type() const { return allocated_type_; }
  int64_t alloca_array_size() const { return alloca_array_size_; }

  // kBinOp / kCmp.
  IrBinOp bin_op() const { return bin_op_; }
  IrCmpPred cmp_pred() const { return cmp_pred_; }

  // kCast.
  bool cast_is_explicit() const { return cast_is_explicit_; }

  // kCall: callee name; calls are direct.
  const std::string& callee() const { return callee_; }

  // kFieldAddr.
  const IrType* field_struct_type() const { return field_struct_type_; }
  int field_index() const { return field_index_; }
  const std::string& field_name() const;

  // Terminators: successor blocks.
  const std::vector<BasicBlock*>& successors() const { return successors_; }
  // kSwitch: case values parallel to successors()[1..]; successors()[0] is
  // the default target. kCondBr: successors() = {true_target, false_target}.
  const std::vector<int64_t>& switch_values() const { return switch_values_; }

  bool IsTerminator() const {
    return instr_kind_ == InstrKind::kBr || instr_kind_ == InstrKind::kCondBr ||
           instr_kind_ == InstrKind::kSwitch || instr_kind_ == InstrKind::kRet ||
           instr_kind_ == InstrKind::kUnreachable;
  }

  std::string ToString() const;

 private:
  friend class BasicBlock;
  friend class IrBuilder;

  Instruction(InstrKind kind, const IrType* type) : Value(ValueKind::kInstruction, type),
                                                    instr_kind_(kind) {}

  InstrKind instr_kind_;
  SourceLoc loc_;
  BasicBlock* parent_ = nullptr;
  std::vector<Value*> operands_;

  const IrType* allocated_type_ = nullptr;
  int64_t alloca_array_size_ = 0;
  IrBinOp bin_op_ = IrBinOp::kAdd;
  IrCmpPred cmp_pred_ = IrCmpPred::kEq;
  bool cast_is_explicit_ = false;
  std::string callee_;
  const IrType* field_struct_type_ = nullptr;
  int field_index_ = -1;
  std::vector<BasicBlock*> successors_;
  std::vector<int64_t> switch_values_;
};

// ---------------------------------------------------------------------------
// Basic blocks and functions.

class BasicBlock {
 public:
  BasicBlock(std::string name, Function* parent) : name_(std::move(name)), parent_(parent) {}

  const std::string& name() const { return name_; }
  Function* parent() const { return parent_; }
  uint32_t index() const { return index_; }  // Position within the function.

  const std::vector<std::unique_ptr<Instruction>>& instructions() const { return instructions_; }
  Instruction* terminator() const;
  bool HasTerminator() const;

  std::vector<BasicBlock*> Successors() const;
  const std::vector<BasicBlock*>& predecessors() const { return predecessors_; }

  Instruction* Append(std::unique_ptr<Instruction> instr);

 private:
  friend class Function;

  std::string name_;
  Function* parent_;
  uint32_t index_ = 0;
  std::vector<std::unique_ptr<Instruction>> instructions_;
  std::vector<BasicBlock*> predecessors_;  // Filled by Function::ComputePredecessors.
};

class Function {
 public:
  Function(std::string name, const IrType* return_type, Module* parent)
      : name_(std::move(name)), return_type_(return_type), parent_(parent) {}

  const std::string& name() const { return name_; }
  const IrType* return_type() const { return return_type_; }
  Module* parent() const { return parent_; }
  bool IsDeclaration() const { return blocks_.empty(); }

  Argument* AddArgument(const IrType* type, std::string name);
  const std::vector<std::unique_ptr<Argument>>& arguments() const { return arguments_; }

  BasicBlock* CreateBlock(std::string name);
  const std::vector<std::unique_ptr<BasicBlock>>& blocks() const { return blocks_; }
  BasicBlock* entry() const { return blocks_.empty() ? nullptr : blocks_.front().get(); }

  // Recomputes predecessor lists and block indices; call after construction.
  void Finalize();

  uint32_t NextValueId() { return next_value_id_++; }
  // Number of ids handed out; arguments and instructions are densely
  // numbered 0..value_id_count()-1 within the function.
  uint32_t value_id_count() const { return next_value_id_; }

 private:
  std::string name_;
  const IrType* return_type_;
  Module* parent_;
  std::vector<std::unique_ptr<Argument>> arguments_;
  std::vector<std::unique_ptr<BasicBlock>> blocks_;
  uint32_t next_value_id_ = 0;
};

// ---------------------------------------------------------------------------
// Module.

class Module {
 public:
  explicit Module(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  TypeTable& types() { return types_; }
  const TypeTable& types() const { return types_; }

  GlobalVariable* AddGlobal(const IrType* type, std::string name, bool is_array,
                            int64_t array_size);
  GlobalVariable* FindGlobal(const std::string& name) const;
  const std::vector<std::unique_ptr<GlobalVariable>>& globals() const { return globals_; }

  Function* AddFunction(std::string name, const IrType* return_type);
  Function* FindFunction(const std::string& name) const;
  const std::vector<std::unique_ptr<Function>>& functions() const { return functions_; }

  // Interned constants (module lifetime).
  Value* ConstInt(const IrType* type, int64_t value);
  Value* ConstFloat(double value);
  Value* ConstString(std::string value);
  Value* ConstNull(const IrType* pointer_type);

  std::string Print() const;

 private:
  std::string name_;
  TypeTable types_;
  std::vector<std::unique_ptr<GlobalVariable>> globals_;
  std::vector<std::unique_ptr<Function>> functions_;
  std::deque<std::unique_ptr<Value>> constants_;
  std::map<std::pair<const IrType*, int64_t>, Value*> int_constants_;
  std::map<std::string, Value*> string_constants_;
};

}  // namespace spex

#endif  // SPEX_IR_IR_H_
