// Abstract syntax tree for MiniC.
//
// The AST is deliberately close to C's surface syntax: the mapping toolkits
// (structure/comparison/container, Section 2.2.1 of the paper) and the
// AST-to-IR lowering both walk it. Ownership is by unique_ptr from parents to
// children; nodes are immutable after parsing.
#ifndef SPEX_LANG_AST_H_
#define SPEX_LANG_AST_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/support/source_loc.h"

namespace spex {

// ---------------------------------------------------------------------------
// Types (syntactic).

enum class AstTypeKind {
  kVoid,
  kBool,
  kChar,
  kShort,
  kInt,
  kLong,
  kDouble,
  kStruct,
  kPointer,
};

struct AstType {
  AstTypeKind kind = AstTypeKind::kInt;
  bool is_unsigned = false;
  std::string struct_name;            // kStruct only.
  std::shared_ptr<AstType> pointee;   // kPointer only.

  bool IsString() const {
    return kind == AstTypeKind::kPointer && pointee && pointee->kind == AstTypeKind::kChar;
  }
  bool IsInteger() const {
    return kind == AstTypeKind::kChar || kind == AstTypeKind::kShort ||
           kind == AstTypeKind::kInt || kind == AstTypeKind::kLong;
  }
  std::string ToString() const;
};

// ---------------------------------------------------------------------------
// Expressions.

enum class ExprKind {
  kIntLiteral,
  kFloatLiteral,
  kStringLiteral,
  kNullLiteral,
  kIdentifier,
  kUnary,
  kBinary,
  kAssign,
  kTernary,
  kCall,
  kMember,   // base.field or base->field
  kIndex,    // base[index]
  kCast,     // (type) expr
  kInitList  // { e0, e1, ... } — only inside declarations.
};

enum class UnaryOp { kNegate, kNot, kBitNot, kDeref, kAddressOf, kPreInc, kPreDec };

enum class BinaryOp {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kRem,
  kShl,
  kShr,
  kBitAnd,
  kBitOr,
  kBitXor,
  kLt,
  kLe,
  kGt,
  kGe,
  kEq,
  kNe,
  kLogicalAnd,
  kLogicalOr,
};

// True for <, <=, >, >=, ==, != — the comparison subset that feeds range and
// relationship inference.
bool IsComparisonOp(BinaryOp op);

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

struct Expr {
  ExprKind kind = ExprKind::kIntLiteral;
  SourceLoc loc;

  // Literals.
  int64_t int_value = 0;
  double float_value = 0;
  std::string string_value;

  // kIdentifier: name; kCall: callee name; kMember: field name.
  std::string name;

  UnaryOp unary_op = UnaryOp::kNegate;
  BinaryOp binary_op = BinaryOp::kAdd;
  bool is_arrow = false;  // kMember: '->' vs '.'

  AstType cast_type;  // kCast.

  ExprPtr lhs;                     // kUnary operand, kBinary/kAssign lhs, kMember/kIndex base,
                                   // kTernary condition, kCast operand.
  ExprPtr rhs;                     // kBinary/kAssign rhs, kIndex index, kTernary true-expr.
  ExprPtr third;                   // kTernary false-expr.
  std::vector<ExprPtr> arguments;  // kCall args, kInitList elements.
};

// ---------------------------------------------------------------------------
// Statements.

enum class StmtKind {
  kBlock,
  kDecl,
  kExpr,
  kIf,
  kSwitch,
  kWhile,
  kDoWhile,
  kFor,
  kReturn,
  kBreak,
  kContinue,
};

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

struct VarDecl {
  AstType type;
  std::string name;
  bool has_array_size = false;
  int64_t array_size = 0;  // Valid when has_array_size; -1 = size from initializer.
  ExprPtr init;            // May be an kInitList.
  bool is_static = false;
  SourceLoc loc;
};

struct SwitchCase {
  bool is_default = false;
  std::vector<int64_t> values;      // Constant case labels (several labels may share a body).
  std::vector<std::string> string_values;  // For switch-on-string extension; unused by parser.
  std::vector<StmtPtr> body;
  SourceLoc loc;
};

struct Stmt {
  StmtKind kind = StmtKind::kExpr;
  SourceLoc loc;

  std::vector<StmtPtr> body;  // kBlock statements.
  std::unique_ptr<VarDecl> decl;
  ExprPtr expr;  // kExpr expression, kIf/kWhile/kDoWhile condition, kReturn value,
                 // kSwitch subject, kFor condition.
  StmtPtr then_branch;
  StmtPtr else_branch;
  std::vector<SwitchCase> cases;

  // kFor only.
  StmtPtr for_init;  // A kDecl or kExpr statement, or null.
  ExprPtr for_step;
  StmtPtr loop_body;  // kWhile/kDoWhile/kFor body.
};

// ---------------------------------------------------------------------------
// Top-level declarations.

struct StructField {
  AstType type;
  std::string name;
  bool has_array_size = false;
  int64_t array_size = 0;
  SourceLoc loc;
};

struct StructDecl {
  std::string name;
  std::vector<StructField> fields;
  SourceLoc loc;

  // Index of the field with this name, or -1.
  int FieldIndex(const std::string& field_name) const;
};

struct ParamDecl {
  AstType type;
  std::string name;
  SourceLoc loc;
};

struct FunctionDecl {
  AstType return_type;
  std::string name;
  std::vector<ParamDecl> params;
  StmtPtr body;  // Null for a forward declaration / extern prototype.
  bool is_static = false;
  SourceLoc loc;
};

struct TranslationUnit {
  std::string file_name;
  std::vector<std::unique_ptr<StructDecl>> structs;
  std::vector<std::unique_ptr<VarDecl>> globals;
  std::vector<std::unique_ptr<FunctionDecl>> functions;

  const StructDecl* FindStruct(const std::string& name) const;
  const FunctionDecl* FindFunction(const std::string& name) const;
  const VarDecl* FindGlobal(const std::string& name) const;
};

}  // namespace spex

#endif  // SPEX_LANG_AST_H_
