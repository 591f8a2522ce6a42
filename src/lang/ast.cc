#include "src/lang/ast.h"

namespace spex {

std::string AstType::ToString() const {
  std::string base;
  switch (kind) {
    case AstTypeKind::kVoid:
      base = "void";
      break;
    case AstTypeKind::kBool:
      base = "bool";
      break;
    case AstTypeKind::kChar:
      base = "char";
      break;
    case AstTypeKind::kShort:
      base = "short";
      break;
    case AstTypeKind::kInt:
      base = "int";
      break;
    case AstTypeKind::kLong:
      base = "long";
      break;
    case AstTypeKind::kDouble:
      base = "double";
      break;
    case AstTypeKind::kStruct:
      base = "struct " + struct_name;
      break;
    case AstTypeKind::kPointer:
      base = (pointee ? pointee->ToString() : "void") + "*";
      break;
  }
  if (is_unsigned && kind != AstTypeKind::kPointer && kind != AstTypeKind::kStruct) {
    base = "unsigned " + base;
  }
  return base;
}

bool IsComparisonOp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
    case BinaryOp::kEq:
    case BinaryOp::kNe:
      return true;
    default:
      return false;
  }
}

int StructDecl::FieldIndex(const std::string& field_name) const {
  for (size_t i = 0; i < fields.size(); ++i) {
    if (fields[i].name == field_name) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

const StructDecl* TranslationUnit::FindStruct(const std::string& name) const {
  for (const auto& s : structs) {
    if (s->name == name) {
      return s.get();
    }
  }
  return nullptr;
}

const FunctionDecl* TranslationUnit::FindFunction(const std::string& name) const {
  // Prefer a definition over a prototype.
  const FunctionDecl* proto = nullptr;
  for (const auto& f : functions) {
    if (f->name == name) {
      if (f->body != nullptr) {
        return f.get();
      }
      proto = f.get();
    }
  }
  return proto;
}

const VarDecl* TranslationUnit::FindGlobal(const std::string& name) const {
  for (const auto& g : globals) {
    if (g->name == name) {
      return g.get();
    }
  }
  return nullptr;
}

}  // namespace spex
