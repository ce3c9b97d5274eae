// Structured expressions for Select and Project.
//
// An opaque std::function predicate forces the engine onto the row path: the
// batch must be materialized as events and the closure called per row. A
// SelectSpec / ProjectSpec describes the same computation as data (column
// compares, column copies, constant fills, binary arithmetic), which lets the
// columnar kernels in columnar.cc evaluate it as tight per-column loops while
// MakeRowPredicate / MakeRowProjector synthesize the exact row-path
// equivalent, so both execution modes share one semantics definition.

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/row.h"
#include "common/status.h"

namespace timr::temporal {

using Predicate = std::function<bool(const Row&)>;
using ProjectFn = std::function<Row(const Row&)>;

enum class CmpOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

inline const char* CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kEq: return "==";
    case CmpOp::kNe: return "!=";
    case CmpOp::kLt: return "<";
    case CmpOp::kLe: return "<=";
    case CmpOp::kGt: return ">";
    case CmpOp::kGe: return ">=";
  }
  return "?";
}

/// One conjunct of a structured filter: `row[column] <op> literal`. The
/// literal's type must equal the column's declared type (enforced when the
/// spec is attached to a plan), so the columnar kernel can compare raw cells.
struct ColumnCompare {
  int column = 0;
  CmpOp op = CmpOp::kEq;
  Value literal;
};

/// Conjunction of column/literal compares.
struct SelectSpec {
  std::vector<ColumnCompare> conjuncts;
};

/// Value-semantics comparison used by the row path. For type-matched operands
/// (the validated case) this is a plain comparison of the underlying values,
/// which is exactly what the columnar kernels compute: doubles use the IEEE
/// operators (a NaN cell passes only `!=`), not Value's total order.
inline bool EvalCompare(const Value& cell, CmpOp op, const Value& lit) {
  if (cell.is_double() && lit.is_double()) {
    const double a = cell.AsDouble();
    const double b = lit.AsDouble();
    switch (op) {
      case CmpOp::kEq: return a == b;
      case CmpOp::kNe: return a != b;
      case CmpOp::kLt: return a < b;
      case CmpOp::kLe: return a <= b;
      case CmpOp::kGt: return a > b;
      case CmpOp::kGe: return a >= b;
    }
    return false;
  }
  switch (op) {
    case CmpOp::kEq: return cell == lit;
    case CmpOp::kNe: return !(cell == lit);
    case CmpOp::kLt: return cell < lit;
    case CmpOp::kLe: return !(lit < cell);
    case CmpOp::kGt: return lit < cell;
    case CmpOp::kGe: return !(cell < lit);
  }
  return false;
}

/// Direct row evaluation of a structured filter. Operators that hold the
/// spec call this inline on their per-event paths instead of paying a
/// std::function dispatch per row.
inline bool EvalSelectRow(const SelectSpec& spec, const Row& r) {
  for (const ColumnCompare& c : spec.conjuncts) {
    if (!EvalCompare(r[c.column], c.op, c.literal)) return false;
  }
  return true;
}

/// The row-path predicate equivalent to evaluating `spec` columnar.
inline Predicate MakeRowPredicate(SelectSpec spec) {
  return [spec = std::move(spec)](const Row& r) {
    return EvalSelectRow(spec, r);
  };
}

inline Status ValidateSelectSpec(const SelectSpec& spec, const Schema& in) {
  for (const ColumnCompare& c : spec.conjuncts) {
    if (c.column < 0 || static_cast<size_t>(c.column) >= in.num_fields()) {
      return Status::Invalid("select spec column out of range");
    }
    if (c.literal.type() != in.field(c.column).type) {
      return Status::Invalid("select spec literal type does not match column '" +
                             in.field(c.column).name + "' in " + in.ToString());
    }
  }
  return Status::OK();
}

/// One output column of a structured projection.
struct ProjectExpr {
  enum class Kind : uint8_t {
    kColumn,  // copy input column `column`
    kConst,   // fill with `literal`
    kArith,   // `column` <op> (`rhs_column` >= 0 ? input column : `literal`)
  };
  enum class ArithOp : uint8_t { kAdd, kSub, kMul, kDiv };

  Kind kind = Kind::kColumn;
  std::string name;  // output column name
  int column = -1;   // kColumn; kArith left operand
  Value literal;     // kConst; kArith right operand when rhs_column < 0
  ArithOp op = ArithOp::kAdd;
  int rhs_column = -1;

  static ProjectExpr Column(std::string name, int col) {
    ProjectExpr e;
    e.kind = Kind::kColumn;
    e.name = std::move(name);
    e.column = col;
    return e;
  }
  static ProjectExpr Const(std::string name, Value v) {
    ProjectExpr e;
    e.kind = Kind::kConst;
    e.name = std::move(name);
    e.literal = std::move(v);
    return e;
  }
  static ProjectExpr Arith(std::string name, int lhs, ArithOp op, int rhs) {
    ProjectExpr e;
    e.kind = Kind::kArith;
    e.name = std::move(name);
    e.column = lhs;
    e.op = op;
    e.rhs_column = rhs;
    return e;
  }
  static ProjectExpr ArithLit(std::string name, int lhs, ArithOp op, Value v) {
    ProjectExpr e;
    e.kind = Kind::kArith;
    e.name = std::move(name);
    e.column = lhs;
    e.op = op;
    e.literal = std::move(v);
    return e;
  }
};

struct ProjectSpec {
  std::vector<ProjectExpr> exprs;
};

/// Integer arithmetic through unsigned so overflow wraps instead of being UB;
/// both execution paths use this exact function.
inline int64_t ArithEvalI64(int64_t a, ProjectExpr::ArithOp op, int64_t b) {
  const uint64_t ua = static_cast<uint64_t>(a);
  const uint64_t ub = static_cast<uint64_t>(b);
  switch (op) {
    case ProjectExpr::ArithOp::kAdd: return static_cast<int64_t>(ua + ub);
    case ProjectExpr::ArithOp::kSub: return static_cast<int64_t>(ua - ub);
    case ProjectExpr::ArithOp::kMul: return static_cast<int64_t>(ua * ub);
    case ProjectExpr::ArithOp::kDiv: break;  // kDiv always produces double
  }
  TIMR_CHECK(false) << "integer division in ProjectExpr";
  return 0;
}

inline double ArithEvalF64(double a, ProjectExpr::ArithOp op, double b) {
  switch (op) {
    case ProjectExpr::ArithOp::kAdd: return a + b;
    case ProjectExpr::ArithOp::kSub: return a - b;
    case ProjectExpr::ArithOp::kMul: return a * b;
    case ProjectExpr::ArithOp::kDiv: return a / b;
  }
  return 0;
}

/// Output type rule shared by schema inference and both evaluators: division
/// is always double; other ops are int64 iff both operands are int64.
inline Result<ValueType> InferExprType(const ProjectExpr& e, const Schema& in) {
  auto col_type = [&](int c) -> Result<ValueType> {
    if (c < 0 || static_cast<size_t>(c) >= in.num_fields()) {
      return Status::Invalid("project spec column out of range");
    }
    return in.field(c).type;
  };
  switch (e.kind) {
    case ProjectExpr::Kind::kColumn:
      return col_type(e.column);
    case ProjectExpr::Kind::kConst:
      return e.literal.type();
    case ProjectExpr::Kind::kArith: {
      TIMR_ASSIGN_OR_RETURN(ValueType lt, col_type(e.column));
      ValueType rt = e.literal.type();
      if (e.rhs_column >= 0) {
        TIMR_ASSIGN_OR_RETURN(rt, col_type(e.rhs_column));
      }
      if (lt == ValueType::kString || rt == ValueType::kString) {
        return Status::Invalid("project spec arithmetic on a string operand");
      }
      if (e.op == ProjectExpr::ArithOp::kDiv) return ValueType::kDouble;
      return (lt == ValueType::kInt64 && rt == ValueType::kInt64)
                 ? ValueType::kInt64
                 : ValueType::kDouble;
    }
  }
  return Status::Invalid("unknown project expr kind");
}

/// Output schema of `spec` over input schema `in`.
inline Result<Schema> InferProjectSchema(const ProjectSpec& spec,
                                         const Schema& in) {
  std::vector<Schema::Field> fields;
  fields.reserve(spec.exprs.size());
  for (const ProjectExpr& e : spec.exprs) {
    TIMR_ASSIGN_OR_RETURN(ValueType t, InferExprType(e, in));
    fields.push_back({e.name, t});
  }
  return Schema(std::move(fields));
}

/// The row-path projector equivalent to evaluating `spec` columnar. The spec
/// must have validated against `in` (InferProjectSchema returned OK).
inline ProjectFn MakeRowProjector(ProjectSpec spec, const Schema& in) {
  struct Compiled {
    ProjectExpr::Kind kind;
    int column;
    Value literal;
    ProjectExpr::ArithOp op;
    int rhs_column;
    bool out_double;   // kArith: result type
    bool lhs_double;   // kArith: declared operand types
    bool rhs_double;
  };
  std::vector<Compiled> prog;
  prog.reserve(spec.exprs.size());
  for (const ProjectExpr& e : spec.exprs) {
    auto t = InferExprType(e, in);
    TIMR_CHECK(t.ok()) << t.status().ToString();
    Compiled c{e.kind, e.column, e.literal, e.op, e.rhs_column,
               t.ValueOrDie() == ValueType::kDouble, false, false};
    if (e.kind == ProjectExpr::Kind::kArith) {
      c.lhs_double = in.field(e.column).type == ValueType::kDouble;
      c.rhs_double = e.rhs_column >= 0
                         ? in.field(e.rhs_column).type == ValueType::kDouble
                         : e.literal.type() == ValueType::kDouble;
    }
    prog.push_back(std::move(c));
  }
  return [prog = std::move(prog)](const Row& r) {
    Row out;
    out.reserve(prog.size());
    for (const Compiled& c : prog) {
      switch (c.kind) {
        case ProjectExpr::Kind::kColumn:
          out.push_back(r[c.column]);
          break;
        case ProjectExpr::Kind::kConst:
          out.push_back(c.literal);
          break;
        case ProjectExpr::Kind::kArith: {
          if (!c.out_double) {
            out.emplace_back(ArithEvalI64(
                r[c.column].AsInt64(), c.op,
                c.rhs_column >= 0 ? r[c.rhs_column].AsInt64()
                                  : c.literal.AsInt64()));
            break;
          }
          const double a = c.lhs_double
                               ? r[c.column].AsDouble()
                               : static_cast<double>(r[c.column].AsInt64());
          double b;
          if (c.rhs_column >= 0) {
            b = c.rhs_double ? r[c.rhs_column].AsDouble()
                             : static_cast<double>(r[c.rhs_column].AsInt64());
          } else {
            b = c.rhs_double ? c.literal.AsDouble()
                             : static_cast<double>(c.literal.AsInt64());
          }
          out.emplace_back(ArithEvalF64(a, c.op, b));
          break;
        }
      }
    }
    return out;
  };
}

}  // namespace timr::temporal
