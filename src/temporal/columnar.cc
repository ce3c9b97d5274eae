#include "temporal/columnar.h"

#include <functional>

#include "common/hash.h"
#include "temporal/expr.h"
#include "temporal/stateless_ops.h"

// Kernels are written as 64-row blocks building a keep-mask word (select) or
// straight index loops (project / alter / hash). At -O2 the compiler
// auto-vectorizes the arithmetic loops; with -DTIMR_SIMD=ON the pragma asserts
// independence explicitly for the loops where it measurably helps.
#if defined(TIMR_SIMD)
#define TIMR_SIMD_LOOP _Pragma("omp simd")
#else
#define TIMR_SIMD_LOOP
#endif

namespace timr::temporal {

namespace {

// AND a predicate over `v[0..n)` into the selection words.
template <class T, class Cmp>
void FilterColumn(const T* v, size_t n, uint64_t* words, T lit, Cmp cmp) {
  const size_t full = n / 64;
  for (size_t w = 0; w < full; ++w) {
    const T* base = v + w * 64;
    uint64_t m = 0;
    TIMR_SIMD_LOOP
    for (size_t b = 0; b < 64; ++b) {
      m |= static_cast<uint64_t>(cmp(base[b], lit)) << b;
    }
    words[w] &= m;
  }
  const size_t rem = n % 64;
  if (rem != 0) {
    const T* base = v + full * 64;
    uint64_t m = 0;
    for (size_t b = 0; b < rem; ++b) {
      m |= static_cast<uint64_t>(cmp(base[b], lit)) << b;
    }
    words[full] &= m | (~uint64_t{0} << rem);
  }
}

template <class T>
void FilterTyped(const T* v, size_t n, uint64_t* words, T lit, CmpOp op) {
  switch (op) {
    case CmpOp::kEq: FilterColumn(v, n, words, lit, std::equal_to<T>{}); break;
    case CmpOp::kNe:
      FilterColumn(v, n, words, lit, std::not_equal_to<T>{});
      break;
    case CmpOp::kLt: FilterColumn(v, n, words, lit, std::less<T>{}); break;
    case CmpOp::kLe: FilterColumn(v, n, words, lit, std::less_equal<T>{}); break;
    case CmpOp::kGt: FilterColumn(v, n, words, lit, std::greater<T>{}); break;
    case CmpOp::kGe:
      FilterColumn(v, n, words, lit, std::greater_equal<T>{});
      break;
  }
}

void FilterString(const Column& col, const StringDict& dict, size_t n,
                  uint64_t* words, const ColumnCompare& c) {
  if (c.op == CmpOp::kEq || c.op == CmpOp::kNe) {
    // Dictionary ids are content-deduplicated within the batch, so string
    // equality is id equality once the literal is resolved to an id.
    const int64_t id = dict.Find(c.literal);
    if (id < 0) {
      if (c.op == CmpOp::kNe) return;  // nothing equals the literal: keep all
      const size_t nwords = (n + 63) / 64;
      for (size_t w = 0; w < nwords; ++w) words[w] = 0;
      return;
    }
    FilterTyped(col.sid.data(), n, words, static_cast<uint32_t>(id), c.op);
    return;
  }
  // Ordering compare: one content comparison per distinct id, then an id
  // table-lookup loop over the rows.
  const std::string& lit = c.literal.AsString();
  std::vector<unsigned char> keep(dict.size());
  for (size_t id = 0; id < dict.size(); ++id) {
    const std::string& s = dict.ValueAt(static_cast<uint32_t>(id)).AsString();
    bool k = false;
    switch (c.op) {
      case CmpOp::kLt: k = s < lit; break;
      case CmpOp::kLe: k = s <= lit; break;
      case CmpOp::kGt: k = s > lit; break;
      case CmpOp::kGe: k = s >= lit; break;
      default: break;
    }
    keep[id] = static_cast<unsigned char>(k);
  }
  const unsigned char* table = keep.data();
  FilterColumn(col.sid.data(), n, words, uint32_t{0},
               [table](uint32_t id, uint32_t) { return table[id] != 0; });
}

}  // namespace

void EvalSelectColumnar(ColumnarPayload& payload, const SelectSpec& spec) {
  TIMR_DCHECK(payload.all_valid()) << "select over a pending selection";
  const size_t n = payload.num_rows();
  if (n == 0 || spec.conjuncts.empty()) return;
  uint64_t* words = payload.EnsureValidity().data();
  for (const ColumnCompare& c : spec.conjuncts) {
    const Column& col = payload.col(c.column);
    switch (col.type) {
      case ValueType::kInt64:
        FilterTyped(col.i64.data(), n, words, c.literal.AsInt64(), c.op);
        break;
      case ValueType::kDouble:
        FilterTyped(col.f64.data(), n, words, c.literal.AsDouble(), c.op);
        break;
      case ValueType::kString:
        FilterString(col, payload.dict(), n, words, c);
        break;
    }
  }
}

namespace {

double LoadF64(const Column& c, size_t r) {
  return c.type == ValueType::kInt64 ? static_cast<double>(c.i64[r]) : c.f64[r];
}

void FillArith(const ColumnarPayload& payload, const ProjectExpr& e,
               Column* out) {
  const size_t n = payload.num_rows();
  const Column& lhs = payload.col(e.column);
  const Column* rhs = e.rhs_column >= 0 ? &payload.col(e.rhs_column) : nullptr;
  const bool lhs_i = lhs.type == ValueType::kInt64;
  const bool rhs_i = rhs != nullptr ? rhs->type == ValueType::kInt64
                                    : e.literal.type() == ValueType::kInt64;
  const bool out_i =
      lhs_i && rhs_i && e.op != ProjectExpr::ArithOp::kDiv;
  if (out_i) {
    out->type = ValueType::kInt64;
    out->i64.resize(n);
    int64_t* o = out->i64.data();
    const int64_t* a = lhs.i64.data();
    const int64_t lit = rhs == nullptr ? e.literal.AsInt64() : 0;
    const int64_t* b = rhs != nullptr ? rhs->i64.data() : nullptr;
    switch (e.op) {
      case ProjectExpr::ArithOp::kAdd:
        if (b != nullptr) {
          TIMR_SIMD_LOOP
          for (size_t r = 0; r < n; ++r) o[r] = ArithEvalI64(a[r], e.op, b[r]);
        } else {
          TIMR_SIMD_LOOP
          for (size_t r = 0; r < n; ++r) o[r] = ArithEvalI64(a[r], e.op, lit);
        }
        break;
      case ProjectExpr::ArithOp::kSub:
      case ProjectExpr::ArithOp::kMul:
        if (b != nullptr) {
          for (size_t r = 0; r < n; ++r) o[r] = ArithEvalI64(a[r], e.op, b[r]);
        } else {
          for (size_t r = 0; r < n; ++r) o[r] = ArithEvalI64(a[r], e.op, lit);
        }
        break;
      case ProjectExpr::ArithOp::kDiv:
        break;  // unreachable: out_i excludes kDiv
    }
    return;
  }
  out->type = ValueType::kDouble;
  out->f64.resize(n);
  double* o = out->f64.data();
  const double lit = rhs != nullptr
                         ? 0
                         : (e.literal.type() == ValueType::kInt64
                                ? static_cast<double>(e.literal.AsInt64())
                                : e.literal.AsDouble());
  for (size_t r = 0; r < n; ++r) {
    const double a = LoadF64(lhs, r);
    const double b = rhs != nullptr ? LoadF64(*rhs, r) : lit;
    o[r] = ArithEvalF64(a, e.op, b);
  }
}

}  // namespace

void ApplyProjectColumnar(ColumnarPayload& payload, const ProjectSpec& spec) {
  TIMR_DCHECK(payload.all_valid()) << "project over a pending selection";
  const size_t n = payload.num_rows();
  // How often each input column is read; a column consumed by exactly one
  // plain copy can be moved instead of copied.
  std::vector<int> refs(payload.num_cols(), 0);
  for (const ProjectExpr& e : spec.exprs) {
    if (e.kind != ProjectExpr::Kind::kConst) ++refs[e.column];
    if (e.kind == ProjectExpr::Kind::kArith && e.rhs_column >= 0) {
      ++refs[e.rhs_column];
    }
  }
  // Output columns are built in a thread-local scratch, then swapped in; the
  // displaced input columns land back in the scratch, keeping their buffer
  // capacity for the next batch (O(1) allocations in steady state).
  thread_local std::vector<Column> scratch;
  scratch.resize(spec.exprs.size());
  for (size_t i = 0; i < spec.exprs.size(); ++i) {
    const ProjectExpr& e = spec.exprs[i];
    Column& out = scratch[i];
    out.ClearRows();
    switch (e.kind) {
      case ProjectExpr::Kind::kColumn: {
        Column& src = payload.col(e.column);
        out.type = src.type;
        if (refs[e.column] == 1) {
          // Sole consumer: steal the buffer.
          switch (src.type) {
            case ValueType::kInt64: out.i64.swap(src.i64); break;
            case ValueType::kDouble: out.f64.swap(src.f64); break;
            case ValueType::kString: out.sid.swap(src.sid); break;
          }
        } else {
          switch (src.type) {
            case ValueType::kInt64:
              out.i64.assign(src.i64.begin(), src.i64.end());
              break;
            case ValueType::kDouble:
              out.f64.assign(src.f64.begin(), src.f64.end());
              break;
            case ValueType::kString:
              out.sid.assign(src.sid.begin(), src.sid.end());
              break;
          }
        }
        break;
      }
      case ProjectExpr::Kind::kConst:
        out.type = e.literal.type();
        switch (out.type) {
          case ValueType::kInt64: out.i64.assign(n, e.literal.AsInt64()); break;
          case ValueType::kDouble:
            out.f64.assign(n, e.literal.AsDouble());
            break;
          case ValueType::kString:
            out.sid.assign(n, payload.dict().Intern(e.literal));
            break;
        }
        break;
      case ProjectExpr::Kind::kArith:
        FillArith(payload, e, &out);
        break;
    }
  }
  payload.ReplaceColumns(&scratch);
  scratch.resize(spec.exprs.size() < 64 ? scratch.size() : 0);
}

bool ApplyAlterColumnar(ColumnarPayload& payload,
                        const AlterLifetimeSpec& spec) {
  TIMR_DCHECK(payload.all_valid()) << "alter over a pending selection";
  const size_t n = payload.num_rows();
  Timestamp* le = payload.le().data();
  Timestamp* re = payload.re().data();
  switch (spec.mode) {
    case AlterLifetimeSpec::Mode::kShift: {
      const Timestamp s = spec.shift;
      TIMR_SIMD_LOOP
      for (size_t r = 0; r < n; ++r) {
        le[r] += s;
        re[r] += s;
      }
      return false;
    }
    case AlterLifetimeSpec::Mode::kWindow: {
      const Timestamp w = spec.window;
      TIMR_SIMD_LOOP
      for (size_t r = 0; r < n; ++r) re[r] = le[r] + w;
      return false;
    }
    case AlterLifetimeSpec::Mode::kPoint:
      TIMR_SIMD_LOOP
      for (size_t r = 0; r < n; ++r) re[r] = le[r] + kTick;
      return false;
    case AlterLifetimeSpec::Mode::kShiftAndWindow: {
      const Timestamp s = spec.shift;
      const Timestamp w = spec.window;
      TIMR_SIMD_LOOP
      for (size_t r = 0; r < n; ++r) {
        le[r] += s;
        re[r] = le[r] + w;
      }
      return false;
    }
    case AlterLifetimeSpec::Mode::kHop: {
      if (n == 0) return false;
      uint64_t* words = payload.EnsureValidity().data();
      bool dropped = false;
      for (size_t r = 0; r < n; ++r) {
        const Timestamp t = le[r];
        const Timestamp first = CeilToGrid(t, spec.hop);
        const Timestamp last = CeilToGrid(t + spec.window, spec.hop);
        if (first >= last) {
          words[r >> 6] &= ~(uint64_t{1} << (r & 63));
          dropped = true;
          continue;
        }
        le[r] = first;
        re[r] = last;
      }
      return dropped || true;  // validity was materialized: caller compacts
    }
  }
  return false;
}

void ComputeKeyHashes(const ColumnarPayload& payload,
                      const std::vector<int>& key_indices,
                      std::vector<uint64_t>* out) {
  const size_t n = payload.num_rows();
  // Same seed and per-cell hashes as HashKeyOf / Value::Hash (common/row.h),
  // restructured as one pass per key column.
  out->assign(n, 0x51ed270b0a1f3c49ULL);
  uint64_t* h = out->data();
  for (int idx : key_indices) {
    const Column& col = payload.col(idx);
    switch (col.type) {
      case ValueType::kInt64: {
        const int64_t* v = col.i64.data();
        TIMR_SIMD_LOOP
        for (size_t r = 0; r < n; ++r) {
          h[r] = HashCombine(h[r], HashInt64Cell(v[r]));
        }
        break;
      }
      case ValueType::kDouble: {
        const double* v = col.f64.data();
        TIMR_SIMD_LOOP
        for (size_t r = 0; r < n; ++r) {
          h[r] = HashCombine(h[r], HashDoubleCell(v[r]));
        }
        break;
      }
      case ValueType::kString: {
        const uint32_t* v = col.sid.data();
        const StringDict& dict = payload.dict();
        for (size_t r = 0; r < n; ++r) {
          h[r] = HashCombine(h[r], dict.HashAt(v[r]));
        }
        break;
      }
    }
  }
}

}  // namespace timr::temporal
