// Dynamic row representation shared by the temporal engine and the map-reduce
// substrate. TiMR serializes events across stage boundaries and builds reducers
// generically, so payloads are schema-described rows of tagged values (the same
// altitude SCOPE rows sit at).

#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <variant>  // std::bad_variant_access, thrown on a wrong-type read
#include <vector>

#include "common/hash.h"
#include "common/status.h"

namespace timr {

enum class ValueType : uint8_t { kInt64 = 0, kDouble = 1, kString = 2 };

/// Per-cell hashes of the scalar types. Value::Hash and the columnar bulk key
/// hash (temporal::ComputeKeyHashes) both call these, so a key hashes the same
/// bits on the row path and on columnar batches.
inline uint64_t HashInt64Cell(int64_t v) {
  return HashMix(static_cast<uint64_t>(v) + 0x9e3779b97f4a7c15ULL);
}

/// Hashes canonical bits, matching Value::operator==: -0.0 as 0.0 and every
/// NaN as the one quiet NaN. Branch-free so the columnar loop vectorizes.
inline uint64_t HashDoubleCell(double d) {
  const double z = d == 0.0 ? 0.0 : d;
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(z));
  __builtin_memcpy(&bits, &z, sizeof(bits));
  bits = d == d ? bits : 0x7ff8000000000000ULL;
  return HashMix(bits ^ 0xc2b2ae3d27d4eb4fULL);
}

/// \brief One cell of a row: 64-bit integer, double, or string, in 16 bytes.
///
/// An 8-byte payload plus a type tag. Scalars live inline, so copying or
/// destroying a numeric cell is a tag check and an 8-byte copy. A string cell
/// points to an immutable heap rep, in one of two storage forms with identical
/// semantics: an owned rep with an atomic refcount (copies are refcount bumps),
/// or an *interned* rep (`Value::Interned`) owned for the life of the process
/// by a table that deduplicates by content. Interned copies touch no counter,
/// and two interned cells are equal exactly when their reps are the same one —
/// both matter on the engine's payload hot path (multicast Emit, group-key
/// probes, join probes). Both forms report ValueType::kString and compare/hash
/// by content.
///
/// Doubles follow one total order shared by ==, < and Hash: -0.0 equals and
/// hashes like 0.0, and every NaN equals every other NaN and sorts above +inf.
/// Reading a cell as the wrong type throws std::bad_variant_access.
class Value {
 public:
  Value() : Value(int64_t{0}) {}
  Value(int64_t v) : tag_(kInt64Tag) { p_.i = v; }  // NOLINT implicit
  Value(int v) : Value(int64_t{v}) {}                // NOLINT implicit
  Value(double v) : tag_(kDoubleTag) { p_.d = v; }   // NOLINT implicit
  Value(std::string v) : tag_(kStringTag) {          // NOLINT implicit
    p_.s = new StringRep(std::move(v));
  }
  Value(const char* v) : Value(std::string(v)) {}    // NOLINT implicit

  Value(const Value& other) : p_(other.p_), tag_(other.tag_) { Retain(); }
  Value(Value&& other) noexcept : p_(other.p_), tag_(other.tag_) {
    other.Reset();
  }
  Value& operator=(const Value& other) {
    other.Retain();  // before Release: safe on self-assignment
    Release();
    p_ = other.p_;
    tag_ = other.tag_;
    return *this;
  }
  Value& operator=(Value&& other) noexcept {
    if (this != &other) {
      Release();
      p_ = other.p_;
      tag_ = other.tag_;
      other.Reset();
    }
    return *this;
  }
  ~Value() { Release(); }

  /// A string value backed by the process-wide intern table: equal contents
  /// share one immutable allocation (thread-safe).
  static Value Interned(std::string s);

  ValueType type() const {
    return tag_ >= kStringTag ? ValueType::kString
                              : static_cast<ValueType>(tag_);
  }

  bool is_int64() const { return tag_ == kInt64Tag; }
  bool is_double() const { return tag_ == kDoubleTag; }
  bool is_string() const { return tag_ >= kStringTag; }
  bool is_interned() const { return tag_ == kInternedTag; }

  int64_t AsInt64() const {
    if (tag_ != kInt64Tag) [[unlikely]] ThrowBadAccess();
    return p_.i;
  }
  double AsDouble() const {
    if (tag_ != kDoubleTag) [[unlikely]] ThrowBadAccess();
    return p_.d;
  }
  const std::string& AsString() const {
    if (tag_ < kStringTag) [[unlikely]] ThrowBadAccess();
    return p_.s->str;
  }

  /// Numeric view: int64 widened to double; throws on string.
  double AsNumeric() const {
    return is_int64() ? static_cast<double>(p_.i) : AsDouble();
  }

  bool operator==(const Value& other) const {
    if (tag_ == other.tag_) {
      switch (tag_) {
        case kInt64Tag: return p_.i == other.p_.i;
        case kDoubleTag:  // NaN == NaN under the total order
          return p_.d == other.p_.d ||
                 (p_.d != p_.d && other.p_.d != other.p_.d);
        case kInternedTag: return p_.s == other.p_.s;  // table dedups content
        default: break;
      }
    } else if (!is_string() || !other.is_string()) {
      return false;
    }
    return p_.s == other.p_.s || p_.s->str == other.p_.s->str;
  }
  bool operator!=(const Value& other) const { return !(*this == other); }

  /// Total order: by type (int64 < double < string), then by value. Interned
  /// and plain strings interleave by content.
  bool operator<(const Value& other) const {
    const ValueType ta = type();
    const ValueType tb = other.type();
    if (ta != tb) return ta < tb;
    switch (ta) {
      case ValueType::kInt64: return p_.i < other.p_.i;
      case ValueType::kDouble: {
        const double a = p_.d;
        const double b = other.p_.d;
        return a < b || (b != b && a == a);  // NaN sorts above everything
      }
      case ValueType::kString:
        return p_.s != other.p_.s && p_.s->str < other.p_.s->str;
    }
    return false;
  }

  std::string ToString() const;

  /// Inline: called a handful of times per event on the group/join probe
  /// paths, so the scalar cases must not pay an out-of-line call.
  size_t Hash() const {
    switch (tag_) {
      case kInt64Tag: return HashInt64Cell(p_.i);
      case kDoubleTag: return HashDoubleCell(p_.d);
      default:
        return HashBytes(p_.s->str.data(), p_.s->str.size());
    }
  }

 private:
  enum Tag : uint8_t {
    kInt64Tag = 0,  // the first three equal their ValueType
    kDoubleTag = 1,
    kStringTag = 2,    // owned, refcounted rep
    kInternedTag = 3,  // rep owned by the intern table
  };

  struct StringRep {
    explicit StringRep(std::string s) : str(std::move(s)) {}
    std::atomic<uint64_t> refs{1};
    const std::string str;
  };

  union Payload {
    int64_t i;
    double d;
    StringRep* s;
  };

  [[noreturn]] static void ThrowBadAccess();

  void Retain() const {
    if (tag_ == kStringTag) p_.s->refs.fetch_add(1, std::memory_order_relaxed);
  }
  void Release() {
    if (tag_ == kStringTag &&
        p_.s->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete p_.s;
    }
  }
  void Reset() {
    p_.i = 0;
    tag_ = kInt64Tag;
  }

  Payload p_;
  uint8_t tag_;
};

static_assert(sizeof(Value) == 16, "a cell is an 8-byte payload plus a tag");

using Row = std::vector<Value>;

std::string RowToString(const Row& row);

inline size_t HashRow(const Row& row) {
  size_t h = 0x51ed270b0a1f3c49ULL;
  for (const Value& v : row) h = HashCombine(h, v.Hash());
  return h;
}

/// Hash of the key row formed by `row[indices]`; by construction equal to
/// `HashRow(ExtractKey(row, indices))` without materializing the key. Used by
/// the heterogeneous group/join probes.
inline size_t HashKeyOf(const Row& row, const std::vector<int>& indices) {
  size_t h = 0x51ed270b0a1f3c49ULL;
  for (int i : indices) h = HashCombine(h, row[i].Hash());
  return h;
}

/// \brief Ordered list of named, typed columns.
class Schema {
 public:
  struct Field {
    std::string name;
    ValueType type;
  };

  Schema() = default;
  explicit Schema(std::vector<Field> fields) : fields_(std::move(fields)) {}

  static Schema Of(std::initializer_list<Field> fields) {
    return Schema(std::vector<Field>(fields));
  }

  size_t num_fields() const { return fields_.size(); }
  const Field& field(size_t i) const { return fields_[i]; }
  const std::vector<Field>& fields() const { return fields_; }

  /// Index of the column with the given name, or KeyError.
  Result<int> IndexOf(std::string_view name) const;

  /// Indices for several names, in order; KeyError if any is missing.
  Result<std::vector<int>> IndicesOf(const std::vector<std::string>& names) const;

  bool HasField(std::string_view name) const;

  /// New schema that appends `other`'s fields after this one's. Collisions get
  /// a numeric suffix so the result stays unambiguous.
  Schema Concat(const Schema& other) const;

  /// Schema consisting of the fields at `indices`, in that order.
  Schema Select(const std::vector<int>& indices) const;

  bool operator==(const Schema& other) const;
  bool operator!=(const Schema& other) const { return !(*this == other); }

  std::string ToString() const;

 private:
  std::vector<Field> fields_;
};

/// Extract the values of `indices` from `row` as a key vector.
Row ExtractKey(const Row& row, const std::vector<int>& indices);

/// Schema/decode check for untrusted rows: arity must match the schema and
/// every cell's dynamic type must equal its column's declared type. Used by
/// the map-reduce substrate's poison-row quarantine and its chaos
/// corrupt-read detection (mr/fault.h). Returns Invalid naming the first
/// offending column.
Status ValidateRowSchema(const Schema& schema, const Row& row);

}  // namespace timr
