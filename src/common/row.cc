#include "common/row.h"

#include <mutex>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <variant>

#include "common/hash.h"

namespace timr {

Value Value::Interned(std::string s) {
  struct ViewHash {
    size_t operator()(std::string_view v) const {
      return HashBytes(v.data(), v.size());
    }
  };
  // Never destroyed: interned reps live as long as the process, and handles
  // (and StringDict's pointer keys) may outlive static destruction order.
  static std::mutex mu;
  static auto* table =
      new std::unordered_map<std::string_view, StringRep*, ViewHash>();
  std::lock_guard<std::mutex> lock(mu);
  auto it = table->find(s);
  if (it == table->end()) {
    StringRep* rep = new StringRep(std::move(s));
    it = table->emplace(rep->str, rep).first;
  }
  Value v;
  v.p_.s = it->second;
  v.tag_ = kInternedTag;
  return v;
}

void Value::ThrowBadAccess() { throw std::bad_variant_access(); }

std::string Value::ToString() const {
  std::ostringstream os;
  switch (type()) {
    case ValueType::kInt64:
      os << AsInt64();
      break;
    case ValueType::kDouble:
      os << AsDouble();
      break;
    case ValueType::kString:
      os << '"' << AsString() << '"';
      break;
  }
  return os.str();
}

std::string RowToString(const Row& row) {
  std::ostringstream os;
  os << '[';
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) os << ", ";
    os << row[i].ToString();
  }
  os << ']';
  return os.str();
}

Result<int> Schema::IndexOf(std::string_view name) const {
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].name == name) return static_cast<int>(i);
  }
  return Status::KeyError("no column named '" + std::string(name) + "' in " +
                          ToString());
}

Result<std::vector<int>> Schema::IndicesOf(
    const std::vector<std::string>& names) const {
  std::vector<int> out;
  out.reserve(names.size());
  for (const auto& n : names) {
    TIMR_ASSIGN_OR_RETURN(int idx, IndexOf(n));
    out.push_back(idx);
  }
  return out;
}

bool Schema::HasField(std::string_view name) const { return IndexOf(name).ok(); }

Schema Schema::Concat(const Schema& other) const {
  std::vector<Field> fields = fields_;
  for (const Field& f : other.fields_) {
    Field g = f;
    int suffix = 1;
    while (true) {
      bool clash = false;
      for (const Field& existing : fields) {
        if (existing.name == g.name) {
          clash = true;
          break;
        }
      }
      if (!clash) break;
      g.name = f.name + "_" + std::to_string(++suffix);
    }
    fields.push_back(g);
  }
  return Schema(std::move(fields));
}

Schema Schema::Select(const std::vector<int>& indices) const {
  std::vector<Field> fields;
  fields.reserve(indices.size());
  for (int i : indices) fields.push_back(fields_[i]);
  return Schema(std::move(fields));
}

bool Schema::operator==(const Schema& other) const {
  if (fields_.size() != other.fields_.size()) return false;
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].name != other.fields_[i].name ||
        fields_[i].type != other.fields_[i].type) {
      return false;
    }
  }
  return true;
}

std::string Schema::ToString() const {
  std::ostringstream os;
  os << '{';
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) os << ", ";
    os << fields_[i].name << ':';
    switch (fields_[i].type) {
      case ValueType::kInt64: os << "int64"; break;
      case ValueType::kDouble: os << "double"; break;
      case ValueType::kString: os << "string"; break;
    }
  }
  os << '}';
  return os.str();
}

Row ExtractKey(const Row& row, const std::vector<int>& indices) {
  Row key;
  key.reserve(indices.size());
  for (int i : indices) key.push_back(row[i]);
  return key;
}

namespace {

const char* ValueTypeName(ValueType t) {
  switch (t) {
    case ValueType::kInt64: return "int64";
    case ValueType::kDouble: return "double";
    case ValueType::kString: return "string";
  }
  return "unknown";
}

}  // namespace

Status ValidateRowSchema(const Schema& schema, const Row& row) {
  if (row.size() != schema.num_fields()) {
    return Status::Invalid("row has " + std::to_string(row.size()) +
                           " cells but schema " + schema.ToString() + " has " +
                           std::to_string(schema.num_fields()) + " fields");
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (row[i].type() != schema.field(i).type) {
      return Status::Invalid("column '" + schema.field(i).name +
                             "': expected " +
                             ValueTypeName(schema.field(i).type) + ", got " +
                             ValueTypeName(row[i].type()));
    }
  }
  return Status::OK();
}

}  // namespace timr
