#include "common/value.h"

#include <cmath>
#include <cstdio>

#include "common/hash.h"

namespace dynopt {

const char* ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kBool:
      return "BOOL";
    case ValueType::kInt64:
      return "INT64";
    case ValueType::kDouble:
      return "DOUBLE";
    case ValueType::kString:
      return "STRING";
  }
  return "UNKNOWN";
}

bool Value::IsNumeric() const {
  ValueType t = type();
  return t == ValueType::kBool || t == ValueType::kInt64 ||
         t == ValueType::kDouble;
}

double Value::NumericKey() const {
  switch (type()) {
    case ValueType::kNull:
      return std::nan("");
    case ValueType::kBool:
      return AsBool() ? 1.0 : 0.0;
    case ValueType::kInt64:
      return static_cast<double>(AsInt64());
    case ValueType::kDouble:
      return AsDouble();
    case ValueType::kString:
      // Stable numeric encoding for sketching: strings are mapped through a
      // hash. Range estimates over strings are therefore meaningless, which
      // matches the paper (range predicates only appear on numeric/date
      // columns); distinct-count estimates remain exact in distribution.
      return static_cast<double>(HashString(AsString()) >> 11);
  }
  return std::nan("");
}

size_t Value::SizeBytes() const {
  switch (type()) {
    case ValueType::kNull:
      return 1;
    case ValueType::kBool:
      return 1;
    case ValueType::kInt64:
    case ValueType::kDouble:
      return 8;
    case ValueType::kString:
      return 16 + AsString().size();
  }
  return 1;
}

uint64_t Value::Hash() const {
  switch (type()) {
    case ValueType::kNull:
      return 0x9ae16a3b2f90404fULL;
    case ValueType::kBool:
      return Mix64(AsBool() ? 1 : 0);
    case ValueType::kInt64:
      return Mix64(static_cast<uint64_t>(AsInt64()));
    case ValueType::kDouble:
      return HashDouble(AsDouble());
    case ValueType::kString:
      return HashString(AsString());
  }
  return 0;
}

namespace {

int CompareDoubles(double a, double b) {
  if (a < b) return -1;
  if (a > b) return 1;
  return 0;
}

}  // namespace

int Value::Compare(const Value& other) const {
  ValueType a = type();
  ValueType b = other.type();
  // Numeric cross-type comparison coerces to double.
  if (IsNumeric() && other.IsNumeric()) {
    double da = a == ValueType::kInt64 ? static_cast<double>(AsInt64())
                : a == ValueType::kBool ? (AsBool() ? 1.0 : 0.0)
                                        : AsDouble();
    double db = b == ValueType::kInt64 ? static_cast<double>(other.AsInt64())
                : b == ValueType::kBool ? (other.AsBool() ? 1.0 : 0.0)
                                        : other.AsDouble();
    return CompareDoubles(da, db);
  }
  if (a != b) return a < b ? -1 : 1;
  switch (a) {
    case ValueType::kNull:
      return 0;
    case ValueType::kString: {
      int c = AsString().compare(other.AsString());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    default:
      return 0;  // Unreachable: numeric handled above.
  }
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kBool:
      return AsBool() ? "true" : "false";
    case ValueType::kInt64:
      return std::to_string(AsInt64());
    case ValueType::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", AsDouble());
      return buf;
    }
    case ValueType::kString:
      return "'" + AsString() + "'";
  }
  return "?";
}

size_t RowSizeBytes(const Row& row) {
  size_t total = 8;  // Row header overhead.
  for (const Value& v : row) total += v.SizeBytes();
  return total;
}

uint64_t HashRowKey(const Row& row, const std::vector<int>& key_indices) {
  uint64_t h = 0x2545f4914f6cdd1dULL;
  for (int idx : key_indices) {
    h = HashCombine(h, row[static_cast<size_t>(idx)].Hash());
  }
  return h;
}

}  // namespace dynopt
