#include "storage/column_batch.h"

namespace dynopt {

ColumnKind TypedKindFor(ValueType t) {
  switch (t) {
    case ValueType::kNull:
    case ValueType::kInt64:
      return ColumnKind::kInt64;
    case ValueType::kDouble:
      return ColumnKind::kDouble;
    case ValueType::kBool:
      return ColumnKind::kBool;
    case ValueType::kString:
      return ColumnKind::kString;
  }
  return ColumnKind::kInt64;
}

void ColumnVector::Append(const Value& v) {
  const bool null = v.is_null();
  if (null || !validity.empty()) {
    // The first NULL makes every earlier row explicitly valid.
    if (validity.empty()) validity.assign(size(), 1);
    validity.push_back(null ? 0 : 1);
  }
  switch (kind) {
    case ColumnKind::kInt64:
      i64.push_back(null ? 0 : v.AsInt64());
      break;
    case ColumnKind::kDouble:
      f64.push_back(null ? 0 : v.AsDouble());
      break;
    case ColumnKind::kBool:
      b8.push_back(!null && v.AsBool() ? 1 : 0);
      break;
    case ColumnKind::kString:
      codes.push_back(null ? 0 : dict->Intern(v.AsStringUnchecked()));
      break;
  }
}

ColumnVector ColumnVector::Slice(size_t begin, size_t n) const {
  ColumnVector out;
  out.kind = kind;
  switch (kind) {
    case ColumnKind::kInt64:
      out.i64 = i64.Slice(begin, n);
      break;
    case ColumnKind::kDouble:
      out.f64 = f64.Slice(begin, n);
      break;
    case ColumnKind::kBool:
      out.b8 = b8.Slice(begin, n);
      break;
    case ColumnKind::kString:
      out.dict = dict;
      out.codes = codes.Slice(begin, n);
      break;
  }
  if (!validity.empty()) out.validity = validity.Slice(begin, n);
  return out;
}

void ColumnVector::Reserve(size_t n) {
  switch (kind) {
    case ColumnKind::kInt64:
      i64.reserve(n);
      break;
    case ColumnKind::kDouble:
      f64.reserve(n);
      break;
    case ColumnKind::kBool:
      b8.reserve(n);
      break;
    case ColumnKind::kString:
      codes.reserve(n);
      break;
  }
}

}  // namespace dynopt
