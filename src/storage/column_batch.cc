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
  return ColumnKind::kValues;
}

void ColumnVector::Append(const Value& v) {
  if (kind == ColumnKind::kValues) {
    values.push_back(v);
    return;
  }
  const ValueType t = v.type();
  if (t == ValueType::kNull) {
    if (validity.empty()) validity.assign(size(), 1);
    switch (kind) {
      case ColumnKind::kInt64:
        i64.push_back(0);
        break;
      case ColumnKind::kDouble:
        f64.push_back(0);
        break;
      case ColumnKind::kBool:
        b8.push_back(0);
        break;
      case ColumnKind::kString:
        codes.push_back(0);
        break;
      case ColumnKind::kValues:
        break;
    }
    validity.push_back(0);
    return;
  }
  switch (kind) {
    case ColumnKind::kInt64:
      if (t != ValueType::kInt64) break;
      i64.push_back(v.AsInt64());
      if (!validity.empty()) validity.push_back(1);
      return;
    case ColumnKind::kDouble:
      if (t != ValueType::kDouble) break;
      f64.push_back(v.AsDouble());
      if (!validity.empty()) validity.push_back(1);
      return;
    case ColumnKind::kBool:
      if (t != ValueType::kBool) break;
      b8.push_back(v.AsBool() ? 1 : 0);
      if (!validity.empty()) validity.push_back(1);
      return;
    case ColumnKind::kString:
      if (t != ValueType::kString) break;
      codes.push_back(dict->Intern(v.AsStringUnchecked()));
      if (!validity.empty()) validity.push_back(1);
      return;
    case ColumnKind::kValues:
      break;
  }
  PromoteToValues();
  values.push_back(v);
}

void ColumnVector::PromoteToValues() {
  if (kind == ColumnKind::kValues) return;
  const size_t n = size();
  std::vector<Value> promoted;
  promoted.reserve(n);
  for (size_t i = 0; i < n; ++i) promoted.push_back(ValueAt(i));
  kind = ColumnKind::kValues;
  values = std::move(promoted);
  i64.clear();
  f64.clear();
  b8.clear();
  codes.clear();
  dict.reset();
  validity.clear();
}

ColumnVector ColumnVector::Slice(size_t begin, size_t n) const {
  ColumnVector out;
  out.kind = kind;
  const size_t end = begin + n;
  switch (kind) {
    case ColumnKind::kInt64:
      out.i64.assign(i64.begin() + begin, i64.begin() + end);
      break;
    case ColumnKind::kDouble:
      out.f64.assign(f64.begin() + begin, f64.begin() + end);
      break;
    case ColumnKind::kBool:
      out.b8.assign(b8.begin() + begin, b8.begin() + end);
      break;
    case ColumnKind::kString:
      out.dict = dict;
      out.codes.assign(codes.begin() + begin, codes.begin() + end);
      break;
    case ColumnKind::kValues:
      out.values.assign(values.begin() + begin, values.begin() + end);
      break;
  }
  if (!validity.empty()) {
    out.validity.assign(validity.begin() + begin, validity.begin() + end);
  }
  return out;
}

}  // namespace dynopt
