#include "storage/csv.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace dynopt {

std::vector<std::string> SplitCsvLine(const std::string& line,
                                      char delimiter) {
  std::vector<std::string> cells;
  std::string cell;
  bool quoted = false;
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cell.push_back('"');
          ++i;  // Escaped quote.
        } else {
          quoted = false;
        }
      } else {
        cell.push_back(c);
      }
    } else if (c == '"' && cell.empty()) {
      quoted = true;
    } else if (c == delimiter) {
      cells.push_back(std::move(cell));
      cell.clear();
    } else {
      cell.push_back(c);
    }
  }
  cells.push_back(std::move(cell));
  return cells;
}

Result<Value> ParseCsvCell(const std::string& cell, ValueType type,
                           const CsvOptions& options) {
  if (cell == options.null_token) return Value::Null();
  switch (type) {
    case ValueType::kString:
      return Value(cell);
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kBool:
      if (cell.empty()) return Value::Null();
      if (cell == "true" || cell == "1" || cell == "t") return Value(true);
      if (cell == "false" || cell == "0" || cell == "f") return Value(false);
      return Status::InvalidArgument("bad bool cell '" + cell + "'");
    case ValueType::kInt64: {
      if (cell.empty()) return Value::Null();
      char* end = nullptr;
      errno = 0;
      long long v = std::strtoll(cell.c_str(), &end, 10);
      if (end == nullptr || *end != '\0') {
        return Status::InvalidArgument("bad int cell '" + cell + "'");
      }
      if (errno == ERANGE) {
        return Status::InvalidArgument("int cell '" + cell + "' out of range");
      }
      return Value(static_cast<int64_t>(v));
    }
    case ValueType::kDouble: {
      if (cell.empty()) return Value::Null();
      char* end = nullptr;
      errno = 0;
      double v = std::strtod(cell.c_str(), &end);
      if (end == nullptr || *end != '\0') {
        return Status::InvalidArgument("bad double cell '" + cell + "'");
      }
      // ERANGE also flags underflow, which keeps its (zero or subnormal)
      // value; only a finite literal rounding to infinity is rejected.
      if (errno == ERANGE && std::isinf(v)) {
        return Status::InvalidArgument("double cell '" + cell +
                                       "' out of range");
      }
      return Value(v);
    }
  }
  return Status::Internal("unknown value type");
}

Result<std::shared_ptr<Table>> LoadCsvTable(const std::string& name,
                                            const Schema& schema,
                                            const std::string& path,
                                            size_t num_partitions,
                                            const CsvOptions& options) {
  if (num_partitions == 0) {
    return Status::InvalidArgument("CSV table " + name +
                                   " needs at least one partition");
  }
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    return Status::NotFound("cannot open CSV file " + path);
  }
  auto table = std::make_shared<Table>(name, schema, num_partitions);
  if (!options.partition_key.empty()) {
    Status st = table->SetPartitionKey(options.partition_key);
    if (!st.ok()) {
      std::fclose(f);
      return st;
    }
  }

  std::string line;
  char buf[1 << 16];
  size_t line_number = 0;
  bool skipped_header = !options.has_header;
  auto process_line = [&](const std::string& text) -> Status {
    ++line_number;
    if (!skipped_header) {
      skipped_header = true;
      return Status::OK();
    }
    if (text.empty()) return Status::OK();
    std::vector<std::string> cells = SplitCsvLine(text, options.delimiter);
    if (cells.size() != schema.num_fields()) {
      return Status::InvalidArgument(
          path + ":" + std::to_string(line_number) + ": expected " +
          std::to_string(schema.num_fields()) + " cells, got " +
          std::to_string(cells.size()));
    }
    auto at_line = [&](const Status& st) {
      return Status(st.code(), path + ":" + std::to_string(line_number) +
                                   ": " + st.message());
    };
    Row row;
    row.reserve(cells.size());
    for (size_t c = 0; c < cells.size(); ++c) {
      auto value = ParseCsvCell(cells[c], schema.field(c).type, options);
      if (!value.ok()) return at_line(value.status());
      row.push_back(std::move(value).value());
    }
    Status appended = table->AppendRow(row);
    return appended.ok() ? appended : at_line(appended);
  };

  Status status = Status::OK();
  while (std::fgets(buf, sizeof(buf), f) != nullptr) {
    line.append(buf);
    if (!line.empty() && line.back() == '\n') {
      line.pop_back();
      if (!line.empty() && line.back() == '\r') line.pop_back();
      status = process_line(line);
      line.clear();
      if (!status.ok()) break;
    }
  }
  if (status.ok() && !line.empty()) status = process_line(line);
  std::fclose(f);
  if (!status.ok()) return status;
  return table;
}

}  // namespace dynopt
