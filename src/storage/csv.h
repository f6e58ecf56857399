#ifndef DYNOPT_STORAGE_CSV_H_
#define DYNOPT_STORAGE_CSV_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/schema.h"
#include "storage/table.h"

namespace dynopt {

/// CSV ingestion options.
struct CsvOptions {
  char delimiter = ',';
  /// Skip the first line (column headers).
  bool has_header = true;
  /// Literal cell text treated as NULL (in addition to empty cells for
  /// non-string columns).
  std::string null_token = "\\N";
  /// Hash-partition on these columns (must exist in the schema); empty =
  /// round-robin.
  std::vector<std::string> partition_key;
};

/// Parses one CSV line into cells (no quoting dialect beyond double-quoted
/// fields with "" escapes).
std::vector<std::string> SplitCsvLine(const std::string& line,
                                      char delimiter);

/// Converts a cell to a Value of `type`; empty non-string cells and the
/// null token map to NULL. Fails on malformed numerics, on an int64 cell
/// outside int64's range and on a finite double cell that overflows to
/// infinity (underflow keeps its value).
Result<Value> ParseCsvCell(const std::string& cell, ValueType type,
                           const CsvOptions& options);

/// Loads `path` into a new table named `name` with the given schema,
/// hash-partitioned across `num_partitions` (at least 1). The caller
/// registers the result with a Catalog. Cell count must match the schema
/// on every line; errors about a line are prefixed with `path:line`.
Result<std::shared_ptr<Table>> LoadCsvTable(const std::string& name,
                                            const Schema& schema,
                                            const std::string& path,
                                            size_t num_partitions,
                                            const CsvOptions& options =
                                                CsvOptions());

}  // namespace dynopt

#endif  // DYNOPT_STORAGE_CSV_H_
