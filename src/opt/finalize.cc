#include "opt/finalize.h"

#include <algorithm>
#include <map>
#include <vector>

namespace dynopt {

namespace {

/// Streaming accumulator for one aggregate over one group.
struct AggState {
  int64_t count = 0;
  Value sum;   ///< Running sum for kSum/kAvg (int64 or double domain).
  Value min;
  Value max;

  void Add(const Value& v) {
    if (v.is_null()) return;
    ++count;
    if (min.is_null() || v < min) min = v;
    if (max.is_null() || v > max) max = v;
    if (!v.IsNumeric()) return;  // SUM/AVG undefined over strings.
    if (v.type() == ValueType::kDouble || sum.type() == ValueType::kDouble) {
      double acc = sum.is_null()
                       ? 0.0
                       : (sum.type() == ValueType::kDouble
                              ? sum.AsDouble()
                              : static_cast<double>(sum.AsInt64()));
      sum = Value(acc + v.NumericKey());
    } else {
      int64_t acc = sum.is_null() ? 0 : sum.AsInt64();
      sum = Value(acc + v.AsInt64());
    }
  }

  Value Finish(AggFn fn) const {
    switch (fn) {
      case AggFn::kCount:
        return Value(count);
      case AggFn::kSum:
        return sum;
      case AggFn::kMin:
        return min;
      case AggFn::kMax:
        return max;
      case AggFn::kAvg:
        if (count == 0 || sum.is_null()) return Value::Null();
        return Value(sum.NumericKey() / static_cast<double>(count));
    }
    return Value::Null();
  }
};

}  // namespace

Status ApplyPostProcessing(const QuerySpec& spec, const ClusterConfig& cluster,
                           OptimizerRunResult* result) {
  if (!spec.HasPostProcessing()) return Status::OK();

  const std::vector<std::string>& in_columns = result->columns;
  auto slot_of = [&](const std::string& name) -> int {
    for (size_t i = 0; i < in_columns.size(); ++i) {
      if (in_columns[i] == name) return static_cast<int>(i);
    }
    return -1;
  };

  const uint64_t input_rows = result->rows.size();
  std::vector<std::string> out_columns = spec.OutputColumns();
  std::vector<Row> out_rows;

  if (!spec.aggregates.empty() || !spec.group_by.empty()) {
    std::vector<int> group_slots;
    for (const auto& col : spec.group_by) {
      int slot = slot_of(col);
      if (slot < 0) {
        return Status::ExecutionError("GROUP BY column " + col +
                                      " missing from join output");
      }
      group_slots.push_back(slot);
    }
    std::vector<int> agg_slots;
    for (const auto& agg : spec.aggregates) {
      int slot = slot_of(agg.input);
      if (slot < 0) {
        return Status::ExecutionError("aggregate input " + agg.input +
                                      " missing from join output");
      }
      agg_slots.push_back(slot);
    }
    // Hash aggregation. (The simulated cluster would pre-aggregate locally
    // and shuffle partials; the cost charge below models exactly that.)
    std::map<Row, std::vector<AggState>> groups;
    for (const Row& row : result->rows) {
      Row key;
      key.reserve(group_slots.size());
      for (int slot : group_slots) key.push_back(row[static_cast<size_t>(slot)]);
      auto [it, inserted] = groups.try_emplace(
          std::move(key), std::vector<AggState>(spec.aggregates.size()));
      for (size_t a = 0; a < agg_slots.size(); ++a) {
        it->second[a].Add(row[static_cast<size_t>(agg_slots[a])]);
      }
    }
    // A global aggregate (no GROUP BY) always yields one row, even over
    // empty input: COUNT is 0 and SUM/MIN/MAX/AVG are NULL.
    if (group_slots.empty() && groups.empty()) {
      groups.try_emplace(Row{}, std::vector<AggState>(spec.aggregates.size()));
    }
    out_rows.reserve(groups.size());
    for (const auto& [key, states] : groups) {
      Row row = key;
      for (size_t a = 0; a < states.size(); ++a) {
        row.push_back(states[a].Finish(spec.aggregates[a].fn));
      }
      out_rows.push_back(std::move(row));
    }
  } else {
    out_rows = std::move(result->rows);
    out_columns = in_columns;
  }

  // ORDER BY with a deterministic total order: the explicit keys first,
  // then every remaining output column ascending (stable across
  // strategies even when the explicit keys tie).
  if (!spec.order_by.empty() || spec.limit >= 0) {
    std::vector<std::pair<int, bool>> sort_keys;  // (slot, descending)
    std::vector<bool> used(out_columns.size(), false);
    for (const auto& key : spec.order_by) {
      for (size_t i = 0; i < out_columns.size(); ++i) {
        if (out_columns[i] == key.column) {
          sort_keys.emplace_back(static_cast<int>(i), key.descending);
          used[i] = true;
        }
      }
    }
    for (size_t i = 0; i < out_columns.size(); ++i) {
      if (!used[i]) sort_keys.emplace_back(static_cast<int>(i), false);
    }
    std::sort(out_rows.begin(), out_rows.end(),
              [&](const Row& a, const Row& b) {
                for (const auto& [slot, desc] : sort_keys) {
                  int c = a[static_cast<size_t>(slot)].Compare(
                      b[static_cast<size_t>(slot)]);
                  if (c != 0) return desc ? c > 0 : c < 0;
                }
                return false;
              });
  }
  if (spec.limit >= 0 &&
      out_rows.size() > static_cast<size_t>(spec.limit)) {
    out_rows.resize(static_cast<size_t>(spec.limit));
  }

  // Cost model: local partial aggregation over the input, shuffle of the
  // (much smaller) partials, final merge + sort of the groups.
  const double n = static_cast<double>(cluster.num_nodes);
  uint64_t group_bytes = 0;
  for (const Row& row : out_rows) group_bytes += RowSizeBytes(row);
  double agg_seconds =
      (static_cast<double>(input_rows) / n) * cluster.cpu_seconds_per_tuple;
  double shuffle_seconds = (static_cast<double>(group_bytes) / n) *
                           cluster.network_seconds_per_byte;
  double sort_seconds = static_cast<double>(out_rows.size()) *
                        cluster.cpu_seconds_per_tuple;
  result->metrics.tuples_processed += input_rows + out_rows.size();
  result->metrics.bytes_shuffled += group_bytes;
  result->metrics.simulated_seconds +=
      agg_seconds + shuffle_seconds + sort_seconds;

  result->columns = std::move(out_columns);
  result->rows = std::move(out_rows);
  result->metrics.rows_out = result->rows.size();
  return Status::OK();
}

}  // namespace dynopt
