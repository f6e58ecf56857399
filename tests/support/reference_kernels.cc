#include "support/reference_kernels.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>

#include "common/logging.h"

namespace dynopt {
namespace reference {

namespace {

uint64_t MaxOver(const std::vector<uint64_t>& per_node) {
  uint64_t mx = 0;
  for (uint64_t v : per_node) mx = std::max(mx, v);
  return mx;
}

using WallClock = std::chrono::steady_clock;

double SecondsSince(WallClock::time_point start) {
  return std::chrono::duration<double>(WallClock::now() - start).count();
}

}  // namespace

Dataset Repartition(Dataset&& input, const std::vector<int>& key_indices,
                    const ClusterConfig& cluster, ExecMetrics* metrics) {
  const auto wall_start = WallClock::now();
  const size_t n = cluster.num_nodes;
  Dataset out(input.columns, n);
  std::vector<uint64_t> received_bytes(n, 0);
  std::vector<uint64_t> rows_in(input.partitions.size(), 0);
  // Route sequentially per source partition (destinations are shared).
  for (size_t p = 0; p < input.partitions.size(); ++p) {
    rows_in[p] = input.partitions[p].size();
    for (Row& row : input.partitions[p]) {
      size_t dest = static_cast<size_t>(HashRowKey(row, key_indices) % n);
      if (dest != p || input.partitions.size() != n) {
        uint64_t bytes = RowSizeBytes(row);
        metrics->bytes_shuffled += bytes;
        received_bytes[dest] += bytes;
      }
      out.partitions[dest].push_back(std::move(row));
    }
    input.partitions[p].clear();
  }
  uint64_t total_rows = 0;
  for (uint64_t r : rows_in) total_rows += r;
  metrics->tuples_processed += total_rows;
  metrics->simulated_seconds +=
      static_cast<double>(MaxOver(received_bytes)) *
          cluster.network_seconds_per_byte +
      static_cast<double>(MaxOver(rows_in)) * cluster.cpu_seconds_per_tuple;
  metrics->wall_shuffle_seconds += SecondsSince(wall_start);
  return out;
}

Dataset LocalHashJoin(const Dataset& build, const Dataset& probe,
                      const std::vector<int>& build_keys,
                      const std::vector<int>& probe_keys,
                      const ClusterConfig& cluster, ExecMetrics* metrics) {
  DYNOPT_CHECK(build.partitions.size() == probe.partitions.size());
  const size_t num_parts = build.partitions.size();
  std::vector<std::string> out_columns = build.columns;
  out_columns.insert(out_columns.end(), probe.columns.begin(),
                     probe.columns.end());
  Dataset out(out_columns, num_parts);
  std::vector<uint64_t> work(num_parts, 0);
  uint64_t total_work = 0;
  for (size_t p = 0; p < num_parts; ++p) {
    const auto& build_rows = build.partitions[p];
    const auto& probe_rows = probe.partitions[p];
    auto& dest = out.partitions[p];
    auto build_start = WallClock::now();
    std::unordered_map<uint64_t, std::vector<size_t>> table;
    table.reserve(build_rows.size());
    for (size_t i = 0; i < build_rows.size(); ++i) {
      if (AnyJoinKeyNull(build_rows[i], build_keys)) continue;
      table[HashRowKey(build_rows[i], build_keys)].push_back(i);
    }
    metrics->wall_build_seconds += SecondsSince(build_start);
    auto probe_start = WallClock::now();
    uint64_t local_work = build_rows.size() + probe_rows.size();
    for (const Row& probe_row : probe_rows) {
      if (AnyJoinKeyNull(probe_row, probe_keys)) continue;
      auto it = table.find(HashRowKey(probe_row, probe_keys));
      if (it == table.end()) continue;
      for (size_t build_idx : it->second) {
        const Row& build_row = build_rows[build_idx];
        if (!JoinKeysEqual(build_row, build_keys, probe_row, probe_keys)) {
          continue;
        }
        Row joined;
        joined.reserve(build_row.size() + probe_row.size());
        joined.insert(joined.end(), build_row.begin(), build_row.end());
        joined.insert(joined.end(), probe_row.begin(), probe_row.end());
        dest.push_back(std::move(joined));
        ++local_work;
      }
    }
    metrics->wall_probe_seconds += SecondsSince(probe_start);
    work[p] = local_work;
    total_work += local_work;
  }
  metrics->tuples_processed += total_work;
  metrics->simulated_seconds +=
      static_cast<double>(MaxOver(work)) * cluster.cpu_seconds_per_tuple;
  return out;
}

}  // namespace reference
}  // namespace dynopt
