#include "opt/cost_model.h"

#include <algorithm>
#include <cmath>

namespace dynopt {

namespace {

/// Grace-join spill charge for one join whose per-node resident build share
/// is `node_build_bytes` against `in.memory_budget_bytes`, mirroring
/// JobExecutor::GraceJoinPartition: each recursion level whose build share
/// still exceeds the budget re-partitions every row of the pair (CPU) and
/// writes + reads back every pair byte once (disk rates); a fanout-way
/// split shrinks the build share per level; recursion caps at
/// kMaxSpillRecursion, after which the executor joins in memory over
/// budget (no further passes charged). `node_pair_bytes`/`node_pair_rows`
/// are the per-node build+probe volume each pass rewrites.
void AddSpillCharge(const JoinCostInputs& in, const ClusterConfig& cluster,
                    double node_build_bytes, double node_pair_bytes,
                    double node_pair_rows, JoinCostBreakdown* out) {
  const double budget = static_cast<double>(in.memory_budget_bytes);
  if (budget <= 0 || node_build_bytes <= budget) return;
  const double fanout =
      static_cast<double>(std::max(2, cluster.memory.max_spill_fanout));
  int passes = 0;
  double share = node_build_bytes;
  while (share > budget && passes < kMaxSpillRecursion) {
    ++passes;
    share /= fanout;
  }
  if (passes == 0) return;
  const double per_pass_seconds =
      node_pair_bytes * (cluster.disk_write_seconds_per_byte +
                         cluster.disk_read_seconds_per_byte) +
      node_pair_rows * cluster.cpu_seconds_per_tuple;
  out->spill_passes = passes;
  out->spill_seconds = static_cast<double>(passes) * per_pass_seconds;
  // spilled_bytes sums over nodes (the executor's counter does); every
  // node spills its whole pair once per pass.
  out->spilled_bytes = static_cast<double>(passes) * node_pair_bytes *
                       static_cast<double>(cluster.num_nodes);
  out->cost += out->spill_seconds;
}

}  // namespace

double EstimateScanCost(double bytes, double rows,
                        const ClusterConfig& cluster, bool is_intermediate) {
  const double n = static_cast<double>(cluster.num_nodes);
  const double per_byte = is_intermediate ? cluster.disk_read_seconds_per_byte
                                          : cluster.scan_seconds_per_byte;
  return (bytes / n) * per_byte + (rows / n) * cluster.cpu_seconds_per_tuple;
}

double EstimateResidentBytes(double bytes, const ClusterConfig& cluster) {
  const uint64_t budget = cluster.memory.join_memory_budget_bytes;
  if (budget == 0) return bytes;
  const double cap = static_cast<double>(budget) *
                     static_cast<double>(cluster.num_nodes);
  return std::min(bytes, cap);
}

JoinCostBreakdown EstimateJoinExecCostDetail(JoinMethod method,
                                             const JoinCostInputs& in,
                                             const ClusterConfig& cluster,
                                             double probe_scan_bytes) {
  const double n = static_cast<double>(cluster.num_nodes);
  const double cpu = cluster.cpu_seconds_per_tuple;
  JoinCostBreakdown out;
  switch (method) {
    case JoinMethod::kHashShuffle: {
      // Both sides re-partitioned; a node receives ~1/n of each side.
      double net = ((in.build_bytes + in.probe_bytes) / n) *
                   cluster.network_seconds_per_byte;
      double work =
          ((in.build_rows + in.probe_rows + in.out_rows) / n) * cpu;
      out.cost = net + work;
      AddSpillCharge(in, cluster, in.build_bytes / n,
                     (in.build_bytes + in.probe_bytes) / n,
                     (in.build_rows + in.probe_rows) / n, &out);
      return out;
    }
    case JoinMethod::kBroadcast: {
      // Every node receives the whole build side and builds a full hash
      // table over it; the probe side never moves.
      double net = in.build_bytes * cluster.network_seconds_per_byte;
      double work =
          in.build_rows * cpu + ((in.probe_rows + in.out_rows) / n) * cpu;
      out.cost = net + work;
      // Each node holds the *full* build side — a tight budget makes the
      // replicated build spill at every node, which is the cliff that
      // flips the broadcast-vs-shuffle choice under spill-aware costing.
      AddSpillCharge(in, cluster, in.build_bytes,
                     in.build_bytes + in.probe_bytes / n,
                     in.build_rows + in.probe_rows / n, &out);
      return out;
    }
    case JoinMethod::kIndexNestedLoop: {
      // The outer (build) side is broadcast; every node probes its local
      // index once per outer row; only matched inner bytes are read —
      // and the inner side's scan cost is avoided entirely, so subtract
      // the scan the probe side would otherwise pay. No hash table is
      // built, so the grace-join spill path never applies.
      double net = in.build_bytes * cluster.network_seconds_per_byte;
      double lookups = in.build_rows * cluster.index_lookup_seconds;
      double matched_read =
          (in.out_bytes / n) * cluster.disk_read_seconds_per_byte;
      double saved_scan = (probe_scan_bytes / n) * cluster.scan_seconds_per_byte +
                          (in.probe_rows / n) * cpu;
      out.cost = net + lookups + matched_read + (in.out_rows / n) * cpu -
                 saved_scan;
      return out;
    }
  }
  return out;
}

double EstimateJoinExecCost(JoinMethod method, const JoinCostInputs& in,
                            const ClusterConfig& cluster,
                            double probe_scan_bytes) {
  return EstimateJoinExecCostDetail(method, in, cluster, probe_scan_bytes)
      .cost;
}

}  // namespace dynopt
