#ifndef DYNOPT_OPT_COST_MODEL_H_
#define DYNOPT_OPT_COST_MODEL_H_

#include "exec/cluster.h"
#include "exec/job.h"

namespace dynopt {

/// Plan-time estimates of one join's inputs/output, in rows and bytes
/// (post local predicates).
struct JoinCostInputs {
  double build_rows = 0;   ///< Small / outer side.
  double build_bytes = 0;
  double probe_rows = 0;   ///< Large / inner side.
  double probe_bytes = 0;
  double out_rows = 0;
  double out_bytes = 0;
  /// Per-node join build-side memory budget the executor will enforce
  /// (ClusterConfig.memory.join_memory_budget_bytes); 0 = unlimited. When
  /// positive, a build side whose per-node resident size exceeds it is
  /// priced with the grace-hash spill passes the executor actually runs.
  /// Callers set this only when ClusterConfig.risk.spill_aware_costing is
  /// on, so default-config costs are byte-identical to the spill-blind
  /// model.
  uint64_t memory_budget_bytes = 0;
};

/// Decomposed join cost: the total plus the spill-path share, so tests can
/// hold the model against ExecMetrics.spilled_bytes metered on the same
/// plan and benches can report predicted spill volume per decision.
struct JoinCostBreakdown {
  /// Total estimated simulated seconds (includes spill_seconds).
  double cost = 0;
  /// Share attributable to grace-join spilling (disk passes + repartition
  /// CPU); 0 when the build side fits the budget or no budget is set.
  double spill_seconds = 0;
  /// Predicted ExecMetrics.spilled_bytes: bytes written to spill files,
  /// summed over nodes and recursion passes (each is also read back —
  /// that read is charged in spill_seconds, not counted again here).
  double spilled_bytes = 0;
  /// Predicted grace-join recursion depth per overflowing node (0 = in
  /// memory; capped at kMaxSpillRecursion like the executor).
  int spill_passes = 0;
};

/// Estimated simulated-seconds cost of executing one join with `method`,
/// mirroring the executor's charging rules (JobExecutor): shuffles charge
/// per-node received network bytes, broadcasts charge the full build size
/// at every node, the indexed NLJ charges per-row index lookups but reads
/// only matched inner bytes — and *skips the inner scan entirely*, which is
/// what makes it attractive for selective probes.
///
/// With `in.memory_budget_bytes > 0` the hash paths additionally mirror
/// JobExecutor::GraceJoinPartition: every recursion level whose per-node
/// build share still exceeds the budget writes and reads back the whole
/// build+probe pair once (disk rates) and re-partitions every row (CPU),
/// up to kMaxSpillRecursion levels with memory.max_spill_fanout-way
/// splits. A shuffle's per-node build share is build_bytes/num_nodes; a
/// broadcast replicates the full build to every node, which is exactly why
/// a tight budget can flip the broadcast-vs-shuffle choice.
///
/// `probe_scan_bytes` is the cost the inner side's scan would incur (the
/// INLJ alternative saves it); pass probe_bytes when the inner is a plain
/// base-table scan.
double EstimateJoinExecCost(JoinMethod method, const JoinCostInputs& in,
                            const ClusterConfig& cluster,
                            double probe_scan_bytes);

/// Same model with the spill share broken out.
JoinCostBreakdown EstimateJoinExecCostDetail(JoinMethod method,
                                             const JoinCostInputs& in,
                                             const ClusterConfig& cluster,
                                             double probe_scan_bytes);

/// Estimated cost of scanning `bytes`/`rows` spread over the cluster.
double EstimateScanCost(double bytes, double rows, const ClusterConfig& cluster,
                        bool is_intermediate);

/// Bytes of a `bytes`-sized input that stay memory-resident cluster-wide
/// under the grace-join budget: with a per-node join budget configured, a
/// build side never pins more than budget bytes per node (the overflow
/// lives in spill files), so the resident set is min(bytes, budget *
/// num_nodes). With no budget (0, the default) the input is fully resident
/// and the value is `bytes` unchanged. EstimateQueryReservationBytes
/// (opt/degrade.h) routes through this so admission reservations agree
/// with what the spill-aware executor will actually pin.
double EstimateResidentBytes(double bytes, const ClusterConfig& cluster);

}  // namespace dynopt

#endif  // DYNOPT_OPT_COST_MODEL_H_
