#ifndef DYNOPT_EXEC_EXECUTOR_H_
#define DYNOPT_EXEC_EXECUTOR_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/metrics_registry.h"
#include "common/query_context.h"
#include "common/retry_budget.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "exec/batch.h"
#include "exec/cluster.h"
#include "exec/fault_injector.h"
#include "exec/job.h"
#include "exec/join_hash_table.h"
#include "exec/metrics.h"
#include "exec/vector_kernels.h"
#include "plan/udf.h"
#include "stats/sketch.h"
#include "stats/table_stats.h"
#include "storage/catalog.h"

namespace dynopt {

/// Output of running one job: the root operator's batches, carried as-is
/// to Materialize or to result delivery.
struct JobResult {
  ColumnarDataset data;
  ExecMetrics metrics;
};

/// Output of a Sink (materialization at a re-optimization point).
struct SinkResult {
  std::string table_name;  ///< Generated temp-table name in the catalog.
  TableStats stats;        ///< Online statistics (empty when disabled).
};

/// A hash-repartitioned dataset whose rows have not moved. `source` keeps
/// the input batches, and routes[p][b] routes batch b of source partition
/// p: a stable counting sort of its rows by destination, with the key hash
/// of each row. Partition d is Views()[d]: its rows from every source
/// batch, sources ascending and rows in batch order, exactly the row order
/// of a sequential shuffle.
struct ShuffleResult {
  struct Route {
    /// Destination d's rows are sel[offsets[d], offsets[d + 1]).
    std::vector<uint32_t> offsets;
    std::vector<uint32_t> sel;     ///< Row indices, grouped by destination.
    std::vector<uint64_t> hashes;  ///< Key hash of row sel[k], aligned.
  };

  /// Each destination's rows as views into `source`: element d lists
  /// destination d's non-empty views, sources ascending.
  std::vector<std::vector<BatchView>> Views() const;

  ColumnarDataset source;
  std::vector<std::vector<Route>> routes;
  size_t num_partitions = 0;
};

/// Executes physical job plans against the simulated cluster: operators run
/// partition-parallel on a thread pool over ColumnBatch partitions, and
/// every unit of work (bytes scanned/shuffled/broadcast/materialized,
/// tuples, index lookups) is metered and converted to simulated seconds
/// under the ClusterConfig cost model. Per pipeline stage, simulated time is
/// max-over-nodes. Filter and Project run inside the task of the scan or
/// join below them: a leaf is one task per partition (scan, predicates,
/// survivors' gather), and a Project over a join narrows the join's output
/// gather. Each plan node keeps its own metering formula, charged in plan
/// order after its fused task.
///
/// The data-movement kernels (Repartition / LocalHashJoin) are public:
/// tests compare them against the sequential row oracle under
/// tests/support, and bench/bench_kernels.cc times them.
/// When a FaultInjector is armed (Engine::ArmFaultInjection), every kernel
/// additionally draws deterministic task failures, stragglers and temp-file
/// corruption; re-executed work and unhidden slowdown are charged to
/// ExecMetrics::recovery_seconds (included in simulated_seconds) and
/// injected whole-query failures surface as retryable kTransient errors.
/// With no injector (or a disabled one) the metering is byte-for-byte
/// identical to a fault-free build.
class JobExecutor {
 public:
  /// `ctx` attaches the per-query context (cancellation token + deadline +
  /// memory tracker). Null (the default) runs ungoverned: no cancellation
  /// checks fire and memory is not accounted, exactly the pre-governance
  /// engine. The context must outlive the executor's jobs.
  /// `sketches` attaches the engine's join-key sketch registry; null (the
  /// default) disables sketch collection and predicate transfer regardless
  /// of the cluster's sketch knobs.
  /// `metrics_registry` (the engine's) is where counters/gauges/histograms
  /// land.
  /// An invalid `cluster` (ValidateClusterConfig) never aborts: every
  /// public entry point returns the validation error instead.
  JobExecutor(Catalog* catalog, StatsManager* stats, const UdfRegistry* udfs,
              const ClusterConfig& cluster, ThreadPool* pool,
              MetricsRegistry* metrics_registry,
              FaultInjector* faults = nullptr, QueryContext* ctx = nullptr,
              RetryBudget* retry_budget = nullptr,
              SketchManager* sketches = nullptr);

  /// Runs one job tree and returns its output dataset plus metrics.
  Result<JobResult> Execute(const PlanNode& root,
                            const std::map<std::string, Value>& params);

  /// The Sink operator: moves `data`'s batches, buffers and all, into a
  /// fresh temp table in the catalog (partition placement and row order
  /// preserved; a batch the table rejects fails the sink), optionally
  /// collecting online statistics on `stats_columns` (qualified names) and
  /// join-key sketches on `sketch_columns`, column-at-a-time. The online
  /// statistics are counts, bounds and HLL ndv without quantiles
  /// (Quantiles::kSkip); `stats_seconds` still prices the paper's GK + HLL
  /// collection per value. Charges materialization I/O and the per-reopt
  /// fixed cost to `metrics->reopt_seconds` and stats collection to
  /// `metrics->stats_seconds` (both included in simulated_seconds).
  Result<SinkResult> Materialize(ColumnarDataset&& data,
                                 const std::string& prefix,
                                 const std::vector<std::string>& stats_columns,
                                 bool collect_stats, ExecMetrics* metrics,
                                 const std::vector<std::string>*
                                     sketch_columns = nullptr);

  /// Hash-repartitions `input` on `key_indices` into the cluster's node
  /// count, metering network traffic, without moving a row: per source
  /// batch (source partitions in parallel) it hashes the key columns with
  /// HashKeyColumns, counts rows per destination, prefix-sums the counts
  /// and scatters row indices and hashes in source order (see
  /// ShuffleResult). The join gathers each destination's rows. Fails only
  /// under fault injection (retryable kTransient).
  Result<ShuffleResult> Repartition(ColumnarDataset&& input,
                                    const std::vector<int>& key_indices,
                                    ExecMetrics* metrics);

  /// Local hash join between the partitions of two shuffled sides; emits
  /// build-row ++ probe-row. Each partition's build rows are gathered from
  /// their routes into one flat batch (the flat table of
  /// JoinHashTable::Build indexes it) and the table is built with the
  /// routes' hashes. The join consumes `build`: its source batches are
  /// freed once gathered, so the flat batches are the only copy of a build
  /// row while the probe runs. The probe reads its rows through their
  /// routes, so the output gather is the only copy of a probe row. Under a
  /// join memory budget, build partitions over budget take the grace-join
  /// spill path. Fails under fault injection (retryable kTransient),
  /// cancellation, or spill I/O.
  Result<ColumnarDataset> LocalHashJoin(ShuffleResult&& build,
                                        const ShuffleResult& probe,
                                        const std::vector<int>& build_keys,
                                        const std::vector<int>& probe_keys,
                                        ExecMetrics* metrics);

  /// The same join over datasets read as whole-batch views, hashed here.
  /// `build` has one partition per probe partition (a partition-wise join)
  /// or exactly one partition, which every probe partition reads (a
  /// broadcast: one flat batch and one table, metered as one build per
  /// node).
  Result<ColumnarDataset> LocalHashJoin(const ColumnarDataset& build,
                                        const ColumnarDataset& probe,
                                        const std::vector<int>& build_keys,
                                        const std::vector<int>& probe_keys,
                                        ExecMetrics* metrics);

  const ClusterConfig& cluster() const { return cluster_; }

 private:
  /// Runs the subtree at `node`. A chain of Filter and Project nodes runs
  /// inside the task of the scan or join below it: ExecNode walks down to
  /// that node, checking for cancellation at every plan node, then runs
  /// ExecLeaf or the join with the chain. A Filter over a join is
  /// kInvalidArgument (only scans are filtered), and each Project folded
  /// into a join is charged after it, bottom-up.
  Result<ColumnarDataset> ExecNode(const PlanNode& node,
                                   const std::map<std::string, Value>& params,
                                   ExecMetrics* metrics);
  /// The leaf pipeline: scan → Filter/Project `chain` (bottom-up) in one
  /// task per partition. Each predicate is compiled once against the
  /// names the chain holds at that point, placed at their stored slots,
  /// and evaluated on each stored run in place; each max_batch_size slice
  /// then emits only its surviving rows of the final columns: a slice
  /// whose every row survives borrows the run's buffers, others gather
  /// their survivors. Metered as the scan followed by each chain node,
  /// bottom-up.
  Result<ColumnarDataset> ExecLeaf(const PlanNode& scan,
                                   const std::vector<const PlanNode*>& chain,
                                   const std::map<std::string, Value>& params,
                                   ExecMetrics* metrics);
  /// Shuffle and broadcast joins; `projects` (bottom-up) are folded into
  /// the output gather.
  Result<ColumnarDataset> ExecJoin(const PlanNode& node,
                                   const std::vector<const PlanNode*>& projects,
                                   const std::map<std::string, Value>& params,
                                   ExecMetrics* metrics);
  Result<ColumnarDataset> ExecIndexNestedLoopJoin(
      const PlanNode& node, const std::vector<const PlanNode*>& projects,
      const std::map<std::string, Value>& params, ExecMetrics* metrics);

  /// The join behind both LocalHashJoin overloads and ExecJoin. `build[b]`
  /// and `probe[p]` list each partition's views; `build` has probe.size()
  /// partitions or one shared by every probe partition (any other count
  /// is kInvalidArgument). Views of one side all carry hashes or none do.
  /// The output has columns `out_columns`, gathered as `sources` says.
  /// `build_owner`, when non-null, owns the build views' batches and is
  /// reset once they are gathered.
  Result<ColumnarDataset> JoinViews(
      std::vector<std::string> out_columns, std::vector<SinkColumn> sources,
      const std::vector<std::vector<BatchView>>& build,
      const std::vector<std::vector<BatchView>>& probe,
      const std::vector<int>& build_keys, const std::vector<int>& probe_keys,
      ExecMetrics* metrics, ShuffleResult* build_owner = nullptr);

  /// True when an enabled fault injector is attached.
  bool FaultsArmed() const { return faults_ != nullptr && faults_->enabled(); }

  /// True when predicate transfer applies: the knob is on and a sketch
  /// registry is attached.
  bool PredicateTransferEnabled() const {
    return sketches_ != nullptr && cluster_.sketch.enable_predicate_transfer;
  }

  /// Sideways pushdown for a shuffle join: builds a Bloom filter over the
  /// build side's non-null key hashes (HashKeyColumns), charges its
  /// transfer to every node as network cost, then drops probe rows whose
  /// key cannot match (null key or filter miss) before they enter
  /// Repartition, gathering survivors through a selection vector. Pruned
  /// rows/bytes are recorded in the pt_* counters; Bloom filters have no
  /// false negatives, so results are identical with the knob off.
  void TransferPredicate(const ColumnarDataset& build,
                         const std::vector<int>& build_keys,
                         ColumnarDataset* probe,
                         const std::vector<int>& probe_keys,
                         ExecMetrics* metrics);

  /// Cooperative cancellation check, run at every kernel/stage boundary.
  /// OK when no context is attached.
  Status CheckAlive() {
    return ctx_ != nullptr ? ctx_->CheckAlive() : Status::OK();
  }

  /// Path stem of a fresh file under spill_directory: the query's spill-file
  /// prefix (process id and query id; "q0" when ungoverned) plus a
  /// process-wide serial. Every file the executor writes there is named
  /// from one, so no two writers sharing the directory collide, in one
  /// process or across processes.
  std::string NewSpillStem() {
    return cluster_.spill_directory + "/" +
           (ctx_ != nullptr ? ctx_->SpillFilePrefix()
                            : ProcessSpillPrefix() + "q0_") +
           "s" +
           std::to_string(
               spill_serial_.fetch_add(1, std::memory_order_relaxed)) +
           "_";
  }

  /// Per-ParallelFor-body accumulator of one grace-join spill partition.
  /// Merged serially after the join's probe loop (max-over-nodes for the
  /// simulated seconds, sums for the byte/partition counters).
  struct SpillStats {
    uint64_t spilled_bytes = 0;     ///< Bytes written to spill files.
    uint64_t spill_partitions = 0;  ///< Sub-partition pairs spilled.
    uint64_t repartition_rows = 0;  ///< Rows passed through spill splits.
    double spill_seconds = 0;       ///< Simulated disk+CPU cost of spilling.
  };

  /// Grace hash join of one overflowing partition (`build` and `probe` are
  /// its flat batches): recursively splits both sides by a re-salted key
  /// hash into checksummed spill files under spill_directory, then joins
  /// each sub-partition pair with the in-memory build and probe (once it
  /// fits the budget, or unconditionally at kMaxSpillRecursion — a single
  /// query always completes). Emits into `sink` (sub-partition, then probe
  /// row, then hash-chain order), adds its tuple work to `work` and
  /// accounts spilling in `stats`. Spill files are removed as consumed and
  /// on error.
  Status GraceJoinPartition(const ColumnBatch& build, const ColumnBatch& probe,
                            const std::vector<int>& build_keys,
                            const std::vector<int>& probe_keys, int depth,
                            uint64_t salt, size_t part, uint64_t* work,
                            BatchSink* sink, SpillStats* stats);

  /// Overlays injected faults on one completed kernel stage whose clean
  /// per-node task times are `per_node_seconds`. Draws a fresh stage id
  /// (unless the caller pre-drew one), then simulates task retries with
  /// capped exponential backoff, straggler slowdown and speculative backup
  /// execution; the resulting extra critical-path time (max completion
  /// minus max clean time) is charged to `metrics->simulated_seconds` and
  /// `metrics->recovery_seconds`. Returns retryable kTransient when the
  /// whole query is scheduled to fail at this stage or a task exhausts its
  /// retry budget (node loss). No-op without an armed injector; call sites
  /// guard with FaultsArmed() so the fault-free path does no extra work.
  Status ApplyFaults(FaultSite site,
                     const std::vector<double>& per_node_seconds,
                     ExecMetrics* metrics, int stage = -1);

  Catalog* catalog_;
  StatsManager* stats_;
  const UdfRegistry* udfs_;
  ClusterConfig cluster_;
  /// ValidateClusterConfig(cluster_), returned by every public entry point
  /// before any kernel touches the configuration.
  Status config_status_;
  ThreadPool* pool_;
  FaultInjector* faults_;  ///< Engine-owned; may be null (no injection).
  QueryContext* ctx_ = nullptr;  ///< Caller-owned; may be null (ungoverned).
  RetryBudget* retry_budget_ = nullptr;  ///< Engine-owned; may be null.
  SketchManager* sketches_ = nullptr;  ///< Engine-owned; may be null (no PT).
  MetricsRegistry* registry_;  ///< The engine's; never null.

  /// Process-wide serial of NewSpillStem: two executors (or two joins of
  /// one query) can write concurrently into the same directory without
  /// colliding.
  static inline std::atomic<uint64_t> spill_serial_{0};

  /// Join build tables, one per build partition (a broadcast uses only the
  /// first, read by every probe partition), reused across joins so the
  /// bucket / chain / hash vectors keep their capacity instead of being
  /// reallocated for every join of a pipeline. Only touched from
  /// JoinViews, which runs one join at a time (each build task writes a
  /// distinct element; probe tasks only read).
  std::vector<JoinHashTable> join_tables_;
};

}  // namespace dynopt

#endif  // DYNOPT_EXEC_EXECUTOR_H_
