#ifndef DYNOPT_EXEC_CLUSTER_H_
#define DYNOPT_EXEC_CLUSTER_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/backoff.h"
#include "common/retry_budget.h"
#include "common/status.h"

namespace dynopt {

/// Knobs of the deterministic fault injector (exec/fault_injector.h). All
/// fault decisions are pure functions of (seed, site, stage, node, attempt),
/// so a given configuration reproduces the same failures on every run
/// regardless of thread scheduling. Everything is off by default; with
/// `enabled == false` the executor's metering is byte-for-byte identical to
/// a build without fault injection.
struct FaultInjectionConfig {
  bool enabled = false;
  /// Seed of the injection hash; different seeds draw independent fault
  /// patterns from the same probabilities.
  uint64_t seed = 0;

  /// Probability that one (node, stage, attempt) partition task fails and
  /// must re-execute after a backoff delay.
  double task_failure_probability = 0.0;
  /// Retry schedule for failed tasks; exhausting max_attempts escalates to
  /// a query-level kTransient error (the node is considered lost).
  BackoffPolicy backoff;

  /// Probability that a node straggles for one stage, multiplying its task
  /// time by straggler_multiplier.
  double straggler_probability = 0.0;
  double straggler_multiplier = 4.0;

  /// Probability that a materialized partition file is corrupted (one byte
  /// flipped) before read-back; the serde checksum detects it and the
  /// partition is re-materialized.
  double corruption_probability = 0.0;

  /// Whole-query failure injection: the query aborts with kTransient when
  /// kernel stage `fail_query_at_stage` (0-based, counted across the whole
  /// engine lifetime since arming) executes. Negative disables. The abort
  /// fires once, so a retried/resumed query makes progress instead of
  /// re-failing forever.
  int fail_query_at_stage = -1;
};

/// Memory-governance knobs: budgets for the hierarchical MemoryTracker and
/// the real grace-hash-join spill path. All zero by default — a zero budget
/// means "unlimited", so the executor's metering (and the legacy
/// kSpillPenaltyPasses accounting for oversized broadcasts) is
/// byte-for-byte identical to a build without memory governance.
struct MemoryGovernanceConfig {
  /// Engine-wide budget across all concurrently admitted queries
  /// (0 == unlimited). Backs the AdmissionController's reservations.
  uint64_t engine_budget_bytes = 0;
  /// Reserved per admitted query against the engine budget; admission
  /// blocks (then times out) while the reservation cannot be granted.
  uint64_t query_reservation_bytes = 0;
  /// Per-node join build-side memory (0 == unlimited). A build partition
  /// exceeding this triggers the real grace hash join: build and probe are
  /// partitioned to checksummed spill files under `spill_directory` and
  /// joined recursively, replacing the flat kSpillPenaltyPasses charge.
  uint64_t join_memory_budget_bytes = 0;
  /// Sub-partitions per spill pass (fan-out of each recursive split).
  int max_spill_fanout = 32;
};

/// Recursion depth cap for grace-join sub-partitioning, read by the
/// executor and by the spill-aware cost model that mirrors it. A
/// sub-partition still over budget at this depth joins in memory anyway
/// (accounted as over-subscription, never refused) — a single query must
/// always complete.
inline constexpr int kMaxSpillRecursion = 4;

/// Execution-engine knobs independent of the simulated cost model. These
/// change *how* operators run, never *what* they meter: with any valid setting the deterministic counters and
/// simulated seconds are byte-for-byte identical.
struct ExecOptions {
  /// Capacity of one ColumnBatch (rows) in the vectorized engine. Larger
  /// batches amortize per-batch dispatch; smaller batches keep the working
  /// set of a filter/hash kernel L1/L2-resident. Must be >= 1
  /// (ValidateClusterConfig rejects 0, which would underflow the
  /// batch-capacity math).
  size_t max_batch_size = 1024;
};

/// Admission-control knobs for concurrent queries. Defaults allow modest
/// concurrency without queuing surprises; zero slots would refuse all
/// queries, so `max_concurrent_queries` must stay >= 1.
///
/// Everything beyond the first three knobs is off by default: a workload
/// that configures nothing gets single-class FIFO admission with fixed
/// reservations — behaviorally identical to the pre-priority controller.
/// Priority classes share slots by fixed weights (kClassWeights,
/// exec/admission_controller.h).
struct AdmissionConfig {
  /// Queries allowed to execute simultaneously.
  int max_concurrent_queries = 4;
  /// Queries allowed to wait for a slot; arrivals beyond this bounce
  /// immediately with kResourceExhausted (backpressure).
  int max_queue_depth = 16;
  /// Max wall-clock a query waits in the queue before giving up with
  /// kResourceExhausted.
  double queue_timeout_seconds = 10.0;

  // --- Adaptive load shedding ------------------------------------------

  /// Master switch for the shedder; off by default (queues grow to
  /// max_queue_depth and waiters ride out queue_timeout_seconds, exactly
  /// the pre-shedding behavior).
  bool shed_enabled = false;
  /// Queue-depth watermark: while more than this many queries wait, the
  /// shedder drops the newest waiter of the lowest non-empty priority
  /// class with kResourceExhausted. 0 disables depth-triggered shedding.
  int shed_queue_depth = 0;
  /// Queue-wait watermark: when the oldest waiter has waited longer than
  /// this, the queue is not draining — shed one lowest-class waiter per
  /// scheduler pass until it is. 0 disables wait-triggered shedding.
  double shed_queue_wait_seconds = 0;

  // --- Graceful degradation --------------------------------------------

  /// Queue-depth watermark above which admitted queries are degraded
  /// instead of queued ones being refused: their memory reservation (and
  /// query budget) is multiplied by kDegradeMemoryFraction, trading spill
  /// I/O for admission headroom. 0 disables degradation.
  int degrade_queue_depth = 0;
  /// Also stamp strategy_downgraded on degraded queries' contexts: the
  /// caller-side hook (ApplyStrategyDowngrade, opt/degrade.h) then swaps a
  /// dynamic re-optimizing strategy for a cheap static plan, shedding the
  /// re-optimization coordination cost under pressure.
  bool degrade_strategy = false;
};

/// Risk-aware planning knobs: spill-aware costing, q-error feedback and the
/// cross-query error-memory store. Everything is off by default — with this
/// struct untouched, every optimizer plans and meters byte-for-byte like a
/// build without risk-aware planning (pinned by tests/feedback_test).
struct RiskConfig {
  /// Feed cluster.memory.join_memory_budget_bytes into the join cost model:
  /// a join whose estimated build side exceeds the per-node budget is priced
  /// with the grace-hash spill passes the executor will actually pay
  /// (write+read each overflowing pass, recursive re-partitioning up to
  /// kMaxSpillRecursion), so join-order, build-side and
  /// broadcast-vs-shuffle choices see the true cost.
  bool spill_aware_costing = false;

  /// Consume the decision log's back-patched q-errors at every
  /// re-optimization point (dynamic / ingres-like / pilot-run): observed
  /// estimation error widens the selectivity confidence interval used for
  /// the remaining decisions (pessimistic-bound costing, capped at
  /// kMaxCiWidening, opt/error_stats.h) and, above kQErrorReoptThreshold
  /// (opt/dynamic_optimizer.h), triggers an extra re-optimization
  /// checkpoint.
  bool error_feedback = false;

  /// Consult/record the persistent cross-query ErrorStatsStore
  /// (opt/error_stats.h): per-table/per-predicate q-error aggregates give
  /// the cost-based and pilot-run strategies calibrated priors before the
  /// first tuple flows. Requires a non-empty error_stats_path to persist;
  /// in-memory sharing within one Engine works without a path.
  bool use_error_store = false;
  /// File the store loads at arm time and saves to (atomic tmp+rename).
  /// Empty = in-memory only.
  std::string error_stats_path;
};

/// Predicate-transfer / sketch knobs (stats/sketch.h). Off by default —
/// with this struct untouched no sketch is built, no filter is shipped, and
/// every optimizer plans and meters byte-for-byte like a build without the
/// subsystem (pinned by tests/sketch_test and the golden suite). Every
/// sketch uses SketchOptions' fixed resolution and seed.
struct SketchConfig {
  /// Build Bloom + Fast-AGMS sketches on join keys during scans and
  /// materializations, and ship the build side's Bloom filter sideways to
  /// the probe side of every shuffle join so pruned rows never enter the
  /// Repartition. Filter-transfer bytes are charged as network cost;
  /// pruned bytes are network cost saved.
  bool enable_predicate_transfer = false;
};

/// Introspection-plane knobs (opt/profile_archive.h, src/sys/). Off by
/// default — no query is archived, no critical path is extracted, no
/// regression check runs, and EXPLAIN ANALYZE renders byte-for-byte like a
/// build without the subsystem (pinned by tests/consistency_test). The
/// `sys.*` virtual tables themselves are installed explicitly
/// (EnableIntrospection, sys/sys_tables.h) and read whatever state exists.
struct IntrospectionConfig {
  /// Archive every completed query's QueryProfile (decision log, metrics,
  /// span tree) in a bounded ring on the Engine, keyed by a canonical
  /// query fingerprint, and run the critical-path + plan-regression
  /// analyses over it.
  bool enabled = false;
  /// Completed-query profiles retained (ring buffer; oldest evicted).
  size_t archive_capacity = 64;
};

/// Query-watchdog knobs (exec/query_watchdog.h). Off by default — no
/// monitor thread is started and queries are only cancelled by their own
/// deadline checks, exactly the pre-watchdog behavior.
struct WatchdogConfig {
  bool enabled = false;
  /// Monitor wake-up cadence (wall clock).
  double poll_interval_seconds = 0.01;
  /// A registered query whose last heartbeat (QueryContext::CheckAlive at
  /// partition-task/reopt boundaries) is older than this is presumed stuck
  /// and cancelled, freeing its slot, spill files and temp tables through
  /// the normal cancellation unwind. 0 disables stuck detection (the
  /// watchdog then only enforces deadlines).
  double progress_timeout_seconds = 0;
};

/// Disk write+read passes charged per overflow byte when a broadcast build
/// side exceeds broadcast_threshold_bytes while no join-memory budget is
/// set (the dynamic hash join's recursive partitioning, priced flat).
inline constexpr double kSpillPenaltyPasses = 4.0;

/// Configuration of the simulated shared-nothing cluster, standing in for
/// the paper's 10-node AWS deployment. Datasets are hash-partitioned across
/// `num_nodes` simulated nodes; physical operators are actually executed
/// partition-parallel, and the constants below convert the metered work
/// (bytes over the network, bytes to/from disk, tuples through operators)
/// into *simulated seconds*. Per pipeline stage the simulated time is the
/// maximum over nodes, so data skew slows the simulated cluster down just
/// as it slows a real one.
///
/// The defaults are calibrated to commodity-node ratios (network slower
/// than disk read, disk slower than in-memory scan); the experiments only
/// depend on these ratios, not on absolute values.
struct ClusterConfig {
  /// Number of simulated nodes (partitions of every dataset).
  size_t num_nodes = 10;

  /// A dataset below this size may be broadcast (planner rule; the paper's
  /// "small enough to fit in memory / be broadcast" condition). With the
  /// 1000x data-substitution factor below, 256 KB of generated data stands
  /// for ~256 MB of per-node join memory on the paper's cluster. A build
  /// side that *actually* exceeds this at runtime overflows the in-memory
  /// hash table and pays kSpillPenaltyPasses extra disk passes over the
  /// overflow — the hidden cost of an optimizer broadcasting a dataset it
  /// wrongly believed to be small.
  uint64_t broadcast_threshold_bytes = 256ull << 10;

  // --- Cost-model constants (simulated seconds per unit of work) ---------
  //
  // Each generated row stands in for ~1000 rows of the paper's TB-scale
  // datasets, so every data-proportional constant below is the commodity
  // hardware rate divided by that substitution factor (e.g. network:
  // 100 MB/s / 1000 -> 1e-5 s per generated byte). Fixed per-event costs
  // (re-optimization coordination) are NOT scaled — they are genuinely
  // constant on a real cluster, which is exactly why the paper finds the
  // re-optimization overhead small relative to data movement.

  /// Receiving one byte over the network (shuffle or broadcast).
  double network_seconds_per_byte = 1.0e-5;
  /// Writing one byte of intermediate results to local disk.
  double disk_write_seconds_per_byte = 6.7e-6;
  /// Reading one byte of materialized intermediate results back.
  double disk_read_seconds_per_byte = 3.3e-6;
  /// Scanning one byte of a base dataset.
  double scan_seconds_per_byte = 2.0e-6;
  /// Pushing one tuple through an operator (hash, compare, copy).
  double cpu_seconds_per_tuple = 6.0e-5;
  /// One secondary-index lookup (hash probe + page access amortized).
  double index_lookup_seconds = 1.2e-3;
  /// Fixed coordination cost of one re-optimization point (query
  /// recompilation, job scheduling round-trips).
  double reopt_fixed_seconds = 0.02;
  /// Per-value cost of feeding the online statistics sketches.
  double stats_seconds_per_value = 2.5e-5;

  /// When set, every Sink physically round-trips each partition through a
  /// binary temp file (storage/serde.h) — the paper's "stored in a
  /// temporary file" — exercising the on-disk format in the production
  /// path. Off by default: the simulated I/O cost is charged either way
  /// and benchmarks should not measure the host's filesystem.
  bool materialize_to_disk = false;
  /// Directory for materialization temp files.
  std::string spill_directory = "/tmp";

  /// Deterministic fault injection (disabled by default). The engine arms
  /// an injector from this config (Engine::ArmFaultInjection); executors
  /// then draw task failures, stragglers and file corruption from it.
  FaultInjectionConfig fault;

  /// Memory budgets + grace-join spill (all unlimited/off by default).
  MemoryGovernanceConfig memory;
  /// Concurrent-query admission control (Engine::admission().Admit).
  AdmissionConfig admission;
  /// Engine-wide retry token bucket (unlimited/off by default); armed by
  /// Engine::RearmAdmission and consumed by the executor's fault-retry
  /// loops before each re-execution.
  RetryBudgetConfig retry_budget;
  /// Query watchdog (off by default; Engine::watchdog()).
  WatchdogConfig watchdog;
  /// Risk-aware planning: spill-aware costing, q-error feedback loops and
  /// the cross-query error store (all off by default).
  RiskConfig risk;
  /// Vectorized-execution knobs (batch size).
  ExecOptions exec;
  /// Predicate transfer + join-key sketches (off by default).
  SketchConfig sketch;
  /// Query profile archive + critical-path / regression analysis (off by
  /// default; the sys.* catalog reads it when installed).
  IntrospectionConfig introspection;
};

/// Structural validation of a ClusterConfig, run when an Engine or
/// JobExecutor is constructed (i.e. at config "parse" time, before any
/// kernel touches the values). Returns kInvalidArgument with a message
/// naming the offending knob — a zero max_batch_size would otherwise
/// silently underflow the batch-capacity math deep inside a kernel.
inline Status ValidateClusterConfig(const ClusterConfig& config) {
  if (config.num_nodes < 1) {
    return Status::InvalidArgument(
        "ClusterConfig.num_nodes must be >= 1 (got 0)");
  }
  if (config.exec.max_batch_size < 1) {
    return Status::InvalidArgument(
        "ClusterConfig.exec.max_batch_size must be >= 1 (got 0); a zero "
        "batch capacity underflows the vectorized engine's chunking math");
  }
  if (config.admission.max_concurrent_queries < 1) {
    return Status::InvalidArgument(
        "ClusterConfig.admission.max_concurrent_queries must be >= 1 (got " +
        std::to_string(config.admission.max_concurrent_queries) +
        "); zero slots would refuse every query");
  }
  if (config.watchdog.enabled && config.watchdog.poll_interval_seconds <= 0) {
    return Status::InvalidArgument(
        "ClusterConfig.watchdog.poll_interval_seconds must be > 0 when the "
        "watchdog is enabled");
  }
  if (config.introspection.enabled &&
      config.introspection.archive_capacity < 1) {
    return Status::InvalidArgument(
        "ClusterConfig.introspection.archive_capacity must be >= 1 when the "
        "archive is enabled; a zero-capacity ring could never hold the "
        "baseline a regression check compares against");
  }
  return Status::OK();
}

}  // namespace dynopt

#endif  // DYNOPT_EXEC_CLUSTER_H_
