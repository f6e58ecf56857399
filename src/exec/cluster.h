#ifndef DYNOPT_EXEC_CLUSTER_H_
#define DYNOPT_EXEC_CLUSTER_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/backoff.h"
#include "common/query_context.h"
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
  /// A task slower than this multiple of the stage's median task time gets
  /// a speculative backup execution; the faster of the two completions
  /// wins (mitigates stragglers the scheduler cannot predict).
  double speculation_threshold = 3.0;

  /// Probability that a materialized partition file is corrupted (one byte
  /// flipped) before read-back; the serde checksum detects it and the
  /// partition is re-materialized.
  double corruption_probability = 0.0;

  /// Whole-query failure injection: the query aborts with kTransient when
  /// kernel stage `fail_query_at_stage` (0-based, counted across the whole
  /// engine lifetime since arming) executes. Negative disables. At most
  /// `max_query_failures` aborts fire, so a retried/resumed query makes
  /// progress instead of re-failing forever.
  int fail_query_at_stage = -1;
  int max_query_failures = 1;
};

/// Memory-governance knobs: budgets for the hierarchical MemoryTracker and
/// the real grace-hash-join spill path. All zero by default — a zero budget
/// means "unlimited", so the executor's metering (and the legacy
/// spill_penalty_passes accounting for oversized broadcasts) is
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
  /// joined recursively, replacing the flat spill_penalty_passes charge.
  uint64_t join_memory_budget_bytes = 0;
  /// Recursion depth cap for grace-join sub-partitioning. A sub-partition
  /// still over budget at this depth joins in memory anyway (accounted as
  /// over-subscription, never refused) — a single query must always
  /// complete.
  int max_spill_recursion = 4;
  /// Sub-partitions per spill pass (fan-out of each recursive split).
  int max_spill_fanout = 32;
};

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
struct AdmissionConfig {
  /// Queries allowed to execute simultaneously.
  int max_concurrent_queries = 4;
  /// Queries allowed to wait for a slot; arrivals beyond this bounce
  /// immediately with kResourceExhausted (backpressure).
  int max_queue_depth = 16;
  /// Max wall-clock a query waits in the queue before giving up with
  /// kResourceExhausted.
  double queue_timeout_seconds = 10.0;

  // --- Priority classes + weighted-fair slot scheduling -----------------

  /// Relative slot share of each QueryPriority class (indexed by the enum:
  /// low, normal, high). Free slots are granted by smooth weighted
  /// round-robin across the non-empty classes, so under sustained overload
  /// class i receives weight[i]/sum(non-empty weights) of the slots while
  /// lighter classes still make progress (no starvation). Within a class,
  /// order is FIFO. With every query in one class (the default — nobody
  /// sets a priority) this degenerates to plain FIFO.
  double class_weights[kNumQueryPriorities] = {1.0, 2.0, 4.0};

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
  /// query budget) is multiplied by degrade_memory_fraction, trading spill
  /// I/O for admission headroom. 0 disables degradation.
  int degrade_queue_depth = 0;
  /// Reservation multiplier applied when degrading (in (0, 1]).
  double degrade_memory_fraction = 0.5;
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
  /// memory.max_spill_recursion), so join-order, build-side and
  /// broadcast-vs-shuffle choices see the true cost.
  bool spill_aware_costing = false;

  /// Consume the decision log's back-patched q-errors at every
  /// re-optimization point (dynamic / ingres-like / pilot-run): observed
  /// estimation error widens the selectivity confidence interval used for
  /// the remaining decisions (pessimistic-bound costing) and, above
  /// qerror_reopt_threshold, triggers an extra re-optimization checkpoint.
  bool error_feedback = false;
  /// Worst observed within-query q-error above which an extra reopt point
  /// is inserted where the plan would otherwise go static.
  double qerror_reopt_threshold = 4.0;
  /// Cap on error-triggered extra reopt rounds per query (each one costs a
  /// materialization, so unbounded triggering could thrash).
  int max_extra_reopts = 2;
  /// Cap on the confidence-interval widening factor applied to uncertain
  /// cardinalities (both from within-query feedback and from stored
  /// priors); 1.0 disables widening even with error_feedback on.
  double max_ci_widening = 8.0;

  /// Consult/record the persistent cross-query ErrorStatsStore
  /// (opt/error_stats.h): per-table/per-predicate q-error aggregates give
  /// the cost-based and pilot-run strategies calibrated priors before the
  /// first tuple flows. Requires a non-empty error_stats_path to persist;
  /// in-memory sharing within one Engine works without a path.
  bool use_error_store = false;
  /// File the store loads at arm time and saves to (atomic tmp+rename).
  /// Empty = in-memory only.
  std::string error_stats_path;
  /// Bound on distinct (table/predicate/join) keys the store retains; new
  /// keys beyond the bound are dropped (counted, never an error).
  size_t error_store_max_entries = 4096;
};

/// Predicate-transfer / sketch knobs (stats/sketch.h). Everything is off by
/// default — with this struct untouched no sketch is built, no filter is
/// shipped, and every optimizer plans and meters byte-for-byte like a build
/// without the subsystem (pinned by tests/sketch_test and the golden suite).
struct SketchConfig {
  /// Build Bloom + Fast-AGMS sketches on join keys during scans and
  /// materializations, and ship the build side's Bloom filter sideways to
  /// the probe side of every shuffle join so pruned rows never enter the
  /// Repartition. Filter-transfer bytes are charged as network cost;
  /// pruned bytes are network cost saved.
  bool enable_predicate_transfer = false;
  /// Bloom budget in bits per expected key. More bits = lower false-positive
  /// rate but a larger filter to broadcast. Must be in [1, 64]
  /// (ValidateClusterConfig): below 1 the filter saturates instantly, above
  /// 64 it would out-weigh the data it prunes.
  double pt_bits_per_key = 8.0;
  /// Fast-AGMS rows (median over rows controls variance). Must be in
  /// [1, 64].
  size_t agms_depth = 5;
  /// Fast-AGMS counters per row. Must be in [1, 1 << 20].
  size_t agms_width = 256;
  /// Seed of every sketch hash; sketches are deterministic and mergeable
  /// only across builders sharing a seed.
  uint64_t seed = 0x5eed5eedULL;
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
  /// A query slower than `threshold x` the best archived same-fingerprint
  /// run is flagged as a plan regression and its decision log diffed
  /// against that baseline. Must be >= 1.
  double regression_threshold = 1.5;
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
  /// hash table and pays `spill_penalty_passes` extra disk passes over the
  /// overflow — the hidden cost of an optimizer broadcasting a dataset it
  /// wrongly believed to be small.
  uint64_t broadcast_threshold_bytes = 256ull << 10;

  /// Disk write+read passes charged per overflow byte when a broadcast
  /// build side exceeds the memory budget (dynamic hash join recursive
  /// partitioning).
  double spill_penalty_passes = 4.0;

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
  for (int i = 0; i < kNumQueryPriorities; ++i) {
    if (config.admission.class_weights[i] <= 0) {
      return Status::InvalidArgument(
          "ClusterConfig.admission.class_weights[" + std::to_string(i) +
          "] must be > 0; a zero-weight class would starve forever");
    }
  }
  if (config.admission.degrade_memory_fraction <= 0 ||
      config.admission.degrade_memory_fraction > 1.0) {
    return Status::InvalidArgument(
        "ClusterConfig.admission.degrade_memory_fraction must be in (0, 1] "
        "(got " +
        std::to_string(config.admission.degrade_memory_fraction) + ")");
  }
  if (config.watchdog.enabled && config.watchdog.poll_interval_seconds <= 0) {
    return Status::InvalidArgument(
        "ClusterConfig.watchdog.poll_interval_seconds must be > 0 when the "
        "watchdog is enabled");
  }
  if (config.risk.qerror_reopt_threshold < 1.0) {
    return Status::InvalidArgument(
        "ClusterConfig.risk.qerror_reopt_threshold must be >= 1 (got " +
        std::to_string(config.risk.qerror_reopt_threshold) +
        "); a q-error is never below 1, so a smaller threshold would "
        "trigger an extra reopt on every query");
  }
  if (config.risk.max_extra_reopts < 0) {
    return Status::InvalidArgument(
        "ClusterConfig.risk.max_extra_reopts must be >= 0");
  }
  if (config.risk.max_ci_widening < 1.0) {
    return Status::InvalidArgument(
        "ClusterConfig.risk.max_ci_widening must be >= 1 (got " +
        std::to_string(config.risk.max_ci_widening) +
        "); widening below 1 would make estimates *optimistic*");
  }
  if (config.sketch.pt_bits_per_key < 1.0 ||
      config.sketch.pt_bits_per_key > 64.0) {
    return Status::InvalidArgument(
        "ClusterConfig.sketch.pt_bits_per_key must be in [1, 64] (got " +
        std::to_string(config.sketch.pt_bits_per_key) +
        "); below 1 the Bloom filter saturates instantly, above 64 the "
        "filter out-weighs the data it prunes");
  }
  if (config.sketch.agms_depth < 1 || config.sketch.agms_depth > 64) {
    return Status::InvalidArgument(
        "ClusterConfig.sketch.agms_depth must be in [1, 64] (got " +
        std::to_string(config.sketch.agms_depth) +
        "); the AGMS median needs at least one row and pays linearly for "
        "each extra one");
  }
  if (config.sketch.agms_width < 1 ||
      config.sketch.agms_width > (size_t{1} << 20)) {
    return Status::InvalidArgument(
        "ClusterConfig.sketch.agms_width must be in [1, 1048576] (got " +
        std::to_string(config.sketch.agms_width) +
        "); zero-width rows cannot count anything and oversized rows "
        "out-weigh the statistics they replace");
  }
  if (config.introspection.enabled &&
      config.introspection.archive_capacity < 1) {
    return Status::InvalidArgument(
        "ClusterConfig.introspection.archive_capacity must be >= 1 when the "
        "archive is enabled; a zero-capacity ring could never hold the "
        "baseline a regression check compares against");
  }
  if (config.introspection.regression_threshold < 1.0) {
    return Status::InvalidArgument(
        "ClusterConfig.introspection.regression_threshold must be >= 1 "
        "(got " +
        std::to_string(config.introspection.regression_threshold) +
        "); a threshold below 1 would flag faster runs as regressions");
  }
  return Status::OK();
}

}  // namespace dynopt

#endif  // DYNOPT_EXEC_CLUSTER_H_
