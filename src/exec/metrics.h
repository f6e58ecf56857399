#ifndef DYNOPT_EXEC_METRICS_H_
#define DYNOPT_EXEC_METRICS_H_

#include <cstdint>
#include <string>

namespace dynopt {

class MetricsRegistry;

/// How ExecMetrics::Add() folds another value into a field.
enum class MetricMerge {
  kSum,   ///< Work and seconds accumulate.
  kMax,   ///< Query-level peaks and flags keep the larger value.
  kLast,  ///< The later value replaces the earlier one.
};

/// kMetered fields are the cost model's deterministic metering: identical
/// on every host and every run. kHost fields depend on the host and on
/// thread scheduling (wall-clock timers, concurrent high-water marks).
enum class MetricKind { kMetered, kHost };

// The one declaration of every ExecMetrics field, as
//   X(type, name, merge rule, kind)
// Add(), ToString(), MeteringDiff(), the bench record JSON, the
// sys.queries columns and the registry export (ExportQueryCounters) all
// iterate it, so a new counter is one entry here.
//
// The three *_seconds components after simulated_seconds decompose total
// simulated time the way Figure 6 of the paper does: plain execution vs.
// re-optimization I/O (materializing and re-reading intermediates) vs.
// online statistics collection.
#define DYNOPT_EXEC_METRICS(X)                                                \
  /* Rows of the latest job; a finished run's returned row count. */          \
  X(uint64_t, rows_out, kLast, kMetered)                                      \
  X(uint64_t, tuples_processed, kSum, kMetered)                               \
  X(uint64_t, bytes_scanned, kSum, kMetered)                                  \
  X(uint64_t, bytes_shuffled, kSum, kMetered)                                 \
  X(uint64_t, bytes_broadcast, kSum, kMetered)                                \
  X(uint64_t, bytes_materialized, kSum, kMetered)                             \
  X(uint64_t, bytes_intermediate_read, kSum, kMetered)                        \
  X(uint64_t, index_lookups, kSum, kMetered)                                  \
  X(int, num_jobs, kSum, kMetered)                                            \
  X(int, num_reopt_points, kSum, kMetered)                                    \
  /* Total simulated execution time (includes the components below). */      \
  X(double, simulated_seconds, kSum, kMetered)                                \
  /* Re-optimization: sink/reader I/O + fixed per-reopt coordination. */      \
  X(double, reopt_seconds, kSum, kMetered)                                    \
  /* Online statistics (and sketch) collection. */                            \
  X(double, stats_seconds, kSum, kMetered)                                    \
  /* Critical-path time paid to injected faults: task re-executions and */    \
  /* their backoff, straggler slowdown not hidden by speculation, and */      \
  /* re-materialization of corrupted temp files. */                           \
  X(double, recovery_seconds, kSum, kMetered)                                 \
  /* Partition-task re-executions after injected task failures. */            \
  X(uint64_t, num_retries, kSum, kMetered)                                    \
  /* Speculative backup executions launched against stragglers. */            \
  X(uint64_t, speculative_executions, kSum, kMetered)                         \
  /* Materialized partition files whose checksum verification failed. */      \
  X(uint64_t, corrupted_blocks, kSum, kMetered)                               \
  /* High-water mark of the query's MemoryTracker. Max-merged: concurrent */  \
  /* jobs share the tracker; the peak depends on task interleaving. */        \
  X(uint64_t, peak_memory_bytes, kMax, kHost)                                 \
  /* Bytes written to grace-join spill files (each also read back). */        \
  X(uint64_t, spilled_bytes, kSum, kMetered)                                  \
  /* Grace-join partitions that spilled (recursive splits each count). */     \
  X(uint64_t, spill_partitions, kSum, kMetered)                               \
  /* 1 when admission degraded the query under overload (see the */           \
  /* degrade_* stamps on QueryContext). */                                    \
  X(uint64_t, admission_degraded, kMax, kMetered)                             \
  /* Worst per-decision q-error, max(est/actual, actual/est) with one-row */  \
  /* floors, over decisions back-patched with actuals; 0 without any. */      \
  X(double, max_q_error, kMax, kMetered)                                      \
  /* Join-order/algorithm decisions logged (opt/decision_log.h). */           \
  X(uint64_t, num_decisions, kSum, kMetered)                                  \
  /* Extra re-optimization checkpoints the error feedback loop bought */      \
  /* (kQErrorReoptThreshold; dynamic/ingres-like only). */                   \
  X(uint64_t, error_reopt_triggers, kSum, kMetered)                           \
  /* Predicate transfer: Bloom-filter bytes shipped build -> probe side, */   \
  /* probe rows the filter dropped before the shuffle (NULL keys count), */   \
  /* and the shuffle bytes those rows would have moved. */                    \
  X(uint64_t, pt_filter_bytes, kSum, kMetered)                                \
  X(uint64_t, pt_pruned_rows, kSum, kMetered)                                 \
  X(uint64_t, pt_pruned_bytes, kSum, kMetered)                                \
  /* Host wall-clock (steady_clock) inside the executor's kernels, */         \
  /* independent of the simulated cost model: the leaf pipeline (scan, */     \
  /* filters, projects), shuffle exchange (routing), hash-join build, */      \
  /* hash-join probe (lookups + projected output), and sink */                \
  /* materialization (schema inference, stats, write-back). */                \
  X(double, wall_scan_seconds, kSum, kHost)                                   \
  X(double, wall_shuffle_seconds, kSum, kHost)                                \
  X(double, wall_build_seconds, kSum, kHost)                                  \
  X(double, wall_probe_seconds, kSum, kHost)                                  \
  X(double, wall_materialize_seconds, kSum, kHost)                            \
  /* The part of wall_materialize_seconds spent on online statistics and */   \
  /* join-key sketches: collection, merge and finalize. */                    \
  X(double, wall_stats_seconds, kSum, kHost)

/// One entry of DYNOPT_EXEC_METRICS.
struct MetricField {
  const char* name;
  MetricMerge merge;
  MetricKind kind;
};

/// Work metered while executing jobs, plus the simulated wall-clock those
/// units translate to under the cluster's cost model.
struct ExecMetrics {
#define DYNOPT_METRIC_MEMBER(type, name, merge, kind) type name = 0;
  DYNOPT_EXEC_METRICS(DYNOPT_METRIC_MEMBER)
#undef DYNOPT_METRIC_MEMBER

  /// Folds `other` in, each field by its merge rule.
  void Add(const ExecMetrics& other);
  /// "name=value" for every field, in list order.
  std::string ToString() const;
};

/// Calls fn(field, m.<field>...) once per list entry, in list order,
/// passing that field of every `metrics` argument — so one visitor reads
/// one ExecMetrics, compares two, or merges one into another.
template <typename Fn, typename... Metrics>
void VisitMetricFields(Fn&& fn, Metrics&&... metrics) {
#define DYNOPT_METRIC_VISIT(type, name, merge, kind) \
  fn(MetricField{#name, MetricMerge::merge, MetricKind::kind}, metrics.name...);
  DYNOPT_EXEC_METRICS(DYNOPT_METRIC_VISIT)
#undef DYNOPT_METRIC_VISIT
}

/// One "name: a != b" line, values exact, per deterministic (kMetered)
/// field where `a` and `b` differ; empty when their metering is identical.
std::string MeteringDiff(const ExecMetrics& a, const ExecMetrics& b);

/// Adds one finished query's integral kSum fields to `registry`'s
/// "query.<name>" counters, so the registry agrees with sys.queries and
/// the work of a query that fails counts nowhere. The engine exports a
/// zero ExecMetrics at construction, so every counter exists from the
/// start.
void ExportQueryCounters(const ExecMetrics& metrics,
                         MetricsRegistry* registry);

}  // namespace dynopt

#endif  // DYNOPT_EXEC_METRICS_H_
