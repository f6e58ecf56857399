#ifndef DYNOPT_OPT_PROFILE_ARCHIVE_H_
#define DYNOPT_OPT_PROFILE_ARCHIVE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/cluster.h"
#include "opt/decision_log.h"
#include "opt/optimizer.h"
#include "plan/query_spec.h"

namespace dynopt {

class Engine;
class QueryContext;

/// Canonical fingerprint of a query's *logical* shape: base tables and
/// aliases, join edges, local predicates, projections, post-processing and
/// parameter *names* (not values — the same prepared query with different
/// bindings fingerprints identically). Deliberately excludes everything
/// physical (join order, methods, strategy), so two runs of one query that
/// planned differently share a fingerprint — which is exactly what lets the
/// plan-regression detector line them up. Returns a 16-hex-digit FNV hash.
std::string QueryFingerprint(const QuerySpec& spec);

/// A query currently executing, as registered by IntrospectionRun's
/// constructor and surfaced in sys.queries with status "running".
struct ActiveQueryInfo {
  uint64_t query_id = 0;
  std::string label;
  std::string optimizer;
  std::string fingerprint;
  std::string priority;  // "low" | "normal" | "high"
};

/// One completed query in the profile archive: identity, the run's
/// metrics, critical path, and the regression verdict computed against the
/// best prior same-fingerprint entry at archive time.
struct ArchivedQuery {
  uint64_t query_id = 0;
  std::string label;
  std::string optimizer;
  std::string fingerprint;
  std::string priority;
  /// Admission queue wait, read off the query's context (0 without one).
  double queue_wait_seconds = 0;
  double wall_seconds = 0;
  /// The metrics the run returned (OptimizerRunResult::metrics).
  ExecMetrics metrics;
  std::string critical_path;

  /// Regression verdict (set by ProfileArchive::Archive): `regressed` when
  /// metrics.simulated_seconds exceeded threshold x the best archived
  /// same-fingerprint run. `regression` is the human-readable note; the
  /// divergence fields name the first decision where this run's log
  /// departs from the baseline's, and the error-store prior (if any) that
  /// drove it.
  bool regressed = false;
  std::string regression;
  int first_divergent_index = -1;
  std::string first_divergent_decision;
  std::string divergent_prior_key;
  double divergent_prior_factor = 1.0;

  /// Full profile (decision log feeds sys.decisions). May be null for
  /// entries archived without a profile.
  std::shared_ptr<const QueryProfile> profile;
};

/// Bounded ring of completed QueryProfiles plus a registry of in-flight
/// queries — the introspection plane's memory. Archive() runs the
/// plan-regression analysis inline (against entries already in the ring)
/// so every archived entry carries its verdict. Thread-safe; sized by
/// IntrospectionConfig::archive_capacity (oldest evicted first).
class ProfileArchive {
 public:
  /// A query slower than this multiple of the best archived
  /// same-fingerprint run is flagged as a plan regression and its decision
  /// log diffed against that baseline.
  static constexpr double kRegressionThreshold = 1.5;

  explicit ProfileArchive(IntrospectionConfig config)
      : config_(config) {}

  /// Registers an in-flight query; pair with UnregisterActive.
  void RegisterActive(ActiveQueryInfo info);
  void UnregisterActive(uint64_t query_id);

  /// Analyzes `entry` against the best (lowest simulated_seconds) archived
  /// entry with the same fingerprint, fills the regression fields, appends
  /// it to the ring (evicting beyond capacity) and returns the analyzed
  /// copy.
  ArchivedQuery Archive(ArchivedQuery entry);

  std::vector<ArchivedQuery> Snapshot() const;
  std::vector<ActiveQueryInfo> ActiveSnapshot() const;
  size_t NumArchived() const;
  /// Rough retained-bytes estimate (strings + trace events + decisions),
  /// demonstrating the ring bound in bench_introspect.
  size_t ApproxBytes() const;

  const IntrospectionConfig& config() const { return config_; }

 private:
  const IntrospectionConfig config_;
  mutable std::mutex mu_;
  std::deque<ArchivedQuery> ring_;
  std::map<uint64_t, ActiveQueryInfo> active_;
};

/// The engine-scoped archive, (re)built lazily from
/// engine->cluster().introspection and stored in the engine's type-erased
/// introspection_state() slot (the exec layer cannot name opt types) —
/// same pattern as EngineErrorStats. Returns nullptr when
/// introspection.enabled is off (the default). Thread-safe.
ProfileArchive* EngineProfileArchive(Engine* engine);

/// RAII scope an optimizer run wraps itself in: the constructor fingerprints
/// the (pre-pushdown) spec and registers the query as active; Complete()
/// extracts the critical path from the drained trace, archives the profile
/// with the regression analysis, and copies fingerprint / critical_path /
/// regression_note onto result->profile for EXPLAIN ANALYZE. Every method
/// is a no-op when introspection is disabled, so default runs do zero extra
/// work. The destructor unregisters the query even on error paths.
class IntrospectionRun {
 public:
  IntrospectionRun(Engine* engine, const QuerySpec& spec,
                   std::string optimizer, QueryContext* ctx);
  ~IntrospectionRun();

  IntrospectionRun(const IntrospectionRun&) = delete;
  IntrospectionRun& operator=(const IntrospectionRun&) = delete;

  /// Archives the finished run. Call once, with the result's metrics and
  /// profile final (QueryRun::Finish does; the trace must already be
  /// drained into result->profile->trace).
  void Complete(OptimizerRunResult* result);

 private:
  ProfileArchive* archive_ = nullptr;  // null = introspection off
  uint64_t query_id_ = 0;
  std::string label_;
  std::string optimizer_;
  std::string fingerprint_;
  std::string priority_;
  double queue_wait_seconds_ = 0;
  bool completed_ = false;
};

}  // namespace dynopt

#endif  // DYNOPT_OPT_PROFILE_ARCHIVE_H_
