#ifndef DYNOPT_EXEC_ENGINE_H_
#define DYNOPT_EXEC_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/memory_tracker.h"
#include "common/metrics_registry.h"
#include "common/query_context.h"
#include "common/retry_budget.h"
#include "common/thread_pool.h"
#include "exec/admission_controller.h"
#include "exec/cluster.h"
#include "exec/executor.h"
#include "exec/query_watchdog.h"
#include "plan/udf.h"
#include "stats/sketch.h"
#include "stats/table_stats.h"
#include "storage/catalog.h"

namespace dynopt {

/// Facade bundling the simulated cluster's long-lived state: the catalog of
/// loaded datasets, the statistics framework, the UDF registry and the
/// worker pool. Examples, tests and benchmarks create one Engine, load a
/// workload into it, then hand it to optimizers.
class Engine {
 public:
  explicit Engine(const ClusterConfig& cluster = ClusterConfig())
      : cluster_(cluster), pool_(0) {
    ExportQueryCounters(ExecMetrics(), &metrics_);
  }

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Catalog& catalog() { return catalog_; }
  StatsManager& stats() { return stats_; }
  /// Join-key sketch registry (predicate transfer); empty unless
  /// cluster().sketch knobs are enabled.
  SketchManager& sketches() { return sketches_; }
  UdfRegistry& udfs() { return udfs_; }
  ThreadPool& pool() { return pool_; }
  const ClusterConfig& cluster() const { return cluster_; }
  ClusterConfig& mutable_cluster() { return cluster_; }

  /// A fresh executor bound to this engine's state (executors are cheap,
  /// stateless objects). When fault injection is armed, the executor draws
  /// faults from the engine-owned injector.
  /// With a non-null `ctx` the executor is bound to that per-query context:
  /// its kernels check the context's cancellation token/deadline at every
  /// task boundary and account memory against the context's tracker. `ctx`
  /// must outlive the executor's jobs.
  JobExecutor MakeExecutor(QueryContext* ctx = nullptr) {
    return JobExecutor(&catalog_, &stats_, &udfs_, cluster_, &pool_,
                       &metrics_, faults_.get(), ctx, &retry_budget(),
                       &sketches_);
  }

  /// Engine-scoped metrics registry: every executor, admission controller
  /// and watchdog this engine builds records here, so counters stay
  /// attributable when multiple engines share a process (sys.metrics reads
  /// exactly this registry).
  MetricsRegistry& metrics_registry() { return metrics_; }

  /// Engine-level memory tracker: the root of the engine -> query ->
  /// operator hierarchy. Its budget mirrors cluster().memory
  /// .engine_budget_bytes (applied by RearmAdmission, 0 == unlimited).
  MemoryTracker& memory() { return memory_; }

  /// The concurrent-query gate, built lazily from cluster().admission /
  /// cluster().memory on first use. Typical flow:
  ///   QueryContext ctx;
  ///   DYNOPT_ASSIGN_OR_RETURN(auto ticket, engine.admission().Admit(&ctx));
  ///   ... run the query with MakeExecutor(&ctx) ...
  ///   // ticket destructor releases the slot + memory reservation.
  AdmissionController& admission() {
    if (admission_ == nullptr) RearmAdmission();
    return *admission_;
  }

  /// (Re)builds the admission controller and the engine memory budget from
  /// the current cluster().admission / cluster().memory. Call after editing
  /// mutable_cluster() and before admitting queries; must not race with
  /// in-flight admissions.
  void RearmAdmission() {
    memory_.set_budget(cluster_.memory.engine_budget_bytes);
    admission_ = std::make_unique<AdmissionController>(
        cluster_.admission, &memory_, cluster_.memory.query_reservation_bytes,
        &metrics_);
  }

  /// Engine-wide retry-budget token bucket, built lazily from
  /// cluster().retry_budget. Disabled at defaults (unlimited retries, the
  /// pre-budget behavior); every executor this engine makes draws from it.
  RetryBudget& retry_budget() {
    if (retry_budget_ == nullptr) RearmRetryBudget();
    return *retry_budget_;
  }

  /// (Re)builds the retry budget from the current cluster().retry_budget
  /// (refilled to capacity). Call after editing mutable_cluster(); must not
  /// race with in-flight executors.
  void RearmRetryBudget() {
    retry_budget_ = std::make_unique<RetryBudget>(cluster_.retry_budget);
  }

  /// Query watchdog, built lazily from cluster().watchdog. Disabled at
  /// defaults (no monitor thread). Register running queries with
  /// WatchdogRegistration(&engine.watchdog(), &ctx).
  QueryWatchdog& watchdog() {
    if (watchdog_ == nullptr) RearmWatchdog();
    return *watchdog_;
  }

  /// (Re)builds the watchdog from the current cluster().watchdog (stopping
  /// any previous monitor thread). All registrations must be gone first.
  void RearmWatchdog() {
    watchdog_ = std::make_unique<QueryWatchdog>(cluster_.watchdog, &metrics_);
  }

  /// (Re)builds the fault injector from `cluster().fault`, resetting its
  /// stage counter, failure budget and aborted-work ledger. Call after
  /// editing mutable_cluster().fault and before the runs that should see
  /// the faults. The injector outlives individual queries on purpose:
  /// stage ids advance monotonically across restart/resume attempts, which
  /// is what lets a retried query get *past* the stage that killed it.
  void ArmFaultInjection() {
    faults_ = std::make_unique<FaultInjector>(cluster_.fault);
  }

  /// Drops the injector; subsequent executors run fault-free (and meter
  /// byte-for-byte like a build without injection).
  void DisarmFaultInjection() { faults_.reset(); }

  /// Engine-scoped slot for optimizer-layer state that must outlive
  /// individual queries but cannot live in this class directly because the
  /// exec layer does not link against opt (opt links exec). Today it holds
  /// the cross-query error-stats store (see EngineErrorStats in
  /// opt/error_stats.h, which owns the slot's type and rebuild-on-config-
  /// change logic). Guard access with an external lock when queries run
  /// concurrently — EngineErrorStats does.
  std::shared_ptr<void>& opt_state() { return opt_state_; }

  /// Like opt_state(), but owned by the introspection plane: holds the
  /// query profile archive + active-query registry (see EngineIntrospection
  /// in opt/profile_archive.h, which owns the slot's type and its locking).
  /// A separate slot because the error store and the archive have
  /// independent lifetimes and rebuild triggers.
  std::shared_ptr<void>& introspection_state() { return introspection_state_; }

  /// Armed injector, or nullptr. Recovery policies read its aborted-work
  /// ledger to price restarts.
  FaultInjector* fault_injector() { return faults_.get(); }

  /// Removes temp table `name` from the catalog together with its
  /// statistics and join-key sketches; a name the catalog no longer holds
  /// still loses its statistics and sketches.
  void DropTempTable(const std::string& name) {
    (void)catalog_.DropTable(name);
    stats_.Remove(name);
    sketches_.RemoveTable(name);
  }

  /// Collects load-time ("upfront") statistics on `columns` of `table` and
  /// registers them with the StatsManager — the simulator's analogue of the
  /// statistics AsterixDB gathers during LSM ingestion. Column names are
  /// unqualified here; the stats are stored under unqualified names too and
  /// qualified by the estimator per query alias. Out-of-range `options`
  /// come back as kInvalidArgument (ValidateStatsOptions).
  Status CollectBaseStats(const std::string& table,
                          const std::vector<std::string>& columns,
                          const StatsOptions& options = StatsOptions());

 private:
  ClusterConfig cluster_;
  Catalog catalog_;
  StatsManager stats_;
  SketchManager sketches_;
  UdfRegistry udfs_;
  ThreadPool pool_;
  std::unique_ptr<FaultInjector> faults_;
  MemoryTracker memory_{0, nullptr, "engine"};
  std::unique_ptr<AdmissionController> admission_;
  std::unique_ptr<RetryBudget> retry_budget_;
  std::unique_ptr<QueryWatchdog> watchdog_;
  MetricsRegistry metrics_;
  std::shared_ptr<void> opt_state_;
  std::shared_ptr<void> introspection_state_;
};

}  // namespace dynopt

#endif  // DYNOPT_EXEC_ENGINE_H_
