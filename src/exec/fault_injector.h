#ifndef DYNOPT_EXEC_FAULT_INJECTOR_H_
#define DYNOPT_EXEC_FAULT_INJECTOR_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "exec/cluster.h"

namespace dynopt {

/// Kernel classes faults can strike. A "stage" is one execution of one of
/// these kernels; a task is one node's partition of that stage.
enum class FaultSite {
  kRepartition = 0,
  kBroadcast = 1,
  kBuild = 2,
  kProbe = 3,
  kMaterialize = 4,
};

const char* FaultSiteName(FaultSite site);

/// Deterministic, seeded source of injected faults for the simulated
/// cluster. Every decision — does this task fail, does this node straggle,
/// is this temp file corrupted, does the whole query die here — is a pure
/// hash of (seed, site, stage, node, attempt), so a fault pattern is a
/// function of the configuration alone: re-running the same workload
/// reproduces it exactly, independent of thread scheduling or wall clock.
///
/// The injector is owned by the Engine and lives across query attempts.
/// Stage ids advance monotonically at kernel entry (serial sections only),
/// which is what makes recovery terminate: a restarted or resumed query
/// executes under *fresh* stage ids, so a fault that killed attempt 1 does
/// not deterministically re-kill attempt 2, and the one-shot query failure
/// (`fail_query_at_stage`) fires once.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultInjectionConfig& config)
      : config_(config) {}

  const FaultInjectionConfig& config() const { return config_; }
  bool enabled() const { return config_.enabled; }

  /// Claims the next stage id. Called once per kernel execution, from the
  /// kernel's serial prologue.
  int NextStageId() { return next_stage_.fetch_add(1); }

  /// True when node `node`'s attempt number `attempt` of stage `stage`
  /// fails and must be retried.
  bool TaskFails(FaultSite site, int stage, size_t node, int attempt) const;

  /// True when `node` straggles (runs straggler_multiplier slower) for the
  /// whole of `stage`.
  bool IsStraggler(FaultSite site, int stage, size_t node) const;

  /// True when the bytes node `node` materialized in `stage` (write attempt
  /// `attempt`) come back corrupted.
  bool CorruptsBlock(int stage, size_t node, int attempt) const;

  /// Deterministic raw 64-bit draw for which byte to flip in a corrupted
  /// file; the corruptor reduces it modulo the file size.
  uint64_t CorruptionOffset(int stage, size_t node) const;

  /// True when the whole query must abort at `stage` (one-shot: fires at
  /// most once over the injector's lifetime). Not const: spends the shot
  /// when it fires.
  bool ShouldFailQuery(int stage);

  /// Simulated seconds of work a query-level abort threw away; recovery
  /// policies read this to price restarts.
  void RecordAbortedWork(double seconds) {
    // Aborts are raised from serial kernel prologues; plain double is safe.
    aborted_work_seconds_ += seconds;
  }
  double aborted_work_seconds() const { return aborted_work_seconds_; }
  int stages_started() const { return next_stage_.load(); }

 private:
  /// Uniform [0,1) draw, pure in its arguments.
  double Uniform(uint64_t site_tag, int stage, size_t node,
                 int attempt) const;

  FaultInjectionConfig config_;
  std::atomic<int> next_stage_{0};
  std::atomic<bool> query_failed_{false};
  double aborted_work_seconds_ = 0;
};

}  // namespace dynopt

#endif  // DYNOPT_EXEC_FAULT_INJECTOR_H_
