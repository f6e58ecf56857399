#ifndef DYNOPT_COMMON_QUERY_CONTEXT_H_
#define DYNOPT_COMMON_QUERY_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include <unistd.h>

#include "common/memory_tracker.h"
#include "common/status.h"

namespace dynopt {

/// Prefix of every file this process writes under a spill directory
/// ("__spill_<pid>_"), so processes sharing the directory never name,
/// read or sweep each other's files.
inline std::string ProcessSpillPrefix() {
  return "__spill_" + std::to_string(static_cast<long>(::getpid())) + "_";
}

/// Cooperative cancellation flag shared between a query's driver thread and
/// whoever wants the query gone (a client disconnect, a deadline watchdog,
/// an operator). Checking is a relaxed atomic load, so kernels can afford
/// to test it at every partition-task boundary; the reason string is only
/// touched on the (cold) cancel path.
class CancellationToken {
 public:
  void Cancel(std::string reason = "cancelled") {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (reason_.empty()) reason_ = std::move(reason);
    }
    cancelled_.store(true, std::memory_order_release);
  }

  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

  std::string reason() const {
    std::lock_guard<std::mutex> lock(mu_);
    return reason_;
  }

 private:
  std::atomic<bool> cancelled_{false};
  mutable std::mutex mu_;
  std::string reason_;
};

/// Priority class a query carries through admission. The weighted-fair
/// scheduler grants slots across classes by weight; the load shedder drops
/// from the lowest non-empty class first. Default kNormal: a workload that
/// never sets priorities collapses to a single class, which the scheduler
/// serves in exact FIFO arrival order (the pre-priority behavior).
enum class QueryPriority : int {
  kLow = 0,
  kNormal = 1,
  kHigh = 2,
};

inline constexpr int kNumQueryPriorities = 3;

inline const char* QueryPriorityName(QueryPriority p) {
  switch (p) {
    case QueryPriority::kLow:
      return "low";
    case QueryPriority::kNormal:
      return "normal";
    case QueryPriority::kHigh:
      return "high";
  }
  return "?";
}

/// Per-query execution context threaded from the submitting caller through
/// the optimizer driver loops into every executor kernel: a process-unique
/// id (names this query's spill files), a cooperative CancellationToken, an
/// optional wall-clock deadline, and the query-level MemoryTracker (child
/// of the engine tracker when admitted through the AdmissionController).
///
/// Everything is optional-by-default: an executor with no context behaves
/// exactly like the pre-governance engine.
class QueryContext {
 public:
  using Clock = std::chrono::steady_clock;

  explicit QueryContext(std::string label = "")
      : id_(next_id_.fetch_add(1, std::memory_order_relaxed)),
        label_(std::move(label)) {}

  QueryContext(const QueryContext&) = delete;
  QueryContext& operator=(const QueryContext&) = delete;

  uint64_t id() const { return id_; }
  const std::string& label() const { return label_; }

  CancellationToken& cancellation() { return token_; }
  const CancellationToken& cancellation() const { return token_; }
  void Cancel(std::string reason = "cancelled") {
    token_.Cancel(std::move(reason));
  }
  bool cancelled() const { return token_.cancelled(); }

  void set_deadline(Clock::time_point deadline) {
    deadline_ = deadline;
    has_deadline_ = true;
  }
  /// Deadline `seconds` of wall-clock from now (<= 0 expires immediately).
  void set_timeout(double seconds) {
    set_deadline(Clock::now() +
                 std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(seconds)));
  }
  bool has_deadline() const { return has_deadline_; }
  Clock::time_point deadline() const { return deadline_; }
  bool deadline_expired() const {
    return has_deadline_ && Clock::now() >= deadline_;
  }

  /// The cooperative check every task boundary runs: kCancelled when the
  /// token fired or the deadline passed, OK otherwise. An expired deadline
  /// latches the token so later checks are a single atomic load and the
  /// reason survives. Each check also records a liveness heartbeat: the
  /// partition-task and re-optimization checkpoints that already call this
  /// are exactly the points where a healthy query proves progress, so the
  /// watchdog's staleness monitor costs the hot path nothing extra.
  Status CheckAlive() {
    Heartbeat();
    if (token_.cancelled()) {
      return Status::Cancelled("query " + std::to_string(id_) +
                               " cancelled: " + token_.reason());
    }
    if (deadline_expired()) {
      token_.Cancel("deadline exceeded");
      return Status::Cancelled("query " + std::to_string(id_) +
                               " cancelled: deadline exceeded");
    }
    return Status::OK();
  }

  /// Query-level memory tracker. Ungoverned (no parent, no budget) until
  /// AttachMemory re-homes it under the engine tracker at admission.
  MemoryTracker& memory() { return *memory_; }

  /// Re-parents the query tracker under `parent` with `budget_bytes`
  /// (0 == unlimited). Call before the query starts executing (the old
  /// tracker must hold no reservations).
  void AttachMemory(MemoryTracker* parent, uint64_t budget_bytes) {
    memory_ = std::make_unique<MemoryTracker>(
        budget_bytes, parent, "query-" + std::to_string(id_));
  }

  /// Prefix of every file this query writes under spill_directory
  /// ("__spill_<pid>_q<id>_"); recovery sweeps it after terminal failures.
  std::string SpillFilePrefix() const {
    return ProcessSpillPrefix() + "q" + std::to_string(id_) + "_";
  }

  /// Records that this query made observable progress just now. Called by
  /// CheckAlive() (partition-task boundaries, reopt points) and readable by
  /// the QueryWatchdog's staleness monitor from its own thread.
  void Heartbeat() {
    last_heartbeat_ns_.store(NowNs(), std::memory_order_relaxed);
  }

  /// Wall-clock seconds since the last heartbeat (since construction when
  /// the query never checked in). Monitor-thread safe.
  double SecondsSinceHeartbeat() const {
    return static_cast<double>(NowNs() -
                               last_heartbeat_ns_.load(
                                   std::memory_order_relaxed)) *
           1e-9;
  }

  /// Wall-clock seconds this query waited in the admission queue (set by
  /// AdmissionController::Admit; surfaces in ExecMetrics).
  double queue_wait_seconds = 0;

  /// Priority class consulted by the admission scheduler and the load
  /// shedder. Set before Admit(); defaults to kNormal (single-class FIFO).
  QueryPriority priority = QueryPriority::kNormal;

  /// Optimizer-estimated working-set bytes for this query (e.g. from
  /// EstimateQueryReservationBytes, opt/degrade.h). When non-zero the
  /// admission controller sizes this query's memory reservation from it
  /// instead of the one-size-fits-all query_reservation_bytes.
  uint64_t estimated_memory_bytes = 0;

  /// Degradation stamps, set by the admission controller when the query was
  /// admitted under pressure instead of being rejected: memory_degraded
  /// means the reservation/budget was shrunk (the query will spill more),
  /// strategy_downgraded means the caller should run a cheap static plan
  /// instead of a dynamic re-optimizing one (see ApplyStrategyDowngrade,
  /// opt/degrade.h). Written before Admit() returns, on the waiter's own
  /// synchronization; read by the query's driver thread afterwards.
  bool memory_degraded = false;
  bool strategy_downgraded = false;

 private:
  static uint64_t NowNs() {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
  }

  static inline std::atomic<uint64_t> next_id_{1};

  uint64_t id_;
  std::string label_;
  CancellationToken token_;
  std::atomic<uint64_t> last_heartbeat_ns_{NowNs()};
  bool has_deadline_ = false;
  Clock::time_point deadline_{};
  std::unique_ptr<MemoryTracker> memory_ =
      std::make_unique<MemoryTracker>(0, nullptr, "query");
};

}  // namespace dynopt

#endif  // DYNOPT_COMMON_QUERY_CONTEXT_H_
