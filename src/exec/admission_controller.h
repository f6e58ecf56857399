#ifndef DYNOPT_EXEC_ADMISSION_CONTROLLER_H_
#define DYNOPT_EXEC_ADMISSION_CONTROLLER_H_

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "common/memory_tracker.h"
#include "common/metrics_registry.h"
#include "common/query_context.h"
#include "common/status.h"
#include "exec/cluster.h"

namespace dynopt {

/// Relative slot share of each QueryPriority class (indexed by the enum:
/// low, normal, high). Under sustained overload class i receives
/// weight[i]/sum(non-empty weights) of the slots while lighter classes
/// still make progress (no starvation).
inline constexpr double kClassWeights[kNumQueryPriorities] = {1.0, 2.0, 4.0};
/// Reservation multiplier applied to a query admitted while degrading.
inline constexpr double kDegradeMemoryFraction = 0.5;

/// Overload-resilient gate in front of the engine. At most
/// `max_concurrent_queries` queries run at once, each holding a memory
/// reservation against the engine tracker; at most `max_queue_depth` more
/// wait. Within the queue:
///
///  - Each waiter belongs to the priority class of its QueryContext
///    (kNormal with no context). Free slots are granted by smooth weighted
///    round-robin across the non-empty classes (kClassWeights), FIFO
///    within a class — so under
///    sustained overload, slot share is proportional to weight while no
///    class starves. A workload that never sets priorities occupies one
///    class and is served in exact FIFO arrival order, the pre-priority
///    behavior.
///  - Reservations are sized from the query's optimizer estimate
///    (QueryContext::estimated_memory_bytes, see
///    EstimateQueryReservationBytes in opt/degrade.h) when present,
///    falling back to the fixed `query_reservation_bytes`.
///  - With shedding enabled, crossing the queue-depth or queue-wait
///    watermarks drops the newest waiter of the lowest non-empty class
///    with kResourceExhausted ("shed"), keeping the queue short enough
///    that admitted queries still have deadline budget left.
///  - With degradation enabled, a query granted while the queue is above
///    the degrade watermark is admitted with a shrunken reservation (and
///    optionally a strategy-downgrade stamp) instead of waiting — degrade,
///    don't refuse.
///
/// Arrivals beyond the queue bound bounce immediately with
/// kResourceExhausted (backpressure), waiters give up with the same code
/// after `queue_timeout_seconds` (a single absolute deadline — spurious
/// condition-variable wakeups cannot under- or over-count the wait), and a
/// query cancelled while queued leaves with kCancelled. Admission attaches
/// the query's MemoryTracker under the engine tracker, completing the
/// engine -> query -> operator hierarchy.
///
/// The wait loop still wakes in short slices instead of relying purely on
/// condition-variable signals: an external Cancel() on the waiting query's
/// token has no way to notify this controller, and slices keep that case
/// responsive within milliseconds. Timeout accounting is independent of
/// the slicing: it compares against the one deadline computed at entry.
class AdmissionController {
 public:
  /// `engine_memory` must outlive the controller (Engine owns both).
  /// `query_reservation_bytes` is reserved per admitted query with no
  /// estimate of its own (0 reserves nothing — slot counting only).
  /// `metrics_registry` (the engine's) receives the admission
  /// counters/gauges and must outlive the controller too.
  AdmissionController(const AdmissionConfig& config,
                      MemoryTracker* engine_memory,
                      uint64_t query_reservation_bytes,
                      MetricsRegistry* metrics_registry)
      : config_(config),
        engine_memory_(engine_memory),
        reservation_bytes_(query_reservation_bytes),
        registry_(metrics_registry) {}

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// RAII admission grant: releases the slot and the memory reservation
  /// when destroyed (or Release()d), waking the next waiter.
  class Ticket {
   public:
    Ticket() = default;
    Ticket(Ticket&& other) noexcept
        : owner_(other.owner_), reservation_(std::move(other.reservation_)) {
      other.owner_ = nullptr;
    }
    Ticket& operator=(Ticket&& other) noexcept {
      if (this != &other) {
        Release();
        owner_ = other.owner_;
        reservation_ = std::move(other.reservation_);
        other.owner_ = nullptr;
      }
      return *this;
    }
    Ticket(const Ticket&) = delete;
    Ticket& operator=(const Ticket&) = delete;
    ~Ticket() { Release(); }

    bool admitted() const { return owner_ != nullptr; }

    void Release() {
      if (owner_ == nullptr) return;
      reservation_.ReleaseAll();
      owner_->FinishQuery();
      owner_ = nullptr;
    }

   private:
    friend class AdmissionController;
    Ticket(AdmissionController* owner, MemoryReservation reservation)
        : owner_(owner), reservation_(std::move(reservation)) {}

    AdmissionController* owner_ = nullptr;
    MemoryReservation reservation_;
  };

  /// Blocks until this query holds a slot (and its memory reservation), the
  /// queue bound/timeout/shedder refuses it (kResourceExhausted), or `ctx`
  /// is cancelled/expires while waiting (kCancelled). `ctx` may be null
  /// (kNormal priority, no cancellation, no tracker re-homing). On success
  /// the wait time is recorded in ctx->queue_wait_seconds, degradation
  /// stamps are applied, and the query tracker is attached under the
  /// engine tracker with the (possibly degraded) reservation as its budget.
  Result<Ticket> Admit(QueryContext* ctx) {
    const auto start = Clock::now();
    auto& registry = *registry_;
    std::unique_lock<std::mutex> lock(mu_);
    if (TotalWaitingLocked() >= config_.max_queue_depth) {
      registry.counter("admission.rejected")->Increment();
      return Status::ResourceExhausted(
          "admission queue full (" + std::to_string(TotalWaitingLocked()) +
          "/" + std::to_string(config_.max_queue_depth) + " waiting, " +
          std::to_string(running_) + " running)");
    }

    auto waiter = std::make_shared<Waiter>();
    waiter->seq = next_seq_++;
    waiter->cls = ctx != nullptr ? static_cast<int>(ctx->priority)
                                 : static_cast<int>(QueryPriority::kNormal);
    waiter->ctx = ctx;
    waiter->reserve_bytes = ResolveReservationLocked(ctx);
    waiter->enqueued = start;
    classes_[waiter->cls].push_back(waiter);
    UpdateDepthGaugeLocked();

    MaybeShedLocked(start);
    PumpLocked();

    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(
                        config_.queue_timeout_seconds));
    for (;;) {
      // Order matters: a grant or shed decided by another thread wins over
      // this waiter's own cancellation/timeout observations — the decision
      // already removed it from the queue and (for grants) committed the
      // slot, which must not leak.
      if (waiter->granted) {
        const double wait_s =
            std::chrono::duration<double>(Clock::now() - start).count();
        if (ctx != nullptr) {
          ctx->queue_wait_seconds = wait_s;
          ctx->memory_degraded = waiter->degrade_memory;
          ctx->strategy_downgraded = waiter->degrade_strategy;
          ctx->AttachMemory(engine_memory_, waiter->granted_bytes);
        }
        registry.counter("admission.admitted")->Increment();
        registry.histogram("admission.queue_wait_us")
            ->Record(static_cast<uint64_t>(wait_s * 1e6));
        return Ticket(this, std::move(waiter->reservation));
      }
      if (waiter->shed) {
        registry.counter("admission.shed")->Increment();
        return Status::ResourceExhausted("shed under overload: " +
                                         waiter->shed_reason);
      }
      if (ctx != nullptr) {
        Status alive = ctx->CheckAlive();
        if (!alive.ok()) {
          LeaveQueueLocked(waiter);
          return alive;
        }
      }
      const auto now = Clock::now();
      if (now >= deadline) {
        LeaveQueueLocked(waiter);
        registry.counter("admission.timeouts")->Increment();
        return Status::ResourceExhausted(
            "admission timed out after " +
            std::to_string(
                std::chrono::duration<double>(now - start).count()) +
            "s (max " + std::to_string(config_.queue_timeout_seconds) + "s)");
      }
      MaybeShedLocked(now);
      // Short slices purely for external-cancel responsiveness; the
      // timeout itself is the absolute `deadline` above, so wakeup timing
      // never skews the accounting.
      cv_.wait_until(lock, std::min(deadline, now + kCancelPollSlice));
    }
  }

  int running() const {
    std::lock_guard<std::mutex> lock(mu_);
    return running_;
  }
  int queued() const {
    std::lock_guard<std::mutex> lock(mu_);
    return TotalWaitingLocked();
  }
  int queued_in_class(QueryPriority p) const {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<int>(classes_[static_cast<int>(p)].size());
  }
  const AdmissionConfig& config() const { return config_; }

 private:
  using Clock = std::chrono::steady_clock;
  static constexpr std::chrono::milliseconds kCancelPollSlice{5};

  struct Waiter {
    uint64_t seq = 0;
    int cls = static_cast<int>(QueryPriority::kNormal);
    QueryContext* ctx = nullptr;
    uint64_t reserve_bytes = 0;
    Clock::time_point enqueued{};
    // Grant state, written under mu_ by whichever thread runs the pump.
    bool granted = false;
    uint64_t granted_bytes = 0;
    bool degrade_memory = false;
    bool degrade_strategy = false;
    MemoryReservation reservation;
    // Shed state.
    bool shed = false;
    std::string shed_reason;
  };

  int TotalWaitingLocked() const {
    size_t n = 0;
    for (const auto& q : classes_) n += q.size();
    return static_cast<int>(n);
  }

  void UpdateDepthGaugeLocked() const {
    registry_->gauge("admission.queue_depth")->Set(TotalWaitingLocked());
  }

  /// Reservation bytes for a fresh waiter: the optimizer's estimate when
  /// the context carries one (clamped to the engine budget so a wild
  /// over-estimate degrades to "whole engine" instead of "never
  /// grantable"), the fixed per-query reservation otherwise.
  uint64_t ResolveReservationLocked(const QueryContext* ctx) const {
    uint64_t bytes = reservation_bytes_;
    if (ctx != nullptr && ctx->estimated_memory_bytes > 0) {
      bytes = ctx->estimated_memory_bytes;
      const uint64_t budget = engine_memory_->budget();
      if (budget > 0) bytes = std::min(bytes, budget);
    }
    return bytes;
  }

  /// Grants free slots to waiting queries: picks the next class by smooth
  /// weighted round-robin over the non-empty classes, reserves the head
  /// waiter's memory, and marks it granted. Stops when slots or engine
  /// memory run out (memory head-of-line blocking is deliberate: the
  /// chosen waiter holds its turn until a finishing query frees bytes).
  void PumpLocked() {
    while (running_ < config_.max_concurrent_queries) {
      const int cls = PickClassLocked();
      if (cls < 0) return;  // Nobody waiting.
      auto& waiter = classes_[cls].front();

      // Degradation decision rides on the pressure at grant time: with the
      // queue above the watermark, shrink the reservation instead of
      // letting the backlog grow.
      uint64_t bytes = waiter->reserve_bytes;
      bool degrade = config_.degrade_queue_depth > 0 &&
                     TotalWaitingLocked() >= config_.degrade_queue_depth;
      if (degrade && bytes > 0) {
        bytes = std::max<uint64_t>(
            1, static_cast<uint64_t>(static_cast<double>(bytes) *
                                     kDegradeMemoryFraction));
      }

      MemoryReservation reservation(engine_memory_);
      if (!reservation.TryGrow(bytes)) return;  // Wait for memory.

      auto granted = waiter;  // Keep alive past pop_front.
      classes_[cls].pop_front();
      CommitClassPickLocked(cls);
      ++running_;
      granted->granted = true;
      granted->granted_bytes = bytes;
      granted->reservation = std::move(reservation);
      if (degrade) {
        auto& registry = *registry_;
        if (granted->reserve_bytes > 0) {
          granted->degrade_memory = true;
          registry.counter("admission.degraded_memory")->Increment();
        }
        if (config_.degrade_strategy) {
          granted->degrade_strategy = true;
          registry.counter("admission.degraded_strategy")->Increment();
        }
      }
      UpdateDepthGaugeLocked();
      cv_.notify_all();
    }
  }

  /// Smooth weighted round-robin (the nginx algorithm) over non-empty
  /// classes: each pass every contender gains its weight, the largest
  /// current value wins. Proportional over time, deterministic, and with a
  /// single non-empty class it always picks that class (plain FIFO).
  /// PickClassLocked only peeks; CommitClassPickLocked applies the debit
  /// once the pick actually got a slot (a peek that failed on memory must
  /// not consume the class's turn).
  int PickClassLocked() {
    int best = -1;
    double best_current = 0;
    double total = 0;
    for (int i = 0; i < kNumQueryPriorities; ++i) {
      if (classes_[i].empty()) continue;
      wrr_current_[i] += kClassWeights[i];
      total += kClassWeights[i];
      if (best < 0 || wrr_current_[i] > best_current) {
        best = i;
        best_current = wrr_current_[i];
      }
    }
    wrr_total_ = total;
    return best;
  }

  void CommitClassPickLocked(int cls) { wrr_current_[cls] -= wrr_total_; }

  /// Depth- and wait-watermark shedding: drop the newest waiter of the
  /// lowest non-empty class. Newest-of-lowest loses the least invested
  /// wait time and frees depth for higher classes; the shed waiter leaves
  /// with kResourceExhausted immediately instead of burning its timeout.
  void MaybeShedLocked(Clock::time_point now) {
    if (!config_.shed_enabled) return;
    if (config_.shed_queue_depth > 0) {
      while (TotalWaitingLocked() > config_.shed_queue_depth) {
        if (!ShedOneLocked("queue depth " +
                           std::to_string(TotalWaitingLocked()) +
                           " over watermark " +
                           std::to_string(config_.shed_queue_depth))) {
          break;
        }
      }
    }
    if (config_.shed_queue_wait_seconds > 0) {
      Clock::time_point oldest = now;
      bool any = false;
      for (const auto& q : classes_) {
        for (const auto& w : q) {
          if (!any || w->enqueued < oldest) oldest = w->enqueued;
          any = true;
        }
      }
      const double head_wait =
          any ? std::chrono::duration<double>(now - oldest).count() : 0.0;
      if (any && head_wait > config_.shed_queue_wait_seconds) {
        (void)ShedOneLocked("head-of-line wait " + std::to_string(head_wait) +
                            "s over watermark " +
                            std::to_string(config_.shed_queue_wait_seconds) +
                            "s");
      }
    }
  }

  bool ShedOneLocked(std::string reason) {
    for (int i = 0; i < kNumQueryPriorities; ++i) {
      if (classes_[i].empty()) continue;
      auto victim = classes_[i].back();
      classes_[i].pop_back();
      victim->shed = true;
      victim->shed_reason = std::move(reason);
      UpdateDepthGaugeLocked();
      cv_.notify_all();
      return true;
    }
    return false;
  }

  /// Removes a waiter that gives up on its own (cancel, timeout). The
  /// departure may unblock the pump (it freed queue depth and possibly a
  /// class's head), so re-pump before returning.
  void LeaveQueueLocked(const std::shared_ptr<Waiter>& waiter) {
    auto& q = classes_[waiter->cls];
    for (auto it = q.begin(); it != q.end(); ++it) {
      if ((*it)->seq == waiter->seq) {
        q.erase(it);
        break;
      }
    }
    UpdateDepthGaugeLocked();
    PumpLocked();
    cv_.notify_all();
  }

  void FinishQuery() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      --running_;
      PumpLocked();
    }
    cv_.notify_all();
  }

  AdmissionConfig config_;
  MemoryTracker* engine_memory_;
  uint64_t reservation_bytes_;
  MetricsRegistry* registry_;  ///< The engine's; never null.

  mutable std::mutex mu_;
  std::condition_variable cv_;
  /// FIFO per priority class, indexed by QueryPriority.
  std::deque<std::shared_ptr<Waiter>> classes_[kNumQueryPriorities];
  double wrr_current_[kNumQueryPriorities] = {0, 0, 0};
  double wrr_total_ = 0;
  uint64_t next_seq_ = 0;
  int running_ = 0;
};

}  // namespace dynopt

#endif  // DYNOPT_EXEC_ADMISSION_CONTROLLER_H_
