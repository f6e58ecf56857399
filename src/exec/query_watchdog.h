#ifndef DYNOPT_EXEC_QUERY_WATCHDOG_H_
#define DYNOPT_EXEC_QUERY_WATCHDOG_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "common/metrics_registry.h"
#include "common/query_context.h"
#include "exec/cluster.h"

namespace dynopt {

/// Background monitor that cancels queries which stopped cooperating:
/// every poll interval it sweeps the registered QueryContexts and fires
/// their cancellation token when (a) the query's own deadline has passed —
/// catching queries stuck somewhere that never reaches a CheckAlive()
/// checkpoint — or (b) the progress timeout elapsed since the last
/// heartbeat (CheckAlive() heartbeats at every partition-task and
/// re-optimization boundary, so a healthy query is never stale).
///
/// The watchdog only *cancels*; reclamation is the existing machinery. The
/// cancelled query surfaces kCancelled at its next checkpoint (or its
/// driver loop observes the token), RunWithRecovery's terminal-failure
/// sweep drops its temp tables and spill files, and the admission Ticket's
/// destructor frees the slot and memory reservation — nothing leaks even
/// when the query never heartbeats again.
///
/// Registration is RAII via WatchdogRegistration; the monitor thread only
/// reads atomics off the contexts (Heartbeat / SecondsSinceHeartbeat /
/// deadline) so polling never blocks query progress.
class QueryWatchdog {
 public:
  /// `metrics_registry` (the engine's) receives the watchdog kill
  /// counters.
  QueryWatchdog(const WatchdogConfig& config,
                MetricsRegistry* metrics_registry);
  ~QueryWatchdog();

  QueryWatchdog(const QueryWatchdog&) = delete;
  QueryWatchdog& operator=(const QueryWatchdog&) = delete;

  /// Starts monitoring `ctx` (no-op when the watchdog is disabled). The
  /// context must stay alive until Unwatch() returns.
  void Watch(QueryContext* ctx);
  void Unwatch(QueryContext* ctx);

  /// Queries cancelled for a blown deadline / a stale heartbeat.
  uint64_t deadline_kills() const;
  uint64_t stall_kills() const;
  bool enabled() const { return config_.enabled; }
  const WatchdogConfig& config() const { return config_; }

 private:
  void MonitorLoop();
  /// One sweep over the watch list; returns kills performed (test seam).
  void SweepLocked();

  const WatchdogConfig config_;
  MetricsRegistry* registry_;  ///< The engine's; never null.
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<QueryContext*> watched_;
  bool stop_ = false;
  uint64_t deadline_kills_ = 0;
  uint64_t stall_kills_ = 0;
  std::thread monitor_;  ///< Last member: starts after state is ready.
};

/// RAII watch registration: Watch on construction, Unwatch on destruction.
/// Null watchdog (or a disabled one) makes it a no-op, so call sites can
/// register unconditionally.
class WatchdogRegistration {
 public:
  WatchdogRegistration(QueryWatchdog* watchdog, QueryContext* ctx)
      : watchdog_(watchdog), ctx_(ctx) {
    if (watchdog_ != nullptr) watchdog_->Watch(ctx_);
  }
  ~WatchdogRegistration() {
    if (watchdog_ != nullptr) watchdog_->Unwatch(ctx_);
  }
  WatchdogRegistration(const WatchdogRegistration&) = delete;
  WatchdogRegistration& operator=(const WatchdogRegistration&) = delete;

 private:
  QueryWatchdog* watchdog_;
  QueryContext* ctx_;
};

}  // namespace dynopt

#endif  // DYNOPT_EXEC_QUERY_WATCHDOG_H_
