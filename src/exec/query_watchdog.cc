#include "exec/query_watchdog.h"

#include <algorithm>
#include <chrono>
#include <string>

#include "common/metrics_registry.h"

namespace dynopt {

QueryWatchdog::QueryWatchdog(const WatchdogConfig& config,
                             MetricsRegistry* metrics_registry)
    : config_(config), registry_(metrics_registry) {
  if (config_.enabled) {
    monitor_ = std::thread([this] { MonitorLoop(); });
  }
}

QueryWatchdog::~QueryWatchdog() {
  if (!monitor_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  monitor_.join();
}

void QueryWatchdog::Watch(QueryContext* ctx) {
  if (!config_.enabled || ctx == nullptr) return;
  // Count staleness from registration, not from context construction: a
  // query that waited in the admission queue has not had a chance to
  // heartbeat yet and must not start life overdue.
  ctx->Heartbeat();
  std::lock_guard<std::mutex> lock(mu_);
  watched_.push_back(ctx);
}

void QueryWatchdog::Unwatch(QueryContext* ctx) {
  if (!config_.enabled || ctx == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  watched_.erase(std::remove(watched_.begin(), watched_.end(), ctx),
                 watched_.end());
}

uint64_t QueryWatchdog::deadline_kills() const {
  std::lock_guard<std::mutex> lock(mu_);
  return deadline_kills_;
}

uint64_t QueryWatchdog::stall_kills() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stall_kills_;
}

void QueryWatchdog::MonitorLoop() {
  const auto interval = std::chrono::duration_cast<
      std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(config_.poll_interval_seconds));
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    SweepLocked();
    cv_.wait_for(lock, interval, [this] { return stop_; });
  }
}

void QueryWatchdog::SweepLocked() {
  auto& registry = *registry_;
  for (QueryContext* ctx : watched_) {
    if (ctx->cancelled()) continue;  // Already going down.
    if (ctx->has_deadline() && ctx->deadline_expired()) {
      // Cancel via the token (not CheckAlive) — the point is precisely
      // that the query is stuck somewhere that never reaches a checkpoint.
      ctx->Cancel("watchdog: deadline exceeded");
      ++deadline_kills_;
      registry.counter("watchdog.deadline_kills")->Increment();
      continue;
    }
    if (config_.progress_timeout_seconds > 0 &&
        ctx->SecondsSinceHeartbeat() > config_.progress_timeout_seconds) {
      ctx->Cancel("watchdog: no progress for " +
                  std::to_string(ctx->SecondsSinceHeartbeat()) + "s (limit " +
                  std::to_string(config_.progress_timeout_seconds) + "s)");
      ++stall_kills_;
      registry.counter("watchdog.stall_kills")->Increment();
    }
  }
}

}  // namespace dynopt
