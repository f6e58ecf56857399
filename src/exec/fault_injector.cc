#include "exec/fault_injector.h"

#include "common/hash.h"

namespace dynopt {

namespace {

/// Distinct draw families so e.g. the task-failure and straggler decisions
/// for the same (stage, node) are independent.
constexpr uint64_t kDrawTaskFailure = 0x7461736bULL;   // "task"
constexpr uint64_t kDrawStraggler = 0x736c6f77ULL;     // "slow"
constexpr uint64_t kDrawCorruption = 0x636f7272ULL;    // "corr"
constexpr uint64_t kDrawCorruptByte = 0x62797465ULL;   // "byte"

}  // namespace

const char* FaultSiteName(FaultSite site) {
  switch (site) {
    case FaultSite::kRepartition:
      return "repartition";
    case FaultSite::kBroadcast:
      return "broadcast";
    case FaultSite::kBuild:
      return "build";
    case FaultSite::kProbe:
      return "probe";
    case FaultSite::kMaterialize:
      return "materialize";
  }
  return "unknown";
}

double FaultInjector::Uniform(uint64_t site_tag, int stage, size_t node,
                              int attempt) const {
  uint64_t h = Mix64(config_.seed ^ site_tag);
  h = HashCombine(h, Mix64(static_cast<uint64_t>(stage)));
  h = HashCombine(h, Mix64(static_cast<uint64_t>(node) + 0x9e37ULL));
  h = HashCombine(h, Mix64(static_cast<uint64_t>(attempt) + 0x79b9ULL));
  // Top 53 bits -> [0, 1) with full double precision.
  return static_cast<double>(Mix64(h) >> 11) * 0x1.0p-53;
}

bool FaultInjector::TaskFails(FaultSite site, int stage, size_t node,
                              int attempt) const {
  if (config_.task_failure_probability <= 0.0) return false;
  uint64_t tag = kDrawTaskFailure ^ (static_cast<uint64_t>(site) << 32);
  return Uniform(tag, stage, node, attempt) <
         config_.task_failure_probability;
}

bool FaultInjector::IsStraggler(FaultSite site, int stage,
                                size_t node) const {
  if (config_.straggler_probability <= 0.0) return false;
  uint64_t tag = kDrawStraggler ^ (static_cast<uint64_t>(site) << 32);
  return Uniform(tag, stage, node, 0) < config_.straggler_probability;
}

bool FaultInjector::CorruptsBlock(int stage, size_t node, int attempt) const {
  if (config_.corruption_probability <= 0.0) return false;
  return Uniform(kDrawCorruption, stage, node, attempt) <
         config_.corruption_probability;
}

uint64_t FaultInjector::CorruptionOffset(int stage, size_t node) const {
  uint64_t h = Mix64(config_.seed ^ kDrawCorruptByte);
  h = HashCombine(h, Mix64(static_cast<uint64_t>(stage)));
  h = HashCombine(h, Mix64(static_cast<uint64_t>(node)));
  return Mix64(h);
}

bool FaultInjector::ShouldFailQuery(int stage) {
  if (config_.fail_query_at_stage < 0) return false;
  if (stage != config_.fail_query_at_stage) return false;
  // Fires once; the exchange keeps that exact even if two executors raced
  // here (they do not today — kernel prologues are serial — but the
  // injector should not depend on that).
  return !query_failed_.exchange(true);
}

}  // namespace dynopt
