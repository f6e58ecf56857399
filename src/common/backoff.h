#ifndef DYNOPT_COMMON_BACKOFF_H_
#define DYNOPT_COMMON_BACKOFF_H_

#include <algorithm>
#include <cstdint>

#include "common/hash.h"

namespace dynopt {

/// Capped exponential backoff between retries of a failed task. Delays are
/// *simulated* seconds (the retrying node sits idle that long in the cost
/// model); nothing actually sleeps. Attempt numbering starts at 0 for the
/// first execution, so attempt k's retry waits
/// min(kInitialSeconds * kMultiplier^k, kCapSeconds).
struct BackoffPolicy {
  static constexpr double kInitialSeconds = 0.05;
  static constexpr double kMultiplier = 2.0;
  static constexpr double kCapSeconds = 1.0;

  /// Total executions allowed per task (first try + retries). Exhausting
  /// them escalates the task failure to a query-level transient error.
  int max_attempts = 4;

  /// Jitter spread as a fraction of the base delay: attempt k's jittered
  /// delay is uniform in [delay*(1-f), delay*(1+f)). Zero (the default)
  /// disables jitter entirely — JitteredDelay() then returns Delay()
  /// bit-for-bit, so existing metering is unchanged. Under cluster-wide
  /// fault injection, jitter decorrelates the retry waves that would
  /// otherwise land on the cluster in lockstep.
  double jitter_fraction = 0.0;
  /// Seed of the jitter hash; like the FaultInjector, every draw is a pure
  /// function of (seed, site, attempt) so a configuration reproduces the
  /// same delays on every run regardless of thread scheduling.
  uint64_t jitter_seed = 0;

  static double Delay(int attempt) {
    double d = kInitialSeconds;
    for (int i = 0; i < attempt; ++i) {
      d *= kMultiplier;
      if (d >= kCapSeconds) break;
    }
    return std::min(d, kCapSeconds);
  }

  /// Delay(attempt) spread by deterministic jitter. `site` identifies the
  /// retrying task (callers mix stage/node/kernel ids into it) so distinct
  /// tasks retrying after the same shared failure draw independent delays
  /// and do not re-synchronize into a retry storm.
  double JitteredDelay(uint64_t site, int attempt) const {
    const double base = Delay(attempt);
    if (jitter_fraction <= 0.0) return base;
    const uint64_t h = Mix64(HashCombine(Mix64(jitter_seed ^ site),
                                         Mix64(static_cast<uint64_t>(attempt))));
    // 53-bit mantissa draw -> uniform [0, 1).
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    return base * (1.0 + jitter_fraction * (2.0 * u - 1.0));
  }
};

}  // namespace dynopt

#endif  // DYNOPT_COMMON_BACKOFF_H_
