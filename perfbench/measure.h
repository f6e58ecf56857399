#ifndef DYNOPT_PERFBENCH_MEASURE_H_
#define DYNOPT_PERFBENCH_MEASURE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/tracer.h"

namespace dynopt {
namespace perfbench {

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty input.
double Median(std::vector<double> values);

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it. `p` in (0, 100]; 0 for an empty input.
double Percentile(std::vector<double> values, double p);

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`
/// samples, i.e. n - ceil(p * n / 100).
size_t SamplesBeyond(size_t n, double p);

/// The quieter half of each group: its samples at or below the group's
/// median, pooled over all groups. A group holds the repeated wall times of
/// one piece of work; interference from outside the process only ever adds
/// time, so a statistic of the pool moves only when interference hits more
/// than half of a group's repetitions.
std::vector<double> QuietHalf(const std::vector<std::vector<double>>& groups);

/// The highest of the percentiles 50, 90, 99 and 99.9 that has at least
/// `min_beyond` samples beyond it among `n` samples; 0 when even the median
/// has fewer.
double HighestSupportedPercentile(size_t n, size_t min_beyond = 10);

/// Index of each span's parent, -1 for a root. The parent is the shortest
/// other span whose interval contains the child's and that is either on the
/// same thread at a lower nesting depth, or, for a span opened at depth 0
/// on its own thread (a worker task), on any other thread.
std::vector<int> ParentIndices(const std::vector<TraceEvent>& spans);

/// Self time of each span in nanoseconds: its duration minus the length of
/// the union of its children's intervals clipped to its own, so
/// overlapping children (parallel workers) are not subtracted twice.
std::vector<uint64_t> SelfTimes(const std::vector<TraceEvent>& spans);

/// Per-layer metric name a span's self time is charged to. Spans the
/// benchmark opens are named "bench:*"; everything else comes from the
/// engine's own spans (query:*, plan-dp, reopt-N, job, scan:*, ...).
std::string LayerOf(const TraceEvent& span);

/// Every name LayerOf can return, in report order.
const std::vector<std::string>& TracedLayers();

}  // namespace perfbench
}  // namespace dynopt

#endif  // DYNOPT_PERFBENCH_MEASURE_H_
