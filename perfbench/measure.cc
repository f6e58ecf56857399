#include "perfbench/measure.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace dynopt {
namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

namespace {

/// 1-based nearest rank of the p-th percentile among n samples.
size_t NearestRank(size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(rank, 1.0)), 1, n);
}

}  // namespace

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  return values[NearestRank(values.size(), p) - 1];
}

std::vector<double> QuietHalf(const std::vector<std::vector<double>>& groups) {
  std::vector<double> quiet;
  for (const std::vector<double>& group : groups) {
    const double median = Median(group);
    for (double v : group) {
      if (v <= median) quiet.push_back(v);
    }
  }
  return quiet;
}

size_t SamplesBeyond(size_t n, double p) {
  return n == 0 ? 0 : n - NearestRank(n, p);
}

double HighestSupportedPercentile(size_t n, size_t min_beyond) {
  double best = 0;
  for (double p : {50.0, 90.0, 99.0, 99.9}) {
    if (SamplesBeyond(n, p) >= min_beyond) best = p;
  }
  return best;
}

namespace {

bool Contains(const TraceEvent& outer, const TraceEvent& inner) {
  return outer.start_ns <= inner.start_ns &&
         inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns;
}

}  // namespace

std::vector<int> ParentIndices(const std::vector<TraceEvent>& spans) {
  std::vector<int> parent(spans.size(), -1);
  for (size_t c = 0; c < spans.size(); ++c) {
    const TraceEvent& child = spans[c];
    for (size_t p = 0; p < spans.size(); ++p) {
      const TraceEvent& cand = spans[p];
      if (p == c || !Contains(cand, child)) continue;
      const bool same_thread = cand.tid == child.tid;
      if (same_thread ? cand.depth >= child.depth : child.depth != 0) {
        continue;
      }
      // Two spans on different threads with one interval contain each
      // other; only the one on the lower thread id may be the parent.
      if (!same_thread && cand.dur_ns == child.dur_ns &&
          cand.tid > child.tid) {
        continue;
      }
      const int best = parent[c];
      // Shortest container wins; among equal lengths, the deeper one on
      // the child's own thread.
      if (best < 0 || cand.dur_ns < spans[best].dur_ns ||
          (cand.dur_ns == spans[best].dur_ns && same_thread &&
           cand.depth > spans[best].depth)) {
        parent[c] = static_cast<int>(p);
      }
    }
  }
  return parent;
}

std::vector<uint64_t> SelfTimes(const std::vector<TraceEvent>& spans) {
  const std::vector<int> parent = ParentIndices(spans);
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(
      spans.size());
  for (size_t c = 0; c < spans.size(); ++c) {
    if (parent[c] < 0) continue;
    children[parent[c]].emplace_back(spans[c].start_ns,
                                     spans[c].start_ns + spans[c].dur_ns);
  }
  std::vector<uint64_t> self(spans.size(), 0);
  for (size_t p = 0; p < spans.size(); ++p) {
    auto& intervals = children[p];
    std::sort(intervals.begin(), intervals.end());
    uint64_t covered = 0;
    uint64_t run_start = 0;
    uint64_t run_end = 0;
    bool open = false;
    for (const auto& [start, end] : intervals) {
      if (open && start <= run_end) {
        run_end = std::max(run_end, end);
        continue;
      }
      if (open) covered += run_end - run_start;
      run_start = start;
      run_end = end;
      open = true;
    }
    if (open) covered += run_end - run_start;
    self[p] = spans[p].dur_ns - std::min(covered, spans[p].dur_ns);
  }
  return self;
}

std::string LayerOf(const TraceEvent& span) {
  const std::string& n = span.name;
  auto starts = [&n](const char* prefix) { return n.rfind(prefix, 0) == 0; };
  if (n == "bench:parse" || n == "bench:bind") return "sql.self_ms";
  if (n == "bench:run") return "opt.run_self_ms";
  if (starts("query:")) return "opt.query_self_ms";
  if (n == "plan-dp" || n == "replan-dp") return "opt.plan_ms";
  if (starts("reopt-")) return "opt.reopt_self_ms";
  if (span.category == "stage") return "opt.stage_self_ms";
  if (n == "job") return "exec.job_self_ms";
  if (starts("scan:")) return "exec.scan_ms";
  if (n == "shuffle") return "exec.shuffle_self_ms";
  if (n == "join-build") return "exec.build_self_ms";
  if (n == "join-probe") return "exec.probe_self_ms";
  if (n == "materialize") return "exec.materialize_self_ms";
  return "exec.other_self_ms";
}

const std::vector<std::string>& TracedLayers() {
  static const auto* layers = new std::vector<std::string>{
      "sql.self_ms",        "opt.run_self_ms",    "opt.query_self_ms",
      "opt.plan_ms",        "opt.reopt_self_ms",  "opt.stage_self_ms",
      "exec.job_self_ms",   "exec.scan_ms",       "exec.shuffle_self_ms",
      "exec.build_self_ms", "exec.probe_self_ms", "exec.materialize_self_ms",
      "exec.other_self_ms"};
  return *layers;
}

}  // namespace perfbench
}  // namespace dynopt
