#include "perfbench/measure.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

namespace dynopt {
namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(PercentileTest, NearestRank) {
  EXPECT_EQ(Percentile(OneTo(100), 90), 90);
  EXPECT_EQ(Percentile(OneTo(100), 50), 50);
  EXPECT_EQ(Percentile(OneTo(10), 90), 9);
  EXPECT_EQ(Percentile(OneTo(7), 50), 4);
  EXPECT_EQ(Percentile({5.0, 1.0, 3.0}, 100), 5);
  EXPECT_EQ(Percentile({}, 90), 0);
}

TEST(PercentileTest, MedianAveragesMiddlePair) {
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({}), 0);
}

TEST(PercentileTest, QuietHalfKeepsEachGroupsFasterHalf) {
  // Each group is trimmed against its own median: the slow group keeps its
  // samples, and the disturbed repetition (1000) is dropped.
  EXPECT_EQ(QuietHalf({{4, 1, 3, 2}, {30, 10, 20}, {100, 1000, 100}}),
            (std::vector<double>{1, 2, 10, 20, 100, 100}));
  EXPECT_EQ(QuietHalf({{7}, {}}), (std::vector<double>{7}));
  EXPECT_TRUE(QuietHalf({}).empty());
}

TEST(PercentileTest, TenBeyondRule) {
  EXPECT_EQ(SamplesBeyond(100, 90), 10u);
  EXPECT_EQ(SamplesBeyond(99, 90), 9u);
  EXPECT_EQ(SamplesBeyond(1000, 99), 10u);
  EXPECT_EQ(SamplesBeyond(0, 50), 0u);

  EXPECT_EQ(HighestSupportedPercentile(19), 0);
  EXPECT_EQ(HighestSupportedPercentile(20), 50);
  EXPECT_EQ(HighestSupportedPercentile(99), 50);
  EXPECT_EQ(HighestSupportedPercentile(100), 90);
  EXPECT_EQ(HighestSupportedPercentile(999), 90);
  EXPECT_EQ(HighestSupportedPercentile(1000), 99);
  EXPECT_EQ(HighestSupportedPercentile(10000), 99.9);
}

TraceEvent Span(const char* name, uint64_t start, uint64_t end,
                uint32_t tid = 0, int depth = 0) {
  TraceEvent e;
  e.name = name;
  e.category = "kernel";
  e.start_ns = start;
  e.dur_ns = end - start;
  e.tid = tid;
  e.depth = depth;
  return e;
}

TEST(SelfTimeTest, NestedChildrenOnOneThread) {
  // root [0,100) > job [10,60) > scan [20,30), probe [40,55); final [70,90).
  std::vector<TraceEvent> spans = {
      Span("root", 0, 100, 0, 0),   Span("job", 10, 60, 0, 1),
      Span("scan", 20, 30, 0, 2),   Span("probe", 40, 55, 0, 2),
      Span("final", 70, 90, 0, 1)};
  EXPECT_EQ(ParentIndices(spans), (std::vector<int>{-1, 0, 1, 1, 0}));
  const std::vector<uint64_t> self = SelfTimes(spans);
  EXPECT_EQ(self, (std::vector<uint64_t>{30, 25, 10, 15, 20}));
  // Non-overlapping children: self times add up to the root's duration.
  EXPECT_EQ(std::accumulate(self.begin(), self.end(), uint64_t{0}), 100u);
}

TEST(SelfTimeTest, OverlappingChildrenAreSubtractedOnce) {
  // Two worker tasks (depth 0 on their own threads) run in parallel under
  // one kernel span on the client thread and overlap on [30,50).
  std::vector<TraceEvent> spans = {
      Span("shuffle", 0, 100, 0, 0), Span("task-a", 10, 50, 1, 0),
      Span("task-b", 30, 70, 2, 0)};
  EXPECT_EQ(ParentIndices(spans), (std::vector<int>{-1, 0, 0}));
  EXPECT_EQ(SelfTimes(spans), (std::vector<uint64_t>{40, 40, 40}));
}

TEST(SelfTimeTest, CrossThreadChildPicksInnermostContainer) {
  // A worker task nests under the innermost client-thread span covering it,
  // and a nested span on the worker thread stays under its own task.
  std::vector<TraceEvent> spans = {
      Span("query", 0, 100, 0, 0), Span("job", 5, 95, 0, 1),
      Span("task", 10, 40, 3, 0),  Span("inner", 15, 25, 3, 1),
      Span("other", 50, 60, 4, 1)};
  const std::vector<int> parent = ParentIndices(spans);
  EXPECT_EQ(parent, (std::vector<int>{-1, 0, 1, 2, -1}));
  EXPECT_EQ(SelfTimes(spans), (std::vector<uint64_t>{10, 60, 20, 10, 10}));
}

TEST(SelfTimeTest, IdenticalCrossThreadIntervalsDoNotCycle) {
  // Two depth-0 spans with the same interval on different threads each
  // contain the other; the lower thread id is the parent.
  std::vector<TraceEvent> spans = {Span("task", 0, 50, 1, 0),
                                   Span("job", 0, 50, 0, 0)};
  EXPECT_EQ(ParentIndices(spans), (std::vector<int>{1, -1}));
  EXPECT_EQ(SelfTimes(spans), (std::vector<uint64_t>{50, 0}));
}

TEST(LayerTest, MapsEngineAndBenchSpans) {
  auto layer = [](const char* name, const char* category = "kernel") {
    TraceEvent e;
    e.name = name;
    e.category = category;
    return LayerOf(e);
  };
  EXPECT_EQ(layer("bench:parse", "bench"), "sql.self_ms");
  EXPECT_EQ(layer("bench:run", "bench"), "opt.run_self_ms");
  EXPECT_EQ(layer("query:dynamic", "query"), "opt.query_self_ms");
  EXPECT_EQ(layer("replan-dp", "opt"), "opt.plan_ms");
  EXPECT_EQ(layer("reopt-2", "opt"), "opt.reopt_self_ms");
  EXPECT_EQ(layer("pushdown:ss", "stage"), "opt.stage_self_ms");
  EXPECT_EQ(layer("scan:lineitem"), "exec.scan_ms");
  EXPECT_EQ(layer("join-probe"), "exec.probe_self_ms");
  EXPECT_EQ(layer("predicate-transfer"), "exec.other_self_ms");
  for (const char* name : {"bench:bind", "query:x", "plan-dp", "reopt-1",
                           "job", "scan:t", "shuffle", "join-build",
                           "join-probe", "materialize", "inlj"}) {
    const std::string l = layer(name);
    EXPECT_NE(std::find(TracedLayers().begin(), TracedLayers().end(), l),
              TracedLayers().end())
        << name;
  }
}

}  // namespace
}  // namespace perfbench
}  // namespace dynopt
