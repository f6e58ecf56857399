// Tracing & telemetry:
//  - TraceSpan nesting (depth + time containment) and Chrome-trace JSON
//    structure, including the file exporter;
//  - a disabled tracer records nothing (spans are inert no-ops);
//  - metering identity: running the same query with tracing enabled leaves
//    every deterministic ExecMetrics field byte-for-byte unchanged — the
//    observability layer's core promise (same pattern as
//    memory_test.cc's UngovernedContextDoesNotChangeMetering);
//  - MetricsRegistry counters/gauges/histograms and the text snapshot;
//  - DYNOPT_LOG_LEVEL parsing.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/metrics_registry.h"
#include "common/tracer.h"
#include "exec/engine.h"
#include "opt/dynamic_optimizer.h"
#include "opt/optimizer.h"
#include "workloads/tpch.h"

namespace dynopt {
namespace {

/// Each test starts from a clean slate: tracer disabled and empty.
class TracerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::Global().Disable();
    Tracer::Global().Drain();
  }
  void TearDown() override {
    Tracer::Global().Disable();
    Tracer::Global().Drain();
    // A test that failed mid-stream must not leak the open sink into the
    // next test (CloseStream on a closed sink just returns an error).
    if (Tracer::Global().streaming()) {
      (void)Tracer::Global().CloseStream();
    }
  }
};

TEST_F(TracerTest, DisabledTracerRecordsNothing) {
  ASSERT_FALSE(Tracer::Global().enabled());
  {
    TraceSpan outer("outer", "query");
    EXPECT_FALSE(outer.active());
    outer.AddArg("ignored", 1.0);
    TraceSpan inner("inner", "kernel");
    EXPECT_FALSE(inner.active());
  }
  EXPECT_TRUE(Tracer::Global().Drain().empty());
  EXPECT_EQ(Tracer::Global().CurrentDepth(), 0);
}

TEST_F(TracerTest, NestedSpansRecordDepthAndContainment) {
  Tracer::Global().Enable();
  {
    TraceSpan outer("outer", "query");
    ASSERT_TRUE(outer.active());
    EXPECT_EQ(Tracer::Global().CurrentDepth(), 1);
    outer.AddArg("rows", 42.0);
    outer.AddArg("label", "hello \"world\"");
    {
      TraceSpan inner("inner", "kernel");
      ASSERT_TRUE(inner.active());
      EXPECT_EQ(Tracer::Global().CurrentDepth(), 2);
    }
    EXPECT_EQ(Tracer::Global().CurrentDepth(), 1);
  }
  EXPECT_EQ(Tracer::Global().CurrentDepth(), 0);

  std::vector<TraceEvent> events = Tracer::Global().Drain();
  ASSERT_EQ(events.size(), 2u);
  // Drain sorts by start time: outer opened first.
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[0].category, "query");
  EXPECT_EQ(events[0].depth, 0);
  EXPECT_EQ(events[1].name, "inner");
  EXPECT_EQ(events[1].depth, 1);
  // The child is contained in the parent's interval.
  EXPECT_GE(events[1].start_ns, events[0].start_ns);
  EXPECT_LE(events[1].start_ns + events[1].dur_ns,
            events[0].start_ns + events[0].dur_ns);
  // Same thread.
  EXPECT_EQ(events[0].tid, events[1].tid);
  // A second drain finds nothing.
  EXPECT_TRUE(Tracer::Global().Drain().empty());
}

TEST_F(TracerTest, EndIsIdempotentAndEarlyEndDropsDepth) {
  Tracer::Global().Enable();
  TraceSpan span("solo", "stage");
  ASSERT_TRUE(span.active());
  span.End();
  EXPECT_EQ(Tracer::Global().CurrentDepth(), 0);
  span.End();  // No double record, no depth underflow.
  EXPECT_EQ(Tracer::Global().CurrentDepth(), 0);
  EXPECT_EQ(Tracer::Global().Drain().size(), 1u);
}

TEST_F(TracerTest, DrainCollectsSpansFromOtherThreads) {
  Tracer::Global().Enable();
  std::thread worker([] { TraceSpan span("worker-span", "kernel"); });
  worker.join();
  TraceSpan main_span("main-span", "job");
  main_span.End();
  std::vector<TraceEvent> events = Tracer::Global().Drain();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].tid, events[1].tid);
}

TEST_F(TracerTest, ChromeTraceJsonHasCompleteEventsAndEscapedArgs) {
  Tracer::Global().Enable();
  {
    TraceSpan span("shuffle", "kernel");
    span.AddArg("rows", 1234.0);
    span.AddArg("note", "quote\" backslash\\ tab\t");
  }
  std::vector<TraceEvent> events = Tracer::Global().Drain();
  ASSERT_EQ(events.size(), 1u);
  const std::string json = ChromeTraceJson(events);

  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"shuffle\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"kernel\""), std::string::npos);
  EXPECT_NE(json.find("\"rows\": 1234"), std::string::npos);
  // String args are escaped, not spliced raw.
  EXPECT_NE(json.find("quote\\\" backslash\\\\ tab\\t"), std::string::npos)
      << json;

  // The exporter writes the same document to disk.
  const std::string path = ::testing::TempDir() + "dynopt_trace_test.json";
  ASSERT_TRUE(WriteChromeTrace(path, events).ok());
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), json);
  std::remove(path.c_str());
}

TEST_F(TracerTest, StreamingSinkEmitsSameBytesAsBatchExporter) {
  const std::string path = ::testing::TempDir() + "dynopt_stream_test.json";

  // Two fixed events, recorded once through the streaming sink and once
  // through the buffered path: the two exporters share one serializer, so
  // the file and ChromeTraceJson(Drain()) must be byte-identical.
  TraceEvent first;
  first.name = "span-a";
  first.category = "stage";
  first.start_ns = 1000;
  first.dur_ns = 500;
  first.args.emplace_back("rows", "7");
  TraceEvent second;
  second.name = "span-b";
  second.category = "kernel";
  second.start_ns = 2000;
  second.dur_ns = 250;

  ASSERT_TRUE(Tracer::Global().OpenStream(path).ok());
  EXPECT_TRUE(Tracer::Global().streaming());
  Tracer::Global().Record(first);
  Tracer::Global().Record(second);
  // Streamed events bypass the thread buffers entirely (O(1) memory is
  // the point), so nothing is waiting for Drain...
  ASSERT_TRUE(Tracer::Global().CloseStream().ok());
  EXPECT_FALSE(Tracer::Global().streaming());
  EXPECT_TRUE(Tracer::Global().Drain().empty());

  // ...and the same records through the buffered path render identically.
  Tracer::Global().Record(first);
  Tracer::Global().Record(second);
  const std::string batch = ChromeTraceJson(Tracer::Global().Drain());

  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), batch);
  std::remove(path.c_str());
}

TEST_F(TracerTest, StreamingSinkFlushesIncrementallyAndCatchesSpans) {
  const std::string path = ::testing::TempDir() + "dynopt_stream_tail.json";
  Tracer::Global().Enable();
  ASSERT_TRUE(Tracer::Global().OpenStream(path).ok());

  // A second OpenStream while one is active is refused.
  EXPECT_FALSE(Tracer::Global().OpenStream(path + ".other").ok());

  { TraceSpan span("streamed-span", "stage"); }
  // The event is on disk BEFORE CloseStream — the sink is tail-able while
  // the workload runs.
  {
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    EXPECT_NE(buffer.str().find("streamed-span"), std::string::npos);
  }

  ASSERT_TRUE(Tracer::Global().CloseStream().ok());
  EXPECT_FALSE(Tracer::Global().CloseStream().ok());  // Nothing open now.

  // Closed document is well-formed and spans recorded after the close go
  // back to the buffered path.
  {
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string doc = buffer.str();
    EXPECT_EQ(doc.find("{\"displayTimeUnit\": \"ms\""), 0u);
    EXPECT_NE(doc.find("\n]}\n"), std::string::npos);
  }
  { TraceSpan span("buffered-span", "stage"); }
  std::vector<TraceEvent> events = Tracer::Global().Drain();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "buffered-span");
  std::remove(path.c_str());
}

/// The core invariant: enabling tracing changes no metered quantity.
TEST(TracerMeteringTest, TracingDoesNotChangeSimulatedMetering) {
  Engine engine;
  TpchOptions tpch;
  tpch.sf = 0.1;
  ASSERT_TRUE(LoadTpch(&engine, tpch).ok());
  auto query = TpchQ9(&engine);
  ASSERT_TRUE(query.ok());

  Tracer::Global().Disable();
  Tracer::Global().Drain();
  DynamicOptimizer plain(&engine);
  auto off = plain.Run(query.value());
  ASSERT_TRUE(off.ok()) << off.status().ToString();
  ASSERT_NE(off->profile, nullptr);
  EXPECT_TRUE(off->profile->trace.empty());

  Tracer::Global().Enable();
  DynamicOptimizer traced(&engine);
  auto on = traced.Run(query.value());
  Tracer::Global().Disable();
  Tracer::Global().Drain();
  ASSERT_TRUE(on.ok()) << on.status().ToString();

  // Every deterministic field byte-for-byte identical (exact ==, never
  // near).
  EXPECT_EQ(MeteringDiff(off->metrics, on->metrics), "");
  EXPECT_EQ(off->rows, on->rows);

  // The traced run captured spans: a query root plus opt/stage/kernel work.
  ASSERT_NE(on->profile, nullptr);
  EXPECT_FALSE(on->profile->trace.empty());
  bool saw_query = false, saw_kernel = false, saw_stage = false;
  for (const TraceEvent& e : on->profile->trace) {
    if (e.category == "query") saw_query = true;
    if (e.category == "kernel") saw_kernel = true;
    if (e.category == "stage") saw_stage = true;
  }
  EXPECT_TRUE(saw_query);
  EXPECT_TRUE(saw_stage);
  EXPECT_TRUE(saw_kernel);

  // Decision telemetry is on regardless of tracing.
  EXPECT_GT(off->metrics.num_decisions, 0u);
  EXPECT_GE(off->metrics.max_q_error, 1.0);
}

TEST(MetricsRegistryTest, CountersGaugesHistogramsAndSnapshot) {
  MetricsRegistry registry;
  registry.counter("test.hits")->Increment();
  registry.counter("test.hits")->Increment(4);
  EXPECT_EQ(registry.counter("test.hits")->value(), 5u);

  registry.gauge("test.depth")->Set(7);
  registry.gauge("test.depth")->Add(-2);
  EXPECT_EQ(registry.gauge("test.depth")->value(), 5);

  Histogram* h = registry.histogram("test.wait_us");
  for (uint64_t v : {1u, 2u, 4u, 100u, 10000u}) h->Record(v);
  EXPECT_EQ(h->count(), 5u);
  EXPECT_EQ(h->sum(), 10107u);
  EXPECT_GE(h->ApproxQuantile(0.99), h->ApproxQuantile(0.5));

  // Stable pointers: the same name returns the same object.
  EXPECT_EQ(registry.counter("test.hits"), registry.counter("test.hits"));

  const std::string snapshot = registry.TextSnapshot();
  EXPECT_NE(snapshot.find("test.hits 5"), std::string::npos) << snapshot;
  EXPECT_NE(snapshot.find("test.depth 5"), std::string::npos);
  EXPECT_NE(snapshot.find("test.wait_us count=5"), std::string::npos);

  registry.ResetAll();
  EXPECT_EQ(registry.counter("test.hits")->value(), 0u);
  EXPECT_EQ(registry.gauge("test.depth")->value(), 0);
  EXPECT_EQ(registry.histogram("test.wait_us")->count(), 0u);
}

TEST(LogLevelTest, ParseAcceptsNamesAndNumbers) {
  LogLevel level = LogLevel::kError;
  EXPECT_TRUE(ParseLogLevel("debug", &level));
  EXPECT_EQ(level, LogLevel::kDebug);
  EXPECT_TRUE(ParseLogLevel("INFO", &level));
  EXPECT_EQ(level, LogLevel::kInfo);
  EXPECT_TRUE(ParseLogLevel("Warning", &level));
  EXPECT_EQ(level, LogLevel::kWarn);
  EXPECT_TRUE(ParseLogLevel("3", &level));
  EXPECT_EQ(level, LogLevel::kError);
  EXPECT_FALSE(ParseLogLevel("loud", &level));
  EXPECT_FALSE(ParseLogLevel("", &level));
  EXPECT_FALSE(ParseLogLevel(nullptr, &level));
  EXPECT_EQ(level, LogLevel::kError);  // Failed parses leave it untouched.

  // The setter/getter round-trips (and is safe to call repeatedly).
  const LogLevel before = GetLogLevel();
  SetLogLevel(LogLevel::kDebug);
  EXPECT_EQ(GetLogLevel(), LogLevel::kDebug);
  SetLogLevel(before);
}

}  // namespace
}  // namespace dynopt
