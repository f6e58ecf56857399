// perfbench: wall time from SQL text to returned rows for the paper's four
// queries (TPC-DS Q17/Q50, TPC-H Q8/Q9) under every optimization strategy.
//
// One process, one closed-loop client: each query is parsed (ParseSelect),
// bound (BindSelect) and run (Optimizer::Run) only after the previous one
// returned, on an engine with its default worker pool. Each of the three
// calls is timed from outside. A pass runs every (query, strategy) pair once
// in a seeded order; an untimed warm-up pass comes first, then whole passes
// until --seconds have elapsed. Every result is checked against reference
// rows and every pair's simulated seconds must repeat exactly from pass to
// pass; any mismatch or leaked temp table / spill file is a failure and the
// exit code is 1.
//
// With --trace 1, untraced and traced passes alternate. The traced passes
// enable the global tracer, wrap the three calls in "bench:*" spans and
// split each query's traced wall time into per-layer self times (see
// measure.h). See README.md for the workloads and metric definitions.
//
// Usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  --spill-dir <empty dir>
// The last line of stdout is one JSON object; progress goes to stderr.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/query_context.h"
#include "common/random.h"
#include "common/tracer.h"
#include "exec/engine.h"
#include "opt/dynamic_optimizer.h"
#include "opt/ingres_optimizer.h"
#include "opt/order_baselines.h"
#include "opt/pilot_run_optimizer.h"
#include "opt/sketch_optimizer.h"
#include "opt/static_optimizer.h"
#include "perfbench/measure.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "storage/serde.h"
#include "workloads/tpcds.h"
#include "workloads/tpch.h"

namespace dynopt {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

const char* const kQueries[] = {"q17", "q50", "q8", "q9"};
const char* const kStrategies[] = {"dynamic",     "best-order",
                                   "cost-based",  "pilot-run",
                                   "ingres-like", "worst-order",
                                   "sketch-dynamic"};

/// Timed setups per run, after one untimed load that warms the process up:
/// at least kMinSetups, more while they have taken less than kSetupSeconds
/// in total (small data loads in tens of milliseconds, so one sample would
/// be mostly noise). setup_s is their median.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 15;
constexpr double kSetupSeconds = 2.0;
/// Quiet-half samples (see QuietQueryMs) a --trace 0 run collects at least,
/// so the 90th percentile has ten samples beyond it.
constexpr size_t kMinSamples = 100;

struct Workload {
  std::string name;
  double generator_sf = 0;  ///< Paper SF 10 -> 0.5, SF 1000 -> 8.
  uint64_t join_budget_bytes = 0;  ///< Per-node join memory; 0 = unlimited.
  bool with_worst_order = true;
};

const Workload kWorkloads[] = {
    // Per-query fixed costs (SQL, planning, re-opt coordination, pool
    // dispatch) dominate; partitions fit in L2.
    {"mix-sf10", 0.5, 0, true},
    // Out of cache: scan, shuffle, probe and materialize do most of the work.
    {"mix-sf1000", 8.0, 0, true},
    // Same data under a 64 KiB per-node join budget: about 4 of the 24 runs
    // take the grace hash join and spill ~100 MB per pass. At 32 KiB 15 runs
    // spill, but into ~4x as many files, and file-system time (not the
    // engine) dominated and kept growing within a run. worst-order is left
    // out: under a budget it spills 150-280 MB per query and takes minutes.
    {"spill-sf1000", 8.0, 64 * 1024, false},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spill_dir;
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <mix-sf10|mix-sf1000|spill-sf1000> "
               "--seed <n> --seconds <s> --trace <0|1> --spill-dir <dir>\n",
               argv0);
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args->trace = value[0] == '1';
    } else if (flag == "--spill-dir") {
      args->spill_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->spill_dir.empty();
}

/// The seed drives the generated data, Q50's parameters and the order of
/// (query, strategy) pairs in every pass; the engine sees only the inputs.
struct Inputs {
  uint64_t tpch_seed = 0;
  uint64_t tpcds_seed = 0;
  int64_t q50_moy = 0;   ///< In [8, 10], the paper's myrand range.
  int64_t q50_year = 0;  ///< In [1998, 2000].
};

Inputs MakeInputs(Rng* rng) {
  Inputs in;
  in.tpch_seed = rng->Next();
  in.tpcds_seed = rng->Next();
  in.q50_moy = rng->NextInt64(8, 10);
  in.q50_year = rng->NextInt64(1998, 2000);
  return in;
}

std::string QuerySql(const std::string& query) {
  if (query == "q17") return TpcdsQ17Sql();
  if (query == "q50") return TpcdsQ50Sql();
  if (query == "q8") return TpchQ8Sql();
  return TpchQ9Sql();
}

std::map<std::string, Value> QueryParams(const std::string& query,
                                         const Inputs& in) {
  if (query != "q50") return {};
  return {{"moy", Value(in.q50_moy)}, {"year", Value(in.q50_year)}};
}

std::unique_ptr<Optimizer> MakeOptimizer(
    Engine* engine, const std::string& name,
    std::shared_ptr<const JoinTree> best_order_hint) {
  if (name == "dynamic") return std::make_unique<DynamicOptimizer>(engine);
  if (name == "best-order") {
    return std::make_unique<BestOrderOptimizer>(engine,
                                                std::move(best_order_hint));
  }
  if (name == "cost-based") {
    return std::make_unique<StaticCostBasedOptimizer>(engine);
  }
  if (name == "pilot-run") return std::make_unique<PilotRunOptimizer>(engine);
  if (name == "ingres-like") {
    return std::make_unique<IngresLikeOptimizer>(engine);
  }
  if (name == "worst-order") {
    return std::make_unique<WorstOrderOptimizer>(engine);
  }
  return std::make_unique<SketchDynamicOptimizer>(engine);
}

struct Setup {
  std::unique_ptr<Engine> engine;
  double tpch_s = 0;
  double tpcds_s = 0;
};

/// Data generation, load and base statistics for both workloads.
Result<Setup> LoadData(const Workload& w, const Inputs& in) {
  Setup s;
  const auto t0 = Clock::now();
  s.engine = std::make_unique<Engine>();
  TpchOptions tpch;
  tpch.sf = w.generator_sf;
  tpch.seed = in.tpch_seed;
  DYNOPT_RETURN_IF_ERROR(LoadTpch(s.engine.get(), tpch));
  const auto t1 = Clock::now();
  TpcdsOptions tpcds;
  tpcds.sf = w.generator_sf;
  tpcds.seed = in.tpcds_seed;
  DYNOPT_RETURN_IF_ERROR(LoadTpcds(s.engine.get(), tpcds));
  s.tpch_s = Seconds(t0, t1);
  s.tpcds_s = Seconds(t1, Clock::now());
  return s;
}

struct Pair {
  std::string query;
  std::string strategy;
};

/// One query from SQL text to rows, with the three calls timed.
struct Outcome {
  Status status;
  OptimizerRunResult result;
  double parse_ms = 0;
  double bind_ms = 0;
  double run_ms = 0;
  double total_ms() const { return parse_ms + bind_ms + run_ms; }
};

Outcome RunQuery(Engine* engine, const Pair& pair, const Inputs& in,
                 std::shared_ptr<const JoinTree> hint) {
  Outcome out;
  const std::string sql = QuerySql(pair.query);
  std::map<std::string, Value> params = QueryParams(pair.query, in);
  std::unique_ptr<Optimizer> optimizer =
      MakeOptimizer(engine, pair.strategy, std::move(hint));
  QueryContext ctx(pair.query + "/" + pair.strategy);
  optimizer->set_context(&ctx);

  const auto t0 = Clock::now();
  Result<SelectStatement> stmt = [&] {
    TraceSpan span("bench:parse", "bench");
    return ParseSelect(sql);
  }();
  const auto t1 = Clock::now();
  out.parse_ms = Seconds(t0, t1) * 1e3;
  if (!stmt.ok()) {
    out.status = stmt.status();
    return out;
  }
  Result<QuerySpec> spec = [&] {
    TraceSpan span("bench:bind", "bench");
    return BindSelect(*stmt, engine->catalog(), std::move(params));
  }();
  const auto t2 = Clock::now();
  out.bind_ms = Seconds(t1, t2) * 1e3;
  if (!spec.ok()) {
    out.status = spec.status();
    return out;
  }
  Result<OptimizerRunResult> result = [&] {
    TraceSpan span("bench:run", "bench");
    return optimizer->Run(*spec);
  }();
  out.run_ms = Seconds(t2, Clock::now()) * 1e3;
  if (!result.ok()) {
    out.status = result.status();
    return out;
  }
  out.result = std::move(result).value();
  return out;
}

struct Reference {
  std::vector<std::string> columns;
  std::vector<Row> sorted_rows;
};

/// Totals of ExecMetrics counters over one pass. Metering is deterministic,
/// so they repeat from pass to pass.
struct PassCounts {
  double stats_sim_s = 0;
  double reopt_sim_s = 0;
  uint64_t reopt_points = 0;
  uint64_t decisions = 0;
  uint64_t jobs = 0;
  uint64_t bytes_scanned = 0;
  uint64_t bytes_shuffled = 0;
  uint64_t bytes_broadcast = 0;
  uint64_t bytes_materialized = 0;
  uint64_t tuples_processed = 0;
  uint64_t spilled_bytes = 0;
  uint64_t spill_partitions = 0;
  uint64_t peak_memory_bytes = 0;  ///< Max over the pass's queries.

  void Add(const ExecMetrics& m) {
    stats_sim_s += m.stats_seconds;
    reopt_sim_s += m.reopt_seconds;
    reopt_points += static_cast<uint64_t>(m.num_reopt_points);
    decisions += m.num_decisions;
    jobs += static_cast<uint64_t>(m.num_jobs);
    bytes_scanned += m.bytes_scanned;
    bytes_shuffled += m.bytes_shuffled;
    bytes_broadcast += m.bytes_broadcast;
    bytes_materialized += m.bytes_materialized;
    tuples_processed += m.tuples_processed;
    spilled_bytes += m.spilled_bytes;
    spill_partitions += m.spill_partitions;
    peak_memory_bytes = std::max(peak_memory_bytes, m.peak_memory_bytes);
  }
};

/// Wall-clock sums over the untraced timed queries.
struct WallSums {
  size_t queries = 0;
  double parse_ms = 0;
  double bind_ms = 0;
  double run_ms = 0;
  double shuffle_ms = 0;
  double build_ms = 0;
  double probe_ms = 0;
  double materialize_ms = 0;
  double pass_wall_s = 0;
  double user_cpu_s = 0;
  double sys_cpu_s = 0;
  int passes = 0;
};

struct CpuTimes {
  double user_s = 0;
  double sys_s = 0;
};

CpuTimes ProcessCpu() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec / 1e6;
  };
  return {secs(usage.ru_utime), secs(usage.ru_stime)};
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

class Bench {
 public:
  Bench(const Args& args, const Workload& workload)
      : args_(args), w_(workload), rng_(args.seed) {
    inputs_ = MakeInputs(&rng_);
    for (const char* q : kQueries) {
      for (const char* s : kStrategies) {
        if (!w_.with_worst_order && std::strcmp(s, "worst-order") == 0) {
          continue;
        }
        pairs_.push_back({q, s});
      }
    }
  }

  int Run() {
    if (Status st = SetUp(); !st.ok()) {
      std::fprintf(stderr, "perfbench: setup failed: %s\n",
                   st.ToString().c_str());
      return 2;
    }
    if (Status st = WarmUp(); !st.ok()) {
      std::fprintf(stderr, "perfbench: warm-up failed: %s\n",
                   st.ToString().c_str());
      return 2;
    }
    Measure();
    PrintSummary();
    PrintResult();
    return failed_ == 0 ? 0 : 1;
  }

 private:
  Status SetUp() {
    DYNOPT_ASSIGN_OR_RETURN(setup_, LoadData(w_, inputs_));  // Untimed.
    std::vector<double> setup_s, tpch_s, tpcds_s;
    double total_s = 0;
    while (setup_s.size() < kMinSetups ||
           (total_s < kSetupSeconds && setup_s.size() < kMaxSetups)) {
      setup_.engine.reset();  // Never hold two copies of the data.
      const auto t0 = Clock::now();
      DYNOPT_ASSIGN_OR_RETURN(setup_, LoadData(w_, inputs_));
      setup_s.push_back(Seconds(t0, Clock::now()));
      total_s += setup_s.back();
      tpch_s.push_back(setup_.tpch_s);
      tpcds_s.push_back(setup_.tpcds_s);
    }
    setup_s_ = Median(setup_s);
    load_tpch_s_ = Median(tpch_s);
    load_tpcds_s_ = Median(tpcds_s);
    engine_ = setup_.engine.get();
    engine_->mutable_cluster().spill_directory = args_.spill_dir;
    for (const std::string& name : engine_->catalog().TableNames()) {
      base_tables_.insert(name);
    }
    std::fprintf(stderr,
                 "perfbench: %s seed=%llu sf=%.2f setup_s=%.3f "
                 "(q50 moy=%lld year=%lld)\n",
                 w_.name.c_str(), static_cast<unsigned long long>(args_.seed),
                 w_.generator_sf, setup_s_,
                 static_cast<long long>(inputs_.q50_moy),
                 static_cast<long long>(inputs_.q50_year));

    // Reference rows come from unlimited-budget dynamic runs, so the spill
    // workload is checked against rows that never touched the grace join.
    engine_->mutable_cluster().memory.join_memory_budget_bytes = 0;
    for (const char* q : kQueries) {
      Outcome out = RunQuery(engine_, {q, "dynamic"}, inputs_, nullptr);
      DYNOPT_RETURN_IF_ERROR(out.status);
      Reference& ref = references_[q];
      ref.columns = out.result.columns;
      ref.sorted_rows = std::move(out.result.rows);
      SortRows(&ref.sorted_rows);
    }
    engine_->mutable_cluster().memory.join_memory_budget_bytes =
        w_.join_budget_bytes;
    return Status::OK();
  }

  /// Untimed first pass. The dynamic run of each query supplies the
  /// best-order hint, so the hint's cost is never timed. This pass is also
  /// ~20-30% slower than the steady state (first-touch page faults,
  /// allocator growth, sketch-dynamic's one-off base sketches), which is
  /// why it is excluded.
  Status WarmUp() {
    const auto t0 = Clock::now();
    int spilled = 0;
    // pairs_ lists each query's dynamic run before its best-order run.
    for (const Pair& pair : pairs_) {
      Outcome out = RunQuery(engine_, pair, inputs_, hints_[pair.query]);
      DYNOPT_RETURN_IF_ERROR(out.status);
      if (pair.strategy == "dynamic") {
        hints_[pair.query] = out.result.join_tree;
      }
      if (out.result.metrics.spilled_bytes > 0) ++spilled;
      CheckOutcome(pair, out, /*timed=*/false);
    }
    CheckLeaks("warm-up");
    std::fprintf(stderr,
                 "perfbench: warm-up pass %.3f s, %d of %zu runs spilled\n",
                 Seconds(t0, Clock::now()), spilled, pairs_.size());
    return Status::OK();
  }

  void Measure() {
    const auto start = Clock::now();
    for (;;) {
      const double elapsed = Seconds(start, Clock::now());
      // A traced run ends after a traced pass, so both kinds ran equally.
      const bool done =
          args_.trace
              ? (elapsed >= args_.seconds && passes_ % 2 == 0 && passes_ > 0)
              : (elapsed >= args_.seconds &&
                 QuietQueryMs().size() >= kMinSamples);
      if (done) break;
      RunPass(/*traced=*/args_.trace && passes_ % 2 == 1);
    }
    measured_s_ = Seconds(start, Clock::now());
  }

  void RunPass(bool traced) {
    std::vector<Pair> order = pairs_;
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng_.NextUint64(i)]);
    }
    const CpuTimes cpu0 = ProcessCpu();
    const auto t0 = Clock::now();
    if (traced) {
      Tracer::Global().Drain();
      Tracer::Global().Enable();
    }
    for (const Pair& pair : order) {
      Outcome out = RunQuery(engine_, pair, inputs_, hints_[pair.query]);
      if (traced) {
        std::vector<TraceEvent> spans;
        if (out.status.ok() && out.result.profile != nullptr) {
          spans = std::move(out.result.profile->trace);
        }
        for (TraceEvent& e : Tracer::Global().Drain()) {
          spans.push_back(std::move(e));
        }
        AddTrace(spans, out.total_ms());
      }
      if (!CheckOutcome(pair, out, /*timed=*/true)) continue;
      if (passes_ == 0) first_pass_counts_.Add(out.result.metrics);
      if (traced) continue;
      const ExecMetrics& m = out.result.metrics;
      pair_ms_[Key(pair)].push_back(out.total_ms());
      wall_.queries += 1;
      wall_.parse_ms += out.parse_ms;
      wall_.bind_ms += out.bind_ms;
      wall_.run_ms += out.run_ms;
      wall_.shuffle_ms += m.wall_shuffle_seconds * 1e3;
      wall_.build_ms += m.wall_build_seconds * 1e3;
      wall_.probe_ms += m.wall_probe_seconds * 1e3;
      wall_.materialize_ms += m.wall_materialize_seconds * 1e3;
    }
    if (traced) {
      Tracer::Global().Disable();
      Tracer::Global().Drain();
    } else {
      const CpuTimes cpu1 = ProcessCpu();
      wall_.pass_wall_s += Seconds(t0, Clock::now());
      wall_.user_cpu_s += cpu1.user_s - cpu0.user_s;
      wall_.sys_cpu_s += cpu1.sys_s - cpu0.sys_s;
      wall_.passes += 1;
    }
    CheckLeaks(traced ? "traced pass" : "pass");
    ++passes_;
    std::fprintf(stderr, "perfbench: %s pass %d: %.3f s\n",
                 traced ? "traced" : "untraced", passes_,
                 Seconds(t0, Clock::now()));
  }

  void AddTrace(const std::vector<TraceEvent>& spans, double total_ms) {
    const std::vector<uint64_t> self = SelfTimes(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
      traced_layer_ms_[LayerOf(spans[i])] += static_cast<double>(self[i]) / 1e6;
      if (spans[i].name.rfind("bench:", 0) == 0) {
        traced_span_ms_ += static_cast<double>(spans[i].dur_ns) / 1e6;
      }
    }
    traced_total_ms_ += total_ms;
    traced_queries_ += 1;
  }

  static std::string Key(const Pair& p) { return p.query + "/" + p.strategy; }

  /// Rows equal the query's reference and, in timed passes, simulated
  /// seconds equal the pair's value in the first timed pass. (The warm-up
  /// pass is exempt: sketch-dynamic builds its engine-wide base sketches
  /// there once and is charged for them only on that first run.) Counts
  /// and reports a failure otherwise.
  bool CheckOutcome(const Pair& pair, const Outcome& out, bool timed) {
    attempted_ += 1;
    std::string why;
    if (!out.status.ok()) {
      why = out.status.ToString();
    } else {
      const Reference& ref = references_[pair.query];
      std::vector<Row> rows = out.result.rows;
      SortRows(&rows);
      if (out.result.columns != ref.columns || rows != ref.sorted_rows) {
        why = "rows differ from the unlimited-budget dynamic reference";
      } else if (timed) {
        const double sim = out.result.metrics.simulated_seconds;
        auto [it, first] = sim_s_.emplace(Key(pair), sim);
        if (!first && it->second != sim) {
          why = "simulated seconds differ from the first timed pass";
        }
      }
    }
    if (why.empty()) return true;
    failed_ += 1;
    std::fprintf(stderr, "perfbench: FAILED %s: %s\n", Key(pair).c_str(),
                 why.c_str());
    return false;
  }

  /// After every pass: no temp table may remain in the catalog and no
  /// spill file in the private spill directory. Each leak is a failure.
  void CheckLeaks(const char* when) {
    for (const std::string& name : engine_->catalog().TableNames()) {
      if (base_tables_.count(name) == 0) {
        failed_ += 1;
        std::fprintf(stderr, "perfbench: FAILED %s leaked table %s\n", when,
                     name.c_str());
      }
    }
    const int files = CountFilesWithPrefix(args_.spill_dir, "");
    if (files > 0) {
      failed_ += static_cast<uint64_t>(files);
      std::fprintf(stderr, "perfbench: FAILED %s leaked %d spill files\n",
                   when, files);
    }
  }

  /// The quieter half of each pair's untraced query times. Host CPU steal
  /// only ever adds time and hits passes in bursts, so trimming every pair
  /// against its own median keeps the mix of pairs intact while the
  /// end-to-end times move only when more than half of a pair's runs are
  /// disturbed. A code change that slows a pair on every run moves them
  /// fully.
  std::vector<double> QuietQueryMs() const {
    std::vector<std::vector<double>> groups;
    for (const auto& [key, ms] : pair_ms_) groups.push_back(ms);
    return QuietHalf(groups);
  }

  void PrintSummary() const {
    std::vector<double> all;
    for (const auto& [key, ms] : pair_ms_) {
      all.insert(all.end(), ms.begin(), ms.end());
    }
    const size_t quiet = QuietQueryMs().size();
    std::fprintf(stderr,
                 "perfbench: %zu timed queries in %.2f s (p50 of all %.3f "
                 "ms), %zu in the quiet halves; highest percentile with >= 10 "
                 "samples beyond it there: p%g\n",
                 all.size(), measured_s_, Median(all), quiet,
                 HighestSupportedPercentile(quiet));
    if (traced_queries_ > 0) {
      double layer_sum = 0;
      for (const auto& [layer, ms] : traced_layer_ms_) layer_sum += ms;
      std::fprintf(stderr,
                   "perfbench: traced %zu queries: layer self times sum to "
                   "%.3f ms, bench spans %.3f ms, outside timers %.3f ms\n",
                   traced_queries_, layer_sum, traced_span_ms_,
                   traced_total_ms_);
    }
  }

  void PrintResult() const {
    std::vector<std::pair<std::string, std::pair<double, const char*>>> m;
    auto add = [&m](const char* name, double value, const char* unit) {
      m.push_back({name, {value, unit}});
    };
    const PassCounts& c = first_pass_counts_;
    if (!args_.trace) {
      const std::vector<double> quiet = QuietQueryMs();
      double quiet_ms = 0;
      for (double ms : quiet) quiet_ms += ms;
      add("setup_s", setup_s_, "s");
      add("query_ms.p50", Median(quiet), "ms");
      add("query_ms.p90", Percentile(quiet, 90), "ms");
      add("queries_per_s",
          quiet_ms > 0 ? static_cast<double>(quiet.size()) / quiet_ms * 1e3
                       : 0,
          "1/s");
      add("sim_s_total", SimPassTotal(), "s");
      add("peak_rss_mb", PeakRssMb(), "MB");
    } else {
      // Means per untraced (q) and per traced (t) query.
      const double q = static_cast<double>(std::max<size_t>(wall_.queries, 1));
      const double t =
          static_cast<double>(std::max<size_t>(traced_queries_, 1));
      const double passes = std::max(wall_.passes, 1);
      add("sql.parse_ms", wall_.parse_ms / q, "ms");
      add("sql.bind_ms", wall_.bind_ms / q, "ms");
      add("workloads.load_tpch_s", load_tpch_s_, "s");
      add("workloads.load_tpcds_s", load_tpcds_s_, "s");
      add("opt.run_ms", wall_.run_ms / q, "ms");
      add("exec.shuffle_ms", wall_.shuffle_ms / q, "ms");
      add("exec.build_ms", wall_.build_ms / q, "ms");
      add("exec.probe_ms", wall_.probe_ms / q, "ms");
      add("exec.materialize_ms", wall_.materialize_ms / q, "ms");
      add("trace.query_ms", traced_total_ms_ / t, "ms");
      for (const std::string& layer : TracedLayers()) {
        auto it = traced_layer_ms_.find(layer);
        add(layer.c_str(), it == traced_layer_ms_.end() ? 0 : it->second / t,
            "ms");
      }
      const double untraced_ms = (wall_.parse_ms + wall_.bind_ms +
                                  wall_.run_ms) / q;
      add("trace.overhead_pct",
          untraced_ms > 0 ? (traced_total_ms_ / t / untraced_ms - 1) * 100 : 0,
          "%");
      add("opt.reopt_points", static_cast<double>(c.reopt_points), "count");
      add("opt.decisions", static_cast<double>(c.decisions), "count");
      add("exec.jobs", static_cast<double>(c.jobs), "count");
      add("exec.bytes_scanned", static_cast<double>(c.bytes_scanned), "B");
      add("exec.bytes_shuffled", static_cast<double>(c.bytes_shuffled), "B");
      add("exec.bytes_broadcast", static_cast<double>(c.bytes_broadcast), "B");
      add("exec.bytes_materialized", static_cast<double>(c.bytes_materialized),
          "B");
      add("exec.tuples_processed", static_cast<double>(c.tuples_processed),
          "count");
      add("exec.spilled_bytes", static_cast<double>(c.spilled_bytes), "B");
      add("exec.spill_partitions", static_cast<double>(c.spill_partitions),
          "count");
      add("exec.peak_memory_bytes", static_cast<double>(c.peak_memory_bytes),
          "B");
      add("stats.sim_s", c.stats_sim_s, "s");
      add("opt.sim_reopt_s", c.reopt_sim_s, "s");
      add("proc.user_cpu_s", wall_.user_cpu_s / passes, "s");
      add("proc.sys_cpu_s", wall_.sys_cpu_s / passes, "s");
      add("proc.cpu_per_wall",
          wall_.pass_wall_s > 0
              ? (wall_.user_cpu_s + wall_.sys_cpu_s) / wall_.pass_wall_s
              : 0,
          "ratio");
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                failed_ == 0 ? "true" : "false",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
    for (size_t i = 0; i < m.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m[i].first.c_str(), m[i].second.first,
                  m[i].second.second);
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

  double SimPassTotal() const {
    double total = 0;
    for (const auto& [key, sim] : sim_s_) total += sim;
    return total;
  }

  const Args args_;
  const Workload w_;
  Rng rng_;
  Inputs inputs_;
  std::vector<Pair> pairs_;
  Setup setup_;
  Engine* engine_ = nullptr;
  std::set<std::string> base_tables_;
  std::map<std::string, Reference> references_;
  std::map<std::string, std::shared_ptr<const JoinTree>> hints_;
  std::map<std::string, double> sim_s_;  ///< Per pair, first timed pass.

  double setup_s_ = 0;
  double load_tpch_s_ = 0;
  double load_tpcds_s_ = 0;
  double measured_s_ = 0;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  /// Untraced timed query wall times per (query, strategy) pair.
  std::map<std::string, std::vector<double>> pair_ms_;
  WallSums wall_;
  int passes_ = 0;
  PassCounts first_pass_counts_;  ///< Counts repeat; any pass would do.
  std::map<std::string, double> traced_layer_ms_;
  double traced_span_ms_ = 0;
  double traced_total_ms_ = 0;
  size_t traced_queries_ = 0;
};

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage(argv[0]);
  for (const Workload& w : kWorkloads) {
    if (w.name == args.workload) return Bench(args, w).Run();
  }
  std::fprintf(stderr, "perfbench: unknown workload %s\n",
               args.workload.c_str());
  return Usage(argv[0]);
}

}  // namespace
}  // namespace perfbench
}  // namespace dynopt

int main(int argc, char** argv) { return dynopt::perfbench::Main(argc, argv); }
