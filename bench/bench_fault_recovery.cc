// Recovery-cost benchmark for the fault-injection subsystem: how much does
// a mid-query node failure cost each of the six optimization strategies?
//
// Section A — single-failure stage sweep. For Q17 and Q9, a one-shot
// query-level failure is injected at sampled kernel stages across each
// strategy's execution. The strategy is re-driven to completion through
// RunWithRecovery (opt/recovery.h): the checkpointing strategies (dynamic,
// ingres-like) resume from their last materialization checkpoint, the four
// static strategies restart from scratch. Recovery cost is everything the
// cluster charged beyond the fault-free baseline. For the dynamic strategy
// the sweep additionally prices the hypothetical whole-query restart
// (checkpoint work thrown away + aborted partial work) and checks the
// paper's Section-8 claim: once the first checkpoint exists, resuming is
// strictly cheaper than restarting — and the gap grows with stage position.
//
// Section B — failure-rate sweep. Task failures, stragglers and temp-file
// corruption at rates {0, 0.02, 0.05, 0.1, 0.2} for all six strategies,
// recording simulated seconds, recovery seconds, retries and speculative
// executions per run (also fed through the bench harness's record JSON).
//
// Every run's result set is verified against the fault-free reference.
//
// Usage: bench_fault_recovery [--sf <paper_sf>] [--out <path>]
// Writes BENCH_fault.json.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "common/logging.h"
#include "opt/dynamic_optimizer.h"
#include "opt/recovery.h"
#include "opt/strategies.h"

namespace dynopt {
namespace bench {
namespace {

const char* const kFaultQueries[] = {"q17", "q9"};
const double kFailureRates[] = {0.0, 0.02, 0.05, 0.1, 0.2};

/// Fault-free reference for one query: the result set every faulted run
/// must still produce, and the dynamic join order used as the best-order
/// hint.
struct Reference {
  std::vector<std::string> columns;
  std::vector<Row> sorted_rows;
  std::shared_ptr<const JoinTree> tree;
};

/// Per (query, optimizer) fault-free costs.
struct Baseline {
  double sim_seconds = 0;
  int stages = 0;  ///< Kernel stages the strategy executes on this query.
};

void VerifyRows(const OptimizerRunResult& result, const Reference& reference,
                const std::string& context) {
  std::vector<Row> rows = result.rows;
  SortRows(&rows);
  if (rows != reference.sorted_rows || result.columns != reference.columns) {
    std::fprintf(stderr, "FATAL: %s diverged from fault-free reference\n",
                 context.c_str());
    std::abort();
  }
}

void Arm(Engine* engine, FaultInjectionConfig cfg) {
  cfg.enabled = true;
  engine->mutable_cluster().fault = cfg;
  engine->ArmFaultInjection();
}

/// Kernel stages `name` executes on `query`: a benign armed run (injector
/// on, every probability zero) counts them without perturbing anything.
int CountStages(Engine* engine, const std::string& name, const Reference& ref,
                const QuerySpec& query) {
  Arm(engine, FaultInjectionConfig());
  auto optimizer =
      MakeOptimizer(engine, name, PlannerOptions(), ref.tree).value();
  auto result = optimizer->Run(query);
  DYNOPT_CHECK(result.ok());
  const int stages = engine->fault_injector()->stages_started();
  engine->DisarmFaultInjection();
  return stages;
}

/// Up to `max_points` failure stages spread over [0, stages), always
/// including the first and last.
std::vector<int> SampleStages(int stages, int max_points) {
  std::set<int> picks;
  picks.insert(0);
  picks.insert(stages - 1);
  for (int i = 1; i < max_points - 1; ++i) {
    picks.insert(i * (stages - 1) / (max_points - 1));
  }
  return std::vector<int>(picks.begin(), picks.end());
}

struct SingleFailureRow {
  std::string query;
  std::string optimizer;
  int fail_at_stage = 0;
  int stages = 0;
  int resumes = 0;
  int restarts = 0;
  double wasted_seconds = 0;
  double total_paid_seconds = 0;
  double recovery_cost_seconds = 0;
  /// Dynamic strategy only: what the same failure would cost without the
  /// checkpoint (work accumulated at the checkpoint, thrown away, plus the
  /// aborted partial stage). Negative when not measured.
  double restart_cost_seconds = -1;
  double checkpoint_carried_seconds = -1;
};

struct RateSweepRow {
  std::string query;
  std::string optimizer;
  double rate = 0;
  int resumes = 0;
  int restarts = 0;
  double sim_seconds = 0;
  double recovery_seconds = 0;
  double wasted_seconds = 0;
  double total_paid_seconds = 0;
  uint64_t num_retries = 0;
  uint64_t speculative_executions = 0;
  uint64_t corrupted_blocks = 0;
};

/// Section-A measurement for the dynamic strategy: drive the failure by
/// hand so the discarded-work ledger and the cut checkpoint are observable,
/// then resume. Returns the row and enforces the resume-beats-restart
/// invariant once a checkpoint exists.
SingleFailureRow MeasureDynamicFailure(Engine* engine, const Reference& ref,
                                       const QuerySpec& query,
                                       const std::string& query_name,
                                       const Baseline& baseline, int fail_at) {
  FaultInjectionConfig cfg;
  cfg.fail_query_at_stage = fail_at;
  Arm(engine, cfg);

  DynamicOptimizer optimizer(engine);
  auto failed = optimizer.Run(query);
  DYNOPT_CHECK(!failed.ok());
  DYNOPT_CHECK(failed.status().retryable());
  DYNOPT_CHECK(optimizer.CanResume());
  const double wasted = engine->fault_injector()->aborted_work_seconds();
  const double carried =
      optimizer.last_checkpoint()->metrics.simulated_seconds;

  auto resumed = optimizer.ResumeFromLastCheckpoint();
  int guard = 0;
  while (!resumed.ok() && resumed.status().retryable() &&
         optimizer.CanResume() && ++guard < 8) {
    resumed = optimizer.ResumeFromLastCheckpoint();
  }
  DYNOPT_CHECK(resumed.ok());
  engine->DisarmFaultInjection();
  VerifyRows(resumed.value(), ref,
             "dynamic resume " + query_name + " fail_at=" +
                 std::to_string(fail_at));

  SingleFailureRow row;
  row.query = query_name;
  row.optimizer = "dynamic";
  row.fail_at_stage = fail_at;
  row.stages = baseline.stages;
  row.resumes = 1;
  row.wasted_seconds = wasted;
  row.total_paid_seconds = resumed->metrics.simulated_seconds + wasted;
  row.recovery_cost_seconds = row.total_paid_seconds - baseline.sim_seconds;
  // A restart re-pays the checkpointed prefix on top of losing the aborted
  // partial stage; resuming only loses the partial stage.
  row.restart_cost_seconds = carried + wasted;
  row.checkpoint_carried_seconds = carried;
  if (carried > 0) {
    DYNOPT_CHECK(row.recovery_cost_seconds < row.restart_cost_seconds);
  }
  return row;
}

SingleFailureRow MeasureRecoveredFailure(Engine* engine, const Reference& ref,
                                         const QuerySpec& query,
                                         const std::string& query_name,
                                         const std::string& name,
                                         const Baseline& baseline,
                                         int fail_at) {
  FaultInjectionConfig cfg;
  cfg.fail_query_at_stage = fail_at;
  Arm(engine, cfg);

  auto optimizer =
      MakeOptimizer(engine, name, PlannerOptions(), ref.tree).value();
  RecoveryReport report;
  auto result = RunWithRecovery(optimizer.get(), engine, query,
                                RecoveryPolicy(), &report);
  DYNOPT_CHECK(result.ok());
  engine->DisarmFaultInjection();
  VerifyRows(result.value(), ref,
             name + " " + query_name + " fail_at=" + std::to_string(fail_at));

  SingleFailureRow row;
  row.query = query_name;
  row.optimizer = name;
  row.fail_at_stage = fail_at;
  row.stages = baseline.stages;
  row.resumes = report.resumes;
  row.restarts = report.restarts;
  row.wasted_seconds = report.wasted_seconds;
  row.total_paid_seconds = report.total_paid_seconds;
  row.recovery_cost_seconds = report.total_paid_seconds - baseline.sim_seconds;
  return row;
}

RateSweepRow MeasureRate(Engine* engine, const Reference& ref,
                         const QuerySpec& query,
                         const std::string& query_name,
                         const std::string& name, int paper_sf, double rate) {
  FaultInjectionConfig cfg;
  cfg.seed = 0xfa017 + static_cast<uint64_t>(rate * 1000);
  cfg.task_failure_probability = rate;
  cfg.straggler_probability = rate;
  cfg.straggler_multiplier = 4.0;
  cfg.corruption_probability = rate / 2;
  // High rates need headroom before a task retry budget (or repeated
  // re-materialization) escalates to a fatal error.
  cfg.backoff.max_attempts = 6;
  engine->mutable_cluster().materialize_to_disk = rate > 0;
  Arm(engine, cfg);

  auto optimizer =
      MakeOptimizer(engine, name, PlannerOptions(), ref.tree).value();
  RecoveryReport report;
  auto result = RunWithRecovery(optimizer.get(), engine, query,
                                RecoveryPolicy(), &report);
  DYNOPT_CHECK(result.ok());
  engine->DisarmFaultInjection();
  engine->mutable_cluster().materialize_to_disk = false;
  VerifyRows(result.value(), ref,
             name + " " + query_name + " rate=" + std::to_string(rate));

  RateSweepRow row;
  row.query = query_name;
  row.optimizer = name;
  row.rate = rate;
  row.resumes = report.resumes;
  row.restarts = report.restarts;
  row.sim_seconds = result->metrics.simulated_seconds;
  row.recovery_seconds = result->metrics.recovery_seconds;
  row.wasted_seconds = report.wasted_seconds;
  row.total_paid_seconds = report.total_paid_seconds;
  row.num_retries = result->metrics.num_retries;
  row.speculative_executions = result->metrics.speculative_executions;
  row.corrupted_blocks = result->metrics.corrupted_blocks;

  // Also surface the run through the shared harness records so the fault
  // counters flow into the generic records JSON.
  AddRecord(MakeRecord("fault@" + std::to_string(rate), query_name, paper_sf,
                       name, *result));
  return row;
}

int Main(int argc, char** argv) {
  int paper_sf = 10;
  std::string out_path = "BENCH_fault.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--sf") == 0 && i + 1 < argc) {
      paper_sf = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--sf <paper_sf>] [--out <path>]\n",
                   argv[0]);
      return 2;
    }
  }

  Engine* engine = GetEngine(paper_sf, /*with_indexes=*/false);
  std::printf("=== bench_fault_recovery: paper_sf=%d (generator sf %.2f) ===\n",
              paper_sf, GeneratorSfForPaperSf(paper_sf));

  std::vector<SingleFailureRow> single_rows;
  std::vector<RateSweepRow> rate_rows;
  std::ostringstream baselines_json;
  baselines_json << "[";
  bool first_baseline = true;

  for (const char* query_name : kFaultQueries) {
    auto query_or = GetQuery(engine, query_name);
    DYNOPT_CHECK(query_or.ok());
    const QuerySpec query = query_or.value();

    // Fault-free reference (dynamic) + per-strategy baselines.
    Reference ref;
    Baseline baselines[6];
    for (size_t o = 0; o < 6; ++o) {
      const std::string name = kOptimizers[o];
      auto optimizer =
          MakeOptimizer(engine, name, PlannerOptions(), ref.tree).value();
      auto result = optimizer->Run(query);
      DYNOPT_CHECK(result.ok());
      if (name == "dynamic") {
        ref.columns = result->columns;
        ref.sorted_rows = result->rows;
        SortRows(&ref.sorted_rows);
        ref.tree = result->join_tree;
      } else {
        VerifyRows(result.value(), ref, name + " fault-free baseline");
      }
      baselines[o].sim_seconds = result->metrics.simulated_seconds;
      baselines[o].stages = CountStages(engine, name, ref, query);
      baselines_json << (first_baseline ? "\n" : ",\n") << "    {\"query\": \""
                     << query_name << "\", \"optimizer\": \"" << name
                     << "\", \"sim_seconds\": " << baselines[o].sim_seconds
                     << ", \"stages\": " << baselines[o].stages << "}";
      first_baseline = false;
    }

    // Section A: one injected node failure per sampled stage.
    std::printf("\n-- %s: single-failure recovery cost (simulated seconds "
                "over the fault-free baseline) --\n",
                query_name);
    for (size_t o = 0; o < 6; ++o) {
      const std::string name = kOptimizers[o];
      for (int fail_at : SampleStages(baselines[o].stages, 6)) {
        SingleFailureRow row =
            name == "dynamic"
                ? MeasureDynamicFailure(engine, ref, query, query_name,
                                        baselines[o], fail_at)
                : MeasureRecoveredFailure(engine, ref, query, query_name,
                                          name, baselines[o], fail_at);
        if (row.restart_cost_seconds >= 0) {
          std::printf("%-12s fail@%3d/%3d  recovery=%9.3fs  (restart would "
                      "cost %9.3fs; checkpoint carried %9.3fs)\n",
                      name.c_str(), row.fail_at_stage, row.stages,
                      row.recovery_cost_seconds, row.restart_cost_seconds,
                      row.checkpoint_carried_seconds);
        } else {
          std::printf("%-12s fail@%3d/%3d  recovery=%9.3fs  (%s)\n",
                      name.c_str(), row.fail_at_stage, row.stages,
                      row.recovery_cost_seconds,
                      row.resumes > 0 ? "resumed" : "restarted");
        }
        single_rows.push_back(std::move(row));
      }
    }

    // Section B: failure-rate sweep.
    std::printf("\n-- %s: failure-rate sweep --\n", query_name);
    for (double rate : kFailureRates) {
      for (size_t o = 0; o < 6; ++o) {
        RateSweepRow row = MeasureRate(engine, ref, query, query_name,
                                       kOptimizers[o], paper_sf, rate);
        std::printf("%-12s rate=%.2f  sim=%9.3fs  recovery=%8.3fs  "
                    "retries=%4llu  speculative=%3llu  corrupted=%3llu  "
                    "restarts=%d resumes=%d\n",
                    row.optimizer.c_str(), rate, row.sim_seconds,
                    row.recovery_seconds,
                    static_cast<unsigned long long>(row.num_retries),
                    static_cast<unsigned long long>(
                        row.speculative_executions),
                    static_cast<unsigned long long>(row.corrupted_blocks),
                    row.restarts, row.resumes);
        rate_rows.push_back(std::move(row));
      }
    }
  }
  baselines_json << "\n  ]";

  std::ofstream json(out_path);
  json << "{\n"
       << "  \"benchmark\": \"fault_recovery\",\n"
       << "  \"paper_sf\": " << paper_sf << ",\n"
       << "  \"generator_sf\": " << GeneratorSfForPaperSf(paper_sf) << ",\n"
       << "  \"baselines\": " << baselines_json.str() << ",\n"
       << "  \"single_failure_sweep\": [";
  for (size_t i = 0; i < single_rows.size(); ++i) {
    const SingleFailureRow& r = single_rows[i];
    json << (i == 0 ? "\n" : ",\n") << "    {\"query\": \"" << r.query
         << "\", \"optimizer\": \"" << r.optimizer
         << "\", \"fail_at_stage\": " << r.fail_at_stage
         << ", \"stages\": " << r.stages << ", \"resumes\": " << r.resumes
         << ", \"restarts\": " << r.restarts
         << ", \"wasted_seconds\": " << r.wasted_seconds
         << ", \"total_paid_seconds\": " << r.total_paid_seconds
         << ", \"recovery_cost_seconds\": " << r.recovery_cost_seconds;
    if (r.restart_cost_seconds >= 0) {
      json << ", \"restart_cost_seconds\": " << r.restart_cost_seconds
           << ", \"checkpoint_carried_seconds\": "
           << r.checkpoint_carried_seconds;
    }
    json << "}";
  }
  json << "\n  ],\n  \"failure_rate_sweep\": [";
  for (size_t i = 0; i < rate_rows.size(); ++i) {
    const RateSweepRow& r = rate_rows[i];
    json << (i == 0 ? "\n" : ",\n") << "    {\"query\": \"" << r.query
         << "\", \"optimizer\": \"" << r.optimizer << "\", \"rate\": "
         << r.rate << ", \"resumes\": " << r.resumes << ", \"restarts\": "
         << r.restarts << ", \"sim_seconds\": " << r.sim_seconds
         << ", \"recovery_seconds\": " << r.recovery_seconds
         << ", \"wasted_seconds\": " << r.wasted_seconds
         << ", \"total_paid_seconds\": " << r.total_paid_seconds
         << ", \"num_retries\": " << r.num_retries
         << ", \"speculative_executions\": " << r.speculative_executions
         << ", \"corrupted_blocks\": " << r.corrupted_blocks << "}";
  }
  json << "\n  ],\n  \"records\": " << RecordsToJson() << "\n}\n";
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace dynopt

int main(int argc, char** argv) { return dynopt::bench::Main(argc, argv); }
