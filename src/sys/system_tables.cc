#include "sys/system_tables.h"

#include <algorithm>
#include <utility>

#include "common/metrics_registry.h"
#include "common/query_context.h"
#include "exec/engine.h"
#include "opt/error_stats.h"
#include "opt/profile_archive.h"
#include "storage/schema.h"
#include "storage/table.h"

namespace dynopt {

namespace {

Value I(uint64_t v) { return Value(static_cast<int64_t>(v)); }
Value I(int64_t v) { return Value(v); }
Value I(int v) { return Value(static_cast<int64_t>(v)); }
Value D(double v) { return Value(v); }
Value S(std::string v) { return Value(std::move(v)); }
Value B(bool v) { return Value(v); }

/// Every sys table is one in-memory partition: the rows already live on
/// this node (they are snapshots of coordinator state), and a single
/// partition keeps scans deterministic.
std::shared_ptr<Table> MakeTable(const std::string& name,
                                 std::vector<Field> fields) {
  return std::make_shared<Table>(name, Schema(std::move(fields)), 1);
}

Result<std::shared_ptr<Table>> BuildMetrics(Engine* engine) {
  auto table = MakeTable("sys.metrics", {{"kind", ValueType::kString},
                                         {"name", ValueType::kString},
                                         {"value", ValueType::kInt64},
                                         {"sum", ValueType::kInt64},
                                         {"p50", ValueType::kInt64},
                                         {"p90", ValueType::kInt64},
                                         {"p99", ValueType::kInt64}});
  for (const MetricSample& m : engine->metrics_registry().Samples()) {
    DYNOPT_RETURN_IF_ERROR(
        table->AppendRow({S(m.kind), S(m.name), I(m.value), I(m.sum), I(m.p50),
                          I(m.p90), I(m.p99)}));
  }
  return table;
}

/// An ExecMetrics field as a sys column value: counts as kInt64, seconds
/// and ratios as kDouble.
Value MetricValue(double v) { return D(v); }
template <typename T>
Value MetricValue(T v) {
  return I(v);
}

Status AppendQueryRow(Table* table, const ArchivedQuery& q,
                      const std::string& status) {
  Row row = {I(q.query_id), S(q.label), S(q.optimizer), S(status),
             S(q.priority), D(q.queue_wait_seconds), D(q.wall_seconds),
             S(q.fingerprint), S(q.critical_path), B(q.regressed),
             S(q.regression)};
  VisitMetricFields(
      [&](const MetricField&, auto v) { row.push_back(MetricValue(v)); },
      q.metrics);
  return table->AppendRow(row);
}

Result<std::shared_ptr<Table>> BuildQueries(Engine* engine) {
  // Identity columns, then one column per ExecMetrics field.
  std::vector<Field> fields = {{"query_id", ValueType::kInt64},
                               {"label", ValueType::kString},
                               {"strategy", ValueType::kString},
                               {"status", ValueType::kString},
                               {"priority", ValueType::kString},
                               {"queue_wait_seconds", ValueType::kDouble},
                               {"wall_seconds", ValueType::kDouble},
                               {"fingerprint", ValueType::kString},
                               {"critical_path", ValueType::kString},
                               {"regressed", ValueType::kBool},
                               {"regression", ValueType::kString}};
  VisitMetricFields(
      [&](const MetricField& field, auto v) {
        fields.push_back({field.name, MetricValue(v).type()});
      },
      ExecMetrics());
  auto table = MakeTable("sys.queries", std::move(fields));
  ProfileArchive* archive = EngineProfileArchive(engine);
  if (archive == nullptr) return table;  // Introspection off: empty table.
  for (const ActiveQueryInfo& a : archive->ActiveSnapshot()) {
    ArchivedQuery q;
    q.query_id = a.query_id;
    q.label = a.label;
    q.optimizer = a.optimizer;
    q.fingerprint = a.fingerprint;
    q.priority = a.priority;
    DYNOPT_RETURN_IF_ERROR(AppendQueryRow(table.get(), q, "running"));
  }
  for (const ArchivedQuery& q : archive->Snapshot()) {
    DYNOPT_RETURN_IF_ERROR(AppendQueryRow(table.get(), q, "completed"));
  }
  return table;
}

Result<std::shared_ptr<Table>> BuildAdmission(Engine* engine) {
  auto table =
      MakeTable("sys.admission", {{"priority", ValueType::kString},
                                  {"queued", ValueType::kInt64},
                                  {"running", ValueType::kInt64},
                                  {"admitted", ValueType::kInt64},
                                  {"shed", ValueType::kInt64},
                                  {"rejected", ValueType::kInt64},
                                  {"timeouts", ValueType::kInt64},
                                  {"degraded_memory", ValueType::kInt64},
                                  {"degraded_strategy", ValueType::kInt64}});
  AdmissionController& ac = engine->admission();
  MetricsRegistry& reg = engine->metrics_registry();
  // Queue depth is per class; running and the lifetime counters are
  // engine-wide and repeat on every row (one row per priority class).
  for (int p = kNumQueryPriorities - 1; p >= 0; --p) {
    const auto prio = static_cast<QueryPriority>(p);
    DYNOPT_RETURN_IF_ERROR(table->AppendRow(
        {S(QueryPriorityName(prio)), I(ac.queued_in_class(prio)),
         I(ac.running()), I(reg.counter("admission.admitted")->value()),
         I(reg.counter("admission.shed")->value()),
         I(reg.counter("admission.rejected")->value()),
         I(reg.counter("admission.timeouts")->value()),
         I(reg.counter("admission.degraded_memory")->value()),
         I(reg.counter("admission.degraded_strategy")->value())}));
  }
  return table;
}

Result<std::shared_ptr<Table>> BuildMemory(Engine* engine) {
  auto table = MakeTable("sys.memory", {{"label", ValueType::kString},
                                        {"depth", ValueType::kInt64},
                                        {"parent", ValueType::kString},
                                        {"used_bytes", ValueType::kInt64},
                                        {"peak_bytes", ValueType::kInt64},
                                        {"budget_bytes", ValueType::kInt64}});
  Status status;
  engine->memory().VisitTree([&](const MemoryTracker& t, int depth) {
    if (!status.ok()) return;
    status = table->AppendRow(
        {S(t.label()), I(depth),
         S(t.parent() != nullptr ? t.parent()->label() : std::string()),
         I(t.used()), I(t.peak()), I(t.budget())});
  });
  DYNOPT_RETURN_IF_ERROR(status);
  return table;
}

Result<std::shared_ptr<Table>> BuildErrorStats(Engine* engine) {
  auto table = MakeTable("sys.error_stats", {{"key", ValueType::kString},
                                             {"count", ValueType::kInt64},
                                             {"geo_mean_q", ValueType::kDouble},
                                             {"max_q", ValueType::kDouble}});
  ErrorStatsStore* store = EngineErrorStats(engine);
  if (store == nullptr) return table;  // risk.use_error_store off: empty.
  for (const auto& [key, e] : store->Entries()) {
    DYNOPT_RETURN_IF_ERROR(
        table->AppendRow({S(key), I(e.count), D(e.GeoMeanQ()), D(e.max_q)}));
  }
  return table;
}

Result<std::shared_ptr<Table>> BuildSketches(Engine* engine) {
  auto table =
      MakeTable("sys.sketches", {{"table_name", ValueType::kString},
                                 {"column_name", ValueType::kString},
                                 {"rows", ValueType::kInt64},
                                 {"null_keys", ValueType::kInt64},
                                 {"bloom_bytes", ValueType::kInt64},
                                 {"agms_depth", ValueType::kInt64},
                                 {"agms_width", ValueType::kInt64}});
  SketchManager& sketches = engine->sketches();
  std::vector<std::string> keys = sketches.Keys();
  std::sort(keys.begin(), keys.end());
  for (const std::string& key : keys) {
    const size_t bar = key.find('|');
    if (bar == std::string::npos) continue;
    const std::string tbl = key.substr(0, bar);
    const std::string col = key.substr(bar + 1);
    auto sk = sketches.Get(tbl, col);
    if (sk == nullptr) continue;  // Removed since Keys(); skip.
    DYNOPT_RETURN_IF_ERROR(
        table->AppendRow({S(tbl), S(col), I(sk->rows), I(sk->null_keys),
                          I(sk->bloom.SizeBytes()), I(sk->agms.depth()),
                          I(sk->agms.width())}));
  }
  return table;
}

Result<std::shared_ptr<Table>> BuildDecisions(Engine* engine) {
  auto table =
      MakeTable("sys.decisions", {{"query_id", ValueType::kInt64},
                                  {"decision_id", ValueType::kInt64},
                                  {"point", ValueType::kString},
                                  {"chosen", ValueType::kString},
                                  {"estimated_rows", ValueType::kDouble},
                                  {"actual_rows", ValueType::kDouble},
                                  {"q_error", ValueType::kDouble},
                                  {"est_src", ValueType::kString},
                                  {"prior_key", ValueType::kString},
                                  {"prior_factor", ValueType::kDouble},
                                  {"diverged", ValueType::kBool}});
  ProfileArchive* archive = EngineProfileArchive(engine);
  if (archive == nullptr) return table;
  for (const ArchivedQuery& q : archive->Snapshot()) {
    if (q.profile == nullptr) continue;
    for (const PlanDecision& d : q.profile->decisions.decisions()) {
      DYNOPT_RETURN_IF_ERROR(table->AppendRow(
          {I(q.query_id), I(d.id), S(d.point), S(d.chosen),
           D(d.estimated_rows), D(d.actual_rows), D(d.QError()),
           S(d.provenance), S(d.prior_key), D(d.prior_factor),
           B(q.regressed && d.id == q.first_divergent_index)}));
    }
  }
  return table;
}

/// Catalog hook resolving sys.* names against the owning engine's live
/// state. Stateless beyond the engine pointer; a fresh snapshot per scan.
class EngineSystemTableProvider : public SystemTableProvider {
 public:
  explicit EngineSystemTableProvider(Engine* engine) : engine_(engine) {}

  bool Handles(const std::string& name) const override {
    const auto names = SystemTableNames();
    return std::find(names.begin(), names.end(), name) != names.end();
  }

  Result<std::shared_ptr<Table>> Materialize(
      const std::string& name) const override {
    return MaterializeSystemTable(engine_, name);
  }

  std::vector<std::string> Names() const override {
    return SystemTableNames();
  }

 private:
  Engine* engine_;  ///< Borrowed; the engine owns the catalog owning us.
};

}  // namespace

std::vector<std::string> SystemTableNames() {
  return {"sys.metrics",     "sys.queries",  "sys.admission", "sys.memory",
          "sys.error_stats", "sys.sketches", "sys.decisions"};
}

Result<std::shared_ptr<Table>> MaterializeSystemTable(Engine* engine,
                                                      const std::string& name) {
  if (engine == nullptr) {
    return Status::Internal("system tables need an engine");
  }
  if (name == "sys.metrics") return BuildMetrics(engine);
  if (name == "sys.queries") return BuildQueries(engine);
  if (name == "sys.admission") return BuildAdmission(engine);
  if (name == "sys.memory") return BuildMemory(engine);
  if (name == "sys.error_stats") return BuildErrorStats(engine);
  if (name == "sys.sketches") return BuildSketches(engine);
  if (name == "sys.decisions") return BuildDecisions(engine);
  return Status::NotFound("unknown system table " + name);
}

void InstallSystemTables(Engine* engine) {
  engine->catalog().SetSystemTableProvider(
      std::make_shared<EngineSystemTableProvider>(engine));
}

void EnableIntrospection(Engine* engine) {
  engine->mutable_cluster().introspection.enabled = true;
  InstallSystemTables(engine);
}

}  // namespace dynopt
