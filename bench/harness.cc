#include "bench/harness.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>

#include "common/logging.h"
#include "opt/strategies.h"
#include "workloads/tpcds.h"
#include "workloads/tpch.h"

namespace dynopt {
namespace bench {

double GeneratorSfForPaperSf(int paper_sf) {
  switch (paper_sf) {
    case 10:
      return 0.5;
    case 100:
      return 2.0;
    case 1000:
      return 8.0;
    default:
      return paper_sf / 100.0;
  }
}

namespace {

struct EngineCacheKey {
  int paper_sf;
  bool with_indexes;
  bool operator<(const EngineCacheKey& other) const {
    return paper_sf != other.paper_sf ? paper_sf < other.paper_sf
                                      : with_indexes < other.with_indexes;
  }
};

std::map<EngineCacheKey, std::unique_ptr<Engine>>& EngineCache() {
  static auto* cache = new std::map<EngineCacheKey, std::unique_ptr<Engine>>();
  return *cache;
}

/// Cache of the dynamic optimizer's discovered plan, used as the
/// best-order hint (the paper's "user knows the optimal order" setting).
std::map<std::string, std::shared_ptr<const JoinTree>>& HintCache() {
  static auto* cache =
      new std::map<std::string, std::shared_ptr<const JoinTree>>();
  return *cache;
}

std::vector<Record>& MutableRecords() {
  static auto* records = new std::vector<Record>();
  return *records;
}

std::mutex g_mutex;

}  // namespace

Engine* GetEngine(int paper_sf, bool with_indexes) {
  std::lock_guard<std::mutex> lock(g_mutex);
  EngineCacheKey key{paper_sf, with_indexes};
  auto it = EngineCache().find(key);
  if (it != EngineCache().end()) return it->second.get();

  auto engine = std::make_unique<Engine>();
  double sf = GeneratorSfForPaperSf(paper_sf);
  TpchOptions tpch;
  tpch.sf = sf;
  DYNOPT_CHECK(LoadTpch(engine.get(), tpch).ok());
  TpcdsOptions tpcds;
  tpcds.sf = sf;
  DYNOPT_CHECK(LoadTpcds(engine.get(), tpcds).ok());
  if (with_indexes) {
    DYNOPT_CHECK(CreateTpchIndexes(engine.get()).ok());
    DYNOPT_CHECK(CreateTpcdsIndexes(engine.get()).ok());
  }
  Engine* raw = engine.get();
  EngineCache()[key] = std::move(engine);
  return raw;
}

Result<QuerySpec> GetQuery(Engine* engine, const std::string& query) {
  if (query == "q17") return TpcdsQ17(engine);
  if (query == "q50") return TpcdsQ50(engine, 9, 1999);
  if (query == "q8") return TpchQ8(engine);
  if (query == "q9") return TpchQ9(engine);
  return Status::InvalidArgument("unknown query " + query);
}

Result<OptimizerRunResult> RunStrategy(Engine* engine, int paper_sf,
                                       const std::string& optimizer_name,
                                       const std::string& query,
                                       bool enable_inlj) {
  DYNOPT_ASSIGN_OR_RETURN(QuerySpec spec, GetQuery(engine, query));
  PlannerOptions planner;
  planner.enable_inlj = enable_inlj;

  const std::string hint_key = query + "/" + std::to_string(paper_sf) + "/" +
                               (enable_inlj ? "inlj" : "plain");
  std::shared_ptr<const JoinTree> hint;
  if (optimizer_name == "best-order") {
    {
      std::lock_guard<std::mutex> lock(g_mutex);
      auto it = HintCache().find(hint_key);
      if (it != HintCache().end()) hint = it->second;
    }
    if (hint == nullptr) {
      // The "user" learns the optimal order from a dynamic run first.
      DYNOPT_ASSIGN_OR_RETURN(OptimizerRunResult dyn,
                              RunStrategy(engine, paper_sf, "dynamic", query,
                                          enable_inlj));
      hint = dyn.join_tree;
    }
  }
  DYNOPT_ASSIGN_OR_RETURN(
      std::unique_ptr<Optimizer> optimizer,
      MakeOptimizer(engine, optimizer_name, planner, std::move(hint)));
  auto result = optimizer->Run(spec);
  if (optimizer_name == "dynamic" && result.ok()) {
    std::lock_guard<std::mutex> lock(g_mutex);
    HintCache()[hint_key] = result->join_tree;
  }
  return result;
}

Record MakeRecord(std::string figure, std::string query, int paper_sf,
                  std::string optimizer, const OptimizerRunResult& result) {
  Record record;
  record.figure = std::move(figure);
  record.query = std::move(query);
  record.paper_sf = paper_sf;
  record.optimizer = std::move(optimizer);
  record.metrics = result.metrics;
  record.wall_seconds = result.wall_seconds;
  record.rows = result.rows.size();
  if (result.join_tree != nullptr) record.plan = result.join_tree->ToString();
  if (result.profile != nullptr) {
    for (const auto& d : result.profile->decisions.decisions()) {
      const double q = d.QError();
      if (q < 1.0) continue;
      uint64_t v = static_cast<uint64_t>(std::llround(q));
      size_t bucket = 0;
      while (v > 1 && bucket + 1 < record.q_error_log2.size()) {
        v >>= 1;
        ++bucket;
      }
      ++record.q_error_log2[bucket];
    }
  }
  return record;
}

void AddRecord(Record record) {
  std::lock_guard<std::mutex> lock(g_mutex);
  MutableRecords().push_back(std::move(record));
}

const std::vector<Record>& Records() { return MutableRecords(); }

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

}  // namespace

std::string RecordsToJson() {
  std::ostringstream os;
  os << "[";
  bool first = true;
  for (const auto& r : Records()) {
    os << (first ? "\n" : ",\n") << "    {"
       << "\"figure\": \"" << JsonEscape(r.figure) << "\", "
       << "\"query\": \"" << JsonEscape(r.query) << "\", "
       << "\"paper_sf\": " << r.paper_sf << ", "
       << "\"optimizer\": \"" << JsonEscape(r.optimizer) << "\", "
       << "\"wall_seconds\": " << r.wall_seconds << ", ";
    VisitMetricFields(
        [&](const MetricField& field, const auto& value) {
          os << "\"" << field.name << "\": " << value << ", ";
        },
        r.metrics);
    os << "\"q_error_log2\": [";
    for (size_t i = 0; i < r.q_error_log2.size(); ++i) {
      os << (i == 0 ? "" : ", ") << r.q_error_log2[i];
    }
    os << "], "
       << "\"rows\": " << r.rows << ", "
       << "\"plan\": \"" << JsonEscape(r.plan) << "\"}";
    first = false;
  }
  os << "\n  ]";
  return os.str();
}

bool WriteRecordsJson(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\n  \"records\": " << RecordsToJson() << "\n}\n";
  return static_cast<bool>(out);
}

void PrintFigureTable(const std::string& figure) {
  const auto& records = Records();
  std::set<int> sfs;
  std::set<std::string> optimizers;
  for (const auto& r : records) {
    if (r.figure != figure) continue;
    sfs.insert(r.paper_sf);
    optimizers.insert(r.optimizer);
  }
  if (sfs.empty()) return;
  std::printf("\n=== %s: simulated execution seconds ===\n", figure.c_str());
  for (int sf : sfs) {
    std::printf("\n-- scale factor %d --\n%-6s", sf, "query");
    std::vector<std::string> cols;
    for (const char* name : kOptimizers) {
      if (optimizers.count(name)) cols.push_back(name);
    }
    for (const auto& c : cols) std::printf(" %12s", c.c_str());
    std::printf("\n");
    for (const char* query : kQueries) {
      std::printf("%-6s", query);
      for (const auto& opt : cols) {
        double value = -1;
        for (const auto& r : records) {
          if (r.figure == figure && r.paper_sf == sf && r.query == query &&
              r.optimizer == opt) {
            value = r.metrics.simulated_seconds;
          }
        }
        if (value < 0) {
          std::printf(" %12s", "-");
        } else {
          std::printf(" %12.2f", value);
        }
      }
      std::printf("\n");
    }
  }
  // Plans, like the paper's appendix.
  std::printf("\n-- plans --\n");
  for (const auto& r : records) {
    if (r.figure != figure || r.plan.empty()) continue;
    std::printf("%s sf=%d %s: %s\n", r.query.c_str(), r.paper_sf,
                r.optimizer.c_str(), r.plan.c_str());
  }
  // Host wall-clock spent inside each physical operator class — the real
  // execution cost, orthogonal to the simulated seconds plotted above: every
  // wall_* field of the metric list, in list order. wall_stats_seconds is
  // the statistics part of materialize, so it reads materialize.stats.
  auto wall_breakdown = [](const ExecMetrics& m, bool* any) {
    std::string line;
    VisitMetricFields(
        [&](const MetricField& field, const auto& value) {
          std::string name = field.name;
          if (name.rfind("wall_", 0) != 0) return;
          name.erase(0, 5);
          const size_t suffix = name.rfind("_seconds");
          if (suffix != std::string::npos) name.erase(suffix);
          if (name == "stats") name = "materialize.stats";
          const double seconds = static_cast<double>(value);
          if (seconds > 0) *any = true;
          char cell[64];
          std::snprintf(cell, sizeof(cell), "%s=%.4f ", name.c_str(), seconds);
          line += cell;
        },
        m);
    return line;
  };
  bool any_wall = false;
  std::vector<std::string> lines;
  for (const auto& r : records) {
    if (r.figure != figure) continue;
    char total[64];
    std::snprintf(total, sizeof(total), "wall_total=%.4f", r.wall_seconds);
    lines.push_back(r.query + " sf=" + std::to_string(r.paper_sf) + " " +
                    r.optimizer + ": " + wall_breakdown(r.metrics, &any_wall) +
                    total);
  }
  if (any_wall) {
    std::printf("\n-- wall-clock kernel breakdown (host seconds) --\n");
    for (const std::string& line : lines) std::printf("%s\n", line.c_str());
  }
}

}  // namespace bench
}  // namespace dynopt
