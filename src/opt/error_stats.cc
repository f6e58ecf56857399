#include "opt/error_stats.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/hash.h"
#include "common/logging.h"
#include "exec/engine.h"

namespace dynopt {

namespace {

constexpr const char kMagic[] = "DYNOPT_ERRSTATS";
constexpr int kVersion = 1;

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

double ErrorStatsEntry::GeoMeanQ() const {
  if (count == 0) return 1.0;
  return std::exp(sum_log_q / static_cast<double>(count));
}

ErrorStatsStore::ErrorStatsStore(std::string path, size_t max_entries)
    : path_(std::move(path)), max_entries_(std::max<size_t>(1, max_entries)) {}

void ErrorStatsStore::Record(const std::string& key, double q_error) {
  if (!std::isfinite(q_error) || q_error < 1.0) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    if (entries_.size() >= max_entries_) {
      ++dropped_keys_;
      return;
    }
    it = entries_.emplace(key, ErrorStatsEntry()).first;
  }
  ErrorStatsEntry& e = it->second;
  ++e.count;
  e.sum_log_q += std::log(q_error);
  e.max_q = std::max(e.max_q, q_error);
}

double ErrorStatsStore::PriorFactor(const std::string& key, double cap) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.count == 0) return 1.0;
  double q = it->second.GeoMeanQ();
  if (!std::isfinite(q)) return 1.0;
  return std::min(std::max(q, 1.0), std::max(cap, 1.0));
}

size_t ErrorStatsStore::NumEntries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

uint64_t ErrorStatsStore::DroppedKeys() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_keys_;
}

ErrorStatsEntry ErrorStatsStore::Get(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  return it != entries_.end() ? it->second : ErrorStatsEntry();
}

std::vector<std::pair<std::string, ErrorStatsEntry>> ErrorStatsStore::Entries()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return {entries_.begin(), entries_.end()};
}

Status ErrorStatsStore::Load() {
  if (path_.empty()) return Status::OK();
  std::ifstream in(path_);
  if (!in) {
    // Missing file: first run, nothing to learn from yet.
    std::lock_guard<std::mutex> lock(mu_);
    entries_.clear();
    return Status::OK();
  }
  // Parse into a scratch map first so a corrupt file never leaves the
  // store half-loaded.
  std::map<std::string, ErrorStatsEntry> parsed;
  auto start_fresh = [&](const std::string& why) {
    DYNOPT_LOG(kWarn) << "error-stats store " << path_ << ": " << why
                      << "; starting fresh (queries are unaffected)";
    std::lock_guard<std::mutex> lock(mu_);
    entries_.clear();
    return Status::OK();
  };

  std::string header;
  if (!std::getline(in, header)) return start_fresh("empty file");
  {
    std::istringstream hs(header);
    std::string magic, version_tag;
    size_t n = 0;
    hs >> magic >> version_tag >> n;
    if (magic != kMagic) return start_fresh("bad magic '" + magic + "'");
    if (version_tag != "v" + std::to_string(kVersion)) {
      return start_fresh("unsupported version '" + version_tag + "'");
    }
  }
  std::string line;
  std::string payload;
  bool saw_checksum = false;
  uint64_t recorded_checksum = 0;
  while (std::getline(in, line)) {
    if (line.rfind("checksum ", 0) == 0) {
      saw_checksum = true;
      recorded_checksum = std::strtoull(line.c_str() + 9, nullptr, 16);
      break;
    }
    payload += line;
    payload += '\n';
    // key \t count \t sum_log_q \t max_q
    size_t t1 = line.find('\t');
    size_t t2 = t1 == std::string::npos ? t1 : line.find('\t', t1 + 1);
    size_t t3 = t2 == std::string::npos ? t2 : line.find('\t', t2 + 1);
    if (t3 == std::string::npos) {
      return start_fresh("malformed entry line '" + line + "'");
    }
    ErrorStatsEntry e;
    char* end = nullptr;
    e.count = std::strtoull(line.c_str() + t1 + 1, &end, 10);
    e.sum_log_q = std::strtod(line.c_str() + t2 + 1, &end);
    e.max_q = std::strtod(line.c_str() + t3 + 1, &end);
    if (e.count == 0 || !std::isfinite(e.sum_log_q) ||
        !std::isfinite(e.max_q)) {
      return start_fresh("invalid aggregate in line '" + line + "'");
    }
    if (parsed.size() < max_entries_) {
      parsed.emplace(line.substr(0, t1), e);
    }
  }
  if (!saw_checksum) return start_fresh("truncated (no checksum line)");
  const uint64_t actual = HashBytes(payload.data(), payload.size());
  if (actual != recorded_checksum) {
    return start_fresh("checksum mismatch (corrupt or torn write)");
  }
  std::lock_guard<std::mutex> lock(mu_);
  entries_ = std::move(parsed);
  return Status::OK();
}

Status ErrorStatsStore::Save() const {
  if (path_.empty()) return Status::OK();
  std::string payload;
  size_t n;
  {
    std::lock_guard<std::mutex> lock(mu_);
    n = entries_.size();
    for (const auto& [key, e] : entries_) {
      payload += key;
      payload += '\t';
      payload += std::to_string(e.count);
      payload += '\t';
      payload += FormatDouble(e.sum_log_q);
      payload += '\t';
      payload += FormatDouble(e.max_q);
      payload += '\n';
    }
  }
  // Unique tmp name (pid + process-wide sequence) so writers racing on the
  // same path — other processes or other stores in this one — each write a
  // complete file; rename() is atomic, so the loser's complete file simply
  // replaces the winner's, never a torn mix of both.
  static std::atomic<uint64_t> tmp_seq{0};
  const std::string tmp = path_ + ".tmp." +
                          std::to_string(static_cast<long>(::getpid())) + "." +
                          std::to_string(tmp_seq.fetch_add(1));
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) {
      return Status::Internal("error-stats store: cannot write " + tmp);
    }
    char checksum[32];
    std::snprintf(checksum, sizeof(checksum), "%016llx",
                  static_cast<unsigned long long>(
                      HashBytes(payload.data(), payload.size())));
    out << kMagic << " v" << kVersion << " " << n << "\n"
        << payload << "checksum " << checksum << "\n";
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      return Status::Internal("error-stats store: short write to " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("error-stats store: rename to " + path_ +
                            " failed");
  }
  return Status::OK();
}

std::string TableErrorKey(const std::string& table,
                          const std::vector<ExprPtr>& predicates) {
  if (predicates.empty()) return "tbl:" + table;
  std::vector<std::string> printed;
  printed.reserve(predicates.size());
  for (const auto& p : predicates) {
    if (p != nullptr) printed.push_back(p->ToString());
  }
  std::sort(printed.begin(), printed.end());
  uint64_t h = 0;
  for (const auto& s : printed) h = HashCombine(h, HashString(s));
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return "tbl:" + table + "|p:" + buf;
}

std::string JoinErrorKey(std::vector<std::string> base_tables) {
  std::sort(base_tables.begin(), base_tables.end());
  std::string key = "join:";
  for (size_t i = 0; i < base_tables.size(); ++i) {
    if (i > 0) key += '+';
    key += base_tables[i];
  }
  return key;
}

void StampPrior(const ErrorStatsStore* store, const SelectivityRisk& risk,
                PlanDecision* decision) {
  if (store != nullptr && risk.prior_factor > 1.0) {
    decision->prior_key = risk.prior_key;
    decision->prior_factor = risk.prior_factor;
  }
}

void RecordWholePlanError(ErrorStatsStore* store, const QuerySpec& spec,
                          const DecisionLog& log, int decision) {
  if (store == nullptr) return;
  const auto& decisions = log.decisions();
  if (decision >= 0 && decision < static_cast<int>(decisions.size())) {
    const double q = decisions[static_cast<size_t>(decision)].QError();
    std::vector<std::string> bases;
    for (const auto& ref : spec.tables) {
      if (!ref.is_intermediate) bases.push_back(ref.table);
    }
    if (q >= 1.0 && !bases.empty()) {
      store->Record(JoinErrorKey(std::move(bases)), q);
    }
  }
  // Persist opportunistically; a failed save never fails the query.
  (void)store->Save();
}

namespace {

/// What lives in Engine::opt_state(): the store plus the path it was
/// built from, so a path edit via mutable_cluster() rebuilds it.
struct EngineErrorStatsSlot {
  std::string path;
  std::shared_ptr<ErrorStatsStore> store;
};

std::mutex g_engine_slot_mu;

}  // namespace

ErrorStatsStore* EngineErrorStats(Engine* engine) {
  if (engine == nullptr) return nullptr;
  const RiskConfig& rc = engine->cluster().risk;
  if (!rc.use_error_store) return nullptr;
  std::lock_guard<std::mutex> lock(g_engine_slot_mu);
  auto slot =
      std::static_pointer_cast<EngineErrorStatsSlot>(engine->opt_state());
  if (slot == nullptr || slot->path != rc.error_stats_path) {
    slot = std::make_shared<EngineErrorStatsSlot>();
    slot->path = rc.error_stats_path;
    slot->store = std::make_shared<ErrorStatsStore>(rc.error_stats_path);
    // Fail-soft by contract: a missing/corrupt file logs and starts fresh;
    // an unreadable one still leaves a usable empty store.
    (void)slot->store->Load();
    engine->opt_state() = slot;
  }
  return slot->store.get();
}

SelectivityRisk PriorRisk(const QuerySpec& spec, const ErrorStatsStore* store,
                          double cap) {
  SelectivityRisk risk;
  if (store == nullptr) return risk;
  auto note_prior = [&risk](const std::string& key, double factor) {
    if (factor > risk.prior_factor) {
      risk.prior_factor = factor;
      risk.prior_key = key;
    }
  };
  std::vector<std::string> bases;
  for (const auto& ref : spec.tables) {
    if (ref.is_intermediate) {
      // Exact counts, nothing to widen per alias — but the intermediate
      // still stands in for its base table in the join-level key, so a
      // mid-query (post-pushdown) lookup matches the key a completed run
      // recorded.
      auto it = spec.base_tables.find(ref.alias);
      if (it != spec.base_tables.end()) bases.push_back(it->second);
      continue;
    }
    bases.push_back(ref.table);
    const std::string key =
        TableErrorKey(ref.table, spec.PredicatesFor(ref.alias));
    const double f = store->PriorFactor(key, cap);
    if (f > 1.0) {
      risk.alias_factors[ref.alias] = f;
      note_prior(key, f);
    }
  }
  if (!bases.empty()) {
    const std::string key = JoinErrorKey(bases);
    const double f = store->PriorFactor(key, cap);
    risk.global_factor = std::max(risk.global_factor, f);
    if (f > 1.0) note_prior(key, f);
  }
  return risk;
}

}  // namespace dynopt
