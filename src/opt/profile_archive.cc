#include "opt/profile_archive.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <sstream>

#include "common/hash.h"
#include "common/query_context.h"
#include "exec/engine.h"
#include "opt/critical_path.h"

namespace dynopt {

namespace {

std::string FormatFactor(double f) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", f);
  return buf;
}

std::string FormatSeconds(double s) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", s);
  return buf;
}

}  // namespace

std::string QueryFingerprint(const QuerySpec& spec) {
  // Canonical, order-insensitive rendering of the logical shape. Each
  // section is sorted so binder/rewrite ordering never perturbs the hash.
  std::ostringstream canon;
  std::vector<std::string> parts;
  for (const auto& ref : spec.tables) {
    // Intermediates (mid-query re-entry) map back to their base table so a
    // resumed query keeps its original fingerprint.
    std::string table = ref.table;
    if (ref.is_intermediate) {
      auto it = spec.base_tables.find(ref.alias);
      if (it != spec.base_tables.end()) table = it->second;
    }
    parts.push_back(ref.alias + "=" + table);
  }
  std::sort(parts.begin(), parts.end());
  canon << "tables:";
  for (const auto& p : parts) canon << p << ";";
  parts.clear();
  for (const auto& pred : spec.predicates) {
    if (pred.expr != nullptr) {
      parts.push_back(pred.alias + ":" + pred.expr->ToString());
    }
  }
  std::sort(parts.begin(), parts.end());
  canon << "|preds:";
  for (const auto& p : parts) canon << p << ";";
  parts.clear();
  for (const auto& join : spec.joins) {
    // Canonical edge: endpoints sorted, keys sorted pairwise.
    std::vector<std::string> keys;
    for (const auto& [l, r] : join.keys) {
      keys.push_back(l < r ? l + "=" + r : r + "=" + l);
    }
    std::sort(keys.begin(), keys.end());
    std::string lo = std::min(join.left_alias, join.right_alias);
    std::string hi = std::max(join.left_alias, join.right_alias);
    std::string edge = lo + "*" + hi + "[";
    for (const auto& k : keys) edge += k + ",";
    parts.push_back(edge + "]");
  }
  std::sort(parts.begin(), parts.end());
  canon << "|joins:";
  for (const auto& p : parts) canon << p << ";";
  canon << "|proj:";
  for (const auto& p : spec.projections) canon << p << ";";
  canon << "|params:";
  // Names only: the same prepared statement under different bindings is
  // the same query shape.
  for (const auto& [name, value] : spec.params) {
    (void)value;
    canon << name << ";";
  }
  canon << "|group:";
  for (const auto& g : spec.group_by) canon << g << ";";
  canon << "|agg:";
  for (const auto& a : spec.aggregates) {
    canon << AggFnName(a.fn) << "(" << a.input << ")as" << a.output_name
          << ";";
  }
  canon << "|order:";
  for (const auto& o : spec.order_by) {
    canon << o.column << (o.descending ? "-" : "+") << ";";
  }
  canon << "|limit:" << spec.limit;
  const std::string s = canon.str();
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(HashString(s)));
  return buf;
}

void ProfileArchive::RegisterActive(ActiveQueryInfo info) {
  std::lock_guard<std::mutex> lock(mu_);
  active_[info.query_id] = std::move(info);
}

void ProfileArchive::UnregisterActive(uint64_t query_id) {
  std::lock_guard<std::mutex> lock(mu_);
  active_.erase(query_id);
}

ArchivedQuery ProfileArchive::Archive(ArchivedQuery entry) {
  std::lock_guard<std::mutex> lock(mu_);
  // Baseline: the fastest archived run of the same logical query.
  const ArchivedQuery* baseline = nullptr;
  for (const auto& e : ring_) {
    if (e.fingerprint != entry.fingerprint) continue;
    if (baseline == nullptr || e.metrics.simulated_seconds <
                                   baseline->metrics.simulated_seconds) {
      baseline = &e;
    }
  }
  const double sim = entry.metrics.simulated_seconds;
  const double baseline_sim =
      baseline != nullptr ? baseline->metrics.simulated_seconds : 0;
  if (baseline_sim > 0 && sim > kRegressionThreshold * baseline_sim) {
    entry.regressed = true;
    std::ostringstream note;
    note << "sim_seconds " << FormatSeconds(sim) << " is "
         << FormatFactor(sim / baseline_sim) << "x the best archived run ("
         << FormatSeconds(baseline_sim) << ", " << baseline->optimizer
         << ") of this query (threshold "
         << FormatFactor(kRegressionThreshold) << "x)";
    // Name the first decision where the two runs' plans part ways, and the
    // error-store prior (if any) that was in play there.
    if (entry.profile != nullptr && baseline->profile != nullptr) {
      const auto& cur = entry.profile->decisions.decisions();
      const auto& base = baseline->profile->decisions.decisions();
      const size_t n = std::min(cur.size(), base.size());
      size_t i = 0;
      while (i < n && cur[i].point == base[i].point &&
             cur[i].chosen == base[i].chosen) {
        ++i;
      }
      if (i < n || cur.size() != base.size()) {
        entry.first_divergent_index = static_cast<int>(i);
        const PlanDecision* mine = i < cur.size() ? &cur[i] : nullptr;
        const PlanDecision* theirs = i < base.size() ? &base[i] : nullptr;
        std::ostringstream div;
        if (mine != nullptr) {
          div << "#" << i << " " << mine->point << ": " << mine->chosen;
          if (theirs != nullptr) div << " (baseline: " << theirs->chosen << ")";
        } else if (theirs != nullptr) {
          div << "#" << i << " missing (baseline: " << theirs->point << ": "
              << theirs->chosen << ")";
        }
        entry.first_divergent_decision = div.str();
        note << "; first divergent decision " << entry.first_divergent_decision;
        const PlanDecision* with_prior =
            mine != nullptr && !mine->prior_key.empty() ? mine
            : theirs != nullptr && !theirs->prior_key.empty() ? theirs
                                                              : nullptr;
        if (with_prior != nullptr) {
          entry.divergent_prior_key = with_prior->prior_key;
          entry.divergent_prior_factor = with_prior->prior_factor;
          note << "; prior=" << with_prior->prior_key << "x"
               << FormatFactor(with_prior->prior_factor);
        }
      }
    }
    entry.regression = note.str();
  }
  ring_.push_back(entry);
  while (ring_.size() > config_.archive_capacity) ring_.pop_front();
  return entry;
}

std::vector<ArchivedQuery> ProfileArchive::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {ring_.begin(), ring_.end()};
}

std::vector<ActiveQueryInfo> ProfileArchive::ActiveSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ActiveQueryInfo> out;
  out.reserve(active_.size());
  for (const auto& [id, info] : active_) {
    (void)id;
    out.push_back(info);
  }
  return out;
}

size_t ProfileArchive::NumArchived() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

size_t ProfileArchive::ApproxBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t bytes = 0;
  for (const auto& e : ring_) {
    bytes += sizeof(ArchivedQuery) + e.label.size() + e.fingerprint.size() +
             e.critical_path.size() + e.regression.size() +
             e.first_divergent_decision.size();
    if (e.profile != nullptr) {
      bytes += sizeof(QueryProfile);
      for (const auto& d : e.profile->decisions.decisions()) {
        bytes += sizeof(PlanDecision) + d.point.size() + d.chosen.size();
      }
      for (const auto& ev : e.profile->trace) {
        bytes += sizeof(TraceEvent) + ev.name.size();
      }
    }
  }
  return bytes;
}

namespace {

/// What lives in Engine::introspection_state(): the archive plus the config
/// it was built from, so a knob edit via mutable_cluster() rebuilds it.
struct EngineArchiveSlot {
  IntrospectionConfig config;
  std::shared_ptr<ProfileArchive> archive;
};

std::mutex g_archive_slot_mu;

/// Ids for runs without a QueryContext, kept out of the context id range so
/// anonymous and governed queries never collide in the active registry.
std::atomic<uint64_t> g_anon_query_id{1ULL << 62};

}  // namespace

ProfileArchive* EngineProfileArchive(Engine* engine) {
  if (engine == nullptr) return nullptr;
  const IntrospectionConfig& ic = engine->cluster().introspection;
  if (!ic.enabled) return nullptr;
  std::lock_guard<std::mutex> lock(g_archive_slot_mu);
  auto slot = std::static_pointer_cast<EngineArchiveSlot>(
      engine->introspection_state());
  if (slot == nullptr ||
      slot->config.archive_capacity != ic.archive_capacity) {
    slot = std::make_shared<EngineArchiveSlot>();
    slot->config = ic;
    slot->archive = std::make_shared<ProfileArchive>(ic);
    engine->introspection_state() = slot;
  }
  return slot->archive.get();
}

IntrospectionRun::IntrospectionRun(Engine* engine, const QuerySpec& spec,
                                   std::string optimizer, QueryContext* ctx)
    : archive_(EngineProfileArchive(engine)), optimizer_(std::move(optimizer)) {
  if (archive_ == nullptr) return;
  fingerprint_ = QueryFingerprint(spec);
  if (ctx != nullptr) {
    query_id_ = ctx->id();
    label_ = ctx->label();
    priority_ = QueryPriorityName(ctx->priority);
    queue_wait_seconds_ = ctx->queue_wait_seconds;
  } else {
    query_id_ = g_anon_query_id.fetch_add(1, std::memory_order_relaxed);
    priority_ = QueryPriorityName(QueryPriority::kNormal);
  }
  ActiveQueryInfo info;
  info.query_id = query_id_;
  info.label = label_;
  info.optimizer = optimizer_;
  info.fingerprint = fingerprint_;
  info.priority = priority_;
  archive_->RegisterActive(std::move(info));
}

IntrospectionRun::~IntrospectionRun() {
  if (archive_ != nullptr && !completed_) {
    archive_->UnregisterActive(query_id_);
  }
}

void IntrospectionRun::Complete(OptimizerRunResult* result) {
  if (archive_ == nullptr || completed_) return;
  completed_ = true;
  archive_->UnregisterActive(query_id_);
  if (result == nullptr || result->profile == nullptr) return;
  QueryProfile* profile = result->profile.get();
  profile->fingerprint = fingerprint_;
  profile->critical_path = CriticalPath(profile->trace);
  ArchivedQuery entry;
  entry.query_id = query_id_;
  entry.label = label_;
  entry.optimizer = profile->optimizer.empty() ? optimizer_
                                               : profile->optimizer;
  entry.fingerprint = fingerprint_;
  entry.priority = priority_;
  entry.queue_wait_seconds = queue_wait_seconds_;
  entry.wall_seconds = result->wall_seconds;
  entry.metrics = result->metrics;
  entry.critical_path = profile->critical_path;
  entry.profile = result->profile;
  const ArchivedQuery analyzed = archive_->Archive(std::move(entry));
  profile->regression_note = analyzed.regression;
}

}  // namespace dynopt
