#ifndef DYNOPT_OPT_ERROR_STATS_H_
#define DYNOPT_OPT_ERROR_STATS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "opt/decision_log.h"
#include "opt/planner.h"
#include "plan/expr.h"
#include "plan/query_spec.h"

namespace dynopt {

class Engine;

/// Bounded q-error aggregate for one estimation site (a table+predicate
/// fingerprint or a join alias set).
struct ErrorStatsEntry {
  uint64_t count = 0;
  /// Sum of ln(q-error) — the geometric mean exp(sum/count) is the
  /// calibrated misestimation factor (robust to a single outlier run).
  double sum_log_q = 0;
  double max_q = 1.0;

  double GeoMeanQ() const;
};

/// Cross-query error memory: per-table/per-predicate and per-join q-error
/// aggregates observed by past runs, persisted to disk so the cost-based
/// and pilot-run strategies start each query with calibrated priors instead
/// of the independence assumption's defaults.
///
/// Durability contract (the store must never fail a query):
///  - Save() writes the whole store to `<path>.tmp` and renames it into
///    place — readers never see a torn file, and two racing writers leave
///    one writer's complete file, not a mix.
///  - The file is version-tagged and checksummed (FNV over the payload);
///    Load() treats a missing file as empty, and a truncated/corrupt/
///    version-mismatched file as "warn and start fresh" — always OK.
///  - The entry map is bounded (`max_entries`, kErrorStoreMaxEntries for
///    the engine's store); new keys beyond the bound are dropped and
///    counted, never an error.
/// All methods are thread-safe (one mutex; aggregates are tiny).
class ErrorStatsStore {
 public:
  /// Bound on the distinct (table/predicate/join) keys the engine's store
  /// retains.
  static constexpr size_t kErrorStoreMaxEntries = 4096;

  /// `path` empty = in-memory only (Load/Save become no-ops returning OK).
  explicit ErrorStatsStore(std::string path,
                           size_t max_entries = kErrorStoreMaxEntries);

  /// Records one observed q-error (>= 1) for `key`. Values below 1 or
  /// non-finite are ignored (a q-error is max(est/actual, actual/est), so
  /// anything else is a caller bug upstream, not worth poisoning the
  /// store over).
  void Record(const std::string& key, double q_error);

  /// Calibrated misestimation prior for `key`: the geometric mean of its
  /// recorded q-errors clamped to [1, cap]. Unknown key (or any internal
  /// problem) => 1.0 — the neutral factor; this never fails.
  double PriorFactor(const std::string& key, double cap) const;

  /// Loads from the path (replacing in-memory state). Missing file, bad
  /// version, bad checksum, truncation: warn + start empty + return OK.
  /// Only an unreadable-but-existing file surfaces a status (callers may
  /// still ignore it; the store is usable either way).
  Status Load();

  /// Atomically persists the current state (tmp file + rename).
  Status Save() const;

  size_t NumEntries() const;
  /// Keys refused because the store was at max_entries.
  uint64_t DroppedKeys() const;
  /// Snapshot of one entry; count == 0 when the key is unknown.
  ErrorStatsEntry Get(const std::string& key) const;
  /// Snapshot of every (key, entry) pair, sorted by key — the rows
  /// `sys.error_stats` materializes.
  std::vector<std::pair<std::string, ErrorStatsEntry>> Entries() const;

  const std::string& path() const { return path_; }

 private:
  const std::string path_;
  const size_t max_entries_;
  mutable std::mutex mu_;
  std::map<std::string, ErrorStatsEntry> entries_;
  uint64_t dropped_keys_ = 0;
};

/// Canonical store key for a base-table scan under local predicates:
/// "tbl:<table>" when `predicates` is empty, otherwise
/// "tbl:<table>|p:<hex fingerprint>" where the fingerprint hashes the
/// predicates' printed forms (order-insensitive). Correlated predicates on
/// the same table+predicate set hash to the same key across queries, which
/// is exactly what makes the prior transferable.
std::string TableErrorKey(const std::string& table,
                          const std::vector<ExprPtr>& predicates);

/// Canonical store key for a join over `base_tables` (catalog names, not
/// aliases): "join:<sorted names joined with '+'>". Duplicate names are
/// kept (self-joins of the same table are a different shape than a single
/// scan).
std::string JoinErrorKey(std::vector<std::string> base_tables);

/// Stamps the dominant prior of `risk` onto `decision` when a store is in
/// play and the prior widened the plan (factor > 1), so EXPLAIN can name
/// the prior that shaped it. Otherwise the decision stays unannotated.
void StampPrior(const ErrorStatsStore* store, const SelectivityRisk& risk,
                PlanDecision* decision);

/// Records the q-error of `log`'s decision `decision`, a whole-query plan
/// judged against the final join output, under the JoinErrorKey of
/// `spec`'s base tables (nothing when it has no estimate or no actual),
/// then saves the store. A null store does nothing.
void RecordWholePlanError(ErrorStatsStore* store, const QuerySpec& spec,
                          const DecisionLog& log, int decision);

/// The engine-scoped shared store, (re)built lazily from
/// engine->cluster().risk: every optimizer of one engine calls this
/// instead of owning a store, so queries share (and persist to) one error
/// memory. The store lives in the engine's type-erased opt_state() slot
/// (the exec layer cannot name opt types) and is rebuilt — with a fail-soft
/// Load() — whenever risk.error_stats_path changes, mirroring the engine's
/// Rearm* pattern. Returns nullptr when risk.use_error_store is off (the
/// default). Thread-safe.
ErrorStatsStore* EngineErrorStats(Engine* engine);

/// Cap on the confidence-interval widening factor the optimizers apply to
/// uncertain cardinalities, from within-query q-error feedback and from
/// stored priors alike.
inline constexpr double kMaxCiWidening = 8.0;

/// Prior-only risk for `spec` from the store: per-alias widening factors
/// from each base table's TableErrorKey and a global factor from the
/// query's JoinErrorKey, all clamped to [1, cap] (the optimizers pass
/// kMaxCiWidening). Null store, unknown keys or intermediates => neutral
/// entries. Never fails.
SelectivityRisk PriorRisk(const QuerySpec& spec, const ErrorStatsStore* store,
                          double cap);

}  // namespace dynopt

#endif  // DYNOPT_OPT_ERROR_STATS_H_
