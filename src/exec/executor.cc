#include "exec/executor.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>

#include "common/hash.h"
#include "common/logging.h"
#include "common/metrics_registry.h"
#include "common/row_kernels.h"
#include "common/tracer.h"
#include "exec/join_hash_table.h"
#include "exec/vector_kernels.h"
#include "storage/schema.h"
#include "storage/serde.h"

namespace dynopt {

namespace {

/// A task projected to finish beyond this multiple of its stage's median
/// clean task time gets a speculative backup execution; the faster of the
/// two completions wins (mitigates stragglers the scheduler cannot
/// predict).
constexpr double kSpeculationThreshold = 3.0;

/// Slots of `names` within `columns` (first match); error when any is
/// missing.
Result<std::vector<int>> ResolveColumns(const std::vector<std::string>& columns,
                                        const std::vector<std::string>& names,
                                        const char* what) {
  std::vector<int> indices;
  indices.reserve(names.size());
  for (const auto& name : names) {
    int idx = LinearColumnIndex(columns, name);
    if (idx < 0) {
      return Status::ExecutionError(std::string(what) + " column " + name +
                                    " not found in dataset");
    }
    indices.push_back(idx);
  }
  return indices;
}

/// Output columns of scan node `scan` over a table with `schema`: base
/// scans prefix each field with the alias, intermediate readers keep the
/// stored (already-qualified) names; a non-empty scan_columns list narrows
/// and reorders them (projection pushdown). `keep` receives the stored
/// field slot of each output column.
Status ResolveScanColumns(const PlanNode& scan, const Schema& schema,
                          std::vector<int>* keep,
                          std::vector<std::string>* out_columns) {
  std::vector<std::string> all_columns;
  all_columns.reserve(schema.num_fields());
  for (size_t i = 0; i < schema.num_fields(); ++i) {
    all_columns.push_back(scan.is_intermediate
                              ? schema.field(i).name
                              : scan.alias + "." + schema.field(i).name);
  }
  if (scan.scan_columns.empty()) {
    for (size_t i = 0; i < all_columns.size(); ++i) {
      keep->push_back(static_cast<int>(i));
    }
    *out_columns = std::move(all_columns);
    return Status::OK();
  }
  for (const auto& wanted : scan.scan_columns) {
    auto it = std::find(all_columns.begin(), all_columns.end(), wanted);
    if (it == all_columns.end()) {
      return Status::ExecutionError("scan column " + wanted +
                                    " not in table " + scan.table);
    }
    keep->push_back(static_cast<int>(it - all_columns.begin()));
    out_columns->push_back(wanted);
  }
  return Status::OK();
}

uint64_t MaxOver(const std::vector<uint64_t>& per_node) {
  uint64_t mx = 0;
  for (uint64_t v : per_node) mx = std::max(mx, v);
  return mx;
}

using WallClock = std::chrono::steady_clock;

double SecondsSince(WallClock::time_point start) {
  return std::chrono::duration<double>(WallClock::now() - start).count();
}

/// Builds `table` over the flat build batch of one partition; rows with a
/// NULL key stay unlinked. `hashes`, when non-null, holds the shuffle's key
/// hash of every row; otherwise the key columns are hashed here.
void BuildTable(const ColumnBatch& build, const std::vector<int>& keys,
                const uint64_t* hashes, JoinHashTable* table) {
  const size_t n = build.num_rows;
  if (n == 0) {
    // An empty batch has no columns to hash; the table still initializes
    // (all chains empty).
    table->Build(nullptr, nullptr, 0);
    return;
  }
  std::vector<uint8_t> key_null(n, 0);
  std::vector<uint64_t> own_hashes;
  if (hashes != nullptr) {
    AnyKeyNull(build, keys.data(), keys.size(), key_null.data());
  } else {
    own_hashes.resize(n);
    HashKeyColumns(build, keys.data(), keys.size(), own_hashes.data(),
                   key_null.data());
    hashes = own_hashes.data();
  }
  table->Build(hashes, key_null.data(), n);
}

/// Each partition of `data` as whole-batch views, without hashes.
std::vector<std::vector<BatchView>> WholeBatchViews(
    const ColumnarDataset& data) {
  std::vector<std::vector<BatchView>> views(data.partitions.size());
  for (size_t p = 0; p < data.partitions.size(); ++p) {
    for (const ColumnBatch& b : data.partitions[p]) {
      if (b.num_rows > 0) views[p].push_back({&b, nullptr, nullptr, b.num_rows});
    }
  }
  return views;
}

/// A join's own output columns: the build side's, then the probe side's,
/// each with the slot it is gathered from. The probe's j-th column is read
/// from slot probe_slots[j] (a projected INLJ inner), or from slot j when
/// `probe_slots` is null.
void JoinedColumns(const std::vector<std::string>& build,
                   const std::vector<std::string>& probe,
                   const int* probe_slots, std::vector<std::string>* names,
                   std::vector<SinkColumn>* sources) {
  *names = build;
  names->insert(names->end(), probe.begin(), probe.end());
  sources->clear();
  for (size_t i = 0; i < build.size(); ++i) {
    sources->push_back({SinkColumn::kBuild, static_cast<int>(i)});
  }
  for (size_t j = 0; j < probe.size(); ++j) {
    sources->push_back({SinkColumn::kProbe, probe_slots != nullptr
                                                ? probe_slots[j]
                                                : static_cast<int>(j)});
  }
}

/// Folds the Project nodes `projects` (bottom-up) into a join's output:
/// each narrows and reorders `names` and `sources` to its columns, a name
/// resolving to its first match (so the build side's column wins over a
/// probe column of the same name).
Status FoldProjects(const std::vector<const PlanNode*>& projects,
                    std::vector<std::string>* names,
                    std::vector<SinkColumn>* sources) {
  for (const PlanNode* project : projects) {
    DYNOPT_ASSIGN_OR_RETURN(
        std::vector<int> keep,
        ResolveColumns(*names, project->project_columns, "project"));
    std::vector<SinkColumn> kept;
    kept.reserve(keep.size());
    for (int k : keep) kept.push_back((*sources)[static_cast<size_t>(k)]);
    *sources = std::move(kept);
    *names = project->project_columns;
  }
  return Status::OK();
}

/// The largest per-partition row count of `data`.
uint64_t MaxPartitionRows(const ColumnarDataset& data) {
  uint64_t mx = 0;
  for (size_t p = 0; p < data.partitions.size(); ++p) {
    mx = std::max(mx, data.PartitionRows(p));
  }
  return mx;
}

/// Probes `table`, built over the flat `build` batch, with one partition's
/// probe rows `probe` and emits the joined rows into `sink`: views in
/// order, rows in view order, each one's matches in ascending build order.
/// A view without hashes (a whole batch that was not shuffled) is hashed
/// here first. A probe row with a NULL key matches nothing: the table
/// leaves NULL-key build rows unlinked, and NULL never equals a value.
/// Returns the number of rows emitted.
uint64_t ProbeTable(const ColumnBatch& build, const JoinHashTable& table,
                    const std::vector<BatchView>& probe,
                    const std::vector<int>& build_keys,
                    const std::vector<int>& probe_keys, BatchSink* sink) {
  constexpr uint32_t kEnd = JoinHashTable::kEnd;
  // Hoisted raw views: const locals stay in registers across the emission
  // writes below.
  const uint32_t* heads = table.heads();
  const uint32_t* next = table.next();
  const uint64_t* table_hashes = table.hashes();
  const size_t mask = table.mask();
  const int* bkeys = build_keys.data();
  const int* pkeys = probe_keys.data();
  const size_t num_keys = build_keys.size();
  std::vector<uint64_t> hash_scratch;
  std::vector<uint8_t> null_scratch;
  std::vector<uint32_t> bsel, psel;
  uint64_t matches = 0;
  for (const BatchView& view : probe) {
    const ColumnBatch& pb = *view.batch;
    const size_t m = view.num_rows;
    if (m == 0) continue;  // May have no columns to hash.
    const uint32_t* sel = view.sel;
    const uint64_t* ph = view.hashes;
    if (ph == nullptr) {
      hash_scratch.resize(m);
      null_scratch.assign(m, 0);
      HashKeyColumns(pb, pkeys, num_keys, hash_scratch.data(),
                     null_scratch.data());
      ph = hash_scratch.data();
    }
    bsel.clear();
    psel.clear();
    for (size_t j = 0; j < m; ++j) {
      // Misses resolve from the table's own arrays: the chain is walked
      // comparing full 64-bit hashes (L1-resident) and the probe row's keys
      // are only touched on a hash match. The upcoming bucket loads are
      // data-dependent random accesses into an array that outgrows L2 for
      // large build sides; prefetching a few rows ahead hides most of that
      // latency.
      if (j + 8 < m) __builtin_prefetch(&heads[ph[j + 8] & mask]);
      const uint64_t h = ph[j];
      uint32_t first = heads[h & mask];
      while (first != kEnd && table_hashes[first] != h) first = next[first];
      if (first == kEnd) continue;
      const uint32_t row = sel != nullptr ? sel[j] : static_cast<uint32_t>(j);
      for (uint32_t i = first; i != kEnd; i = next[i]) {
        if (table_hashes[i] != h) continue;
        if (!JoinKeysEqual(build, i, pb, row, bkeys, pkeys, num_keys)) {
          continue;
        }
        bsel.push_back(i);
        psel.push_back(row);
      }
    }
    sink->AppendJoinGather(build, bsel.data(), pb, psel.data(), bsel.size());
    matches += bsel.size();
  }
  return matches;
}

/// `columns`, the names a leaf chain holds, laid out by their stored slots
/// `slots` over a run of `num_stored` columns: a predicate compiled against
/// the result reads the stored run in place. Every other slot, and the
/// slot of a later repeat of a name, holds an empty placeholder, so a name
/// resolves to the slot of its first occurrence in `columns`, or, when the
/// chain does not hold it (a column the scan's projection pushdown
/// dropped), not at all.
std::vector<std::string> NamesAtStoredSlots(
    const std::vector<std::string>& columns, const std::vector<int>& slots,
    size_t num_stored) {
  std::vector<std::string> names(num_stored);
  for (size_t i = 0; i < columns.size(); ++i) {
    if (std::find(columns.begin(), columns.begin() + i, columns[i]) !=
        columns.begin() + i) {
      continue;  // A repeat: the first occurrence already placed the name.
    }
    names[static_cast<size_t>(slots[i])] = columns[i];
  }
  return names;
}

}  // namespace

JobExecutor::JobExecutor(Catalog* catalog, StatsManager* stats,
                         const UdfRegistry* udfs, const ClusterConfig& cluster,
                         ThreadPool* pool, MetricsRegistry* metrics_registry,
                         FaultInjector* faults, QueryContext* ctx,
                         RetryBudget* retry_budget, SketchManager* sketches)
    : catalog_(catalog),
      stats_(stats),
      udfs_(udfs),
      cluster_(cluster),
      // Validated at construction, reported at use: a zero max_batch_size
      // or node count would otherwise fail as an underflow deep inside a
      // kernel.
      config_status_(ValidateClusterConfig(cluster_)),
      pool_(pool),
      faults_(faults),
      ctx_(ctx),
      retry_budget_(retry_budget),
      sketches_(sketches),
      registry_(metrics_registry) {
  DYNOPT_CHECK(catalog != nullptr && pool != nullptr && registry_ != nullptr);
}

Status JobExecutor::ApplyFaults(FaultSite site,
                                const std::vector<double>& per_node_seconds,
                                ExecMetrics* metrics, int stage) {
  if (!FaultsArmed()) return Status::OK();
  const FaultInjectionConfig& cfg = faults_->config();
  if (stage < 0) stage = faults_->NextStageId();

  // Work a query-level abort throws away: for Execute-driven sites the
  // metrics object is the current job's fresh accumulator, so its
  // simulated_seconds is exactly this job's paid-for work. Materialize gets
  // the *cumulative* query metrics from the dynamic optimizer, so it cannot
  // attribute per-abort work and records zero (the recovery bench sweeps
  // stages, where the distinction washes out).
  auto aborted_work = [&]() {
    return site == FaultSite::kMaterialize ? 0.0 : metrics->simulated_seconds;
  };

  if (faults_->ShouldFailQuery(stage)) {
    faults_->RecordAbortedWork(aborted_work());
    return Status::Transient(std::string("injected node failure during ") +
                             FaultSiteName(site) + " (stage " +
                             std::to_string(stage) + ")");
  }
  if (per_node_seconds.empty()) return Status::OK();

  // Median clean task time: the baseline against which a task is deemed
  // "straggling enough" to deserve a speculative backup.
  std::vector<double> sorted = per_node_seconds;
  std::sort(sorted.begin(), sorted.end());
  const double median = sorted[sorted.size() / 2];

  double max_base = 0.0;
  double max_completion = 0.0;
  uint64_t retries = 0;
  uint64_t speculative = 0;
  for (size_t node = 0; node < per_node_seconds.size(); ++node) {
    const double base = per_node_seconds[node];
    max_base = std::max(max_base, base);
    double task = base;
    if (faults_->IsStraggler(site, stage, node)) {
      task = base * cfg.straggler_multiplier;
    }
    // Partition-level retry: each failed attempt burns its task time plus
    // a capped-exponential backoff wait before the next try. Each retry
    // also spends one token of the engine-wide budget; a dry bucket fails
    // the query fast with a *non-retryable* code (RunWithRecovery never
    // re-runs kResourceExhausted), cutting a fault storm off instead of
    // amplifying it.
    double completion = 0.0;
    int attempt = 0;
    while (faults_->TaskFails(site, stage, node, attempt)) {
      if (attempt + 1 >= cfg.backoff.max_attempts) {
        faults_->RecordAbortedWork(aborted_work());
        return Status::Transient(
            "node " + std::to_string(node) + " lost during " +
            FaultSiteName(site) + " (stage " + std::to_string(stage) + "): " +
            std::to_string(cfg.backoff.max_attempts) + " attempts failed");
      }
      if (retry_budget_ != nullptr && !retry_budget_->TryAcquire()) {
        faults_->RecordAbortedWork(aborted_work());
        registry_->counter("exec.retry_budget_denied")
            ->Increment();
        return Status::ResourceExhausted(
            "engine retry budget exhausted retrying node " +
            std::to_string(node) + " during " + FaultSiteName(site) +
            " (stage " + std::to_string(stage) + ")");
      }
      const uint64_t jitter_site = HashCombine(
          static_cast<uint64_t>(stage),
          HashCombine(static_cast<uint64_t>(node),
                      static_cast<uint64_t>(site)));
      completion += task + cfg.backoff.JitteredDelay(jitter_site, attempt);
      ++retries;
      ++attempt;
    }
    completion += task;
    // Speculative execution: a task projected to finish beyond
    // kSpeculationThreshold x the median launches a backup copy on a
    // healthy node. The backup starts once the slowness is observable (at
    // the median completion time) and runs clean, so it finishes at
    // median + base; the earlier of original and backup wins.
    if (median > 0.0 && completion > kSpeculationThreshold * median) {
      const double backup = median + base;
      if (backup < completion) {
        completion = backup;
        ++speculative;
      }
    }
    max_completion = std::max(max_completion, completion);
  }

  // The stage's clean critical path (max over nodes) is already metered by
  // the kernel; faults only add the *extra* critical-path time on top, so
  // a disabled injector leaves simulated_seconds bit-identical.
  const double extra = max_completion - max_base;
  if (extra > 0.0) {
    metrics->simulated_seconds += extra;
    metrics->recovery_seconds += extra;
  }
  metrics->num_retries += retries;
  metrics->speculative_executions += speculative;
  return Status::OK();
}

namespace {

/// True when every leaf of `node` scans a sys.* virtual table. Such jobs
/// (filters/projects over engine snapshots already in memory) are metered
/// at zero simulated cost — see the sys-table case in ExecLeaf.
bool ReadsOnlySystemTables(const PlanNode& node) {
  if (node.kind == PlanNode::Kind::kScan) {
    return Catalog::IsSystemName(node.table);
  }
  if (node.children.empty()) return false;
  for (const auto& child : node.children) {
    if (!ReadsOnlySystemTables(*child)) return false;
  }
  return true;
}

}  // namespace

Result<JobResult> JobExecutor::Execute(
    const PlanNode& root, const std::map<std::string, Value>& params) {
  DYNOPT_RETURN_IF_ERROR(config_status_);
  TraceSpan span("job", "job");
  JobResult result;
  result.metrics.num_jobs = 1;
  // The root's batches go out as they are — Materialize moves them into a
  // temp table, result delivery gathers rows once.
  DYNOPT_ASSIGN_OR_RETURN(result.data,
                          ExecNode(root, params, &result.metrics));
  result.metrics.rows_out = result.data.NumRows();
  if (ReadsOnlySystemTables(root)) {
    result.metrics.simulated_seconds = 0;
  }
  if (ctx_ != nullptr) {
    result.metrics.peak_memory_bytes = std::max(
        result.metrics.peak_memory_bytes, ctx_->memory().peak());
    if (ctx_->memory_degraded || ctx_->strategy_downgraded) {
      result.metrics.admission_degraded = 1;
    }
  }
  span.AddArg("rows_out", static_cast<double>(result.metrics.rows_out));
  span.SetSimSeconds(result.metrics.simulated_seconds);
  return result;
}

Result<ColumnarDataset> JobExecutor::ExecNode(
    const PlanNode& node, const std::map<std::string, Value>& params,
    ExecMetrics* metrics) {
  // Filter and Project nodes run inside the task of the scan or join below
  // them: collect that chain (bottom-up). Every plan node is a
  // cooperative-cancellation check point, top-down, before any work — so a
  // cancel/deadline terminates within one operator's work.
  std::vector<const PlanNode*> chain;
  const PlanNode* base = &node;
  for (;;) {
    DYNOPT_RETURN_IF_ERROR(CheckAlive());
    if (base->kind != PlanNode::Kind::kFilter &&
        base->kind != PlanNode::Kind::kProject) {
      break;
    }
    chain.push_back(base);
    base = base->children[0].get();
  }
  std::reverse(chain.begin(), chain.end());
  if (base->kind == PlanNode::Kind::kScan) {
    return ExecLeaf(*base, chain, params, metrics);
  }
  for (const PlanNode* n : chain) {
    if (n->kind == PlanNode::Kind::kFilter) {
      return Status::InvalidArgument(
          "a Filter must sit on a scan, possibly through other Filter and "
          "Project nodes; this one reads a " +
          std::string(JoinMethodName(base->method)) + " join");
    }
  }
  DYNOPT_ASSIGN_OR_RETURN(
      ColumnarDataset out,
      base->method == JoinMethod::kIndexNestedLoop
          ? ExecIndexNestedLoopJoin(*base, chain, params, metrics)
          : ExecJoin(*base, chain, params, metrics));
  // Each folded Project's charge, bottom-up: one pass over the join's
  // output rows on every node.
  const double project_seconds = static_cast<double>(MaxPartitionRows(out)) *
                                 cluster_.cpu_seconds_per_tuple;
  for (size_t i = 0; i < chain.size(); ++i) {
    metrics->simulated_seconds += project_seconds;
  }
  return out;
}

Result<ColumnarDataset> JobExecutor::ExecLeaf(
    const PlanNode& scan, const std::vector<const PlanNode*>& chain,
    const std::map<std::string, Value>& params, ExecMetrics* metrics) {
  TraceSpan span("scan:" + scan.table, "kernel");
  const auto wall_start = WallClock::now();
  DYNOPT_ASSIGN_OR_RETURN(std::shared_ptr<Table> table,
                          catalog_->GetTable(scan.table));
  // The chain's columns as it goes up — names, and the stored slot each is
  // read from — resolved and compiled once, bottom-up: a predicate fails as
  // Bind() would, a Project with "project column … not found".
  std::vector<int> slots;
  std::vector<std::string> columns;
  DYNOPT_RETURN_IF_ERROR(
      ResolveScanColumns(scan, table->schema(), &slots, &columns));
  const size_t num_stored = table->schema().num_fields();
  // preds[k] is chain node k's compiled predicate (unset for a Project).
  std::vector<std::optional<VecPredicate>> preds(chain.size());
  for (size_t k = 0; k < chain.size(); ++k) {
    const PlanNode& n = *chain[k];
    if (n.kind == PlanNode::Kind::kFilter) {
      DYNOPT_ASSIGN_OR_RETURN(
          preds[k], VecPredicate::Compile(
                        n.predicate,
                        NamesAtStoredSlots(columns, slots, num_stored),
                        &params, udfs_));
      continue;
    }
    DYNOPT_ASSIGN_OR_RETURN(
        std::vector<int> keep,
        ResolveColumns(columns, n.project_columns, "project"));
    std::vector<int> kept_slots;
    kept_slots.reserve(keep.size());
    for (int i : keep) kept_slots.push_back(slots[static_cast<size_t>(i)]);
    slots = std::move(kept_slots);
    columns = n.project_columns;
  }

  // One task per partition runs the whole chain over each stored run: the
  // predicates evaluate on the run in place, and each slice of at most
  // max_batch_size rows goes out as a batch of the final columns. A slice
  // whose every row survives borrows the run's buffers; a filtered slice
  // gathers its survivors. rows_in[k][p] counts the rows entering chain
  // node k on partition p.
  const size_t num_parts = table->num_partitions();
  const size_t batch_cap = cluster_.exec.max_batch_size;
  ColumnarDataset out(columns, num_parts);
  std::vector<std::vector<uint64_t>> rows_in(
      chain.size(), std::vector<uint64_t>(num_parts, 0));
  pool_->ParallelFor(num_parts, [&](size_t p) {
    auto& batches = out.partitions[p];
    std::vector<uint8_t> pass, keep;
    std::vector<uint32_t> sel;
    for (const ColumnBatch& run : table->partition(p)) {
      const size_t rows = run.num_rows;
      // pass[i]: row i survived every predicate so far (empty: all did).
      pass.clear();
      size_t alive = rows;
      for (size_t k = 0; k < chain.size(); ++k) {
        rows_in[k][p] += alive;
        if (!preds[k].has_value() || alive == 0) continue;
        preds[k]->EvalBools(run, &keep);
        if (pass.empty()) {
          pass.swap(keep);
        } else {
          for (size_t i = 0; i < rows; ++i) pass[i] &= keep[i];
        }
        alive = 0;
        for (size_t i = 0; i < rows; ++i) alive += pass[i];
      }
      if (alive == 0) continue;
      for (size_t start = 0; start < rows; start += batch_cap) {
        const size_t m = std::min(batch_cap, rows - start);
        sel.clear();
        if (!pass.empty()) {
          for (size_t i = start; i < start + m; ++i) {
            if (pass[i]) sel.push_back(static_cast<uint32_t>(i));
          }
        }
        if (pass.empty() || sel.size() == m) {
          batches.push_back(
              SliceBatch(run, start, m, slots.data(), slots.size()));
        } else if (!sel.empty()) {
          batches.push_back(
              GatherViews({{&run, sel.data(), nullptr, sel.size()}},
                          slots.data(), slots.size()));
        }
      }
    }
  });

  // Metering, one formula per plan node in plan order: the scan, then each
  // Filter and Project bottom-up.
  if (!Catalog::IsSystemName(scan.table)) {
    // sys.* virtual tables materialize engine state that is already in
    // memory: their scan is metered at zero simulated cost so
    // introspection queries never perturb the cost model a real workload
    // sees.
    uint64_t total_bytes = 0, total_rows = 0, max_bytes = 0, max_rows = 0;
    for (size_t p = 0; p < num_parts; ++p) {
      total_bytes += table->PartitionBytes(p);
      total_rows += table->PartitionRows(p);
      max_bytes = std::max(max_bytes, table->PartitionBytes(p));
      max_rows = std::max(max_rows, table->PartitionRows(p));
    }
    metrics->tuples_processed += total_rows;
    double io_seconds;
    if (scan.is_intermediate) {
      metrics->bytes_intermediate_read += total_bytes;
      io_seconds =
          static_cast<double>(max_bytes) * cluster_.disk_read_seconds_per_byte;
      // Re-reading materialized intermediates is re-optimization overhead.
      metrics->reopt_seconds += io_seconds;
    } else {
      metrics->bytes_scanned += total_bytes;
      io_seconds =
          static_cast<double>(max_bytes) * cluster_.scan_seconds_per_byte;
    }
    metrics->simulated_seconds +=
        io_seconds +
        static_cast<double>(max_rows) * cluster_.cpu_seconds_per_tuple;
  }
  for (size_t k = 0; k < chain.size(); ++k) {
    if (preds[k].has_value()) {
      for (uint64_t r : rows_in[k]) metrics->tuples_processed += r;
    }
    metrics->simulated_seconds += static_cast<double>(MaxOver(rows_in[k])) *
                                  cluster_.cpu_seconds_per_tuple;
  }
  metrics->wall_scan_seconds += SecondsSince(wall_start);
  return out;
}

std::vector<std::vector<BatchView>> ShuffleResult::Views() const {
  std::vector<std::vector<BatchView>> views(num_partitions);
  for (size_t p = 0; p < routes.size(); ++p) {
    for (size_t b = 0; b < routes[p].size(); ++b) {
      const Route& route = routes[p][b];
      for (size_t d = 0; d < num_partitions; ++d) {
        const uint32_t lo = route.offsets[d];
        const uint32_t hi = route.offsets[d + 1];
        if (hi == lo) continue;
        views[d].push_back({&source.partitions[p][b], route.sel.data() + lo,
                            route.hashes.data() + lo, hi - lo});
      }
    }
  }
  return views;
}

Result<ShuffleResult> JobExecutor::Repartition(
    ColumnarDataset&& input, const std::vector<int>& key_indices,
    ExecMetrics* metrics) {
  DYNOPT_RETURN_IF_ERROR(config_status_);
  DYNOPT_RETURN_IF_ERROR(CheckAlive());
  TraceSpan span("shuffle", "kernel");
  const auto wall_start = WallClock::now();
  const size_t n = cluster_.num_nodes;
  const size_t src_parts = input.partitions.size();

  // Per source partition, in parallel: hash each batch's key columns
  // (column-at-a-time), count its rows per destination and meter the bytes
  // they move, then prefix-sum the counts and scatter row indices and
  // hashes in source order — a stable counting sort. No row moves.
  ShuffleResult result;
  result.num_partitions = n;
  result.routes.resize(src_parts);
  std::vector<uint64_t> rows_in(src_parts, 0);
  std::vector<uint64_t> shuffled_from(src_parts, 0);
  std::vector<std::vector<uint64_t>> bytes_to(src_parts);
  pool_->ParallelFor(src_parts, [&](size_t p) {
    const std::vector<ColumnBatch>& batches = input.partitions[p];
    std::vector<ShuffleResult::Route>& routes = result.routes[p];
    routes.resize(batches.size());
    std::vector<uint64_t>& to = bytes_to[p];
    to.assign(n, 0);
    const FastMod mod_n(n);
    std::vector<uint64_t> hashes;
    std::vector<uint8_t> key_null;
    std::vector<uint32_t> dest;
    std::vector<uint32_t> cursor(n);
    uint64_t part_rows = 0;
    uint64_t shuffled = 0;
    for (size_t b = 0; b < batches.size(); ++b) {
      const ColumnBatch& batch = batches[b];
      const size_t m = batch.num_rows;
      part_rows += m;
      hashes.resize(m);
      key_null.assign(m, 0);
      dest.resize(m);
      HashKeyColumns(batch, key_indices.data(), key_indices.size(),
                     hashes.data(), key_null.data());
      ShuffleResult::Route& route = routes[b];
      route.offsets.assign(n + 1, 0);
      const uint64_t* sizes = batch.row_sizes.data();
      for (size_t i = 0; i < m; ++i) {
        const size_t d = static_cast<size_t>(mod_n(hashes[i]));
        dest[i] = static_cast<uint32_t>(d);
        ++route.offsets[d + 1];
        // A row already sitting on its destination node (co-partitioned
        // input) moves no bytes.
        const uint64_t moved = (d != p || src_parts != n) ? sizes[i] : 0;
        shuffled += moved;
        to[d] += moved;
      }
      for (size_t d = 0; d < n; ++d) {
        route.offsets[d + 1] += route.offsets[d];
        cursor[d] = route.offsets[d];
      }
      route.sel.resize(m);
      route.hashes.resize(m);
      for (size_t i = 0; i < m; ++i) {
        const uint32_t k = cursor[dest[i]]++;
        route.sel[k] = static_cast<uint32_t>(i);
        route.hashes[k] = hashes[i];
      }
    }
    rows_in[p] = part_rows;
    shuffled_from[p] = shuffled;
  });
  result.source = std::move(input);

  std::vector<uint64_t> received_bytes(n, 0);
  uint64_t total_rows = 0;
  uint64_t shuffled_bytes = 0;
  for (size_t p = 0; p < src_parts; ++p) {
    shuffled_bytes += shuffled_from[p];
    total_rows += rows_in[p];
    for (size_t d = 0; d < n; ++d) received_bytes[d] += bytes_to[p][d];
  }
  metrics->bytes_shuffled += shuffled_bytes;
  metrics->tuples_processed += total_rows;
  metrics->simulated_seconds +=
      static_cast<double>(MaxOver(received_bytes)) *
          cluster_.network_seconds_per_byte +
      static_cast<double>(MaxOver(rows_in)) * cluster_.cpu_seconds_per_tuple;
  if (FaultsArmed()) {
    // Fault overlay for the shuffle stage: node i both routes source
    // partition i (CPU) and receives destination partition i (network);
    // the wider of the two vectors bounds the node count.
    std::vector<double> per_node(std::max(n, src_parts), 0.0);
    for (size_t i = 0; i < n; ++i) {
      per_node[i] += static_cast<double>(received_bytes[i]) *
                     cluster_.network_seconds_per_byte;
    }
    for (size_t i = 0; i < src_parts; ++i) {
      per_node[i] +=
          static_cast<double>(rows_in[i]) * cluster_.cpu_seconds_per_tuple;
    }
    DYNOPT_RETURN_IF_ERROR(
        ApplyFaults(FaultSite::kRepartition, per_node, metrics));
  }
  metrics->wall_shuffle_seconds += SecondsSince(wall_start);
  return result;
}

Status JobExecutor::GraceJoinPartition(
    const ColumnBatch& build, const ColumnBatch& probe,
    const std::vector<int>& build_keys, const std::vector<int>& probe_keys,
    int depth, uint64_t salt, size_t part, uint64_t* work, BatchSink* sink,
    SpillStats* stats) {
  DYNOPT_RETURN_IF_ERROR(CheckAlive());
  uint64_t build_size = 0;
  for (uint64_t s : build.row_sizes) build_size += s;
  // In-memory leaf: the build side fits the budget, cannot be split
  // further, or the recursion cap is reached — then the join runs over
  // budget rather than refuse (a single query always completes; the
  // tracker records the over-subscription). Same build and probe as an
  // in-memory partition, over a throwaway table.
  if (build_size <= cluster_.memory.join_memory_budget_bytes ||
      build.num_rows <= 1 || depth >= kMaxSpillRecursion) {
    MemoryReservation leaf_mem(ctx_ != nullptr ? &ctx_->memory() : nullptr);
    leaf_mem.GrowUnchecked(build_size);
    JoinHashTable table;
    BuildTable(build, build_keys, nullptr, &table);
    *work += build.num_rows + probe.num_rows +
             ProbeTable(build, table,
                        {{&probe, nullptr, nullptr, probe.num_rows}},
                        build_keys, probe_keys, sink);
    return Status::OK();
  }

  // Split both sides by a re-salted key hash — decorrelated from the node
  // routing (h % num_nodes) and from parent splits, so keys that clustered
  // at this level spread out below. NULL join keys never match, so their
  // rows are dropped at split time instead of being spilled.
  const int fanout = std::max(2, cluster_.memory.max_spill_fanout);
  const FastMod mod_f(static_cast<uint64_t>(fanout));
  auto split = [&](const ColumnBatch& side, const std::vector<int>& keys) {
    std::vector<std::vector<uint32_t>> sub(fanout);
    if (side.num_rows == 0) return sub;
    std::vector<uint64_t> hashes(side.num_rows);
    std::vector<uint8_t> key_null(side.num_rows, 0);
    HashKeyColumns(side, keys.data(), keys.size(), hashes.data(),
                   key_null.data());
    for (size_t i = 0; i < side.num_rows; ++i) {
      if (key_null[i]) continue;
      sub[mod_f(Mix64(hashes[i] ^ salt))].push_back(static_cast<uint32_t>(i));
    }
    return sub;
  };
  std::vector<std::vector<uint32_t>> build_sub = split(build, build_keys);
  std::vector<std::vector<uint32_t>> probe_sub = split(probe, probe_keys);
  stats->repartition_rows += build.num_rows + probe.num_rows;
  stats->spill_seconds +=
      static_cast<double>(build.num_rows + probe.num_rows) *
      cluster_.cpu_seconds_per_tuple;

  // Spill every non-empty sub-partition pair to one checksummed batch
  // file holding two batches, build then probe, each gathered over its
  // split's selection. Every spilled byte is written once and read back
  // once, charged at the disk rates.
  const std::string base = NewSpillStem() + "p" + std::to_string(part) +
                           "_d" + std::to_string(depth) + "_k";
  std::vector<std::string> files;
  files.reserve(static_cast<size_t>(fanout));
  auto cleanup = [&files]() {
    for (const std::string& f : files) std::remove(f.c_str());
  };
  auto gather = [](const ColumnBatch& side, const std::vector<uint32_t>& sel,
                   uint64_t* bytes) {
    ColumnBatch sub = GatherViews({{&side, sel.data(), nullptr, sel.size()}});
    for (uint64_t s : sub.row_sizes) *bytes += s;
    return sub;
  };
  std::vector<char> live(fanout, 0);
  for (int k = 0; k < fanout; ++k) {
    if (build_sub[k].empty() && probe_sub[k].empty()) continue;
    live[k] = 1;
    uint64_t pair_bytes = 0;
    files.push_back(base + std::to_string(k) + ".drb");
    std::vector<ColumnBatch> pair;
    pair.push_back(gather(build, build_sub[k], &pair_bytes));
    pair.push_back(gather(probe, probe_sub[k], &pair_bytes));
    Status st = WriteBatchesFile(files.back(), pair);
    if (!st.ok()) {
      cleanup();
      return st;
    }
    stats->spilled_bytes += pair_bytes;
    stats->spill_seconds += static_cast<double>(pair_bytes) *
                            (cluster_.disk_write_seconds_per_byte +
                             cluster_.disk_read_seconds_per_byte);
    ++stats->spill_partitions;
  }
  build_sub.clear();
  probe_sub.clear();

  // Join each sub-partition pair: read its file back, drop it, recurse (a
  // still-oversized sub-partition splits again under a fresh salt, up to
  // kMaxSpillRecursion).
  for (int k = 0; k < fanout; ++k) {
    if (!live[k]) continue;
    Status alive = CheckAlive();
    if (!alive.ok()) {
      cleanup();
      return alive;
    }
    const std::string path = base + std::to_string(k) + ".drb";
    auto pair = ReadBatchesFile(path);
    if (pair.ok() && pair->size() != 2) {
      pair = Status::DataCorruption("spill file " + path + " holds " +
                                    std::to_string(pair->size()) +
                                    " batches, not 2");
    }
    if (!pair.ok()) {
      cleanup();
      return pair.status();
    }
    std::remove(path.c_str());
    const uint64_t next_salt = Mix64(
        salt ^ (0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(k + 1)));
    Status st = GraceJoinPartition((*pair)[0], (*pair)[1], build_keys,
                                   probe_keys, depth + 1, next_salt, part,
                                   work, sink, stats);
    if (!st.ok()) {
      cleanup();
      return st;
    }
  }
  return Status::OK();
}

Result<ColumnarDataset> JobExecutor::LocalHashJoin(
    ShuffleResult&& build, const ShuffleResult& probe,
    const std::vector<int>& build_keys, const std::vector<int>& probe_keys,
    ExecMetrics* metrics) {
  std::vector<std::string> names;
  std::vector<SinkColumn> sources;
  JoinedColumns(build.source.columns, probe.source.columns, nullptr, &names,
                &sources);
  return JoinViews(std::move(names), std::move(sources), build.Views(),
                   probe.Views(), build_keys, probe_keys, metrics, &build);
}

Result<ColumnarDataset> JobExecutor::LocalHashJoin(
    const ColumnarDataset& build, const ColumnarDataset& probe,
    const std::vector<int>& build_keys, const std::vector<int>& probe_keys,
    ExecMetrics* metrics) {
  std::vector<std::string> names;
  std::vector<SinkColumn> sources;
  JoinedColumns(build.columns, probe.columns, nullptr, &names, &sources);
  return JoinViews(std::move(names), std::move(sources),
                   WholeBatchViews(build), WholeBatchViews(probe), build_keys,
                   probe_keys, metrics);
}

Result<ColumnarDataset> JobExecutor::JoinViews(
    std::vector<std::string> out_columns, std::vector<SinkColumn> sources,
    const std::vector<std::vector<BatchView>>& build,
    const std::vector<std::vector<BatchView>>& probe,
    const std::vector<int>& build_keys, const std::vector<int>& probe_keys,
    ExecMetrics* metrics, ShuffleResult* build_owner) {
  DYNOPT_RETURN_IF_ERROR(config_status_);
  const size_t num_parts = probe.size();
  const size_t num_builds = build.size();
  if (num_builds != num_parts && num_builds != 1) {
    return Status::InvalidArgument(
        "hash join needs one build partition per probe partition, or one "
        "shared build partition; got " +
        std::to_string(num_builds) + " build and " +
        std::to_string(num_parts) + " probe partitions");
  }
  DYNOPT_RETURN_IF_ERROR(CheckAlive());
  // Node p's build partition: its own, or the one a broadcast shares.
  auto build_of = [num_builds](size_t p) { return num_builds == 1 ? 0 : p; };
  const size_t batch_cap = cluster_.exec.max_batch_size;
  ColumnarDataset out(std::move(out_columns), num_parts);
  std::vector<uint64_t> build_rows(num_builds, 0);
  for (size_t b = 0; b < num_builds; ++b) {
    for (const BatchView& v : build[b]) build_rows[b] += v.num_rows;
  }

  // Build phase: gather each build partition's views into one flat batch
  // (the table's index space) and build the flat table over it with the
  // shuffle's hashes, or hash its key columns. Join-memory governance sizes
  // each flat partition from its row sizes in the same task; one exceeding
  // the join budget takes the grace-join spill path and never builds a
  // full-partition table — that is the point. With a zero budget nothing
  // spills.
  const uint64_t join_budget = cluster_.memory.join_memory_budget_bytes;
  std::vector<uint64_t> build_bytes(num_builds, 0);
  std::vector<char> spill(num_builds, 0);
  TraceSpan build_span("join-build", "kernel");
  auto wall_start = WallClock::now();
  if (join_tables_.size() < num_builds) join_tables_.resize(num_builds);
  std::vector<JoinHashTable>& tables = join_tables_;
  std::vector<ColumnBatch> build_flat(num_builds);
  pool_->ParallelFor(num_builds, [&](size_t b) {
    build_flat[b] = GatherViews(build[b]);
    for (uint64_t size : build_flat[b].row_sizes) build_bytes[b] += size;
    spill[b] = join_budget > 0 && build_bytes[b] > join_budget &&
               build_rows[b] > 1;
    if (spill[b]) return;
    std::vector<uint64_t> hashes;
    if (!build[b].empty() && build[b][0].hashes != nullptr) {
      hashes.reserve(build_rows[b]);
      for (const BatchView& v : build[b]) {
        hashes.insert(hashes.end(), v.hashes, v.hashes + v.num_rows);
      }
    }
    BuildTable(build_flat[b], build_keys,
               hashes.empty() ? nullptr : hashes.data(), &tables[b]);
  });
  // The flat batches hold every build row now; `build` is not read again.
  if (build_owner != nullptr) *build_owner = ShuffleResult();
  // Each node's resident build side — a broadcast's on every node — is
  // accounted against the query's tracker for the rest of the join
  // (spilled partitions account their sub-joins inside GraceJoinPartition
  // instead). Nothing reserves during the build, so reserving after it
  // leaves the tracker's peak where reserving before it would.
  bool any_spill = false;
  MemoryReservation join_mem(ctx_ != nullptr ? &ctx_->memory() : nullptr);
  for (size_t b = 0; b < num_builds; ++b) any_spill = any_spill || spill[b];
  for (size_t p = 0; p < num_parts; ++p) {
    if (!spill[build_of(p)]) join_mem.GrowUnchecked(build_bytes[build_of(p)]);
  }
  metrics->wall_build_seconds += SecondsSince(wall_start);
  if (FaultsArmed()) {
    // Build-stage fault overlay: node p's clean task time is inserting its
    // build partition into the hash table.
    std::vector<double> build_seconds(num_parts, 0.0);
    for (size_t p = 0; p < num_parts; ++p) {
      build_seconds[p] = static_cast<double>(build_rows[build_of(p)]) *
                         cluster_.cpu_seconds_per_tuple;
    }
    DYNOPT_RETURN_IF_ERROR(
        ApplyFaults(FaultSite::kBuild, build_seconds, metrics));
  }
  build_span.End();

  // Probe phase. Spilled partitions gather their probe views into one flat
  // batch and take the grace-join route inside the same ParallelFor,
  // emitting into the same output slot; their failures (spill I/O, a
  // cancellation observed mid-spill) land in part_status, merged after the
  // loop.
  DYNOPT_RETURN_IF_ERROR(CheckAlive());
  TraceSpan probe_span("join-probe", "kernel");
  wall_start = WallClock::now();
  std::vector<uint64_t> work(num_parts, 0);
  std::vector<Status> part_status(num_parts);
  std::vector<SpillStats> part_spill(any_spill ? num_parts : 0);
  pool_->ParallelFor(num_parts, [&](size_t p) {
    const size_t b = build_of(p);
    BatchSink sink(&sources, batch_cap, &out.partitions[p]);
    if (spill[b]) {
      part_status[p] = GraceJoinPartition(
          build_flat[b], GatherViews(probe[p]), build_keys, probe_keys,
          /*depth=*/0, /*salt=*/0xc2b2ae3d27d4eb4fULL, p, &work[p], &sink,
          &part_spill[p]);
    } else {
      uint64_t probe_rows = 0;
      for (const BatchView& v : probe[p]) probe_rows += v.num_rows;
      work[p] = build_rows[b] + probe_rows +
                ProbeTable(build_flat[b], tables[b], probe[p], build_keys,
                           probe_keys, &sink);
    }
    sink.Flush();
  });
  metrics->wall_probe_seconds += SecondsSince(wall_start);
  for (const Status& st : part_status) {
    DYNOPT_RETURN_IF_ERROR(st);
  }

  uint64_t total_work = 0;
  for (uint64_t w : work) total_work += w;
  metrics->tuples_processed += total_work;
  metrics->simulated_seconds +=
      static_cast<double>(MaxOver(work)) * cluster_.cpu_seconds_per_tuple;
  if (any_spill) {
    // Spill cost: each spilled partition's disk passes + repartition CPU run
    // on that partition's node, concurrently across nodes — so simulated
    // time takes the max over partitions while the byte/partition counters
    // sum.
    double max_spill_seconds = 0.0;
    uint64_t call_spilled_bytes = 0;
    uint64_t call_spill_partitions = 0;
    for (size_t p = 0; p < num_parts; ++p) {
      const SpillStats& s = part_spill[p];
      max_spill_seconds = std::max(max_spill_seconds, s.spill_seconds);
      call_spilled_bytes += s.spilled_bytes;
      call_spill_partitions += s.spill_partitions;
    }
    metrics->spilled_bytes += call_spilled_bytes;
    metrics->spill_partitions += call_spill_partitions;
    metrics->simulated_seconds += max_spill_seconds;
    if (ctx_ != nullptr) {
      metrics->peak_memory_bytes =
          std::max(metrics->peak_memory_bytes, ctx_->memory().peak());
    }
  }
  if (FaultsArmed()) {
    // Probe-stage fault overlay: node p's clean task time is its probe +
    // emission work (work[p] minus the build rows already charged above).
    std::vector<double> probe_seconds(num_parts, 0.0);
    for (size_t p = 0; p < num_parts; ++p) {
      probe_seconds[p] = static_cast<double>(work[p] - build_rows[build_of(p)]) *
                         cluster_.cpu_seconds_per_tuple;
    }
    DYNOPT_RETURN_IF_ERROR(
        ApplyFaults(FaultSite::kProbe, probe_seconds, metrics));
  }
  return out;
}

Result<ColumnarDataset> JobExecutor::ExecJoin(
    const PlanNode& node, const std::vector<const PlanNode*>& projects,
    const std::map<std::string, Value>& params, ExecMetrics* metrics) {
  DYNOPT_ASSIGN_OR_RETURN(ColumnarDataset build,
                          ExecNode(*node.children[0], params, metrics));
  DYNOPT_ASSIGN_OR_RETURN(ColumnarDataset probe,
                          ExecNode(*node.children[1], params, metrics));
  std::vector<std::string> build_names, probe_names;
  for (const auto& [l, r] : node.keys) {
    build_names.push_back(l);
    probe_names.push_back(r);
  }
  DYNOPT_ASSIGN_OR_RETURN(
      std::vector<int> build_keys,
      ResolveColumns(build.columns, build_names, "join build"));
  DYNOPT_ASSIGN_OR_RETURN(
      std::vector<int> probe_keys,
      ResolveColumns(probe.columns, probe_names, "join probe"));
  // The join's output after the Projects folded into it.
  std::vector<std::string> out_columns;
  std::vector<SinkColumn> sources;
  JoinedColumns(build.columns, probe.columns, nullptr, &out_columns, &sources);
  DYNOPT_RETURN_IF_ERROR(FoldProjects(projects, &out_columns, &sources));

  if (node.method == JoinMethod::kHashShuffle) {
    if (PredicateTransferEnabled()) {
      // Sideways pushdown: ship the build side's key filter so pruned probe
      // rows never enter either Repartition below.
      TransferPredicate(build, build_keys, &probe, probe_keys, metrics);
    }
    DYNOPT_ASSIGN_OR_RETURN(
        ShuffleResult build_parts,
        Repartition(std::move(build), build_keys, metrics));
    DYNOPT_ASSIGN_OR_RETURN(
        ShuffleResult probe_parts,
        Repartition(std::move(probe), probe_keys, metrics));
    return JoinViews(std::move(out_columns), std::move(sources),
                     build_parts.Views(), probe_parts.Views(), build_keys,
                     probe_keys, metrics, &build_parts);
  }

  // Broadcast join: replicate the (small) build side to every partition of
  // the probe side.
  DYNOPT_CHECK(node.method == JoinMethod::kBroadcast);
  const uint64_t build_bytes = build.TotalBytes();
  const size_t n = probe.partitions.size();
  metrics->bytes_broadcast += build_bytes * n;
  // Every node receives the full build side; receipt happens in parallel.
  metrics->simulated_seconds +=
      static_cast<double>(build_bytes) * cluster_.network_seconds_per_byte;
  // A build side larger than the per-node join memory overflows to disk:
  // the dynamic hash join re-partitions the overflow in extra passes. An
  // optimizer that broadcast a dataset it wrongly believed small pays here.
  // This flat-penalty model only applies while no join-memory budget is
  // configured; with a budget, the overflow takes the *real* grace-join
  // spill path inside JoinViews and is metered from executed passes.
  if (cluster_.memory.join_memory_budget_bytes == 0 &&
      build_bytes > cluster_.broadcast_threshold_bytes) {
    double overflow = static_cast<double>(build_bytes -
                                          cluster_.broadcast_threshold_bytes);
    metrics->simulated_seconds +=
        overflow * kSpillPenaltyPasses *
        (cluster_.disk_write_seconds_per_byte +
         cluster_.disk_read_seconds_per_byte);
  }
  if (FaultsArmed()) {
    // Broadcast-stage fault overlay: every node receives the full build
    // side, so all clean task times are equal.
    std::vector<double> receive_seconds(
        n, static_cast<double>(build_bytes) *
               cluster_.network_seconds_per_byte);
    DYNOPT_RETURN_IF_ERROR(
        ApplyFaults(FaultSite::kBroadcast, receive_seconds, metrics));
  }

  // The simulator meters n copies but keeps one: the build side becomes a
  // single partition that every probe partition reads, so the join gathers
  // one flat batch and builds one table (still metered as a build on every
  // node).
  ColumnarDataset shared(build.columns, 1);
  for (std::vector<ColumnBatch>& part : build.partitions) {
    for (ColumnBatch& b : part) shared.partitions[0].push_back(std::move(b));
  }
  return JoinViews(std::move(out_columns), std::move(sources),
                   WholeBatchViews(shared), WholeBatchViews(probe), build_keys,
                   probe_keys, metrics);
}

void JobExecutor::TransferPredicate(const ColumnarDataset& build,
                                    const std::vector<int>& build_keys,
                                    ColumnarDataset* probe,
                                    const std::vector<int>& probe_keys,
                                    ExecMetrics* metrics) {
  TraceSpan span("predicate-transfer", "kernel");
  const uint64_t build_rows = build.NumRows();
  BloomFilter bloom(std::max<uint64_t>(build_rows, 1),
                    SketchOptions().bits_per_key);
  {
    std::vector<uint64_t> hashes;
    std::vector<uint8_t> key_null;
    for (const auto& part : build.partitions) {
      for (const ColumnBatch& b : part) {
        hashes.resize(b.num_rows);
        key_null.assign(b.num_rows, 0);
        HashKeyColumns(b, build_keys.data(), build_keys.size(), hashes.data(),
                       key_null.data());
        // NULL keys never join, so they never enter the filter — and a
        // probe row with a NULL key is pruned below without consulting it.
        for (size_t i = 0; i < b.num_rows; ++i) {
          if (key_null[i] == 0) bloom.Insert(hashes[i]);
        }
      }
    }
  }
  // Each node feeds the filter from its resident build partition.
  uint64_t max_build_part = 0;
  for (size_t p = 0; p < build.partitions.size(); ++p) {
    max_build_part = std::max(max_build_part, build.PartitionRows(p));
  }
  metrics->simulated_seconds +=
      static_cast<double>(max_build_part) * cluster_.cpu_seconds_per_tuple;

  // Ship the merged filter to every probe-side node. Like a broadcast:
  // total bytes on the wire are size * nodes, receipt is parallel.
  const size_t num_parts = probe->partitions.size();
  metrics->pt_filter_bytes += bloom.SizeBytes() * num_parts;
  metrics->simulated_seconds +=
      static_cast<double>(bloom.SizeBytes()) * cluster_.network_seconds_per_byte;

  // Filter probe partitions in place before they enter the shuffle.
  std::vector<uint64_t> part_rows(num_parts, 0);
  std::vector<uint64_t> pruned_rows(num_parts, 0);
  std::vector<uint64_t> pruned_bytes(num_parts, 0);
  pool_->ParallelFor(num_parts, [&](size_t p) {
    std::vector<uint64_t> hashes;
    std::vector<uint8_t> key_null;
    std::vector<uint32_t> sel;
    for (ColumnBatch& b : probe->partitions[p]) {
      part_rows[p] += b.num_rows;
      hashes.resize(b.num_rows);
      key_null.assign(b.num_rows, 0);
      HashKeyColumns(b, probe_keys.data(), probe_keys.size(), hashes.data(),
                     key_null.data());
      sel.clear();
      for (size_t i = 0; i < b.num_rows; ++i) {
        if (key_null[i] == 0 && bloom.MayContain(hashes[i])) {
          sel.push_back(static_cast<uint32_t>(i));
        } else {
          ++pruned_rows[p];
          pruned_bytes[p] += b.row_sizes[i];
        }
      }
      if (sel.size() != b.num_rows) {
        b = GatherViews({{&b, sel.data(), nullptr, sel.size()}});
      }
    }
  });
  uint64_t max_probe_part = 0;
  for (size_t p = 0; p < num_parts; ++p) {
    max_probe_part = std::max(max_probe_part, part_rows[p]);
    metrics->pt_pruned_rows += pruned_rows[p];
    metrics->pt_pruned_bytes += pruned_bytes[p];
  }
  // Each node tests its probe partition against the filter once.
  metrics->simulated_seconds +=
      static_cast<double>(max_probe_part) * cluster_.cpu_seconds_per_tuple;
  metrics->tuples_processed += build_rows;
  for (uint64_t r : part_rows) metrics->tuples_processed += r;
}

Result<ColumnarDataset> JobExecutor::ExecIndexNestedLoopJoin(
    const PlanNode& node, const std::vector<const PlanNode*>& projects,
    const std::map<std::string, Value>& params, ExecMetrics* metrics) {
  TraceSpan span("inlj", "kernel");
  if (node.keys.size() != 1) {
    return Status::ExecutionError(
        "indexed nested loop join supports exactly one key pair");
  }
  const PlanNode& inner_scan = *node.children[1];
  if (inner_scan.kind != PlanNode::Kind::kScan || inner_scan.is_intermediate) {
    return Status::ExecutionError(
        "indexed nested loop join requires a base-table scan as inner");
  }
  DYNOPT_ASSIGN_OR_RETURN(std::shared_ptr<Table> inner,
                          catalog_->GetTable(inner_scan.table));
  // The inner key is qualified "alias.column"; strip the alias.
  const std::string& inner_key_qualified = node.keys[0].second;
  std::string prefix = inner_scan.alias + ".";
  if (inner_key_qualified.rfind(prefix, 0) != 0) {
    return Status::ExecutionError("inner join key " + inner_key_qualified +
                                  " does not belong to " + inner_scan.alias);
  }
  std::string inner_column = inner_key_qualified.substr(prefix.size());
  const SecondaryIndex* index = inner->GetSecondaryIndex(inner_column);
  if (index == nullptr) {
    return Status::ExecutionError("no secondary index on " +
                                  inner_scan.table + "." + inner_column);
  }

  DYNOPT_ASSIGN_OR_RETURN(ColumnarDataset outer,
                          ExecNode(*node.children[0], params, metrics));
  const int outer_key = outer.ColumnIndex(node.keys[0].first);
  if (outer_key < 0) {
    return Status::ExecutionError("outer join key " + node.keys[0].first +
                                  " not found");
  }
  // Inner output columns (with projection pushdown), read from the stored
  // runs' slots; the join's output after the Projects folded into it.
  std::vector<int> inner_keep;
  std::vector<std::string> inner_columns;
  DYNOPT_RETURN_IF_ERROR(ResolveScanColumns(inner_scan, inner->schema(),
                                            &inner_keep, &inner_columns));
  std::vector<std::string> out_columns;
  std::vector<SinkColumn> sources;
  JoinedColumns(outer.columns, inner_columns, inner_keep.data(), &out_columns,
                &sources);
  DYNOPT_RETURN_IF_ERROR(FoldProjects(projects, &out_columns, &sources));

  // Broadcast the outer to every node; each arriving row probes the local
  // index immediately (Section 3, Indexed Nested Loop Join). The outer's
  // batches are gathered once, in partition-then-row order, and every
  // non-NULL key is materialized once for all nodes' lookups.
  struct OuterKey {
    uint32_t batch;
    uint32_t row;
    Value key;
  };
  std::vector<ColumnBatch> outer_batches;
  std::vector<OuterKey> keys;
  uint64_t outer_bytes = 0;
  for (auto& part : outer.partitions) {
    for (ColumnBatch& b : part) {
      if (b.num_rows == 0) continue;
      const ColumnVector& col = b.columns[static_cast<size_t>(outer_key)];
      for (size_t i = 0; i < b.num_rows; ++i) {
        outer_bytes += b.row_sizes[i];
        if (!col.IsNullAt(i)) {
          keys.push_back({static_cast<uint32_t>(outer_batches.size()),
                          static_cast<uint32_t>(i), col.ValueAt(i)});
        }
      }
      outer_batches.push_back(std::move(b));
    }
  }
  outer.partitions.clear();
  const size_t n = inner->num_partitions();
  metrics->bytes_broadcast += outer_bytes * n;
  metrics->simulated_seconds +=
      static_cast<double>(outer_bytes) * cluster_.network_seconds_per_byte;
  if (FaultsArmed()) {
    // The INLJ outer broadcast is a broadcast stage like any other.
    std::vector<double> receive_seconds(
        n, static_cast<double>(outer_bytes) *
               cluster_.network_seconds_per_byte);
    DYNOPT_RETURN_IF_ERROR(
        ApplyFaults(FaultSite::kBroadcast, receive_seconds, metrics));
  }

  ColumnarDataset out(std::move(out_columns), n);
  std::vector<uint64_t> matched_bytes(n, 0);
  pool_->ParallelFor(n, [&](size_t p) {
    BatchSink sink(&sources, cluster_.exec.max_batch_size, &out.partitions[p]);
    // Matches accumulate as (outer row, inner row) selection pairs and are
    // gathered whenever the outer batch or the inner run changes.
    const ColumnBatch* outer_batch = nullptr;
    const ColumnBatch* run = nullptr;
    std::vector<uint32_t> osel, isel;
    auto flush = [&]() {
      sink.AppendJoinGather(*outer_batch, osel.data(), *run, isel.data(),
                            osel.size());
      osel.clear();
      isel.clear();
    };
    uint64_t local_matched_bytes = 0;
    for (const OuterKey& key : keys) {
      const std::vector<uint32_t>* offsets = index->Lookup(p, key.key);
      if (offsets == nullptr) continue;
      const ColumnBatch& ob = outer_batches[key.batch];
      for (uint32_t off : *offsets) {
        const auto [match_run, row] = inner->LocateRow(p, off);
        if ((&ob != outer_batch || match_run != run) && !osel.empty()) {
          flush();
        }
        outer_batch = &ob;
        run = match_run;
        // Only matched pages are read: the full stored row is charged.
        local_matched_bytes += run->row_sizes[row];
        osel.push_back(key.row);
        isel.push_back(static_cast<uint32_t>(row));
      }
    }
    if (!osel.empty()) flush();
    sink.Flush();
    matched_bytes[p] = local_matched_bytes;
  });
  // Every node looks up every non-NULL outer key.
  const uint64_t lookups_per_node = keys.size();
  uint64_t total_matched = 0;
  for (uint64_t b : matched_bytes) total_matched += b;
  metrics->index_lookups += lookups_per_node * n;
  metrics->bytes_scanned += total_matched;
  metrics->simulated_seconds +=
      static_cast<double>(lookups_per_node) * cluster_.index_lookup_seconds +
      static_cast<double>(MaxOver(matched_bytes)) *
          cluster_.disk_read_seconds_per_byte;
  return out;
}

namespace {

/// Type of the first non-NULL value of column `c` in partition-then-row
/// order (kNull when the column holds only NULLs): a temp table's field
/// type.
ValueType FirstValueType(const ColumnarDataset& data, size_t c) {
  for (const auto& part : data.partitions) {
    for (const ColumnBatch& b : part) {
      for (size_t i = 0; i < b.num_rows; ++i) {
        const ValueType t = b.columns[c].TypeAt(i);
        if (t != ValueType::kNull) return t;
      }
    }
  }
  return ValueType::kNull;
}

}  // namespace

Result<SinkResult> JobExecutor::Materialize(
    ColumnarDataset&& data, const std::string& prefix,
    const std::vector<std::string>& stats_columns, bool collect_stats,
    ExecMetrics* metrics, const std::vector<std::string>* sketch_columns) {
  DYNOPT_RETURN_IF_ERROR(config_status_);
  DYNOPT_RETURN_IF_ERROR(CheckAlive());
  TraceSpan span("materialize", "kernel");
  const auto wall_start = WallClock::now();
  // Build the temp table schema: stored column names are the (already
  // qualified) dataset column names; each type is the first non-NULL
  // value's, in partition-then-row order.
  const size_t num_cols = data.columns.size();
  const size_t num_parts = data.partitions.size();
  std::vector<Field> fields;
  fields.reserve(num_cols);
  for (size_t c = 0; c < num_cols; ++c) {
    fields.push_back(Field{data.columns[c], FirstValueType(data, c)});
  }
  std::string name = catalog_->UniqueTempName(prefix);
  auto table = std::make_shared<Table>(name, Schema(std::move(fields)),
                                       data.partitions.size());

  // Online statistics builders, one per partition, merged afterwards — the
  // paper collects sketches in parallel with writing the sink. They build
  // what re-planning reads: counts, bounds and HLL ndv, no quantiles.
  std::vector<int> stat_indices;
  std::vector<std::string> stat_names;
  for (const auto& col : stats_columns) {
    int idx = data.ColumnIndex(col);
    if (idx >= 0) {
      stat_indices.push_back(idx);
      stat_names.push_back(col);
    }
  }
  std::vector<TableStatsBuilder> builders;
  if (collect_stats) {
    builders.reserve(num_parts);
    for (size_t p = 0; p < num_parts; ++p) {
      builders.emplace_back(stat_names, stat_indices, StatsOptions(),
                            Quantiles::kSkip);
    }
  }
  // Each partition's stat columns are fed column-at-a-time, in the
  // partition's row order; its byte total sums the size annotation. With
  // statistics on, the whole pass counts as statistics wall time.
  std::vector<uint64_t> part_bytes(num_parts, 0);
  std::vector<uint64_t> part_rows(num_parts, 0);
  const auto stats_start = WallClock::now();
  pool_->ParallelFor(num_parts, [&](size_t p) {
    uint64_t bytes = 0;
    uint64_t rows = 0;
    for (const ColumnBatch& b : data.partitions[p]) {
      for (uint64_t s : b.row_sizes) bytes += s;
      rows += b.num_rows;
      if (collect_stats) AddBatchToStats(b, &builders[p]);
    }
    part_bytes[p] = bytes;
    part_rows[p] = rows;
  });
  if (collect_stats) metrics->wall_stats_seconds += SecondsSince(stats_start);
  uint64_t total_bytes = 0, total_rows = 0;
  for (size_t p = 0; p < num_parts; ++p) {
    total_bytes += part_bytes[p];
    total_rows += part_rows[p];
  }
  // Account the sink buffer against the query tracker while it is resident
  // here (released once the batches are handed to the catalog).
  MemoryReservation sink_mem(ctx_ != nullptr ? &ctx_->memory() : nullptr);
  sink_mem.GrowUnchecked(total_bytes);
  // Fault overlay for the sink write stage, applied before anything is
  // registered or charged so an injected whole-query abort leaves no
  // half-materialized table behind. One stage id covers the whole sink;
  // the corruption loop below draws from the same id.
  int mat_stage = -1;
  if (FaultsArmed()) {
    mat_stage = faults_->NextStageId();
    std::vector<double> write_seconds_per_node(num_parts, 0.0);
    for (size_t p = 0; p < num_parts; ++p) {
      write_seconds_per_node[p] = static_cast<double>(part_bytes[p]) *
                                  cluster_.disk_write_seconds_per_byte;
    }
    DYNOPT_RETURN_IF_ERROR(ApplyFaults(FaultSite::kMaterialize,
                                       write_seconds_per_node, metrics,
                                       mat_stage));
  }
  // Optionally round-trip each partition through the on-disk temp-file
  // format (the paper's intermediates are "stored in a temporary file"):
  // the verified read-back replaces the partition's batches.
  // Under fault injection this is where corruption is *physical*: a byte of
  // the written file is flipped, the checksummed format detects it on
  // read-back (kDataCorruption), and the partition is re-materialized with
  // backoff — up to the retry budget, after which the sink fails fatally.
  if (cluster_.materialize_to_disk) {
    const bool inject = FaultsArmed();
    const std::string stem = NewSpillStem();
    const BackoffPolicy& backoff = cluster_.fault.backoff;
    std::vector<Status> statuses(num_parts);
    std::vector<double> extra_seconds(num_parts, 0.0);
    std::vector<uint64_t> part_retries(num_parts, 0);
    std::vector<uint64_t> part_corrupted(num_parts, 0);
    pool_->ParallelFor(num_parts, [&](size_t p) {
      const std::string path = stem + "p" + std::to_string(p) + ".drb";
      Status st;
      for (int attempt = 0;; ++attempt) {
        st = WriteBatchesFile(path, data.partitions[p]);
        if (!st.ok()) break;
        if (inject && faults_->CorruptsBlock(mat_stage, p, attempt)) {
          (void)CorruptByteInFile(path,
                                  faults_->CorruptionOffset(mat_stage, p));
        }
        auto back = ReadBatchesFile(path);
        if (back.ok()) {
          data.partitions[p] = std::move(back).value();
          break;
        }
        st = back.status();
        if (st.code() != StatusCode::kDataCorruption) break;
        ++part_corrupted[p];
        if (attempt + 1 >= backoff.max_attempts) {
          st = Status::ExecutionError(
              "materialized partition " + path + " corrupted on " +
              std::to_string(backoff.max_attempts) + " attempts: " +
              st.message());
          break;
        }
        if (retry_budget_ != nullptr && !retry_budget_->TryAcquire()) {
          registry_->counter("exec.retry_budget_denied")
              ->Increment();
          st = Status::ResourceExhausted(
              "engine retry budget exhausted re-materializing " + path);
          break;
        }
        // Re-materialize: pay another write + verify read plus the backoff
        // wait (simulated seconds, committed after the ParallelFor).
        ++part_retries[p];
        const uint64_t jitter_site =
            HashCombine(static_cast<uint64_t>(mat_stage),
                        HashCombine(static_cast<uint64_t>(p),
                                    static_cast<uint64_t>(
                                        FaultSite::kMaterialize)));
        extra_seconds[p] += backoff.JitteredDelay(jitter_site, attempt) +
                            static_cast<double>(part_bytes[p]) *
                                (cluster_.disk_write_seconds_per_byte +
                                 cluster_.disk_read_seconds_per_byte);
      }
      std::remove(path.c_str());
      statuses[p] = st;
    });
    if (inject) {
      double extra = 0.0;
      uint64_t call_retries = 0;
      uint64_t call_corrupted = 0;
      for (size_t p = 0; p < num_parts; ++p) {
        extra = std::max(extra, extra_seconds[p]);
        call_retries += part_retries[p];
        call_corrupted += part_corrupted[p];
      }
      metrics->num_retries += call_retries;
      metrics->corrupted_blocks += call_corrupted;
      if (extra > 0.0) {
        metrics->simulated_seconds += extra;
        metrics->recovery_seconds += extra;
      }
    }
    for (const Status& st : statuses) {
      DYNOPT_RETURN_IF_ERROR(st);
    }
  }

  // Move the batches in partition-faithfully so the producing node's
  // placement (and any skew) survives materialization. The runs keep the
  // batches' buffers, so a scan of the temp table borrows what the job
  // wrote.
  for (size_t p = 0; p < num_parts; ++p) {
    DYNOPT_RETURN_IF_ERROR(
        table->AppendBatches(p, std::move(data.partitions[p])));
  }

  // Online join-key sketches (predicate transfer): per-partition builders
  // over the stored runs, merged into one dataset-level sketch per column,
  // registered under the temp name.
  std::vector<int> sketch_indices;
  std::vector<std::string> sketch_names;
  if (sketches_ != nullptr && sketch_columns != nullptr) {
    for (const auto& col : *sketch_columns) {
      int idx = data.ColumnIndex(col);
      if (idx >= 0) {
        sketch_indices.push_back(idx);
        sketch_names.push_back(col);
      }
    }
  }
  if (!sketch_indices.empty()) {
    const auto sketch_start = WallClock::now();
    const size_t num_sketch = sketch_indices.size();
    // All shards are sized from the same total so merging is well-formed.
    std::vector<std::vector<JoinKeySketch>> shards(num_parts);
    for (size_t p = 0; p < num_parts; ++p) {
      shards[p].reserve(num_sketch);
      for (size_t c = 0; c < num_sketch; ++c) {
        shards[p].push_back(JoinKeySketch::ForKeys(total_rows));
      }
    }
    pool_->ParallelFor(num_parts, [&](size_t p) {
      for (const ColumnBatch& b : table->partition(p)) {
        for (size_t c = 0; c < num_sketch; ++c) {
          AddColumnToSketch(b, sketch_indices[c], &shards[p][c]);
        }
      }
    });
    for (size_t c = 0; c < num_sketch; ++c) {
      auto merged_sketch =
          std::make_shared<JoinKeySketch>(std::move(shards[0][c]));
      for (size_t p = 1; p < num_parts; ++p) {
        merged_sketch->bloom.MergeFrom(shards[p][c].bloom);
        merged_sketch->agms.MergeFrom(shards[p][c].agms);
        merged_sketch->rows += shards[p][c].rows;
        merged_sketch->null_keys += shards[p][c].null_keys;
      }
      sketches_->Put(name, sketch_names[c], std::move(merged_sketch));
    }
    // Priced like online statistics: one sketch update per (row, column),
    // collected in parallel across the nodes.
    const double sketch_cost =
        static_cast<double>(total_rows * num_sketch) *
        cluster_.stats_seconds_per_value / static_cast<double>(num_parts);
    metrics->stats_seconds += sketch_cost;
    metrics->simulated_seconds += sketch_cost;
    metrics->wall_stats_seconds += SecondsSince(sketch_start);
  }

  DYNOPT_RETURN_IF_ERROR(catalog_->RegisterTable(table));

  SinkResult result;
  result.table_name = name;
  if (collect_stats) {
    const auto finalize_start = WallClock::now();
    TableStatsBuilder merged(stat_names, stat_indices, StatsOptions(),
                             Quantiles::kSkip);
    for (const auto& b : builders) merged.Merge(b);
    result.stats = merged.Finalize();
    metrics->wall_stats_seconds += SecondsSince(finalize_start);
    result.stats.row_count = total_rows;
    result.stats.total_bytes = total_bytes;
    if (stats_ != nullptr) stats_->Put(name, result.stats);
    const double stats_cost =
        static_cast<double>(total_rows * std::max<size_t>(1, stat_names.size())) *
        cluster_.stats_seconds_per_value / static_cast<double>(num_parts);
    metrics->stats_seconds += stats_cost;
    metrics->simulated_seconds += stats_cost;
  } else {
    // Even without sketch collection the framework learns the exact size of
    // the materialized intermediate (the INGRES-style cardinality-only
    // feedback).
    result.stats.row_count = total_rows;
    result.stats.total_bytes = total_bytes;
    if (stats_ != nullptr) stats_->Put(name, result.stats);
  }

  metrics->bytes_materialized += total_bytes;
  const double write_seconds = static_cast<double>(MaxOver(part_bytes)) *
                               cluster_.disk_write_seconds_per_byte;
  metrics->reopt_seconds += write_seconds + cluster_.reopt_fixed_seconds;
  metrics->simulated_seconds +=
      write_seconds + cluster_.reopt_fixed_seconds;
  metrics->num_reopt_points += 1;
  metrics->wall_materialize_seconds += SecondsSince(wall_start);
  if (ctx_ != nullptr) {
    metrics->peak_memory_bytes =
        std::max(metrics->peak_memory_bytes, ctx_->memory().peak());
  }
  return result;
}

}  // namespace dynopt
