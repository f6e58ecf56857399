#include "exec/executor.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iterator>

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

/// Key indices of `names` within `data`; error when any is missing.
Result<std::vector<int>> ResolveColumns(const Dataset& data,
                                        const std::vector<std::string>& names,
                                        const char* what) {
  std::vector<int> indices;
  indices.reserve(names.size());
  for (const auto& name : names) {
    int idx = data.ColumnIndex(name);
    if (idx < 0) {
      return Status::ExecutionError(std::string(what) + " column " + name +
                                    " not found in dataset");
    }
    indices.push_back(idx);
  }
  return indices;
}

/// Columnar twin of ResolveColumns (same error text).
Result<std::vector<int>> ResolveColumnsColumnar(
    const ColumnarDataset& data, const std::vector<std::string>& names,
    const char* what) {
  std::vector<int> indices;
  indices.reserve(names.size());
  for (const auto& name : names) {
    int idx = data.ColumnIndex(name);
    if (idx < 0) {
      return Status::ExecutionError(std::string(what) + " column " + name +
                                    " not found in dataset");
    }
    indices.push_back(idx);
  }
  return indices;
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

}  // namespace

JobExecutor::JobExecutor(Catalog* catalog, StatsManager* stats,
                         const UdfRegistry* udfs, const ClusterConfig& cluster,
                         ThreadPool* pool, FaultInjector* faults,
                         QueryContext* ctx, RetryBudget* retry_budget,
                         SketchManager* sketches,
                         MetricsRegistry* metrics_registry)
    : catalog_(catalog),
      stats_(stats),
      udfs_(udfs),
      cluster_(cluster),
      pool_(pool),
      faults_(faults),
      ctx_(ctx),
      retry_budget_(retry_budget),
      sketches_(sketches),
      registry_(metrics_registry != nullptr ? metrics_registry
                                            : &MetricsRegistry::Global()) {
  DYNOPT_CHECK(catalog != nullptr && pool != nullptr);
  // Config validation at construction time — a zero max_batch_size or node
  // count would otherwise fail as an underflow deep inside a kernel.
  const Status valid = ValidateClusterConfig(cluster_);
  if (!valid.ok()) {
    std::fprintf(stderr, "dynopt: invalid ClusterConfig: %s\n",
                 valid.message().c_str());
    std::abort();
  }
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
    // `speculation_threshold` x the median launches a backup copy on a
    // healthy node. The backup starts once the slowness is observable (at
    // the median completion time) and runs clean, so it finishes at
    // median + base; the earlier of original and backup wins.
    if (median > 0.0 && cfg.speculation_threshold > 0.0 &&
        completion > cfg.speculation_threshold * median) {
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
  registry_->counter("exec.retries")->Increment(retries);
  registry_->counter("exec.speculative")
      ->Increment(speculative);
  return Status::OK();
}

std::vector<Row> JobExecutor::TakeRowVec() {
  std::lock_guard<std::mutex> lock(scratch_mutex_);
  if (row_vec_pool_.empty()) return {};
  std::vector<Row> v = std::move(row_vec_pool_.back());
  row_vec_pool_.pop_back();
  return v;
}

void JobExecutor::RecycleRowVec(std::vector<Row>&& v) {
  if (v.capacity() == 0) return;
  v.clear();
  std::lock_guard<std::mutex> lock(scratch_mutex_);
  if (row_vec_pool_.size() < 64) row_vec_pool_.push_back(std::move(v));
}

std::vector<uint64_t> JobExecutor::TakeHashVec() {
  std::lock_guard<std::mutex> lock(scratch_mutex_);
  if (hash_vec_pool_.empty()) return {};
  std::vector<uint64_t> v = std::move(hash_vec_pool_.back());
  hash_vec_pool_.pop_back();
  return v;
}

void JobExecutor::RecycleHashVec(std::vector<uint64_t>&& v) {
  if (v.capacity() == 0) return;
  v.clear();
  std::lock_guard<std::mutex> lock(scratch_mutex_);
  if (hash_vec_pool_.size() < 64) hash_vec_pool_.push_back(std::move(v));
}

void JobExecutor::RecycleShuffleResult(ShuffleResult&& parts) {
  for (auto& rows : parts.data.partitions) RecycleRowVec(std::move(rows));
  for (auto& sizes : parts.data.row_sizes) RecycleHashVec(std::move(sizes));
  for (auto& hashes : parts.hashes) RecycleHashVec(std::move(hashes));
}

namespace {

/// True when every leaf of `node` scans a sys.* virtual table. Such jobs
/// (filters/projects over engine snapshots already in memory) are metered
/// at zero simulated cost — see the sys-table early-return in ExecScan.
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
  TraceSpan span("job", "job");
  registry_->counter("exec.jobs")->Increment();
  JobResult result;
  result.metrics.num_jobs = 1;
  if (cluster_.exec.use_columnar) {
    // Vectorized path: the batches go out as they are — Materialize moves
    // them into a temp table, result delivery gathers rows once.
    DYNOPT_ASSIGN_OR_RETURN(result.data,
                            ExecNodeColumnar(root, params, &result.metrics));
  } else {
    DYNOPT_ASSIGN_OR_RETURN(Dataset rows,
                            ExecNode(root, params, &result.metrics));
    result.data = FromDataset(rows, cluster_.exec.max_batch_size);
  }
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

Result<Dataset> JobExecutor::ExecNode(
    const PlanNode& node, const std::map<std::string, Value>& params,
    ExecMetrics* metrics) {
  // Cooperative cancellation: every operator boundary is a check point, so
  // a cancel/deadline terminates within one operator's work.
  DYNOPT_RETURN_IF_ERROR(CheckAlive());
  switch (node.kind) {
    case PlanNode::Kind::kScan:
      return ExecScan(node, metrics);
    case PlanNode::Kind::kFilter:
      return ExecFilter(node, params, metrics);
    case PlanNode::Kind::kProject:
      return ExecProject(node, params, metrics);
    case PlanNode::Kind::kJoin:
      if (node.method == JoinMethod::kIndexNestedLoop) {
        return ExecIndexNestedLoopJoin(node, params, metrics);
      }
      return ExecJoin(node, params, metrics);
  }
  return Status::Internal("unknown plan node kind");
}

Result<Dataset> JobExecutor::ExecScan(const PlanNode& node,
                                      ExecMetrics* metrics) {
  TraceSpan span("scan:" + node.table, "kernel");
  DYNOPT_ASSIGN_OR_RETURN(std::shared_ptr<Table> table,
                          catalog_->GetTable(node.table));
  const Schema& schema = table->schema();
  // Qualified output names: base scans prefix with the alias; intermediate
  // readers keep stored (already-qualified) names.
  std::vector<std::string> all_columns;
  all_columns.reserve(schema.num_fields());
  for (size_t i = 0; i < schema.num_fields(); ++i) {
    all_columns.push_back(node.is_intermediate
                              ? schema.field(i).name
                              : node.alias + "." + schema.field(i).name);
  }
  // Projection pushdown: which slots to keep.
  std::vector<int> keep;
  std::vector<std::string> out_columns;
  if (node.scan_columns.empty()) {
    for (size_t i = 0; i < all_columns.size(); ++i) {
      keep.push_back(static_cast<int>(i));
    }
    out_columns = all_columns;
  } else {
    for (const auto& wanted : node.scan_columns) {
      auto it = std::find(all_columns.begin(), all_columns.end(), wanted);
      if (it == all_columns.end()) {
        return Status::ExecutionError("scan column " + wanted +
                                      " not in table " + node.table);
      }
      keep.push_back(static_cast<int>(it - all_columns.begin()));
      out_columns.push_back(wanted);
    }
  }

  const size_t num_parts = table->num_partitions();
  Dataset out(out_columns, num_parts);
  out.row_sizes.resize(num_parts);
  std::vector<uint64_t> bytes_in(num_parts, 0);
  std::vector<uint64_t> rows_in(num_parts, 0);
  pool_->ParallelFor(num_parts, [&](size_t p) {
    auto& dest = out.partitions[p];
    auto& dest_sizes = out.row_sizes[p];
    dest.reserve(table->PartitionRows(p));
    dest_sizes.reserve(table->PartitionRows(p));
    // Row engine: build each projected row from the stored columns, sizing
    // it from the same values.
    for (const ColumnBatch& run : table->partition(p)) {
      for (size_t i = 0; i < run.num_rows; ++i) {
        Row projected;
        projected.reserve(keep.size());
        uint64_t projected_bytes = 8;
        for (int k : keep) {
          const ColumnVector& col = run.columns[static_cast<size_t>(k)];
          projected_bytes += col.SizeAt(i);
          projected.push_back(col.ValueAt(i));
        }
        dest_sizes.push_back(projected_bytes);
        dest.push_back(std::move(projected));
      }
    }
    bytes_in[p] = table->PartitionBytes(p);
    rows_in[p] = table->PartitionRows(p);
  });

  uint64_t total_bytes = 0, total_rows = 0;
  for (size_t p = 0; p < num_parts; ++p) {
    total_bytes += bytes_in[p];
    total_rows += rows_in[p];
  }
  if (Catalog::IsSystemName(node.table)) {
    // sys.* virtual tables materialize engine state that is already in
    // memory: metered at zero simulated cost so introspection queries
    // never perturb the cost model a real workload sees.
    return out;
  }
  metrics->tuples_processed += total_rows;
  double io_seconds;
  if (node.is_intermediate) {
    metrics->bytes_intermediate_read += total_bytes;
    io_seconds = static_cast<double>(MaxOver(bytes_in)) *
                 cluster_.disk_read_seconds_per_byte;
    // Re-reading materialized intermediates is re-optimization overhead.
    metrics->reopt_seconds += io_seconds;
  } else {
    metrics->bytes_scanned += total_bytes;
    io_seconds = static_cast<double>(MaxOver(bytes_in)) *
                 cluster_.scan_seconds_per_byte;
  }
  metrics->simulated_seconds +=
      io_seconds + static_cast<double>(MaxOver(rows_in)) *
                       cluster_.cpu_seconds_per_tuple;
  return out;
}

Result<Dataset> JobExecutor::ExecFilter(
    const PlanNode& node, const std::map<std::string, Value>& params,
    ExecMetrics* metrics) {
  DYNOPT_ASSIGN_OR_RETURN(Dataset input,
                          ExecNode(*node.children[0], params, metrics));
  BindContext ctx;
  ctx.resolve_column = [&input](const std::string& name) {
    return input.ColumnIndex(name);
  };
  ctx.params = &params;
  ctx.udfs = udfs_;
  DYNOPT_ASSIGN_OR_RETURN(BoundExprPtr bound, Bind(node.predicate, ctx));

  const size_t num_parts = input.partitions.size();
  Dataset out(input.columns, num_parts);
  const bool has_sizes = input.HasRowSizes();
  if (has_sizes) out.row_sizes.resize(num_parts);
  std::vector<uint64_t> rows_in(num_parts, 0);
  pool_->ParallelFor(num_parts, [&](size_t p) {
    auto& src = input.partitions[p];
    auto& dest = out.partitions[p];
    rows_in[p] = src.size();
    if (has_sizes) {
      // A filter does not change surviving rows, so their size annotations
      // ride along.
      const uint64_t* src_sizes = input.row_sizes[p].data();
      auto& dest_sizes = out.row_sizes[p];
      for (size_t i = 0; i < src.size(); ++i) {
        if (bound->EvalBool(src[i])) {
          dest_sizes.push_back(src_sizes[i]);
          dest.push_back(std::move(src[i]));
        }
      }
    } else {
      for (Row& row : src) {
        if (bound->EvalBool(row)) dest.push_back(std::move(row));
      }
    }
  });
  uint64_t total_rows = 0;
  for (uint64_t r : rows_in) total_rows += r;
  metrics->tuples_processed += total_rows;
  metrics->simulated_seconds += static_cast<double>(MaxOver(rows_in)) *
                                cluster_.cpu_seconds_per_tuple;
  return out;
}

Result<Dataset> JobExecutor::ExecProject(
    const PlanNode& node, const std::map<std::string, Value>& params,
    ExecMetrics* metrics) {
  DYNOPT_ASSIGN_OR_RETURN(Dataset input,
                          ExecNode(*node.children[0], params, metrics));
  DYNOPT_ASSIGN_OR_RETURN(
      std::vector<int> keep,
      ResolveColumns(input, node.project_columns, "project"));
  const size_t num_parts = input.partitions.size();
  Dataset out(node.project_columns, num_parts);
  out.row_sizes.resize(num_parts);
  std::vector<uint64_t> rows_in(num_parts, 0);
  pool_->ParallelFor(num_parts, [&](size_t p) {
    auto& src = input.partitions[p];
    auto& dest = out.partitions[p];
    auto& dest_sizes = out.row_sizes[p];
    dest.reserve(src.size());
    dest_sizes.reserve(src.size());
    rows_in[p] = src.size();
    for (const Row& row : src) {
      Row projected;
      projected.reserve(keep.size());
      uint64_t projected_bytes = 8;
      for (int k : keep) {
        const Value& v = row[static_cast<size_t>(k)];
        projected_bytes += ValueSizeBytesInline(v);
        projected.push_back(v);
      }
      dest_sizes.push_back(projected_bytes);
      dest.push_back(std::move(projected));
    }
  });
  metrics->simulated_seconds += static_cast<double>(MaxOver(rows_in)) *
                                cluster_.cpu_seconds_per_tuple;
  return out;
}

Result<ShuffleResult> JobExecutor::Repartition(
    Dataset&& input, const std::vector<int>& key_indices,
    ExecMetrics* metrics) {
  DYNOPT_RETURN_IF_ERROR(CheckAlive());
  TraceSpan span("shuffle", "kernel");
  const auto wall_start = WallClock::now();
  const size_t n = cluster_.num_nodes;
  const size_t src_parts = input.partitions.size();

  // Fault overlay for one shuffle stage: node i both routes source
  // partition i (CPU) and receives destination partition i (network); the
  // wider of the two vectors bounds the node count.
  auto fault_check = [&](const std::vector<uint64_t>& received_bytes,
                         const std::vector<uint64_t>& rows_in) -> Status {
    if (!FaultsArmed()) return Status::OK();
    std::vector<double> per_node(std::max(received_bytes.size(),
                                          rows_in.size()),
                                 0.0);
    for (size_t i = 0; i < received_bytes.size(); ++i) {
      per_node[i] += static_cast<double>(received_bytes[i]) *
                     cluster_.network_seconds_per_byte;
    }
    for (size_t i = 0; i < rows_in.size(); ++i) {
      per_node[i] +=
          static_cast<double>(rows_in[i]) * cluster_.cpu_seconds_per_tuple;
    }
    return ApplyFaults(FaultSite::kRepartition, per_node, metrics);
  };

  ShuffleResult result;
  result.data = Dataset(input.columns, n);
  result.hashes.resize(n);
  result.data.row_sizes.resize(n);
  for (size_t d = 0; d < n; ++d) {
    result.data.partitions[d] = TakeRowVec();
    result.hashes[d] = TakeHashVec();
    result.data.row_sizes[d] = TakeHashVec();
  }
  // When the producer annotated per-row sizes (scan/project/join emission,
  // or an earlier shuffle), network metering reads 8 bytes per row instead
  // of re-walking the row payload — the routing loop then only touches the
  // key column's cache line. The shuffle always re-emits the annotation for
  // its own output, so the whole join chain meters each row's size once.
  const bool input_has_sizes = input.HasRowSizes();

  // Adaptive route: the two-phase exchange below exists so sources can be
  // routed concurrently without locks, at the price of a second pass over
  // the row headers. A pool without at least two workers cannot overlap
  // anything, so the classic one-pass exchange (hash, meter and move each
  // row while it is hot in cache) is strictly better there. Row order,
  // hashes and all metering are identical on both routes.
  if (pool_->num_threads() <= 1) {
    uint64_t total_rows = 0;
    size_t input_rows = 0;
    for (const auto& src : input.partitions) input_rows += src.size();
    const size_t estimate = input_rows / n + input_rows / (4 * n) + 4;
    for (size_t d = 0; d < n; ++d) {
      result.data.partitions[d].reserve(estimate);
      result.hashes[d].reserve(estimate);
      result.data.row_sizes[d].reserve(estimate);
    }
    std::vector<uint64_t> received_bytes(n, 0);
    std::vector<uint64_t> rows_in(src_parts, 0);
    uint64_t shuffled_bytes = 0;
    const int* keys = key_indices.data();
    const size_t num_keys = key_indices.size();
    const FastMod mod_n(n);
    std::vector<Row>* out_rows = result.data.partitions.data();
    std::vector<uint64_t>* out_hashes = result.hashes.data();
    std::vector<uint64_t>* out_sizes = result.data.row_sizes.data();
    for (size_t p = 0; p < src_parts; ++p) {
      auto& src = input.partitions[p];
      rows_in[p] = src.size();
      Row* rows_p = src.data();
      const uint64_t* src_sizes =
          input_has_sizes ? input.row_sizes[p].data() : nullptr;
      const size_t m = src.size();
      for (size_t i = 0; i < m; ++i) {
        // Each Row is its own heap block, so hashing + size-metering is a
        // DRAM-latency-bound pointer chase (the row headers stream, the
        // payloads do not). Prefetching the payload ~16 rows ahead hides
        // most of that (shorter distances leave half the latency exposed);
        // the seed kernels have no equivalent and stall. With a size
        // annotation only the key column's line is touched at all.
        if (i + 16 < m) {
          const char* pf = reinterpret_cast<const char*>(rows_p[i + 16].data());
          __builtin_prefetch(pf);
          if (src_sizes == nullptr) {
            __builtin_prefetch(pf + 128);
            __builtin_prefetch(pf + 256);
          }
        }
        Row& row = rows_p[i];
        const uint64_t h = HashRowKeyInline(row, keys, num_keys);
        const size_t dest = static_cast<size_t>(mod_n(h));
        const uint64_t bytes =
            src_sizes != nullptr ? src_sizes[i] : RowSizeBytesInline(row);
        // A row already sitting on its destination node (co-partitioned
        // input) moves no bytes. Adding zero keeps the counters identical
        // while letting the compiler emit a conditional move instead of a
        // hash-dependent (hence unpredictable) branch.
        const uint64_t moved = (dest != p || src_parts != n) ? bytes : 0;
        shuffled_bytes += moved;
        received_bytes[dest] += moved;
        out_sizes[dest].push_back(bytes);
        out_hashes[dest].push_back(h);
        out_rows[dest].push_back(std::move(row));
      }
      total_rows += rows_in[p];
      src.clear();
      RecycleRowVec(std::move(src));
    }
    metrics->bytes_shuffled += shuffled_bytes;
    metrics->tuples_processed += total_rows;
    metrics->simulated_seconds +=
        static_cast<double>(MaxOver(received_bytes)) *
            cluster_.network_seconds_per_byte +
        static_cast<double>(MaxOver(rows_in)) * cluster_.cpu_seconds_per_tuple;
    DYNOPT_RETURN_IF_ERROR(fault_check(received_bytes, rows_in));
    metrics->wall_shuffle_seconds += SecondsSince(wall_start);
    return result;
  }

  // Phase 1: route every source partition independently on the pool. Rows
  // do not move (and their non-key columns are not touched) yet — each
  // source only computes its rows' key hashes, destinations and
  // per-destination counts into private arrays, so the data path needs no
  // locks and no shared-vector contention.
  struct RoutePlan {
    std::vector<uint64_t> hashes;    // [row] -> key hash (computed once)
    std::vector<uint32_t> dest;      // [row] -> destination partition
    std::vector<size_t> counts;      // [dest] -> rows routed there
    std::vector<uint64_t> bytes_to;  // [dest] -> shuffled bytes
    uint64_t shuffled_bytes = 0;
  };
  std::vector<RoutePlan> routed(src_parts);
  std::vector<uint64_t> rows_in(src_parts, 0);
  pool_->ParallelFor(src_parts, [&](size_t p) {
    RoutePlan& plan = routed[p];
    const auto& src = input.partitions[p];
    const size_t m = src.size();
    rows_in[p] = m;
    plan.hashes.resize(m);
    plan.dest.resize(m);
    plan.counts.assign(n, 0);
    const int* keys = key_indices.data();
    const size_t num_keys = key_indices.size();
    const FastMod mod_n(n);
    const Row* rows_p = src.data();
    for (size_t i = 0; i < m; ++i) {
      // Hide the row-payload pointer chase (see the one-pass route above).
      if (i + 16 < m) {
        const char* pf = reinterpret_cast<const char*>(rows_p[i + 16].data());
        __builtin_prefetch(pf);
      }
      const uint64_t h = HashRowKeyInline(rows_p[i], keys, num_keys);
      const size_t dest = static_cast<size_t>(mod_n(h));
      plan.hashes[i] = h;
      plan.dest[i] = static_cast<uint32_t>(dest);
      ++plan.counts[dest];
    }
  });

  // Exact destination sizes are known, so every row moves exactly once into
  // exactly-reserved storage. offsets[p][d] is the first slot in destination
  // d owned by source p; sources occupy consecutive slot ranges in source
  // order, which reproduces the row order of a sequential shuffle exactly.
  std::vector<std::vector<size_t>> offsets(src_parts,
                                           std::vector<size_t>(n, 0));
  for (size_t d = 0; d < n; ++d) {
    size_t running = 0;
    for (size_t p = 0; p < src_parts; ++p) {
      offsets[p][d] = running;
      running += routed[p].counts[d];
    }
    result.data.partitions[d].resize(running);
    result.hashes[d].resize(running);
    result.data.row_sizes[d].resize(running);
  }

  // Phase 2: every source scatters its rows to its precomputed slots, in
  // parallel. Slot ranges are disjoint, so concurrent writers never touch
  // the same element. Byte metering happens here, in the same pass that
  // (only now) touches the full row, and lands in per-source accumulators
  // merged below.
  pool_->ParallelFor(src_parts, [&](size_t p) {
    auto& src = input.partitions[p];
    RoutePlan& plan = routed[p];
    plan.bytes_to.assign(n, 0);
    std::vector<size_t> next = offsets[p];
    Row* rows_p = src.data();
    const uint64_t* src_sizes =
        input_has_sizes ? input.row_sizes[p].data() : nullptr;
    const size_t m = src.size();
    for (size_t i = 0; i < m; ++i) {
      if (i + 16 < m) {
        const char* pf = reinterpret_cast<const char*>(rows_p[i + 16].data());
        __builtin_prefetch(pf);
        if (src_sizes == nullptr) {
          __builtin_prefetch(pf + 128);
          __builtin_prefetch(pf + 256);
        }
      }
      const size_t d = plan.dest[i];
      const uint64_t bytes =
          src_sizes != nullptr ? src_sizes[i] : RowSizeBytesInline(src[i]);
      // A row already sitting on its destination node (co-partitioned
      // input) moves no bytes; adding zero keeps the counters identical
      // without a hash-dependent branch.
      const uint64_t moved = (d != p || src_parts != n) ? bytes : 0;
      plan.shuffled_bytes += moved;
      plan.bytes_to[d] += moved;
      const size_t slot = next[d]++;
      result.data.partitions[d][slot] = std::move(src[i]);
      result.hashes[d][slot] = plan.hashes[i];
      result.data.row_sizes[d][slot] = bytes;
    }
    src.clear();
  });
  // Serial section: hand the emptied source vectors back to the pool.
  for (auto& src : input.partitions) RecycleRowVec(std::move(src));

  std::vector<uint64_t> received_bytes(n, 0);
  uint64_t total_rows = 0;
  uint64_t shuffled_bytes = 0;
  for (size_t p = 0; p < src_parts; ++p) {
    shuffled_bytes += routed[p].shuffled_bytes;
    total_rows += rows_in[p];
    for (size_t d = 0; d < n; ++d) received_bytes[d] += routed[p].bytes_to[d];
  }
  metrics->bytes_shuffled += shuffled_bytes;
  metrics->tuples_processed += total_rows;
  metrics->simulated_seconds +=
      static_cast<double>(MaxOver(received_bytes)) *
          cluster_.network_seconds_per_byte +
      static_cast<double>(MaxOver(rows_in)) * cluster_.cpu_seconds_per_tuple;
  DYNOPT_RETURN_IF_ERROR(fault_check(received_bytes, rows_in));
  metrics->wall_shuffle_seconds += SecondsSince(wall_start);
  return result;
}

void JobExecutor::LeafHashJoin(const std::vector<Row>& build_rows,
                               const std::vector<Row>& probe_rows,
                               const std::vector<int>& build_keys,
                               const std::vector<int>& probe_keys,
                               uint64_t* work, std::vector<Row>* dest,
                               std::vector<uint64_t>* dest_sizes) {
  JoinHashTable table;
  table.Build(build_rows, build_keys, nullptr);
  constexpr uint32_t kEnd = JoinHashTable::kEnd;
  const uint32_t* heads = table.heads();
  const uint32_t* next = table.next();
  const uint64_t* table_hashes = table.hashes();
  const size_t mask = table.mask();
  uint64_t local_work = build_rows.size() + probe_rows.size();
  for (const Row& probe_row : probe_rows) {
    if (AnyJoinKeyNull(probe_row, probe_keys)) continue;
    const uint64_t h = HashRowKey(probe_row, probe_keys);
    for (uint32_t i = heads[h & mask]; i != kEnd; i = next[i]) {
      if (table_hashes[i] != h) continue;
      const Row& build_row = build_rows[i];
      if (!JoinKeysEqual(build_row, build_keys, probe_row, probe_keys)) {
        continue;
      }
      dest->emplace_back();
      Row& joined = dest->back();
      joined.reserve(build_row.size() + probe_row.size());
      joined.insert(joined.end(), build_row.begin(), build_row.end());
      joined.insert(joined.end(), probe_row.begin(), probe_row.end());
      if (dest_sizes != nullptr) {
        // Joined-row size annotation, same formula as the in-memory probe:
        // both payloads, one 8-byte row header.
        dest_sizes->push_back(RowSizeBytesInline(build_row) +
                              RowSizeBytesInline(probe_row) - 8);
      }
      ++local_work;
    }
  }
  *work += local_work;
}

Status JobExecutor::GraceJoinPartition(
    const std::vector<Row>& build_rows, const std::vector<Row>& probe_rows,
    const std::vector<int>& build_keys, const std::vector<int>& probe_keys,
    int depth, uint64_t salt, size_t part, uint64_t* work,
    std::vector<Row>* dest, std::vector<uint64_t>* dest_sizes,
    SpillStats* stats) {
  DYNOPT_RETURN_IF_ERROR(CheckAlive());
  const uint64_t budget = cluster_.memory.join_memory_budget_bytes;
  uint64_t build_size = 0;
  for (const Row& row : build_rows) build_size += RowSizeBytesInline(row);
  // In-memory leaf: the build side fits the budget, cannot be split
  // further, or the recursion cap is reached — then the join runs over
  // budget rather than refuse (a single query always completes; the
  // tracker records the over-subscription).
  if (budget == 0 || build_size <= budget || build_rows.size() <= 1 ||
      depth >= cluster_.memory.max_spill_recursion) {
    MemoryReservation leaf_mem(ctx_ != nullptr ? &ctx_->memory() : nullptr);
    leaf_mem.GrowUnchecked(build_size);
    LeafHashJoin(build_rows, probe_rows, build_keys, probe_keys, work, dest,
                 dest_sizes);
    return Status::OK();
  }

  // Split both sides by a re-salted key hash — decorrelated from the node
  // routing (h % num_nodes) and from parent splits, so keys that clustered
  // at this level spread out below. NULL join keys never match, so their
  // rows are dropped at split time instead of being spilled.
  const int fanout = std::max(2, cluster_.memory.max_spill_fanout);
  std::vector<std::vector<Row>> build_sub(fanout);
  std::vector<std::vector<Row>> probe_sub(fanout);
  const FastMod mod_f(static_cast<uint64_t>(fanout));
  for (const Row& row : build_rows) {
    if (AnyJoinKeyNull(row, build_keys)) continue;
    const uint64_t h = Mix64(HashRowKeyInline(row, build_keys) ^ salt);
    build_sub[mod_f(h)].push_back(row);
  }
  for (const Row& row : probe_rows) {
    if (AnyJoinKeyNull(row, probe_keys)) continue;
    const uint64_t h = Mix64(HashRowKeyInline(row, probe_keys) ^ salt);
    probe_sub[mod_f(h)].push_back(row);
  }
  stats->repartition_rows += build_rows.size() + probe_rows.size();
  stats->spill_seconds +=
      static_cast<double>(build_rows.size() + probe_rows.size()) *
      cluster_.cpu_seconds_per_tuple;

  // Spill every non-empty sub-partition pair to checksummed files, freeing
  // each in-memory copy as it is written: from here on, the partition's
  // resident set is one sub-partition pair at a time. Every spilled byte is
  // written once and read back once, charged at the disk rates.
  const uint64_t serial =
      spill_serial_.fetch_add(1, std::memory_order_relaxed);
  const std::string base =
      cluster_.spill_directory + "/" +
      (ctx_ != nullptr ? ctx_->SpillFilePrefix()
                       : std::string("__spill_q0_")) +
      "s" + std::to_string(serial) + "_p" + std::to_string(part) + "_d" +
      std::to_string(depth) + "_k";
  std::vector<std::string> files;
  files.reserve(static_cast<size_t>(fanout) * 2);
  auto cleanup = [&files]() {
    for (const std::string& f : files) std::remove(f.c_str());
  };
  std::vector<char> live(fanout, 0);
  for (int k = 0; k < fanout; ++k) {
    if (build_sub[k].empty() && probe_sub[k].empty()) continue;
    live[k] = 1;
    uint64_t pair_bytes = 0;
    for (const Row& row : build_sub[k]) pair_bytes += RowSizeBytesInline(row);
    for (const Row& row : probe_sub[k]) pair_bytes += RowSizeBytesInline(row);
    const std::string bpath = base + std::to_string(k) + ".build.drb";
    const std::string ppath = base + std::to_string(k) + ".probe.drb";
    files.push_back(bpath);
    files.push_back(ppath);
    Status st = WriteRowsFile(bpath, build_sub[k]);
    if (st.ok()) st = WriteRowsFile(ppath, probe_sub[k]);
    if (!st.ok()) {
      cleanup();
      return st;
    }
    stats->spilled_bytes += pair_bytes;
    stats->spill_seconds += static_cast<double>(pair_bytes) *
                            (cluster_.disk_write_seconds_per_byte +
                             cluster_.disk_read_seconds_per_byte);
    ++stats->spill_partitions;
    build_sub[k] = std::vector<Row>();
    probe_sub[k] = std::vector<Row>();
  }
  build_sub.clear();
  probe_sub.clear();

  // Join each sub-partition pair: read both sides back, drop the files,
  // recurse (a still-oversized sub-partition splits again under a fresh
  // salt, up to max_spill_recursion).
  for (int k = 0; k < fanout; ++k) {
    if (!live[k]) continue;
    Status alive = CheckAlive();
    if (!alive.ok()) {
      cleanup();
      return alive;
    }
    const std::string bpath = base + std::to_string(k) + ".build.drb";
    const std::string ppath = base + std::to_string(k) + ".probe.drb";
    auto sub_build = ReadRowsFile(bpath);
    if (!sub_build.ok()) {
      cleanup();
      return sub_build.status();
    }
    auto sub_probe = ReadRowsFile(ppath);
    if (!sub_probe.ok()) {
      cleanup();
      return sub_probe.status();
    }
    std::remove(bpath.c_str());
    std::remove(ppath.c_str());
    const uint64_t next_salt = Mix64(
        salt ^ (0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(k + 1)));
    Status st = GraceJoinPartition(sub_build.value(), sub_probe.value(),
                                   build_keys, probe_keys, depth + 1,
                                   next_salt, part, work, dest, dest_sizes,
                                   stats);
    if (!st.ok()) {
      cleanup();
      return st;
    }
  }
  return Status::OK();
}

Result<Dataset> JobExecutor::LocalHashJoin(
    const Dataset& build, const Dataset& probe,
    const std::vector<int>& build_keys, const std::vector<int>& probe_keys,
    ExecMetrics* metrics,
    const std::vector<std::vector<uint64_t>>* build_hashes,
    const std::vector<std::vector<uint64_t>>* probe_hashes) {
  DYNOPT_CHECK(build.partitions.size() == probe.partitions.size());
  DYNOPT_RETURN_IF_ERROR(CheckAlive());
  const size_t num_parts = build.partitions.size();
  std::vector<std::string> out_columns = build.columns;
  out_columns.insert(out_columns.end(), probe.columns.begin(),
                     probe.columns.end());
  Dataset out(out_columns, num_parts);
  // A joined row is build-row ++ probe-row, so its byte size is knowable in
  // O(1) from the parents' annotations: both sides contribute their values,
  // but the 8-byte row header is only paid once.
  const bool emit_sizes = build.HasRowSizes() && probe.HasRowSizes();
  if (emit_sizes) out.row_sizes.resize(num_parts);
  for (size_t p = 0; p < num_parts; ++p) {
    out.partitions[p] = TakeRowVec();
    if (emit_sizes) out.row_sizes[p] = TakeHashVec();
  }

  // Per-node join-memory governance: size every build partition (cheap sum
  // of the producer's annotations when present) and mark the ones exceeding
  // the join budget for the grace-join spill path. With a zero budget
  // (default) nothing is sized and nothing spills — the in-memory path and
  // its metering are untouched.
  const uint64_t join_budget = cluster_.memory.join_memory_budget_bytes;
  const bool governed = join_budget > 0 || ctx_ != nullptr;
  std::vector<uint64_t> build_bytes;
  std::vector<char> spill(num_parts, 0);
  bool any_spill = false;
  if (governed) {
    build_bytes.assign(num_parts, 0);
    const bool build_has_sizes = build.HasRowSizes();
    pool_->ParallelFor(num_parts, [&](size_t p) {
      uint64_t bytes = 0;
      if (build_has_sizes) {
        for (uint64_t b : build.row_sizes[p]) bytes += b;
      } else {
        for (const Row& row : build.partitions[p]) {
          bytes += RowSizeBytesInline(row);
        }
      }
      build_bytes[p] = bytes;
    });
    if (join_budget > 0) {
      for (size_t p = 0; p < num_parts; ++p) {
        if (build_bytes[p] > join_budget && build.partitions[p].size() > 1) {
          spill[p] = 1;
          any_spill = true;
        }
      }
    }
  }
  // Account the resident build side against the query's tracker for the
  // duration of the join (spilled partitions account their sub-joins inside
  // GraceJoinPartition instead).
  MemoryReservation join_mem(ctx_ != nullptr ? &ctx_->memory() : nullptr);
  if (ctx_ != nullptr) {
    for (size_t p = 0; p < num_parts; ++p) {
      if (!spill[p]) join_mem.GrowUnchecked(build_bytes[p]);
    }
  }

  // Build phase: one flat table per partition, reusing the executor's
  // pooled tables (their vectors keep capacity between joins). Spilled
  // partitions never build a full-partition table — that is the point.
  TraceSpan build_span("join-build", "kernel");
  auto wall_start = WallClock::now();
  if (join_tables_.size() < num_parts) join_tables_.resize(num_parts);
  std::vector<JoinHashTable>& tables = join_tables_;
  pool_->ParallelFor(num_parts, [&](size_t p) {
    if (spill[p]) return;
    tables[p].Build(build.partitions[p], build_keys,
                    build_hashes != nullptr ? &(*build_hashes)[p] : nullptr);
  });
  metrics->wall_build_seconds += SecondsSince(wall_start);
  if (FaultsArmed()) {
    // Build-stage fault overlay: node p's clean task time is inserting its
    // build partition into the hash table.
    std::vector<double> build_seconds(num_parts, 0.0);
    for (size_t p = 0; p < num_parts; ++p) {
      build_seconds[p] = static_cast<double>(build.partitions[p].size()) *
                         cluster_.cpu_seconds_per_tuple;
    }
    DYNOPT_RETURN_IF_ERROR(
        ApplyFaults(FaultSite::kBuild, build_seconds, metrics));
  }
  build_span.End();

  // Probe phase. Spilled partitions take the grace-join route inside the
  // same ParallelFor: partition both sides to disk and join recursively,
  // emitting into the same output slot. Their failures (spill I/O, a
  // cancellation observed mid-spill) land in part_status, merged after the
  // loop.
  DYNOPT_RETURN_IF_ERROR(CheckAlive());
  TraceSpan probe_span("join-probe", "kernel");
  wall_start = WallClock::now();
  std::vector<uint64_t> work(num_parts, 0);
  std::vector<Status> part_status(num_parts);
  std::vector<SpillStats> part_spill(any_spill ? num_parts : 0);
  pool_->ParallelFor(num_parts, [&](size_t p) {
    if (spill[p]) {
      uint64_t local_work = 0;
      part_status[p] = GraceJoinPartition(
          build.partitions[p], probe.partitions[p], build_keys, probe_keys,
          /*depth=*/0, /*salt=*/0xc2b2ae3d27d4eb4fULL, p, &local_work,
          &out.partitions[p], emit_sizes ? &out.row_sizes[p] : nullptr,
          &part_spill[p]);
      work[p] = local_work;
      return;
    }
    const auto& build_rows = build.partitions[p];
    const auto& probe_rows = probe.partitions[p];
    const JoinHashTable& table = tables[p];
    const std::vector<uint64_t>* hashes =
        probe_hashes != nullptr ? &(*probe_hashes)[p] : nullptr;
    auto& dest = out.partitions[p];
    // FK equi-joins emit about one row per probe row; reserving that up
    // front removes most of the doubling reallocations (each of which
    // re-moves every previously emitted row header). Worst case this
    // over-allocates headers only, and many-to-many joins still grow.
    dest.reserve(probe_rows.size());
    const uint64_t* build_sizes =
        emit_sizes ? build.row_sizes[p].data() : nullptr;
    const uint64_t* probe_sizes =
        emit_sizes ? probe.row_sizes[p].data() : nullptr;
    std::vector<uint64_t>* dest_sizes =
        emit_sizes ? &out.row_sizes[p] : nullptr;
    if (dest_sizes != nullptr) dest_sizes->reserve(probe_rows.size());
    uint64_t local_work = build_rows.size() + probe_rows.size();
    // Hoisted raw views: const locals stay in registers across the emission
    // writes below, which the compiler must otherwise assume may alias the
    // vectors' headers and reload every iteration.
    constexpr uint32_t kEnd = JoinHashTable::kEnd;
    const uint32_t* heads = table.heads();
    const uint32_t* next = table.next();
    const uint64_t* table_hashes = table.hashes();
    const size_t mask = table.mask();
    const size_t num_probe_rows = probe_rows.size();
    const uint64_t* probe_h = hashes != nullptr ? hashes->data() : nullptr;
    for (size_t j = 0; j < num_probe_rows; ++j) {
      uint64_t h;
      uint32_t first;
      if (probe_h != nullptr) {
        // Precomputed hashes let misses resolve from the table's own arrays
        // — the chain is walked comparing full 64-bit hashes (L1-resident)
        // and the probe row itself is only touched on a hash match. NULL-key
        // rows are filtered below on that (rare) match; the table holds no
        // NULL-key entries, so hash + key equality already reject them, and
        // the explicit check keeps the invariant obvious.
        h = probe_h[j];
        // The upcoming bucket loads are data-dependent random accesses into
        // an array that outgrows L2 for large build sides; prefetching a few
        // iterations ahead hides most of that latency.
        if (j + 8 < num_probe_rows) {
          __builtin_prefetch(&heads[probe_h[j + 8] & mask]);
        }
        first = heads[h & mask];
        while (first != kEnd && table_hashes[first] != h) first = next[first];
        if (first == kEnd) continue;
        if (AnyJoinKeyNull(probe_rows[j], probe_keys)) continue;
      } else {
        if (AnyJoinKeyNull(probe_rows[j], probe_keys)) continue;
        h = HashRowKey(probe_rows[j], probe_keys);
        first = heads[h & mask];
      }
      const Row& probe_row = probe_rows[j];
      for (uint32_t i = first; i != kEnd; i = next[i]) {
        if (table_hashes[i] != h) continue;
        const Row& build_row = build_rows[i];
        if (!JoinKeysEqual(build_row, build_keys, probe_row, probe_keys)) {
          continue;
        }
        dest.emplace_back();
        Row& joined = dest.back();
        joined.reserve(build_row.size() + probe_row.size());
        joined.insert(joined.end(), build_row.begin(), build_row.end());
        joined.insert(joined.end(), probe_row.begin(), probe_row.end());
        if (dest_sizes != nullptr) {
          dest_sizes->push_back(build_sizes[i] + probe_sizes[j] - 8);
        }
        ++local_work;
      }
    }
    work[p] = local_work;
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
    registry_->counter("exec.spill_bytes")
        ->Increment(call_spilled_bytes);
    registry_->counter("exec.spill_partitions")
        ->Increment(call_spill_partitions);
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
      probe_seconds[p] =
          static_cast<double>(work[p] - build.partitions[p].size()) *
          cluster_.cpu_seconds_per_tuple;
    }
    DYNOPT_RETURN_IF_ERROR(
        ApplyFaults(FaultSite::kProbe, probe_seconds, metrics));
  }
  return out;
}

Result<Dataset> JobExecutor::ExecJoin(
    const PlanNode& node, const std::map<std::string, Value>& params,
    ExecMetrics* metrics) {
  DYNOPT_ASSIGN_OR_RETURN(Dataset build,
                          ExecNode(*node.children[0], params, metrics));
  DYNOPT_ASSIGN_OR_RETURN(Dataset probe,
                          ExecNode(*node.children[1], params, metrics));
  return ExecJoinWithInputs(node, std::move(build), std::move(probe),
                            metrics);
}

Result<Dataset> JobExecutor::ExecJoinWithInputs(const PlanNode& node,
                                                Dataset&& build,
                                                Dataset&& probe,
                                                ExecMetrics* metrics) {
  std::vector<std::string> build_names, probe_names;
  for (const auto& [l, r] : node.keys) {
    build_names.push_back(l);
    probe_names.push_back(r);
  }
  DYNOPT_ASSIGN_OR_RETURN(std::vector<int> build_keys,
                          ResolveColumns(build, build_names, "join build"));
  DYNOPT_ASSIGN_OR_RETURN(std::vector<int> probe_keys,
                          ResolveColumns(probe, probe_names, "join probe"));

  if (node.method == JoinMethod::kHashShuffle) {
    if (PredicateTransferEnabled()) {
      // Sideways pushdown: ship the build side's key filter so pruned probe
      // rows never enter either Repartition below.
      TransferPredicateRows(build, build_keys, &probe, probe_keys, metrics);
    }
    DYNOPT_ASSIGN_OR_RETURN(ShuffleResult build_parts,
                            Repartition(std::move(build), build_keys,
                                        metrics));
    DYNOPT_ASSIGN_OR_RETURN(ShuffleResult probe_parts,
                            Repartition(std::move(probe), probe_keys,
                                        metrics));
    DYNOPT_ASSIGN_OR_RETURN(
        Dataset joined,
        LocalHashJoin(build_parts.data, probe_parts.data, build_keys,
                      probe_keys, metrics, &build_parts.hashes,
                      &probe_parts.hashes));
    // The shuffled inputs are fully consumed; recycle their storage for the
    // next exchange instead of returning it to the allocator.
    RecycleShuffleResult(std::move(build_parts));
    RecycleShuffleResult(std::move(probe_parts));
    return joined;
  }

  // Broadcast join: replicate the (small) build side to every partition of
  // the probe side.
  DYNOPT_CHECK(node.method == JoinMethod::kBroadcast);
  std::vector<Row> build_rows = build.GatherRows();
  uint64_t build_bytes = 0;
  for (const Row& row : build_rows) build_bytes += RowSizeBytes(row);
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
  // spill path inside LocalHashJoin and is metered from executed passes.
  if (cluster_.memory.join_memory_budget_bytes == 0 &&
      build_bytes > cluster_.broadcast_threshold_bytes) {
    double overflow = static_cast<double>(build_bytes -
                                          cluster_.broadcast_threshold_bytes);
    metrics->simulated_seconds +=
        overflow * cluster_.spill_penalty_passes *
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

  Dataset replicated(build.columns, n);
  for (size_t p = 0; p < n; ++p) replicated.partitions[p] = build_rows;
  // Note: replication is physical here so per-node joins are real work; the
  // memory cost is bounded by the planner's broadcast threshold.
  return LocalHashJoin(replicated, probe, build_keys, probe_keys, metrics);
}

void JobExecutor::TransferPredicateRows(const Dataset& build,
                                        const std::vector<int>& build_keys,
                                        Dataset* probe,
                                        const std::vector<int>& probe_keys,
                                        ExecMetrics* metrics) {
  TraceSpan span("predicate-transfer", "kernel");
  const SketchConfig& cfg = cluster_.sketch;
  const uint64_t build_rows = build.NumRows();
  BloomFilter bloom(std::max<uint64_t>(build_rows, 1), cfg.pt_bits_per_key,
                    cfg.seed);
  uint64_t max_build_part = 0;
  for (const auto& part : build.partitions) {
    max_build_part = std::max<uint64_t>(max_build_part, part.size());
    for (const Row& row : part) {
      bool null_key = false;
      for (int k : build_keys) null_key |= row[k].is_null();
      // NULL keys never join, so they never enter the filter — and a probe
      // row with a NULL key is pruned below without consulting it.
      if (!null_key) bloom.Insert(HashRowKeyInline(row, build_keys));
    }
  }
  // Each node feeds the filter from its resident build partition.
  metrics->simulated_seconds +=
      static_cast<double>(max_build_part) * cluster_.cpu_seconds_per_tuple;

  // Ship the merged filter to every probe-side node. Like a broadcast:
  // total bytes on the wire are size * nodes, receipt is parallel.
  const size_t num_parts = probe->partitions.size();
  metrics->pt_filter_bytes += bloom.SizeBytes() * num_parts;
  metrics->simulated_seconds +=
      static_cast<double>(bloom.SizeBytes()) * cluster_.network_seconds_per_byte;

  // Filter probe partitions in place before they enter the shuffle.
  const bool has_sizes = probe->HasRowSizes();
  std::vector<uint64_t> part_rows(num_parts, 0);
  std::vector<uint64_t> pruned_rows(num_parts, 0);
  std::vector<uint64_t> pruned_bytes(num_parts, 0);
  pool_->ParallelFor(num_parts, [&](size_t p) {
    auto& rows = probe->partitions[p];
    std::vector<uint64_t>* sizes = has_sizes ? &probe->row_sizes[p] : nullptr;
    part_rows[p] = rows.size();
    size_t kept = 0;
    for (size_t i = 0; i < rows.size(); ++i) {
      bool null_key = false;
      for (int k : probe_keys) null_key |= rows[i][k].is_null();
      const bool keep =
          !null_key &&
          bloom.MayContain(HashRowKeyInline(rows[i], probe_keys));
      if (keep) {
        if (kept != i) {
          rows[kept] = std::move(rows[i]);
          if (sizes != nullptr) (*sizes)[kept] = (*sizes)[i];
        }
        ++kept;
      } else {
        ++pruned_rows[p];
        pruned_bytes[p] +=
            sizes != nullptr ? (*sizes)[i] : RowSizeBytesInline(rows[i]);
      }
    }
    rows.resize(kept);
    if (sizes != nullptr) sizes->resize(kept);
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

void JobExecutor::TransferPredicateColumnar(const ColumnarDataset& build,
                                            const std::vector<int>& build_keys,
                                            ColumnarDataset* probe,
                                            const std::vector<int>& probe_keys,
                                            ExecMetrics* metrics) {
  TraceSpan span("predicate-transfer", "kernel");
  const SketchConfig& cfg = cluster_.sketch;
  const uint64_t build_rows = build.NumRows();
  BloomFilter bloom(std::max<uint64_t>(build_rows, 1), cfg.pt_bits_per_key,
                    cfg.seed);
  {
    std::vector<uint64_t> hashes;
    std::vector<uint8_t> key_null;
    for (const auto& part : build.partitions) {
      for (const ColumnBatch& b : part) {
        hashes.resize(b.num_rows);
        key_null.assign(b.num_rows, 0);
        HashKeyColumns(b, build_keys.data(), build_keys.size(), hashes.data(),
                       key_null.data());
        for (size_t i = 0; i < b.num_rows; ++i) {
          if (key_null[i] == 0) bloom.Insert(hashes[i]);
        }
      }
    }
  }
  uint64_t max_build_part = 0;
  for (size_t p = 0; p < build.partitions.size(); ++p) {
    max_build_part = std::max(max_build_part, build.PartitionRows(p));
  }
  metrics->simulated_seconds +=
      static_cast<double>(max_build_part) * cluster_.cpu_seconds_per_tuple;

  const size_t num_parts = probe->partitions.size();
  metrics->pt_filter_bytes += bloom.SizeBytes() * num_parts;
  metrics->simulated_seconds +=
      static_cast<double>(bloom.SizeBytes()) * cluster_.network_seconds_per_byte;

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
      if (sel.size() != b.num_rows) b = GatherBatch(b, sel.data(), sel.size());
    }
  });
  uint64_t max_probe_part = 0;
  for (size_t p = 0; p < num_parts; ++p) {
    max_probe_part = std::max(max_probe_part, part_rows[p]);
    metrics->pt_pruned_rows += pruned_rows[p];
    metrics->pt_pruned_bytes += pruned_bytes[p];
  }
  metrics->simulated_seconds +=
      static_cast<double>(max_probe_part) * cluster_.cpu_seconds_per_tuple;
  metrics->tuples_processed += build_rows;
  for (uint64_t r : part_rows) metrics->tuples_processed += r;
}

Result<Dataset> JobExecutor::ExecIndexNestedLoopJoin(
    const PlanNode& node, const std::map<std::string, Value>& params,
    ExecMetrics* metrics) {
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

  DYNOPT_ASSIGN_OR_RETURN(Dataset outer,
                          ExecNode(*node.children[0], params, metrics));
  int outer_key = outer.ColumnIndex(node.keys[0].first);
  if (outer_key < 0) {
    return Status::ExecutionError("outer join key " + node.keys[0].first +
                                  " not found");
  }

  // Inner output columns (with projection pushdown).
  const Schema& schema = inner->schema();
  std::vector<std::string> inner_all;
  for (size_t i = 0; i < schema.num_fields(); ++i) {
    inner_all.push_back(inner_scan.alias + "." + schema.field(i).name);
  }
  std::vector<int> inner_keep;
  std::vector<std::string> inner_columns;
  if (inner_scan.scan_columns.empty()) {
    for (size_t i = 0; i < inner_all.size(); ++i) {
      inner_keep.push_back(static_cast<int>(i));
    }
    inner_columns = inner_all;
  } else {
    for (const auto& wanted : inner_scan.scan_columns) {
      auto it = std::find(inner_all.begin(), inner_all.end(), wanted);
      if (it == inner_all.end()) {
        return Status::ExecutionError("scan column " + wanted +
                                      " not in table " + inner_scan.table);
      }
      inner_keep.push_back(static_cast<int>(it - inner_all.begin()));
      inner_columns.push_back(wanted);
    }
  }

  // Broadcast the outer to every node; each arriving row probes the local
  // index immediately (Section 3, Indexed Nested Loop Join).
  std::vector<Row> outer_rows = outer.GatherRows();
  uint64_t outer_bytes = 0;
  for (const Row& row : outer_rows) outer_bytes += RowSizeBytes(row);
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

  std::vector<std::string> out_columns = outer.columns;
  out_columns.insert(out_columns.end(), inner_columns.begin(),
                     inner_columns.end());
  Dataset out(out_columns, n);
  std::vector<uint64_t> matched_bytes(n, 0);
  std::vector<uint64_t> lookups(n, 0);
  pool_->ParallelFor(n, [&](size_t p) {
    auto& dest = out.partitions[p];
    uint64_t local_matched_bytes = 0;
    for (const Row& outer_row : outer_rows) {
      const Value& key = outer_row[static_cast<size_t>(outer_key)];
      if (key.is_null()) continue;
      ++lookups[p];
      const std::vector<uint32_t>* offsets = index->Lookup(p, key);
      if (offsets == nullptr) continue;
      for (uint32_t off : *offsets) {
        const Row inner_row = inner->ReadRow(p, off);
        local_matched_bytes += RowSizeBytes(inner_row);
        Row joined;
        joined.reserve(outer_row.size() + inner_keep.size());
        joined.insert(joined.end(), outer_row.begin(), outer_row.end());
        for (int k : inner_keep) {
          joined.push_back(inner_row[static_cast<size_t>(k)]);
        }
        dest.push_back(std::move(joined));
      }
    }
    matched_bytes[p] = local_matched_bytes;
  });
  uint64_t total_lookups = 0, total_matched = 0;
  for (size_t p = 0; p < n; ++p) {
    total_lookups += lookups[p];
    total_matched += matched_bytes[p];
  }
  metrics->index_lookups += total_lookups;
  metrics->bytes_scanned += total_matched;  // Only matched pages are read.
  metrics->simulated_seconds +=
      static_cast<double>(MaxOver(lookups)) * cluster_.index_lookup_seconds +
      static_cast<double>(MaxOver(matched_bytes)) *
          cluster_.disk_read_seconds_per_byte;
  return out;
}

// --- Columnar operator path ----------------------------------------------
//
// Every operator below is the vectorized twin of a row operator above:
// identical trace spans, identical deterministic counters, identical
// simulated-seconds formulas, identical fault-injection sites drawn in the
// same order. Only the in-memory representation (and wall-clock speed)
// differs.

Result<ColumnarDataset> JobExecutor::ExecNodeColumnar(
    const PlanNode& node, const std::map<std::string, Value>& params,
    ExecMetrics* metrics) {
  DYNOPT_RETURN_IF_ERROR(CheckAlive());
  switch (node.kind) {
    case PlanNode::Kind::kScan:
      return ExecScanColumnar(node, metrics);
    case PlanNode::Kind::kFilter:
      return ExecFilterColumnar(node, params, metrics);
    case PlanNode::Kind::kProject:
      return ExecProjectColumnar(node, params, metrics);
    case PlanNode::Kind::kJoin:
      if (node.method == JoinMethod::kIndexNestedLoop) {
        // Row fallback: the INLJ probes a row-oriented secondary index and
        // gathers matching rows directly; its whole subtree runs the row
        // operators (metering is identical by construction) and the result
        // converts at this boundary.
        DYNOPT_ASSIGN_OR_RETURN(
            Dataset rows, ExecIndexNestedLoopJoin(node, params, metrics));
        return FromDataset(rows, cluster_.exec.max_batch_size);
      }
      return ExecJoinColumnar(node, params, metrics);
  }
  return Status::Internal("unknown plan node kind");
}

Result<ColumnarDataset> JobExecutor::ExecScanColumnar(const PlanNode& node,
                                                      ExecMetrics* metrics) {
  TraceSpan span("scan:" + node.table, "kernel");
  DYNOPT_ASSIGN_OR_RETURN(std::shared_ptr<Table> table,
                          catalog_->GetTable(node.table));
  const Schema& schema = table->schema();
  std::vector<std::string> all_columns;
  all_columns.reserve(schema.num_fields());
  for (size_t i = 0; i < schema.num_fields(); ++i) {
    all_columns.push_back(node.is_intermediate
                              ? schema.field(i).name
                              : node.alias + "." + schema.field(i).name);
  }
  std::vector<int> keep;
  std::vector<std::string> out_columns;
  if (node.scan_columns.empty()) {
    for (size_t i = 0; i < all_columns.size(); ++i) {
      keep.push_back(static_cast<int>(i));
    }
    out_columns = all_columns;
  } else {
    for (const auto& wanted : node.scan_columns) {
      auto it = std::find(all_columns.begin(), all_columns.end(), wanted);
      if (it == all_columns.end()) {
        return Status::ExecutionError("scan column " + wanted +
                                      " not in table " + node.table);
      }
      keep.push_back(static_cast<int>(it - all_columns.begin()));
      out_columns.push_back(wanted);
    }
  }

  const size_t num_parts = table->num_partitions();
  const size_t batch_cap = cluster_.exec.max_batch_size;
  ColumnarDataset out(out_columns, num_parts);
  std::vector<uint64_t> bytes_in(num_parts, 0);
  std::vector<uint64_t> rows_in(num_parts, 0);
  pool_->ParallelFor(num_parts, [&](size_t p) {
    const std::vector<ColumnBatch>& runs = table->partition(p);
    auto& batches = out.partitions[p];
    batches.reserve(table->PartitionRows(p) / batch_cap + runs.size());
    // Copy the kept column ranges of every stored run, at most batch_cap
    // rows per batch; input bytes are the partition's cached total.
    for (const ColumnBatch& run : runs) {
      for (size_t start = 0; start < run.num_rows; start += batch_cap) {
        const size_t m = std::min(batch_cap, run.num_rows - start);
        batches.push_back(
            SliceBatch(run, start, m, keep.data(), keep.size()));
      }
    }
    bytes_in[p] = table->PartitionBytes(p);
    rows_in[p] = table->PartitionRows(p);
  });

  uint64_t total_bytes = 0, total_rows = 0;
  for (size_t p = 0; p < num_parts; ++p) {
    total_bytes += bytes_in[p];
    total_rows += rows_in[p];
  }
  if (Catalog::IsSystemName(node.table)) {
    // sys.* virtual tables materialize engine state that is already in
    // memory: metered at zero simulated cost so introspection queries
    // never perturb the cost model a real workload sees.
    return out;
  }
  metrics->tuples_processed += total_rows;
  double io_seconds;
  if (node.is_intermediate) {
    metrics->bytes_intermediate_read += total_bytes;
    io_seconds = static_cast<double>(MaxOver(bytes_in)) *
                 cluster_.disk_read_seconds_per_byte;
    metrics->reopt_seconds += io_seconds;
  } else {
    metrics->bytes_scanned += total_bytes;
    io_seconds = static_cast<double>(MaxOver(bytes_in)) *
                 cluster_.scan_seconds_per_byte;
  }
  metrics->simulated_seconds +=
      io_seconds + static_cast<double>(MaxOver(rows_in)) *
                       cluster_.cpu_seconds_per_tuple;
  return out;
}

Result<ColumnarDataset> JobExecutor::ExecFilterColumnar(
    const PlanNode& node, const std::map<std::string, Value>& params,
    ExecMetrics* metrics) {
  DYNOPT_ASSIGN_OR_RETURN(ColumnarDataset input,
                          ExecNodeColumnar(*node.children[0], params,
                                           metrics));
  // Compile once per operator: slots resolved here, never in the batch
  // loop. Fails with the same BindError messages as Bind().
  DYNOPT_ASSIGN_OR_RETURN(
      VecPredicate pred,
      VecPredicate::Compile(node.predicate, input.columns, &params, udfs_));

  const size_t num_parts = input.partitions.size();
  ColumnarDataset out(input.columns, num_parts);
  std::vector<uint64_t> rows_in(num_parts, 0);
  pool_->ParallelFor(num_parts, [&](size_t p) {
    auto& src = input.partitions[p];
    auto& dest = out.partitions[p];
    uint64_t nrows = 0;
    std::vector<uint8_t> keep;
    std::vector<uint32_t> sel;
    for (ColumnBatch& b : src) {
      nrows += b.num_rows;
      pred.EvalBools(b, &keep);
      sel.clear();
      for (size_t i = 0; i < b.num_rows; ++i) {
        if (keep[i]) sel.push_back(static_cast<uint32_t>(i));
      }
      if (sel.size() == b.num_rows) {
        // Everything survives: the batch moves wholesale.
        dest.push_back(std::move(b));
      } else if (!sel.empty()) {
        dest.push_back(GatherBatch(b, sel.data(), sel.size()));
      }
      b = ColumnBatch();
    }
    src.clear();
    rows_in[p] = nrows;
  });
  uint64_t total_rows = 0;
  for (uint64_t r : rows_in) total_rows += r;
  metrics->tuples_processed += total_rows;
  metrics->simulated_seconds += static_cast<double>(MaxOver(rows_in)) *
                                cluster_.cpu_seconds_per_tuple;
  return out;
}

Result<ColumnarDataset> JobExecutor::ExecProjectColumnar(
    const PlanNode& node, const std::map<std::string, Value>& params,
    ExecMetrics* metrics) {
  DYNOPT_ASSIGN_OR_RETURN(ColumnarDataset input,
                          ExecNodeColumnar(*node.children[0], params,
                                           metrics));
  DYNOPT_ASSIGN_OR_RETURN(
      std::vector<int> keep,
      ResolveColumnsColumnar(input, node.project_columns, "project"));
  const size_t num_parts = input.partitions.size();
  ColumnarDataset out(node.project_columns, num_parts);
  std::vector<uint64_t> rows_in(num_parts, 0);
  pool_->ParallelFor(num_parts, [&](size_t p) {
    auto& src = input.partitions[p];
    auto& dest = out.partitions[p];
    dest.reserve(src.size());
    uint64_t nrows = 0;
    for (ColumnBatch& b : src) {
      nrows += b.num_rows;
      ColumnBatch projected;
      projected.num_rows = b.num_rows;
      projected.row_sizes.resize(b.num_rows);
      // New sizes first (they read the dropped columns' replacement — the
      // kept columns — before any are moved out below).
      ProjectedRowSizes(b, keep.data(), keep.size(),
                        projected.row_sizes.data());
      projected.columns.reserve(keep.size());
      // Projection is a column shuffle: move each kept column (copy only a
      // repeated slot), drop the rest.
      std::vector<char> moved(b.columns.size(), 0);
      for (size_t ki = 0; ki < keep.size(); ++ki) {
        const size_t c = static_cast<size_t>(keep[ki]);
        if (!moved[c]) {
          projected.columns.push_back(std::move(b.columns[c]));
          moved[c] = 1;
        } else {
          size_t prev = 0;
          while (static_cast<size_t>(keep[prev]) != c) ++prev;
          ColumnVector copy = projected.columns[prev];
          projected.columns.push_back(std::move(copy));
        }
      }
      dest.push_back(std::move(projected));
      b = ColumnBatch();
    }
    src.clear();
    rows_in[p] = nrows;
  });
  metrics->simulated_seconds += static_cast<double>(MaxOver(rows_in)) *
                                cluster_.cpu_seconds_per_tuple;
  return out;
}

Result<ColumnarShuffleResult> JobExecutor::RepartitionColumnar(
    ColumnarDataset&& input, const std::vector<int>& key_indices,
    ExecMetrics* metrics) {
  DYNOPT_RETURN_IF_ERROR(CheckAlive());
  TraceSpan span("shuffle", "kernel");
  const auto wall_start = WallClock::now();
  const size_t n = cluster_.num_nodes;
  const size_t src_parts = input.partitions.size();
  const size_t batch_cap = cluster_.exec.max_batch_size;
  const size_t num_cols = input.columns.size();

  auto fault_check = [&](const std::vector<uint64_t>& received_bytes,
                         const std::vector<uint64_t>& rows_in) -> Status {
    if (!FaultsArmed()) return Status::OK();
    std::vector<double> per_node(std::max(received_bytes.size(),
                                          rows_in.size()),
                                 0.0);
    for (size_t i = 0; i < received_bytes.size(); ++i) {
      per_node[i] += static_cast<double>(received_bytes[i]) *
                     cluster_.network_seconds_per_byte;
    }
    for (size_t i = 0; i < rows_in.size(); ++i) {
      per_node[i] +=
          static_cast<double>(rows_in[i]) * cluster_.cpu_seconds_per_tuple;
    }
    return ApplyFaults(FaultSite::kRepartition, per_node, metrics);
  };

  // Adaptive route: mirrors the row shuffle — a pool without at least two
  // workers cannot overlap anything, so the two-phase exchange below would
  // pay n full re-scans of every source batch (one per destination) with
  // nothing gained in return. The one-pass exchange hashes each batch,
  // buckets its rows per destination and gathers them while the batch is
  // still hot in cache. Row order, hashes and all metering are identical
  // on both routes.
  if (pool_->num_threads() <= 1) {
    ColumnarShuffleResult result;
    result.data = ColumnarDataset(input.columns, n);
    result.hashes.resize(n);
    std::vector<uint64_t> received_bytes(n, 0);
    std::vector<uint64_t> rows_in(src_parts, 0);
    uint64_t shuffled_bytes = 0;
    uint64_t total_rows = 0;
    const FastMod mod_n(n);
    std::vector<BatchSink> sinks;
    sinks.reserve(n);
    for (size_t d = 0; d < n; ++d) {
      sinks.emplace_back(num_cols, batch_cap, &result.data.partitions[d]);
    }
    std::vector<std::vector<uint32_t>> sel(n);
    std::vector<uint64_t> hashes;
    std::vector<uint8_t> null_scratch;
    for (size_t p = 0; p < src_parts; ++p) {
      uint64_t part_rows = 0;
      for (ColumnBatch& b : input.partitions[p]) {
        const size_t m = b.num_rows;
        part_rows += m;
        hashes.resize(m);
        null_scratch.assign(m, 0);
        HashKeyColumns(b, key_indices.data(), key_indices.size(),
                       hashes.data(), null_scratch.data());
        for (auto& s : sel) s.clear();
        const uint64_t* sizes = b.row_sizes.data();
        for (size_t i = 0; i < m; ++i) {
          const size_t dest = static_cast<size_t>(mod_n(hashes[i]));
          // Co-partitioned rows move no bytes (same rule as the row
          // shuffle).
          const uint64_t moved = (dest != p || src_parts != n) ? sizes[i] : 0;
          shuffled_bytes += moved;
          received_bytes[dest] += moved;
          sel[dest].push_back(static_cast<uint32_t>(i));
          result.hashes[dest].push_back(hashes[i]);
        }
        for (size_t d = 0; d < n; ++d) {
          if (!sel[d].empty()) {
            sinks[d].AppendGather(b, sel[d].data(), sel[d].size());
          }
        }
        b = ColumnBatch();  // the batch is fully consumed; free it eagerly
      }
      rows_in[p] = part_rows;
      total_rows += part_rows;
      input.partitions[p].clear();
    }
    for (BatchSink& s : sinks) s.Flush();
    input.partitions.clear();
    metrics->bytes_shuffled += shuffled_bytes;
    metrics->tuples_processed += total_rows;
    metrics->simulated_seconds +=
        static_cast<double>(MaxOver(received_bytes)) *
            cluster_.network_seconds_per_byte +
        static_cast<double>(MaxOver(rows_in)) * cluster_.cpu_seconds_per_tuple;
    DYNOPT_RETURN_IF_ERROR(fault_check(received_bytes, rows_in));
    metrics->wall_shuffle_seconds += SecondsSince(wall_start);
    return result;
  }

  // Phase 1: per source partition, hash the key columns of every batch
  // (column-at-a-time) and record each row's destination, per-destination
  // counts and byte metering. No rows move.
  struct RoutePlan {
    std::vector<uint64_t> hashes;    // flat over the partition's rows
    std::vector<uint32_t> dest;      // [row] -> destination partition
    std::vector<size_t> counts;      // [dest] -> rows routed there
    std::vector<uint64_t> bytes_to;  // [dest] -> shuffled bytes
    uint64_t shuffled_bytes = 0;
  };
  std::vector<RoutePlan> routed(src_parts);
  std::vector<uint64_t> rows_in(src_parts, 0);
  pool_->ParallelFor(src_parts, [&](size_t p) {
    RoutePlan& plan = routed[p];
    uint64_t part_rows = 0;
    for (const ColumnBatch& b : input.partitions[p]) part_rows += b.num_rows;
    rows_in[p] = part_rows;
    plan.hashes.resize(part_rows);
    plan.dest.resize(part_rows);
    plan.counts.assign(n, 0);
    plan.bytes_to.assign(n, 0);
    const FastMod mod_n(n);
    std::vector<uint8_t> null_scratch;
    size_t base = 0;
    for (const ColumnBatch& b : input.partitions[p]) {
      const size_t m = b.num_rows;
      null_scratch.assign(m, 0);
      HashKeyColumns(b, key_indices.data(), key_indices.size(),
                     plan.hashes.data() + base, null_scratch.data());
      const uint64_t* h = plan.hashes.data() + base;
      const uint64_t* sizes = b.row_sizes.data();
      for (size_t i = 0; i < m; ++i) {
        const size_t dest = static_cast<size_t>(mod_n(h[i]));
        plan.dest[base + i] = static_cast<uint32_t>(dest);
        ++plan.counts[dest];
        // Co-partitioned rows move no bytes (same rule as the row shuffle).
        const uint64_t moved =
            (dest != p || src_parts != n) ? sizes[i] : 0;
        plan.shuffled_bytes += moved;
        plan.bytes_to[dest] += moved;
      }
      base += m;
    }
  });

  // Phase 2: parallel over destinations — each destination walks every
  // source batch in order, gathering its rows (and their hashes) into
  // fixed-capacity output batches. Sources in ascending order, rows in
  // batch order: exactly the row order of a sequential shuffle.
  ColumnarShuffleResult result;
  result.data = ColumnarDataset(input.columns, n);
  result.hashes.resize(n);
  pool_->ParallelFor(n, [&](size_t d) {
    size_t total = 0;
    for (size_t p = 0; p < src_parts; ++p) total += routed[p].counts[d];
    auto& out_hashes = result.hashes[d];
    out_hashes.reserve(total);
    BatchSink sink(num_cols, batch_cap, &result.data.partitions[d]);
    std::vector<uint32_t> sel;
    for (size_t p = 0; p < src_parts; ++p) {
      const RoutePlan& plan = routed[p];
      size_t base = 0;
      for (const ColumnBatch& b : input.partitions[p]) {
        const size_t m = b.num_rows;
        sel.clear();
        for (size_t i = 0; i < m; ++i) {
          if (plan.dest[base + i] == d) {
            sel.push_back(static_cast<uint32_t>(i));
            out_hashes.push_back(plan.hashes[base + i]);
          }
        }
        sink.AppendGather(b, sel.data(), sel.size());
        base += m;
      }
    }
    sink.Flush();
  });
  // The input is fully consumed.
  input.partitions.clear();

  std::vector<uint64_t> received_bytes(n, 0);
  uint64_t total_rows = 0;
  uint64_t shuffled_bytes = 0;
  for (size_t p = 0; p < src_parts; ++p) {
    shuffled_bytes += routed[p].shuffled_bytes;
    total_rows += rows_in[p];
    for (size_t d = 0; d < n; ++d) received_bytes[d] += routed[p].bytes_to[d];
  }
  metrics->bytes_shuffled += shuffled_bytes;
  metrics->tuples_processed += total_rows;
  metrics->simulated_seconds +=
      static_cast<double>(MaxOver(received_bytes)) *
          cluster_.network_seconds_per_byte +
      static_cast<double>(MaxOver(rows_in)) * cluster_.cpu_seconds_per_tuple;
  DYNOPT_RETURN_IF_ERROR(fault_check(received_bytes, rows_in));
  metrics->wall_shuffle_seconds += SecondsSince(wall_start);
  return result;
}

Result<ColumnarDataset> JobExecutor::LocalHashJoinColumnar(
    const ColumnarDataset& build, const ColumnarDataset& probe,
    const std::vector<int>& build_keys, const std::vector<int>& probe_keys,
    ExecMetrics* metrics,
    const std::vector<std::vector<uint64_t>>* build_hashes,
    const std::vector<std::vector<uint64_t>>* probe_hashes) {
  DYNOPT_CHECK(build.partitions.size() == probe.partitions.size());
  // Spill-governed joins must take the row engine (ExecJoinColumnar routes
  // them there); this kernel implements the in-memory path only.
  DYNOPT_CHECK(cluster_.memory.join_memory_budget_bytes == 0);
  DYNOPT_RETURN_IF_ERROR(CheckAlive());
  const size_t num_parts = build.partitions.size();
  const size_t batch_cap = cluster_.exec.max_batch_size;
  std::vector<std::string> out_columns = build.columns;
  out_columns.insert(out_columns.end(), probe.columns.begin(),
                     probe.columns.end());
  ColumnarDataset out(out_columns, num_parts);

  // Memory governance (no budget, so nothing spills): account the resident
  // build side against the query tracker exactly like the row join — the
  // batches' row_sizes sum to the same annotation totals.
  MemoryReservation join_mem(ctx_ != nullptr ? &ctx_->memory() : nullptr);
  if (ctx_ != nullptr) {
    std::vector<uint64_t> build_bytes(num_parts, 0);
    pool_->ParallelFor(num_parts, [&](size_t p) {
      uint64_t bytes = 0;
      for (const ColumnBatch& b : build.partitions[p]) {
        for (uint64_t s : b.row_sizes) bytes += s;
      }
      build_bytes[p] = bytes;
    });
    for (size_t p = 0; p < num_parts; ++p) {
      join_mem.GrowUnchecked(build_bytes[p]);
    }
  }

  // Build phase: concatenate each partition's build batches into one flat
  // batch (the table's index space), hash its key columns (or adopt the
  // shuffle's hashes) and build the flat table.
  TraceSpan build_span("join-build", "kernel");
  auto wall_start = WallClock::now();
  if (join_tables_.size() < num_parts) join_tables_.resize(num_parts);
  std::vector<JoinHashTable>& tables = join_tables_;
  std::vector<ColumnBatch> build_flat(num_parts);
  std::vector<std::vector<uint8_t>> build_null(num_parts);
  std::vector<std::vector<uint64_t>> hash_storage(
      build_hashes != nullptr ? 0 : num_parts);
  pool_->ParallelFor(num_parts, [&](size_t p) {
    build_flat[p] = ConcatBatches(build.partitions[p]);
    const size_t nb = build_flat[p].num_rows;
    build_null[p].assign(nb, 0);
    if (nb == 0) {
      // Empty build partition: ConcatBatches has no columns to adopt, so
      // skip key hashing; the table still initializes (all chains empty).
      tables[p].BuildFromHashes(nullptr, nullptr, 0);
      return;
    }
    const uint64_t* h;
    if (build_hashes != nullptr) {
      AnyKeyNull(build_flat[p], build_keys.data(), build_keys.size(),
                 build_null[p].data());
      h = (*build_hashes)[p].data();
    } else {
      hash_storage[p].resize(nb);
      HashKeyColumns(build_flat[p], build_keys.data(), build_keys.size(),
                     hash_storage[p].data(), build_null[p].data());
      h = hash_storage[p].data();
    }
    tables[p].BuildFromHashes(h, build_null[p].data(), nb);
  });
  metrics->wall_build_seconds += SecondsSince(wall_start);
  if (FaultsArmed()) {
    std::vector<double> build_seconds(num_parts, 0.0);
    for (size_t p = 0; p < num_parts; ++p) {
      build_seconds[p] = static_cast<double>(build_flat[p].num_rows) *
                         cluster_.cpu_seconds_per_tuple;
    }
    DYNOPT_RETURN_IF_ERROR(
        ApplyFaults(FaultSite::kBuild, build_seconds, metrics));
  }
  build_span.End();

  // Probe phase: per partition, walk the probe batches; matches accumulate
  // as (build index, probe index) selection pairs per batch and are emitted
  // by one gather per column. Emission order — probe rows ascending, chain
  // order ascending — matches the row join exactly.
  DYNOPT_RETURN_IF_ERROR(CheckAlive());
  TraceSpan probe_span("join-probe", "kernel");
  wall_start = WallClock::now();
  std::vector<uint64_t> work(num_parts, 0);
  pool_->ParallelFor(num_parts, [&](size_t p) {
    const ColumnBatch& bflat = build_flat[p];
    const JoinHashTable& table = tables[p];
    uint64_t probe_rows = 0;
    for (const ColumnBatch& pb : probe.partitions[p]) {
      probe_rows += pb.num_rows;
    }
    uint64_t local_work = bflat.num_rows + probe_rows;
    BatchSink sink(out_columns.size(), batch_cap, &out.partitions[p]);
    constexpr uint32_t kEnd = JoinHashTable::kEnd;
    const uint32_t* heads = table.heads();
    const uint32_t* next = table.next();
    const uint64_t* table_hashes = table.hashes();
    const size_t mask = table.mask();
    const int* bkeys = build_keys.data();
    const int* pkeys = probe_keys.data();
    const size_t num_keys = build_keys.size();
    const uint64_t* part_hashes =
        probe_hashes != nullptr ? (*probe_hashes)[p].data() : nullptr;
    std::vector<uint64_t> hash_scratch;
    std::vector<uint8_t> null_scratch;
    std::vector<uint32_t> bsel, psel;
    std::vector<uint64_t> jsizes;
    size_t hash_off = 0;
    for (const ColumnBatch& pb : probe.partitions[p]) {
      const size_t m = pb.num_rows;
      null_scratch.assign(m, 0);
      const uint64_t* ph;
      if (part_hashes != nullptr) {
        ph = part_hashes + hash_off;
        AnyKeyNull(pb, pkeys, num_keys, null_scratch.data());
      } else {
        hash_scratch.resize(m);
        HashKeyColumns(pb, pkeys, num_keys, hash_scratch.data(),
                       null_scratch.data());
        ph = hash_scratch.data();
      }
      bsel.clear();
      psel.clear();
      jsizes.clear();
      const uint64_t* bsizes = bflat.row_sizes.data();
      const uint64_t* psizes = pb.row_sizes.data();
      for (size_t j = 0; j < m; ++j) {
        const uint64_t h = ph[j];
        uint32_t first;
        if (part_hashes != nullptr) {
          // Precomputed-hash path: walk to the first hash match before the
          // NULL-key check (same rejection order as the row probe).
          if (j + 8 < m) {
            __builtin_prefetch(&heads[ph[j + 8] & mask]);
          }
          first = heads[h & mask];
          while (first != kEnd && table_hashes[first] != h) {
            first = next[first];
          }
          if (first == kEnd) continue;
          if (null_scratch[j]) continue;
        } else {
          if (null_scratch[j]) continue;
          first = heads[h & mask];
        }
        for (uint32_t i = first; i != kEnd; i = next[i]) {
          if (table_hashes[i] != h) continue;
          if (!JoinKeysEqualColumnar(bflat, i, pb, j, bkeys, pkeys,
                                     num_keys)) {
            continue;
          }
          bsel.push_back(i);
          psel.push_back(static_cast<uint32_t>(j));
          // Joined-row size: both payloads, one 8-byte header.
          jsizes.push_back(bsizes[i] + psizes[j] - 8);
          ++local_work;
        }
      }
      sink.AppendJoinGather(bflat, bsel.data(), pb, psel.data(),
                            jsizes.data(), bsel.size());
      hash_off += m;
    }
    sink.Flush();
    work[p] = local_work;
  });
  metrics->wall_probe_seconds += SecondsSince(wall_start);

  uint64_t total_work = 0;
  for (uint64_t w : work) total_work += w;
  metrics->tuples_processed += total_work;
  metrics->simulated_seconds +=
      static_cast<double>(MaxOver(work)) * cluster_.cpu_seconds_per_tuple;
  if (FaultsArmed()) {
    std::vector<double> probe_seconds(num_parts, 0.0);
    for (size_t p = 0; p < num_parts; ++p) {
      probe_seconds[p] =
          static_cast<double>(work[p] - build_flat[p].num_rows) *
          cluster_.cpu_seconds_per_tuple;
    }
    DYNOPT_RETURN_IF_ERROR(
        ApplyFaults(FaultSite::kProbe, probe_seconds, metrics));
  }
  return out;
}

Result<ColumnarDataset> JobExecutor::ExecJoinColumnar(
    const PlanNode& node, const std::map<std::string, Value>& params,
    ExecMetrics* metrics) {
  DYNOPT_ASSIGN_OR_RETURN(ColumnarDataset build,
                          ExecNodeColumnar(*node.children[0], params,
                                           metrics));
  DYNOPT_ASSIGN_OR_RETURN(ColumnarDataset probe,
                          ExecNodeColumnar(*node.children[1], params,
                                           metrics));
  // A configured join memory budget routes through the row engine: the
  // grace hash join spills *rows* through the checksummed DRB serde, and
  // that path (plus its metering and fault sites) stays row-oriented by
  // design. Children still ran columnar; convert at this boundary.
  if (cluster_.memory.join_memory_budget_bytes > 0) {
    DYNOPT_ASSIGN_OR_RETURN(
        Dataset joined,
        ExecJoinWithInputs(node, ToDataset(std::move(build)),
                           ToDataset(std::move(probe)), metrics));
    return FromDataset(joined, cluster_.exec.max_batch_size);
  }

  std::vector<std::string> build_names, probe_names;
  for (const auto& [l, r] : node.keys) {
    build_names.push_back(l);
    probe_names.push_back(r);
  }
  DYNOPT_ASSIGN_OR_RETURN(
      std::vector<int> build_keys,
      ResolveColumnsColumnar(build, build_names, "join build"));
  DYNOPT_ASSIGN_OR_RETURN(
      std::vector<int> probe_keys,
      ResolveColumnsColumnar(probe, probe_names, "join probe"));

  if (node.method == JoinMethod::kHashShuffle) {
    if (PredicateTransferEnabled()) {
      // Sideways pushdown, batch-at-a-time; metering-identical to the row
      // twin (HashKeyColumns is bit-identical to HashRowKeyInline).
      TransferPredicateColumnar(build, build_keys, &probe, probe_keys,
                                metrics);
    }
    DYNOPT_ASSIGN_OR_RETURN(
        ColumnarShuffleResult build_parts,
        RepartitionColumnar(std::move(build), build_keys, metrics));
    DYNOPT_ASSIGN_OR_RETURN(
        ColumnarShuffleResult probe_parts,
        RepartitionColumnar(std::move(probe), probe_keys, metrics));
    return LocalHashJoinColumnar(build_parts.data, probe_parts.data,
                                 build_keys, probe_keys, metrics,
                                 &build_parts.hashes, &probe_parts.hashes);
  }

  // Broadcast join: replicate the (small) build side to every partition.
  DYNOPT_CHECK(node.method == JoinMethod::kBroadcast);
  // Build bytes from the batches' size annotation — identical to summing
  // RowSizeBytes over the gathered rows (the annotation invariant).
  uint64_t build_bytes = 0;
  std::vector<ColumnBatch> build_all;
  for (auto& part : build.partitions) {
    for (ColumnBatch& b : part) {
      for (uint64_t s : b.row_sizes) build_bytes += s;
      build_all.push_back(std::move(b));
    }
  }
  build.partitions.clear();
  const size_t n = probe.partitions.size();
  metrics->bytes_broadcast += build_bytes * n;
  metrics->simulated_seconds +=
      static_cast<double>(build_bytes) * cluster_.network_seconds_per_byte;
  // Legacy flat overflow penalty (only ever active without a join budget —
  // and this columnar path requires a zero budget).
  if (build_bytes > cluster_.broadcast_threshold_bytes) {
    double overflow = static_cast<double>(build_bytes -
                                          cluster_.broadcast_threshold_bytes);
    metrics->simulated_seconds +=
        overflow * cluster_.spill_penalty_passes *
        (cluster_.disk_write_seconds_per_byte +
         cluster_.disk_read_seconds_per_byte);
  }
  if (FaultsArmed()) {
    std::vector<double> receive_seconds(
        n, static_cast<double>(build_bytes) *
               cluster_.network_seconds_per_byte);
    DYNOPT_RETURN_IF_ERROR(
        ApplyFaults(FaultSite::kBroadcast, receive_seconds, metrics));
  }

  ColumnarDataset replicated(build.columns, n);
  // Physical replication, like the row path: per-node joins are real work
  // (dictionaries are shared across the copies; codes and fixed-width
  // payloads are duplicated).
  for (size_t p = 0; p < n; ++p) replicated.partitions[p] = build_all;
  return LocalHashJoinColumnar(replicated, probe, build_keys, probe_keys,
                               metrics);
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
  // paper collects sketches in parallel with writing the sink.
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
  builders.reserve(num_parts);
  for (size_t p = 0; p < num_parts; ++p) {
    builders.emplace_back(stat_names, stat_indices);
  }
  // Each partition's stat columns are fed column-at-a-time, in the
  // partition's row order; its byte total sums the size annotation.
  std::vector<uint64_t> part_bytes(num_parts, 0);
  std::vector<uint64_t> part_rows(num_parts, 0);
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
  // format (the paper's intermediates are "stored in a temporary file").
  // The DRB format is row-oriented, so rows are built here, and the
  // verified read-back replaces the partition's batches.
  // Under fault injection this is where corruption is *physical*: a byte of
  // the written file is flipped, the checksummed format detects it on
  // read-back (kDataCorruption), and the partition is re-materialized with
  // backoff — up to the retry budget, after which the sink fails fatally.
  if (cluster_.materialize_to_disk) {
    const bool inject = FaultsArmed();
    const BackoffPolicy& backoff = cluster_.fault.backoff;
    std::vector<Status> statuses(num_parts);
    std::vector<double> extra_seconds(num_parts, 0.0);
    std::vector<uint64_t> part_retries(num_parts, 0);
    std::vector<uint64_t> part_corrupted(num_parts, 0);
    pool_->ParallelFor(num_parts, [&](size_t p) {
      std::string path = cluster_.spill_directory + "/" + name + ".p" +
                         std::to_string(p) + ".rows";
      std::vector<Row> rows;
      rows.reserve(part_rows[p]);
      for (const ColumnBatch& b : data.partitions[p]) {
        for (size_t i = 0; i < b.num_rows; ++i) rows.push_back(b.RowAt(i));
      }
      Status st;
      for (int attempt = 0;; ++attempt) {
        st = WriteRowsFile(path, rows);
        if (!st.ok()) break;
        if (inject && faults_->CorruptsBlock(mat_stage, p, attempt)) {
          (void)CorruptByteInFile(path,
                                  faults_->CorruptionOffset(mat_stage, p));
        }
        auto back = ReadRowsFile(path);
        if (back.ok()) {
          data.partitions[p] = BatchesFromRows(
              back.value(), nullptr, num_cols, cluster_.exec.max_batch_size);
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
      registry_->counter("exec.retries")
          ->Increment(call_retries);
      registry_->counter("exec.corrupted_blocks")
          ->Increment(call_corrupted);
      if (extra > 0.0) {
        metrics->simulated_seconds += extra;
        metrics->recovery_seconds += extra;
      }
    }
    for (const Status& st : statuses) {
      DYNOPT_RETURN_IF_ERROR(st);
    }
  }

  // Online join-key sketches (predicate transfer): per-partition builders
  // merged into one dataset-level sketch per column, registered under the
  // temp name. Runs before the batches are moved into the table below.
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
    SketchOptions opts;
    opts.bits_per_key = cluster_.sketch.pt_bits_per_key;
    opts.agms_depth = cluster_.sketch.agms_depth;
    opts.agms_width = cluster_.sketch.agms_width;
    opts.seed = cluster_.sketch.seed;
    const size_t num_sketch = sketch_indices.size();
    // All shards are sized from the same total so merging is well-formed.
    std::vector<std::vector<JoinKeySketch>> shards(num_parts);
    for (size_t p = 0; p < num_parts; ++p) {
      shards[p].reserve(num_sketch);
      for (size_t c = 0; c < num_sketch; ++c) {
        shards[p].push_back(
            JoinKeySketch{BloomFilter(std::max<uint64_t>(total_rows, 1),
                                      opts.bits_per_key, opts.seed),
                          FastAgmsSketch(opts), 0, 0});
      }
    }
    pool_->ParallelFor(num_parts, [&](size_t p) {
      for (const ColumnBatch& b : data.partitions[p]) {
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
  }

  // Move the batches in partition-faithfully so the producing node's
  // placement (and any skew) survives materialization.
  for (size_t p = 0; p < num_parts; ++p) {
    table->AppendBatches(p, std::move(data.partitions[p]));
  }

  DYNOPT_RETURN_IF_ERROR(catalog_->RegisterTable(table));

  SinkResult result;
  result.table_name = name;
  if (collect_stats) {
    TableStatsBuilder merged(stat_names, stat_indices);
    for (const auto& b : builders) merged.Merge(b);
    result.stats = merged.Finalize();
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
