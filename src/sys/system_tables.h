#ifndef DYNOPT_SYS_SYSTEM_TABLES_H_
#define DYNOPT_SYS_SYSTEM_TABLES_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/catalog.h"

namespace dynopt {

class Engine;

/// Names of every sys.* virtual table ("sys.metrics", "sys.queries", ...).
std::vector<std::string> SystemTableNames();

/// Materializes one sys.* table from `engine`'s live state right now; the
/// returned Table is an ordinary in-memory snapshot (single partition, no
/// stats), so the rest of the stack — planner, executor, SQL shell — treats
/// it like any other dataset. Scanning it is metered at zero simulated cost
/// (see JobExecutor::ExecLeaf). Unknown names => NotFound.
///
/// Tables:
///   sys.metrics     counters/gauges/histograms of the engine registry,
///                   with p50/p90/p99 for histograms
///   sys.queries     active (status "running") + archived queries:
///                   identity, fingerprint, critical path, regression, and
///                   one column per ExecMetrics field
///   sys.admission   per-priority queue depth + engine-wide admission
///                   counters (admitted/shed/rejected/timeouts/degraded)
///   sys.memory      the engine -> query -> operator MemoryTracker tree
///   sys.error_stats cross-query q-error memory (opt/error_stats.h)
///   sys.sketches    per (table, column) join-key sketches: rows, bloom
///                   bytes, AGMS dimensions
///   sys.decisions   per-archived-query decision log with est/actual rows,
///                   q-error, provenance, consumed prior, divergence flag
Result<std::shared_ptr<Table>> MaterializeSystemTable(Engine* engine,
                                                      const std::string& name);

/// Installs the sys.* SystemTableProvider into `engine`'s catalog (the
/// provider reads the engine's live state on every scan; `engine` owns the
/// catalog, so the borrowed pointer cannot dangle). Idempotent. Does not
/// flip any cluster knob — without introspection.enabled, sys.queries /
/// sys.decisions are simply empty.
void InstallSystemTables(Engine* engine);

/// Turns the introspection plane on: sets
/// mutable_cluster().introspection.enabled (query profiles start archiving)
/// and installs the sys.* catalog provider.
void EnableIntrospection(Engine* engine);

}  // namespace dynopt

#endif  // DYNOPT_SYS_SYSTEM_TABLES_H_
