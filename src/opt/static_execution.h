#ifndef DYNOPT_OPT_STATIC_EXECUTION_H_
#define DYNOPT_OPT_STATIC_EXECUTION_H_

#include <memory>
#include <string>

#include "exec/engine.h"
#include "opt/join_tree.h"
#include "opt/optimizer.h"
#include "plan/query_spec.h"

namespace dynopt {

/// The last job of every strategy: lowers `tree` over `spec` projected to
/// the SELECT list, runs it on `executor` (no re-optimization point, no
/// materialization), adds its work to result->metrics and replaces the
/// result's columns and rows with its post-processed output. Returns the
/// join output's row count before post-processing: the actual the plan
/// decisions the job settles are judged against.
Result<uint64_t> RunFinalJob(JobExecutor& executor,
                             const ClusterConfig& cluster,
                             const QuerySpec& spec, const JoinTree& tree,
                             OptimizerRunResult* result);

/// RunFinalJob on a fresh executor bound to `ctx` (null runs ungoverned):
/// its output cardinality back-patches decision `root_decision` in
/// `profile`'s log and is recorded under the tree's SubtreeKey.
Status ExecuteTree(Engine* engine, const QuerySpec& spec,
                   const JoinTree& tree, QueryContext* ctx,
                   QueryProfile* profile, int root_decision,
                   OptimizerRunResult* result);

/// The whole Run() of the static strategies (cost-based, best-order,
/// worst-order): ExecuteTree inside its own QueryRun named `optimizer`,
/// whose profile logs `root` — its chosen plan filled in here — as the
/// one decision, judged against the job's output.
Result<OptimizerRunResult> ExecuteTreeAsSingleJob(
    Engine* engine, const QuerySpec& spec,
    std::shared_ptr<const JoinTree> tree, const std::string& optimizer,
    PlanDecision root, QueryContext* ctx);

}  // namespace dynopt

#endif  // DYNOPT_OPT_STATIC_EXECUTION_H_
