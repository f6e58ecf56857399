#ifndef DYNOPT_OPT_STATIC_EXECUTION_H_
#define DYNOPT_OPT_STATIC_EXECUTION_H_

#include <memory>
#include <string>

#include "exec/engine.h"
#include "opt/join_tree.h"
#include "opt/optimizer.h"
#include "plan/query_spec.h"

namespace dynopt {

/// Executes a fully decided join tree as one pipelined job (no
/// re-optimization points, no materialization) into `result`: its work is
/// added to result->metrics, its rows and columns (post-processed) replace
/// the result's. The job's output cardinality (before post-processing)
/// back-patches decision `root_decision` in `profile`'s log and is recorded
/// under the tree's SubtreeKey. A non-null `ctx` makes the job cancellable
/// at its operator boundaries and accounts memory against its tracker.
Status ExecuteTree(Engine* engine, const QuerySpec& spec,
                   const JoinTree& tree, QueryContext* ctx,
                   QueryProfile* profile, int root_decision,
                   OptimizerRunResult* result);

/// The whole Run() of the static strategies (cost-based, best-order,
/// worst-order): ExecuteTree inside its own QueryRun, finished with
/// `profile` (whose optimizer names the run).
Result<OptimizerRunResult> ExecuteTreeAsSingleJob(
    Engine* engine, const QuerySpec& spec,
    std::shared_ptr<const JoinTree> tree, std::string plan_trace,
    QueryContext* ctx, std::shared_ptr<QueryProfile> profile,
    int root_decision);

}  // namespace dynopt

#endif  // DYNOPT_OPT_STATIC_EXECUTION_H_
