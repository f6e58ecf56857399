#include "opt/static_execution.h"

#include "opt/finalize.h"
#include "opt/plan_builder.h"
#include "opt/query_run.h"

namespace dynopt {

Status ExecuteTree(Engine* engine, const QuerySpec& spec,
                   const JoinTree& tree, QueryContext* ctx,
                   QueryProfile* profile, int root_decision,
                   OptimizerRunResult* result) {
  JobExecutor executor = engine->MakeExecutor(ctx);
  DYNOPT_ASSIGN_OR_RETURN(std::unique_ptr<PlanNode> plan,
                          BuildPhysicalPlan(spec, tree, true));
  DYNOPT_ASSIGN_OR_RETURN(JobResult job, executor.Execute(*plan, spec.params));
  result->metrics.Add(job.metrics);
  // Output cardinality of the join tree itself (post-processing reshapes
  // rows below): this is the "actual" every static plan estimate is judged
  // against.
  const uint64_t actual_rows = job.data.NumRows();
  profile->decisions.SetActual(root_decision, static_cast<double>(actual_rows));
  profile->subtree_actual_rows[SubtreeKey(tree.Aliases())] = actual_rows;
  result->columns = job.data.columns;
  result->rows = job.data.GatherRows();
  return ApplyPostProcessing(spec, engine->cluster(), result);
}

Result<OptimizerRunResult> ExecuteTreeAsSingleJob(
    Engine* engine, const QuerySpec& spec,
    std::shared_ptr<const JoinTree> tree, std::string plan_trace,
    QueryContext* ctx, std::shared_ptr<QueryProfile> profile,
    int root_decision) {
  if (ctx != nullptr) {
    DYNOPT_RETURN_IF_ERROR(ctx->CheckAlive());
  }
  QueryRun run(engine, spec, profile->optimizer, ctx);
  OptimizerRunResult result;
  DYNOPT_RETURN_IF_ERROR(ExecuteTree(engine, spec, *tree, ctx, profile.get(),
                                     root_decision, &result));
  result.join_tree = std::move(tree);
  result.plan_trace = std::move(plan_trace);
  run.Finish(std::move(profile), ExecMetrics(), &result);
  return result;
}

}  // namespace dynopt
