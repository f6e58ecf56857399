#include "opt/static_execution.h"

#include "opt/finalize.h"
#include "opt/plan_builder.h"
#include "opt/query_run.h"

namespace dynopt {

Result<uint64_t> RunFinalJob(JobExecutor& executor,
                             const ClusterConfig& cluster,
                             const QuerySpec& spec, const JoinTree& tree,
                             OptimizerRunResult* result) {
  DYNOPT_ASSIGN_OR_RETURN(std::unique_ptr<PlanNode> plan,
                          BuildPhysicalPlan(spec, tree, true));
  DYNOPT_ASSIGN_OR_RETURN(JobResult job, executor.Execute(*plan, spec.params));
  result->metrics.Add(job.metrics);
  const uint64_t join_rows = job.data.NumRows();
  result->columns = job.data.columns;
  result->rows = job.data.GatherRows();
  DYNOPT_RETURN_IF_ERROR(ApplyPostProcessing(spec, cluster, result));
  return join_rows;
}

Status ExecuteTree(Engine* engine, const QuerySpec& spec,
                   const JoinTree& tree, QueryContext* ctx,
                   QueryProfile* profile, int root_decision,
                   OptimizerRunResult* result) {
  JobExecutor executor = engine->MakeExecutor(ctx);
  DYNOPT_ASSIGN_OR_RETURN(
      const uint64_t actual_rows,
      RunFinalJob(executor, engine->cluster(), spec, tree, result));
  profile->decisions.SetActual(root_decision, static_cast<double>(actual_rows));
  profile->subtree_actual_rows[SubtreeKey(tree.Aliases())] = actual_rows;
  return Status::OK();
}

Result<OptimizerRunResult> ExecuteTreeAsSingleJob(
    Engine* engine, const QuerySpec& spec,
    std::shared_ptr<const JoinTree> tree, const std::string& optimizer,
    PlanDecision root, QueryContext* ctx) {
  if (ctx != nullptr) {
    DYNOPT_RETURN_IF_ERROR(ctx->CheckAlive());
  }
  QueryRun run(engine, spec, optimizer, ctx);
  auto profile = std::make_shared<QueryProfile>();
  profile->optimizer = optimizer;
  root.chosen = tree->ToString();
  const int root_id = profile->decisions.Record(std::move(root));
  OptimizerRunResult result;
  DYNOPT_RETURN_IF_ERROR(ExecuteTree(engine, spec, *tree, ctx, profile.get(),
                                     root_id, &result));
  result.plan_trace = "[" + optimizer + "] plan: " + tree->ToString() + "\n";
  result.join_tree = std::move(tree);
  run.Finish(std::move(profile), ExecMetrics(), &result);
  return result;
}

}  // namespace dynopt
