#ifndef DYNOPT_OPT_PLAN_BUILDER_H_
#define DYNOPT_OPT_PLAN_BUILDER_H_

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "exec/job.h"
#include "opt/join_tree.h"
#include "plan/query_spec.h"
#include "storage/catalog.h"

namespace dynopt {

/// Qualified columns of `alias` referenced anywhere in the query:
/// projections, join keys and local predicates. This is the projection list
/// the paper pushes into single-variable subqueries ("the SELECT clause is
/// defined by attributes that participate in the remaining query").
std::vector<std::string> RequiredColumns(const QuerySpec& spec,
                                         const std::string& alias,
                                         bool include_predicate_columns);

/// Columns the materialized output of the join along `edge` must carry:
/// the projections either joined side provides, and the keys of every
/// other join edge that involves either side.
std::vector<std::string> RequiredOutputColumns(const QuerySpec& spec,
                                               const JoinEdge& edge);

/// Leaf access plan for `alias`: scan (with projection pushdown) plus its
/// local predicates.
Result<std::unique_ptr<PlanNode>> BuildLeafPlan(const QuerySpec& spec,
                                                const std::string& alias);

/// All equi-join key pairs connecting the alias sets `left` and `right`
/// (first element of each pair provided by `left`). Errors when the sets
/// are not connected (would be a cross product).
Result<std::vector<std::pair<std::string, std::string>>> KeysBetween(
    const QuerySpec& spec, const std::set<std::string>& left,
    const std::set<std::string>& right);

/// Lowers a join-order tree to a physical job plan. When
/// `project_result` is set the root is wrapped in a projection to the
/// query's SELECT list.
Result<std::unique_ptr<PlanNode>> BuildPhysicalPlan(const QuerySpec& spec,
                                                    const JoinTree& tree,
                                                    bool project_result);

}  // namespace dynopt

#endif  // DYNOPT_OPT_PLAN_BUILDER_H_
