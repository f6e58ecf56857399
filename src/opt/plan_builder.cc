#include "opt/plan_builder.h"

#include <algorithm>

namespace dynopt {

namespace {

void AddUnique(std::vector<std::string>* out, const std::string& name) {
  if (std::find(out->begin(), out->end(), name) == out->end()) {
    out->push_back(name);
  }
}

}  // namespace

std::vector<std::string> RequiredColumns(const QuerySpec& spec,
                                         const std::string& alias,
                                         bool include_predicate_columns) {
  const TableRef* ref = spec.FindRef(alias);
  std::vector<std::string> out;
  if (ref == nullptr) return out;
  for (const auto& proj : spec.projections) {
    if (ref->Provides(proj)) AddUnique(&out, proj);
  }
  for (const auto& edge : spec.joins) {
    if (!edge.Involves(alias)) continue;
    for (const auto& key : edge.KeysOf(alias)) AddUnique(&out, key);
  }
  if (include_predicate_columns) {
    for (const auto& pred : spec.PredicatesFor(alias)) {
      std::vector<const ColumnRefExpr*> refs;
      pred->CollectColumns(&refs);
      for (const ColumnRefExpr* col : refs) AddUnique(&out, col->Qualified());
    }
  }
  return out;
}

std::vector<std::string> RequiredOutputColumns(const QuerySpec& spec,
                                               const JoinEdge& edge) {
  std::vector<std::string> out;
  const TableRef* left = spec.FindRef(edge.left_alias);
  const TableRef* right = spec.FindRef(edge.right_alias);
  for (const auto& proj : spec.projections) {
    if (left->Provides(proj) || right->Provides(proj)) AddUnique(&out, proj);
  }
  for (const auto& other : spec.joins) {
    if (other.Involves(edge.left_alias) && other.Involves(edge.right_alias)) {
      continue;  // The executed edge.
    }
    for (const std::string& alias : {edge.left_alias, edge.right_alias}) {
      if (!other.Involves(alias)) continue;
      for (const auto& key : other.KeysOf(alias)) AddUnique(&out, key);
    }
  }
  // Degenerate case: nothing downstream needs this result's columns (can
  // only happen for pathological projection-less queries); keep the join
  // keys so the dataset is non-empty schema-wise.
  if (out.empty()) {
    for (const auto& [l, r] : edge.keys) {
      AddUnique(&out, l);
      AddUnique(&out, r);
    }
  }
  return out;
}

Result<std::unique_ptr<PlanNode>> BuildLeafPlan(const QuerySpec& spec,
                                                const std::string& alias) {
  const TableRef* ref = spec.FindRef(alias);
  if (ref == nullptr) {
    return Status::InvalidArgument("unknown alias " + alias);
  }
  std::vector<std::string> columns = RequiredColumns(spec, alias, true);
  std::vector<std::string> post_filter = RequiredColumns(spec, alias, false);
  auto scan = PlanNode::Scan(ref->table, alias, ref->is_intermediate,
                             std::move(columns));
  ExprPtr predicate = CombineConjuncts(spec.PredicatesFor(alias));
  if (predicate == nullptr) return scan;
  auto filtered = PlanNode::Filter(std::move(scan), std::move(predicate));
  // Drop predicate-only columns before the row enters joins/shuffles.
  if (post_filter.size() < filtered->children[0]->scan_columns.size()) {
    return PlanNode::Project(std::move(filtered), std::move(post_filter));
  }
  return filtered;
}

Result<std::vector<std::pair<std::string, std::string>>> KeysBetween(
    const QuerySpec& spec, const std::set<std::string>& left,
    const std::set<std::string>& right) {
  std::vector<std::pair<std::string, std::string>> keys;
  for (const auto& edge : spec.joins) {
    bool l_in_left = left.count(edge.left_alias) > 0;
    bool l_in_right = right.count(edge.left_alias) > 0;
    bool r_in_left = left.count(edge.right_alias) > 0;
    bool r_in_right = right.count(edge.right_alias) > 0;
    if (l_in_left && r_in_right) {
      keys.insert(keys.end(), edge.keys.begin(), edge.keys.end());
    } else if (l_in_right && r_in_left) {
      for (const auto& [l, r] : edge.keys) keys.emplace_back(r, l);
    }
  }
  if (keys.empty()) {
    return Status::InvalidArgument(
        "no join predicate between the two plan inputs (cross product)");
  }
  return keys;
}

namespace {

/// Columns a subtree covering `aliases` must emit: the query's projections
/// provided by a member, plus the keys of every join edge crossing the
/// subtree boundary. Everything else can be pruned before the next shuffle.
std::vector<std::string> ColumnsNeededAbove(
    const QuerySpec& spec, const std::set<std::string>& aliases) {
  std::vector<std::string> out;
  for (const auto& proj : spec.projections) {
    const std::string provider = spec.ProviderOf(proj);
    if (aliases.count(provider) > 0) AddUnique(&out, proj);
  }
  for (const auto& edge : spec.joins) {
    bool l_in = aliases.count(edge.left_alias) > 0;
    bool r_in = aliases.count(edge.right_alias) > 0;
    if (l_in == r_in) continue;  // Internal or fully external edge.
    const std::string& inside = l_in ? edge.left_alias : edge.right_alias;
    for (const auto& key : edge.KeysOf(inside)) AddUnique(&out, key);
  }
  return out;
}

}  // namespace

Result<std::unique_ptr<PlanNode>> BuildPhysicalPlanNode(const QuerySpec& spec,
                                                        const JoinTree& tree) {
  if (tree.IsLeaf()) return BuildLeafPlan(spec, tree.alias);

  DYNOPT_ASSIGN_OR_RETURN(std::unique_ptr<PlanNode> build,
                          BuildPhysicalPlanNode(spec, *tree.left));

  DYNOPT_ASSIGN_OR_RETURN(auto keys,
                          KeysBetween(spec, tree.left->Aliases(),
                                      tree.right->Aliases()));

  std::unique_ptr<PlanNode> probe;
  if (tree.method == JoinMethod::kIndexNestedLoop) {
    // The INLJ inner must stay a bare base-table scan: the index lookup
    // replaces the scan+filter pipeline.
    if (!tree.right->IsLeaf()) {
      return Status::InvalidArgument(
          "indexed nested loop join requires a base-table leaf as inner");
    }
    const TableRef* inner_ref = spec.FindRef(tree.right->alias);
    if (inner_ref == nullptr || inner_ref->is_intermediate) {
      return Status::InvalidArgument(
          "indexed nested loop join inner must be a base dataset");
    }
    if (!spec.PredicatesFor(tree.right->alias).empty()) {
      return Status::InvalidArgument(
          "indexed nested loop join inner must not carry local predicates");
    }
    probe = PlanNode::Scan(inner_ref->table, tree.right->alias, false,
                           RequiredColumns(spec, tree.right->alias, false));
  } else {
    DYNOPT_ASSIGN_OR_RETURN(probe, BuildPhysicalPlanNode(spec, *tree.right));
  }
  auto join = PlanNode::Join(tree.method, std::move(build), std::move(probe),
                             std::move(keys));
  // Prune columns no longer needed above this join so subsequent shuffles
  // and broadcasts do not carry dead payload (a pipelined engine's pushed
  // projections do the same).
  std::set<std::string> covered = tree.Aliases();
  std::vector<std::string> needed = ColumnsNeededAbove(spec, covered);
  if (needed.empty()) return join;
  return PlanNode::Project(std::move(join), std::move(needed));
}

Result<std::unique_ptr<PlanNode>> BuildPhysicalPlan(const QuerySpec& spec,
                                                    const JoinTree& tree,
                                                    bool project_result) {
  DYNOPT_ASSIGN_OR_RETURN(std::unique_ptr<PlanNode> root,
                          BuildPhysicalPlanNode(spec, tree));
  if (project_result && !spec.projections.empty()) {
    return PlanNode::Project(std::move(root), spec.projections);
  }
  return root;
}

}  // namespace dynopt
