#ifndef DYNOPT_OPT_JOIN_TREE_H_
#define DYNOPT_OPT_JOIN_TREE_H_

#include <map>
#include <memory>
#include <set>
#include <string>

#include "exec/job.h"

namespace dynopt {

/// Logical join-order tree over query aliases (leaves) with a physical
/// method per internal node — the shape the paper draws in its plan
/// figures, and the "hint" a user would encode in the FROM clause for the
/// best-order baseline. Value-semantics via shared_ptr so optimizers can
/// record and replay trees cheaply.
struct JoinTree {
  std::string alias;  ///< Leaf only.
  std::shared_ptr<const JoinTree> left;
  std::shared_ptr<const JoinTree> right;
  JoinMethod method = JoinMethod::kHashShuffle;

  bool IsLeaf() const { return left == nullptr; }

  static std::shared_ptr<const JoinTree> Leaf(std::string alias);
  static std::shared_ptr<const JoinTree> Join(
      std::shared_ptr<const JoinTree> l, std::shared_ptr<const JoinTree> r,
      JoinMethod method);

  void CollectAliases(std::set<std::string>* out) const;
  std::set<std::string> Aliases() const;

  /// Renders like the paper's plan notation: ((A ⋈b B) ⋈ C); 'b' marks
  /// broadcast and 'i' indexed nested loop.
  std::string ToString() const;
};

/// Replaces each leaf of `tree` that `subtrees` names by its subtree: how
/// the strategies that materialize intermediates report the effective
/// join order over the query's original aliases.
std::shared_ptr<const JoinTree> ExpandTree(
    const std::shared_ptr<const JoinTree>& tree,
    const std::map<std::string, std::shared_ptr<const JoinTree>>& subtrees);

}  // namespace dynopt

#endif  // DYNOPT_OPT_JOIN_TREE_H_
