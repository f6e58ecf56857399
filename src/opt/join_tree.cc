#include "opt/join_tree.h"

namespace dynopt {

std::shared_ptr<const JoinTree> JoinTree::Leaf(std::string alias) {
  auto node = std::make_shared<JoinTree>();
  node->alias = std::move(alias);
  return node;
}

std::shared_ptr<const JoinTree> JoinTree::Join(
    std::shared_ptr<const JoinTree> l, std::shared_ptr<const JoinTree> r,
    JoinMethod method) {
  auto node = std::make_shared<JoinTree>();
  node->left = std::move(l);
  node->right = std::move(r);
  node->method = method;
  return node;
}

void JoinTree::CollectAliases(std::set<std::string>* out) const {
  if (IsLeaf()) {
    out->insert(alias);
    return;
  }
  left->CollectAliases(out);
  right->CollectAliases(out);
}

std::set<std::string> JoinTree::Aliases() const {
  std::set<std::string> out;
  CollectAliases(&out);
  return out;
}

std::string JoinTree::ToString() const {
  if (IsLeaf()) return alias;
  const char* mark = "";
  switch (method) {
    case JoinMethod::kHashShuffle:
      mark = "";
      break;
    case JoinMethod::kBroadcast:
      mark = "b";
      break;
    case JoinMethod::kIndexNestedLoop:
      mark = "i";
      break;
  }
  return "(" + left->ToString() + " JOIN" + mark + " " + right->ToString() +
         ")";
}

std::shared_ptr<const JoinTree> ExpandTree(
    const std::shared_ptr<const JoinTree>& tree,
    const std::map<std::string, std::shared_ptr<const JoinTree>>& subtrees) {
  if (tree->IsLeaf()) {
    auto it = subtrees.find(tree->alias);
    return it != subtrees.end() ? it->second : tree;
  }
  return JoinTree::Join(ExpandTree(tree->left, subtrees),
                        ExpandTree(tree->right, subtrees), tree->method);
}

}  // namespace dynopt
