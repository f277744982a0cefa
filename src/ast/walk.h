// Tree traversal utilities for trees whose pre-order index is not current
// (transformers mid-mutation) and for tests and oracles. The analysis
// passes over a finalized tree scan Ast::kinds()/ends()/depths()/nodes()
// instead (DESIGN.md §12).
//
// Two tiers: the `std::function` walkers below are the flexible entry
// points; the `for_each_preorder` template inlines the visitor into the
// traversal loop, so per-node cost is a stack push/pop instead of a
// type-erased indirect call. Both visit the same nodes in the same order;
// the `std::function` overloads are implemented on top of the template.
#pragma once

#include <functional>
#include <vector>

#include "ast/ast.h"

namespace jst {

// Pre-order visit of all non-null nodes with an inlineable visitor. The
// callback may not mutate the tree structure above the visited node.
template <typename NodeT, typename Visitor>
inline void for_each_preorder(NodeT* root, Visitor&& visit) {
  if (root == nullptr) return;
  std::vector<NodeT*> stack;
  stack.reserve(64);
  stack.push_back(root);
  while (!stack.empty()) {
    NodeT* node = stack.back();
    stack.pop_back();
    visit(*node);
    for (auto it = node->kids.rbegin(); it != node->kids.rend(); ++it) {
      if (*it != nullptr) stack.push_back(*it);
    }
  }
}

// Pre-order visit of all non-null nodes (type-erased tier). The callback
// may not mutate the tree structure above the visited node.
void walk_preorder(Node* root, const std::function<void(Node&)>& visit);
void walk_preorder(const Node* root,
                   const std::function<void(const Node&)>& visit);

// Post-order visit (children before parent).
void walk_postorder(Node* root, const std::function<void(Node&)>& visit);

// Pre-order sequence of node kinds — the "list of syntactic units" the
// paper slides a 4-gram window over (§III-B).
std::vector<NodeKind> preorder_kinds(const Node* root);

// Maximum depth of the tree (root = depth 1; empty tree = 0).
std::size_t tree_depth(const Node* root);

// Maximum number of nodes at any single depth level ("breadth").
std::size_t tree_breadth(const Node* root);

// Total number of non-null nodes.
std::size_t count_nodes(const Node* root);

// Collects every node of the given kind (pre-order).
std::vector<Node*> collect_kind(Node* root, NodeKind kind);
std::vector<const Node*> collect_kind(const Node* root, NodeKind kind);

}  // namespace jst
