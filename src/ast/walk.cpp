#include "ast/walk.h"

#include <algorithm>

namespace jst {
namespace {

// Pre-order visit carrying the node's depth (root = 1); children are
// visited in source order, like for_each_preorder.
template <typename Visitor>
void for_each_preorder_depth(const Node* root, Visitor&& visit) {
  if (root == nullptr) return;
  std::vector<std::pair<const Node*, std::size_t>> stack;
  stack.emplace_back(root, std::size_t{1});
  while (!stack.empty()) {
    const auto [node, depth] = stack.back();
    stack.pop_back();
    visit(*node, depth);
    for (auto it = node->kids.rbegin(); it != node->kids.rend(); ++it) {
      if (*it != nullptr) stack.emplace_back(*it, depth + 1);
    }
  }
}

}  // namespace

void walk_preorder(Node* root, const std::function<void(Node&)>& visit) {
  for_each_preorder(root, [&visit](Node& node) { visit(node); });
}

void walk_preorder(const Node* root,
                   const std::function<void(const Node&)>& visit) {
  for_each_preorder(root, [&visit](const Node& node) { visit(node); });
}

void walk_postorder(Node* root, const std::function<void(Node&)>& visit) {
  if (root == nullptr) return;
  // Two-stack iterative post-order.
  std::vector<Node*> stack = {root};
  std::vector<Node*> output;
  while (!stack.empty()) {
    Node* node = stack.back();
    stack.pop_back();
    output.push_back(node);
    for (Node* kid : node->kids) {
      if (kid != nullptr) stack.push_back(kid);
    }
  }
  for (auto it = output.rbegin(); it != output.rend(); ++it) visit(**it);
}

std::vector<NodeKind> preorder_kinds(const Node* root) {
  std::vector<NodeKind> kinds;
  for_each_preorder(root,
                    [&kinds](const Node& node) { kinds.push_back(node.kind); });
  return kinds;
}

std::size_t tree_depth(const Node* root) {
  if (root == nullptr) return 0;
  std::size_t max_depth = 0;
  for_each_preorder_depth(root, [&max_depth](const Node&, std::size_t depth) {
    max_depth = std::max(max_depth, depth);
  });
  return max_depth;
}

std::size_t tree_breadth(const Node* root) {
  if (root == nullptr) return 0;
  std::vector<std::size_t> level_counts;
  for_each_preorder_depth(
      root, [&level_counts](const Node&, std::size_t depth) {
        const std::size_t level = depth - 1;
        if (level >= level_counts.size()) level_counts.resize(level + 1, 0);
        ++level_counts[level];
      });
  return *std::max_element(level_counts.begin(), level_counts.end());
}

std::size_t count_nodes(const Node* root) {
  std::size_t count = 0;
  for_each_preorder(root, [&count](const Node&) { ++count; });
  return count;
}

std::vector<Node*> collect_kind(Node* root, NodeKind kind) {
  std::vector<Node*> out;
  for_each_preorder(root, [&out, kind](Node& node) {
    if (node.kind == kind) out.push_back(&node);
  });
  return out;
}

std::vector<const Node*> collect_kind(const Node* root, NodeKind kind) {
  std::vector<const Node*> out;
  for_each_preorder(root, [&out, kind](const Node& node) {
    if (node.kind == kind) out.push_back(&node);
  });
  return out;
}

}  // namespace jst
