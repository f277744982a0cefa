#include "ast/ast.h"

#include <algorithm>
#include <new>
#include <type_traits>

namespace jst {

std::string_view node_kind_name(NodeKind kind) {
  switch (kind) {
    case NodeKind::kProgram: return "Program";
    case NodeKind::kExpressionStatement: return "ExpressionStatement";
    case NodeKind::kBlockStatement: return "BlockStatement";
    case NodeKind::kVariableDeclaration: return "VariableDeclaration";
    case NodeKind::kVariableDeclarator: return "VariableDeclarator";
    case NodeKind::kFunctionDeclaration: return "FunctionDeclaration";
    case NodeKind::kClassDeclaration: return "ClassDeclaration";
    case NodeKind::kReturnStatement: return "ReturnStatement";
    case NodeKind::kIfStatement: return "IfStatement";
    case NodeKind::kForStatement: return "ForStatement";
    case NodeKind::kForInStatement: return "ForInStatement";
    case NodeKind::kForOfStatement: return "ForOfStatement";
    case NodeKind::kWhileStatement: return "WhileStatement";
    case NodeKind::kDoWhileStatement: return "DoWhileStatement";
    case NodeKind::kSwitchStatement: return "SwitchStatement";
    case NodeKind::kSwitchCase: return "SwitchCase";
    case NodeKind::kBreakStatement: return "BreakStatement";
    case NodeKind::kContinueStatement: return "ContinueStatement";
    case NodeKind::kThrowStatement: return "ThrowStatement";
    case NodeKind::kTryStatement: return "TryStatement";
    case NodeKind::kCatchClause: return "CatchClause";
    case NodeKind::kLabeledStatement: return "LabeledStatement";
    case NodeKind::kEmptyStatement: return "EmptyStatement";
    case NodeKind::kDebuggerStatement: return "DebuggerStatement";
    case NodeKind::kWithStatement: return "WithStatement";
    case NodeKind::kIdentifier: return "Identifier";
    case NodeKind::kLiteral: return "Literal";
    case NodeKind::kTemplateLiteral: return "TemplateLiteral";
    case NodeKind::kTemplateElement: return "TemplateElement";
    case NodeKind::kTaggedTemplateExpression: return "TaggedTemplateExpression";
    case NodeKind::kThisExpression: return "ThisExpression";
    case NodeKind::kSuper: return "Super";
    case NodeKind::kArrayExpression: return "ArrayExpression";
    case NodeKind::kObjectExpression: return "ObjectExpression";
    case NodeKind::kProperty: return "Property";
    case NodeKind::kFunctionExpression: return "FunctionExpression";
    case NodeKind::kArrowFunctionExpression: return "ArrowFunctionExpression";
    case NodeKind::kClassExpression: return "ClassExpression";
    case NodeKind::kClassBody: return "ClassBody";
    case NodeKind::kMethodDefinition: return "MethodDefinition";
    case NodeKind::kSequenceExpression: return "SequenceExpression";
    case NodeKind::kUnaryExpression: return "UnaryExpression";
    case NodeKind::kBinaryExpression: return "BinaryExpression";
    case NodeKind::kLogicalExpression: return "LogicalExpression";
    case NodeKind::kAssignmentExpression: return "AssignmentExpression";
    case NodeKind::kUpdateExpression: return "UpdateExpression";
    case NodeKind::kConditionalExpression: return "ConditionalExpression";
    case NodeKind::kCallExpression: return "CallExpression";
    case NodeKind::kNewExpression: return "NewExpression";
    case NodeKind::kMemberExpression: return "MemberExpression";
    case NodeKind::kSpreadElement: return "SpreadElement";
    case NodeKind::kRestElement: return "RestElement";
    case NodeKind::kYieldExpression: return "YieldExpression";
    case NodeKind::kAwaitExpression: return "AwaitExpression";
    case NodeKind::kAssignmentPattern: return "AssignmentPattern";
    case NodeKind::kArrayPattern: return "ArrayPattern";
    case NodeKind::kObjectPattern: return "ObjectPattern";
  }
  return "Unknown";
}

bool Node::is_expression() const {
  switch (kind) {
    case NodeKind::kIdentifier:
    case NodeKind::kLiteral:
    case NodeKind::kTemplateLiteral:
    case NodeKind::kTaggedTemplateExpression:
    case NodeKind::kThisExpression:
    case NodeKind::kSuper:
    case NodeKind::kArrayExpression:
    case NodeKind::kObjectExpression:
    case NodeKind::kFunctionExpression:
    case NodeKind::kArrowFunctionExpression:
    case NodeKind::kClassExpression:
    case NodeKind::kSequenceExpression:
    case NodeKind::kUnaryExpression:
    case NodeKind::kBinaryExpression:
    case NodeKind::kLogicalExpression:
    case NodeKind::kAssignmentExpression:
    case NodeKind::kUpdateExpression:
    case NodeKind::kConditionalExpression:
    case NodeKind::kCallExpression:
    case NodeKind::kNewExpression:
    case NodeKind::kMemberExpression:
    case NodeKind::kYieldExpression:
    case NodeKind::kAwaitExpression:
      return true;
    default:
      return false;
  }
}

bool Node::is_loop() const {
  switch (kind) {
    case NodeKind::kForStatement:
    case NodeKind::kForInStatement:
    case NodeKind::kForOfStatement:
    case NodeKind::kWhileStatement:
    case NodeKind::kDoWhileStatement:
      return true;
    default:
      return false;
  }
}

// reset() reclaims node storage without running destructors, so the
// whole Node (including its NodeList and payload views) must be trivial
// to destroy.
static_assert(std::is_trivially_destructible_v<Node>);

void NodeList::grow(std::size_t at_least) {
  std::size_t next = capacity_ == 0 ? 4 : static_cast<std::size_t>(capacity_) * 2;
  while (next < at_least) next *= 2;
  Node** grown = arena_->alloc_array<Node*>(next);
  for (std::size_t i = 0; i < size_; ++i) grown[i] = data_[i];
  data_ = grown;
  capacity_ = static_cast<std::uint32_t>(next);
}

Node* Ast::make(NodeKind kind) {
  if (budget_ != nullptr) budget_->charge_ast_nodes();
  Node* node = new (arena_->allocate(sizeof(Node), alignof(Node))) Node();
  node->kind = kind;
  node->kids.set_arena(arena_);
  ++allocated_;
  return node;
}

Node* Ast::make_identifier(std::string_view name) {
  Node* node = make(NodeKind::kIdentifier);
  node->str_value = intern(name);
  node->atom = atoms_->intern(node->str_value);
  return node;
}

Node* Ast::make_string(std::string_view value) {
  Node* node = make(NodeKind::kLiteral);
  node->lit_kind = LiteralKind::kString;
  node->str_value = intern(value);
  return node;
}

Node* Ast::make_number(double value) {
  Node* node = make(NodeKind::kLiteral);
  node->lit_kind = LiteralKind::kNumber;
  node->num_value = value;
  return node;
}

Node* Ast::make_bool(bool value) {
  Node* node = make(NodeKind::kLiteral);
  node->lit_kind = LiteralKind::kBoolean;
  node->num_value = value ? 1.0 : 0.0;
  return node;
}

Node* Ast::make_null() {
  Node* node = make(NodeKind::kLiteral);
  node->lit_kind = LiteralKind::kNull;
  return node;
}

Node* Ast::make_regex(std::string_view pattern, std::string_view flags) {
  Node* node = make(NodeKind::kLiteral);
  node->lit_kind = LiteralKind::kRegExp;
  node->str_value = intern(pattern);
  node->raw = intern(flags);
  return node;
}

Node* Ast::clone(const Node* node) {
  if (node == nullptr) return nullptr;
  Node* copy = make(node->kind);
  // Payload text is re-interned so a clone into a fresh Ast (different
  // arena) owns its bytes and survives the source tree's arena reset.
  // Identifier atoms likewise: the source node's atom indexes the source
  // tree's table, so the spelling is re-interned into this tree's.
  copy->str_value = intern(node->str_value);
  copy->raw = intern(node->raw);
  if (node->kind == NodeKind::kIdentifier) {
    copy->atom = atoms_->intern(copy->str_value);
  }
  copy->num_value = node->num_value;
  copy->lit_kind = node->lit_kind;
  copy->flag_a = node->flag_a;
  copy->flag_b = node->flag_b;
  copy->flag_c = node->flag_c;
  copy->line = node->line;
  copy->kids.reserve(node->kids.size());
  for (const Node* kid : node->kids) copy->kids.push_back(clone(kid));
  return copy;
}

std::size_t Ast::finalize() {
  node_count_ = 0;
  if (root_ == nullptr) return 0;
  // A tree made by this Ast reaches at most allocated_ nodes, so
  // allocated_ + 1 slots (one at least, for the root) hold its index; the
  // growth check in the walk covers a tree holding another Ast's nodes.
  std::size_t top = index_capacity_;
  if (index_capacity_ < allocated_ + 1) {
    grow_index(std::max(allocated_ + 1, 2 * index_capacity_), top);
  }
  // Iterative pre-order walk assigning ids and parents. Its pending stack
  // lives in the tail of the node/depth arrays, [top, capacity), while the
  // index is written from the front: written + pending never exceeds the
  // reachable count, so the two regions cannot meet and finalize() needs
  // no storage beyond the index itself.
  --top;
  index_nodes_[top] = root_;
  index_depths_[top] = 1;
  root_->parent = nullptr;
  while (top < index_capacity_) {
    Node* node = index_nodes_[top];
    const std::uint32_t depth = index_depths_[top];
    ++top;
    const std::size_t id = node_count_++;
    node->id = static_cast<std::uint32_t>(id);
    index_nodes_[id] = node;
    index_depths_[id] = depth;
    index_kinds_[id] = node->kind;
    if (node->kids.size() > top - node_count_) {
      grow_index(2 * index_capacity_ + node->kids.size(), top);
    }
    for (auto it = node->kids.rbegin(); it != node->kids.rend(); ++it) {
      if (*it != nullptr) {
        (*it)->parent = node;
        --top;
        index_nodes_[top] = *it;
        index_depths_[top] = depth + 1;
      }
    }
  }
  // Subtree ends, last id first: a node's subtree ends at the first later
  // node no deeper than itself, reached by hopping over each child's
  // already-known subtree (one hop per child, so linear overall).
  for (std::size_t id = node_count_; id-- > 0;) {
    std::size_t next = id + 1;
    while (next < node_count_ && index_depths_[next] > index_depths_[id]) {
      next = index_ends_[next];
    }
    index_ends_[id] = static_cast<std::uint32_t>(next);
  }
  return node_count_;
}

void Ast::grow_index(std::size_t capacity, std::size_t& top) {
  NodeKind* kinds = arena_->alloc_array<NodeKind>(capacity);
  std::uint32_t* ends = arena_->alloc_array<std::uint32_t>(capacity);
  std::uint32_t* depths = arena_->alloc_array<std::uint32_t>(capacity);
  Node** nodes = arena_->alloc_array<Node*>(capacity);
  std::copy_n(index_kinds_, node_count_, kinds);
  std::copy_n(index_depths_, node_count_, depths);
  std::copy_n(index_nodes_, node_count_, nodes);
  const std::size_t pending = index_capacity_ - top;
  const std::size_t new_top = capacity - pending;
  std::copy_n(index_depths_ + top, pending, depths + new_top);
  std::copy_n(index_nodes_ + top, pending, nodes + new_top);
  index_kinds_ = kinds;
  index_ends_ = ends;
  index_depths_ = depths;
  index_nodes_ = nodes;
  index_capacity_ = capacity;
  top = new_top;
}

}  // namespace jst
