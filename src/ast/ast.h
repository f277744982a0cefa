// Abstract Syntax Tree for JavaScript, following Esprima's (ESTree's) node
// taxonomy so the paper's feature definitions (§III-A/B) map one-to-one.
//
// Nodes are "fat": a single struct with a kind tag, positional children,
// and a small payload. Child layout per kind is documented below; optional
// slots hold nullptr. Variadic kinds place fixed slots first and the
// variable tail afterwards.
#pragma once

#include <cstddef>
#include <functional>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "support/arena.h"
#include "support/atom.h"
#include "support/budget.h"
#include "support/error.h"

namespace jst {

enum class NodeKind : std::uint8_t {
  kProgram,  // children: body...

  // --- Statements ---
  kExpressionStatement,  // [expression]
  kBlockStatement,       // body...
  kVariableDeclaration,  // declarators... ; str_value = "var"|"let"|"const"
  kVariableDeclarator,   // [id, init?]
  kFunctionDeclaration,  // [id, body, params...]; flags: generator/async
  kClassDeclaration,     // [id, superClass?, classBody]
  kReturnStatement,      // [argument?]
  kIfStatement,          // [test, consequent, alternate?]
  kForStatement,         // [init?, test?, update?, body]
  kForInStatement,       // [left, right, body]
  kForOfStatement,       // [left, right, body]
  kWhileStatement,       // [test, body]
  kDoWhileStatement,     // [body, test]
  kSwitchStatement,      // [discriminant, cases...]
  kSwitchCase,           // [test?, consequent...]
  kBreakStatement,       // [label?]
  kContinueStatement,    // [label?]
  kThrowStatement,       // [argument]
  kTryStatement,         // [block, handler?, finalizer?]
  kCatchClause,          // [param?, body]
  kLabeledStatement,     // [label, body]
  kEmptyStatement,       // no children
  kDebuggerStatement,    // no children
  kWithStatement,        // [object, body]

  // --- Expressions ---
  kIdentifier,            // str_value = name
  kLiteral,               // payload via lit_kind/str_value/num_value/raw
  kTemplateLiteral,       // [quasis..., expressions...] interleaved:
                          //   quasi0, expr0, quasi1, expr1, ..., quasiN
  kTemplateElement,       // str_value = cooked text
  kTaggedTemplateExpression,  // [tag, quasi]
  kThisExpression,        // no children
  kSuper,                 // no children
  kArrayExpression,       // elements... (nullptr = hole)
  kObjectExpression,      // properties...
  kProperty,              // [key, value]; flags: computed/shorthand;
                          //   str_value = "init"|"get"|"set"
  kFunctionExpression,    // [id?, body, params...]
  kArrowFunctionExpression,  // [body, params...]; flag_a: expression body
  kClassExpression,       // [id?, superClass?, classBody]
  kClassBody,             // methods...
  kMethodDefinition,      // [key, value(FunctionExpression)];
                          //   str_value = "method"|"constructor"|"get"|"set"
  kSequenceExpression,    // expressions...
  kUnaryExpression,       // [argument]; str_value = operator
  kBinaryExpression,      // [left, right]; str_value = operator
  kLogicalExpression,     // [left, right]; str_value = "&&"|"||"|"??"
  kAssignmentExpression,  // [left, right]; str_value = operator
  kUpdateExpression,      // [argument]; str_value = "++"|"--"; flag_a: prefix
  kConditionalExpression, // [test, consequent, alternate]
  kCallExpression,        // [callee, arguments...]
  kNewExpression,         // [callee, arguments...]
  kMemberExpression,      // [object, property]; flag_a: computed
  kSpreadElement,         // [argument]
  kRestElement,           // [argument]
  kYieldExpression,       // [argument?]; flag_a: delegate
  kAwaitExpression,       // [argument]

  // --- Patterns ---
  kAssignmentPattern,     // [left, right]
  kArrayPattern,          // elements... (nullptr = hole)
  kObjectPattern,         // properties...
};

constexpr std::size_t kNodeKindCount =
    static_cast<std::size_t>(NodeKind::kObjectPattern) + 1;

enum class LiteralKind : std::uint8_t {
  kString,
  kNumber,
  kBoolean,
  kNull,
  kRegExp,
};

std::string_view node_kind_name(NodeKind kind);

// Kind classifiers, usable on an index's kind bytes without touching the
// Node (Node::is_statement()/is_function() forward here).
constexpr bool is_statement(NodeKind kind) {
  switch (kind) {
    case NodeKind::kExpressionStatement:
    case NodeKind::kBlockStatement:
    case NodeKind::kVariableDeclaration:
    case NodeKind::kFunctionDeclaration:
    case NodeKind::kClassDeclaration:
    case NodeKind::kReturnStatement:
    case NodeKind::kIfStatement:
    case NodeKind::kForStatement:
    case NodeKind::kForInStatement:
    case NodeKind::kForOfStatement:
    case NodeKind::kWhileStatement:
    case NodeKind::kDoWhileStatement:
    case NodeKind::kSwitchStatement:
    case NodeKind::kBreakStatement:
    case NodeKind::kContinueStatement:
    case NodeKind::kThrowStatement:
    case NodeKind::kTryStatement:
    case NodeKind::kLabeledStatement:
    case NodeKind::kEmptyStatement:
    case NodeKind::kDebuggerStatement:
    case NodeKind::kWithStatement:
      return true;
    default:
      return false;
  }
}

// Declaration, expression, or arrow.
constexpr bool is_function(NodeKind kind) {
  return kind == NodeKind::kFunctionDeclaration ||
         kind == NodeKind::kFunctionExpression ||
         kind == NodeKind::kArrowFunctionExpression;
}

struct Node;

// Child list living entirely in the owning Ast's arena: a vector-shaped
// span of Node* grown by doubling (the abandoned block is reclaimed at
// the arena's next reset). Trivially destructible, so Node storage can be
// dropped wholesale without running destructors. The API mirrors the
// std::vector<Node*> it replaced — only the operations the parser and
// transformers actually use.
class NodeList {
 public:
  using value_type = Node*;
  using iterator = Node**;
  using const_iterator = Node* const*;
  using reverse_iterator = std::reverse_iterator<iterator>;
  using const_reverse_iterator = std::reverse_iterator<const_iterator>;

  NodeList() = default;

  // Wired by Ast::make(); every growth allocation comes from here.
  void set_arena(support::Arena* arena) { arena_ = arena; }

  Node** begin() { return data_; }
  Node** end() { return data_ + size_; }
  Node* const* begin() const { return data_; }
  Node* const* end() const { return data_ + size_; }
  const_iterator cbegin() const { return data_; }
  const_iterator cend() const { return data_ + size_; }
  reverse_iterator rbegin() { return reverse_iterator(end()); }
  reverse_iterator rend() { return reverse_iterator(begin()); }
  const_reverse_iterator rbegin() const {
    return const_reverse_iterator(end());
  }
  const_reverse_iterator rend() const {
    return const_reverse_iterator(begin());
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  Node*& operator[](std::size_t i) { return data_[i]; }
  Node* operator[](std::size_t i) const { return data_[i]; }
  Node*& front() { return data_[0]; }
  Node* front() const { return data_[0]; }
  Node*& back() { return data_[size_ - 1]; }
  Node* back() const { return data_[size_ - 1]; }

  void clear() { size_ = 0; }
  void pop_back() { --size_; }

  void reserve(std::size_t wanted) {
    if (wanted > capacity_) grow(wanted);
  }

  void push_back(Node* node) {
    if (size_ == capacity_) grow(size_ + 1);
    data_[size_++] = node;
  }

  // Single-element insert; returns an iterator to the inserted element.
  iterator insert(const_iterator pos, Node* node) {
    const std::size_t at = static_cast<std::size_t>(pos - data_);
    if (size_ == capacity_) grow(size_ + 1);
    for (std::size_t i = size_; i > at; --i) data_[i] = data_[i - 1];
    data_[at] = node;
    ++size_;
    return data_ + at;
  }

  // Range insert (used by transformers splicing statement lists).
  template <typename It>
  iterator insert(const_iterator pos, It first, It last) {
    const std::size_t at = static_cast<std::size_t>(pos - data_);
    const std::size_t count =
        static_cast<std::size_t>(std::distance(first, last));
    if (count == 0) return data_ + at;
    if (size_ + count > capacity_) grow(size_ + count);
    for (std::size_t i = size_; i > at; --i) {
      data_[i + count - 1] = data_[i - 1];
    }
    std::size_t i = at;
    for (It it = first; it != last; ++it) data_[i++] = *it;
    size_ += count;
    return data_ + at;
  }

  iterator erase(const_iterator pos) {
    const std::size_t at = static_cast<std::size_t>(pos - data_);
    for (std::size_t i = at; i + 1 < size_; ++i) data_[i] = data_[i + 1];
    --size_;
    return data_ + at;
  }

  NodeList& operator=(std::initializer_list<Node*> nodes) {
    clear();
    reserve(nodes.size());
    for (Node* node : nodes) data_[size_++] = node;
    return *this;
  }

  void assign(std::initializer_list<Node*> nodes) { *this = nodes; }

  // Replace the contents with a copied range (transformers rebuilding a
  // statement list in a transient std::vector).
  template <typename It>
  void assign(It first, It last) {
    clear();
    insert(cend(), first, last);
  }

 private:
  void grow(std::size_t at_least);

  support::Arena* arena_ = nullptr;
  Node** data_ = nullptr;
  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = 0;
};

struct Node {
  NodeKind kind = NodeKind::kProgram;
  NodeList kids;

  // Payload (meaning depends on kind; see enum comments). Views into the
  // owning Ast's arena (or static/token storage); use Ast::intern() when
  // assigning text that does not already have arena lifetime.
  std::string_view str_value;
  std::string_view raw;     // literal raw text / regex flags
  double num_value = 0.0;
  LiteralKind lit_kind = LiteralKind::kNull;
  bool flag_a = false;      // computed / prefix / delegate / expression-body
  bool flag_b = false;      // shorthand / generator / static
  bool flag_c = false;      // async

  // Source position (propagated from the first token of the production).
  std::size_t line = 0;

  // Stable id within the owning Ast; assigned by Ast::finalize().
  std::uint32_t id = 0;
  // Dense interned-identifier id (support::AtomTable::kNoAtom for
  // non-identifier nodes). Assigned by Ast::make_identifier / clone() so
  // the data-flow pass resolves scopes by integer, never re-hashing the
  // spelling. Code that mutates an identifier's str_value in place must
  // re-intern (see transform/rename.cpp).
  std::uint32_t atom = 0xffffffffu;
  Node* parent = nullptr;

  bool is_statement() const { return jst::is_statement(kind); }
  bool is_expression() const;
  bool is_function() const { return jst::is_function(kind); }
  bool is_loop() const;

  // Convenience accessors (bounds-checked; nullptr for missing optionals).
  Node* kid(std::size_t i) const { return i < kids.size() ? kids[i] : nullptr; }
};

// Arena-backed AST. Nodes are placement-constructed in the arena, so
// addresses are stable for the arena's epoch (chunks never move) and the
// whole tree is reclaimed by a single arena reset — no destructors run.
// Typical lifecycle: parser builds nodes via make(), sets the root, and
// calls finalize() to assign ids/parents; transformers may mutate the
// tree and re-finalize.
//
// An Ast either owns a private arena (default constructor) or borrows a
// pooled one (analysis::ScriptScratch hands the same arena to every
// script its worker analyzes; parse_program resets it per script). The
// identifier atom table follows the same ownership split: private by
// default, or borrowed from the pool alongside the arena.
class Ast {
 public:
  Ast() : owned_arena_(std::make_unique<support::Arena>()),
          arena_(owned_arena_.get()),
          owned_atoms_(std::make_unique<support::AtomTable>()),
          atoms_(owned_atoms_.get()) {}
  explicit Ast(support::Arena* arena, support::AtomTable* atoms = nullptr)
      : arena_(arena) {
    if (atoms != nullptr) {
      atoms_ = atoms;
    } else {
      owned_atoms_ = std::make_unique<support::AtomTable>();
      atoms_ = owned_atoms_.get();
    }
  }
  Ast(Ast&&) noexcept = default;
  Ast& operator=(Ast&&) noexcept = default;
  Ast(const Ast&) = delete;
  Ast& operator=(const Ast&) = delete;

  Node* make(NodeKind kind);
  Node* make_identifier(std::string_view name);
  Node* make_string(std::string_view value);
  Node* make_number(double value);
  Node* make_bool(bool value);
  Node* make_null();
  Node* make_regex(std::string_view pattern, std::string_view flags);

  // Copies `text` into the arena and returns the stable view. Required
  // whenever a Node payload is assigned text whose storage does not
  // already outlive the tree (local std::strings in transformers, etc.).
  std::string_view intern(std::string_view text) {
    return arena_->alloc_string(text);
  }

  // The arena nodes, payloads, and kid arrays live in.
  support::Arena& arena() { return *arena_; }
  const support::Arena& arena() const { return *arena_; }

  // The identifier atom table the tree's Node::atom ids index into.
  // Deliberately non-const from a const Ast: interning a straggler
  // identifier (a transformer-created node analyzed before the next
  // re-parse) mutates only the table, never the tree.
  support::AtomTable& atoms() const { return *atoms_; }

  // Deep copy of `node` (and its subtree) into this arena.
  Node* clone(const Node* node);

  Node* root() const { return root_; }
  void set_root(Node* root) { root_ = root; }

  // Attaches a resource budget charged one AST node per make() (and polled
  // for the deadline); a tripped ceiling throws BudgetExceeded out of
  // make(). The pointer is non-owning and must be cleared (or outlive the
  // Ast) before the Ast escapes the budget's scope — parse_program()
  // detaches it before returning.
  void set_budget(Budget* budget) { budget_ = budget; }

  // Assigns pre-order ids and parent pointers from the root and lays out
  // the pre-order index below; returns the number of reachable nodes.
  std::size_t finalize();

  // Pre-order index (DESIGN.md §12), one entry per reachable node in id
  // order: the kind byte, one past the id of the subtree's last node
  // (`ends[id] - id` is the subtree size, so `id = ends[id]` jumps over
  // it), the depth (root = 1), and the Node itself. Post-parse passes
  // scan these arrays instead of re-walking kid pointers. The arrays live
  // in the arena and carry Node::id's contract: valid from finalize()
  // until the next structural mutation; re-finalizing rewrites them in
  // place when the capacity suffices. Empty until the first finalize().
  std::span<const NodeKind> kinds() const {
    return {index_kinds_, node_count_};
  }
  std::span<const std::uint32_t> ends() const {
    return {index_ends_, node_count_};
  }
  std::span<const std::uint32_t> depths() const {
    return {index_depths_, node_count_};
  }
  std::span<const Node* const> nodes() const {
    return {static_cast<const Node* const*>(index_nodes_), node_count_};
  }

  // Number of nodes allocated in the arena (including detached ones).
  std::size_t allocated() const { return allocated_; }
  // Number of nodes reachable from the root after the last finalize().
  std::size_t node_count() const { return node_count_; }

 private:
  // Reallocates the index arrays at `capacity` slots, keeping finalize()'s
  // written prefix [0, node_count_) and its pending stack [top, old
  // capacity), which moves to the new tail; `top` is updated.
  void grow_index(std::size_t capacity, std::size_t& top);

  std::unique_ptr<support::Arena> owned_arena_;  // null when pooled
  support::Arena* arena_ = nullptr;
  std::unique_ptr<support::AtomTable> owned_atoms_;  // null when pooled
  support::AtomTable* atoms_ = nullptr;
  Node* root_ = nullptr;
  std::size_t allocated_ = 0;
  std::size_t node_count_ = 0;
  Budget* budget_ = nullptr;
  // Pre-order index storage (arena); index_capacity_ slots each.
  NodeKind* index_kinds_ = nullptr;
  std::uint32_t* index_ends_ = nullptr;
  std::uint32_t* index_depths_ = nullptr;
  Node** index_nodes_ = nullptr;
  std::size_t index_capacity_ = 0;
};

}  // namespace jst
