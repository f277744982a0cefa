#include "dataflow/dataflow.h"

#include <span>
#include <string_view>
#include <utility>

namespace jst {
namespace {

constexpr std::uint32_t kNone = 0xffffffffu;

// Flat scope/data-flow builder (DESIGN.md §17).
//
// The previous implementation kept one heap-allocated Scope per lexical
// scope, each holding an unordered_map<std::string, index>, and resolved
// every reference by materializing a std::string key and walking the
// parent chain of maps. This builder exploits two structural facts the
// traversal already guarantees:
//
//  1. Scopes open and close in strict LIFO order (every scope-opening
//     helper drains its subtree before returning), so the set of live
//     scopes is a stack and "innermost" is a single index.
//  2. Every bind targets the scope being opened (hoisting, lexical
//     collection, parameters, catch params and for-heads all run at
//     scope-open time), so a per-atom stack of live bindings — indexed
//     by the parse-time atom id — resolves any reference in O(1): the
//     top of the atom's stack IS the innermost binding.
//
// Bindings therefore carry `prev_top` (the shadowed stack entry) and the
// bind log records which atoms a scope pushed, so closing a scope pops
// its bindings in O(bindings). No hashing, no string compares, no
// per-scope allocation; every table lives in the DataFlowScratch.
class DataFlowBuilder {
 public:
  DataFlowBuilder(const Ast& ast, DataFlow& out, Budget* budget,
                  DataFlowScratch& ws)
      : ast_(ast),
        kinds_(ast.kinds()),
        ends_(ast.ends()),
        nodes_(ast.nodes()),
        out_(out),
        budget_(budget),
        ws_(ws) {}

  void run(const Node* root) {
    if (root == nullptr) return;
    ws_.scopes.clear();
    ws_.aux.clear();
    ws_.bind_log.clear();
    ws_.site_links.clear();
    ws_.atom_tops.assign(ast_.atoms().size(), kNone);

    open_scope();  // global
    hoist_into_function_scope(root);
    collect_lexical(root->kids);
    for (const Node* statement : root->kids) {
      visit(statement);
      if (aborted_) break;  // deadline noticed mid-resolution
    }
    // Pack the chained sites into contiguous spans before (possibly
    // budget-truncated) edge emission, so the bindings are fully formed
    // even when a ceiling stops the pass mid-product.
    pack_sites();
    if (aborted_) return;
    emit_edges();
  }

 private:
  // --- scope stack -------------------------------------------------------

  void open_scope() {
    DataFlowScratch::ScopeRec scope;
    scope.parent = current_;
    scope.log_mark = static_cast<std::uint32_t>(ws_.bind_log.size());
    current_ = static_cast<std::uint32_t>(ws_.scopes.size());
    ws_.scopes.push_back(scope);
    ++out_.scope_count;
  }

  void close_scope() {
    const DataFlowScratch::ScopeRec& scope = ws_.scopes[current_];
    while (ws_.bind_log.size() > scope.log_mark) {
      const std::uint32_t atom = ws_.bind_log.back();
      ws_.bind_log.pop_back();
      ws_.atom_tops[atom] = ws_.aux[ws_.atom_tops[atom]].prev_top;
    }
    current_ = scope.parent;
  }

  // --- atoms -------------------------------------------------------------

  // Every parser-made identifier carries its atom; transformer-created
  // stragglers (atom-less nodes analyzed before the next re-parse) are
  // interned on first sight so they join the same id space.
  std::uint32_t atom_of(const Node* identifier) {
    const std::uint32_t atom = identifier->atom;
    if (atom != support::AtomTable::kNoAtom) return atom;
    const std::uint32_t interned =
        ast_.atoms().intern(identifier->str_value);
    if (interned >= ws_.atom_tops.size()) {
      ws_.atom_tops.resize(interned + 1, kNone);
    }
    return interned;
  }

  // --- binding table -----------------------------------------------------

  std::size_t bind(const Node* declaration) {
    const std::uint32_t atom = atom_of(declaration);
    const std::uint32_t top = ws_.atom_tops[atom];
    if (top != kNone && ws_.aux[top].scope == current_) {
      // Redeclaration (var x twice, or function overriding var): keep the
      // first binding, update the declaration node if missing.
      Binding& binding = out_.bindings[top];
      if (binding.declaration == nullptr) binding.declaration = declaration;
      return top;
    }
    Binding binding;
    binding.name = declaration->str_value;
    binding.declaration = declaration;
    out_.bindings.push_back(binding);
    DataFlowScratch::BindingAux aux;
    aux.scope = current_;
    aux.prev_top = top;
    aux.use_head = aux.use_tail = aux.asg_head = aux.asg_tail = kNone;
    ws_.aux.push_back(aux);
    const std::uint32_t index =
        static_cast<std::uint32_t>(out_.bindings.size() - 1);
    ws_.atom_tops[atom] = index;
    ws_.bind_log.push_back(atom);
    return index;
  }

  // Innermost live binding for the identifier, or kNone (unresolved).
  std::uint32_t resolve(const Node* identifier) {
    return ws_.atom_tops[atom_of(identifier)];
  }

  void append_site(std::uint32_t& head, std::uint32_t& tail,
                   std::uint32_t& count, const Node* site) {
    const std::uint32_t link =
        static_cast<std::uint32_t>(ws_.site_links.size());
    ws_.site_links.push_back({site, kNone});
    if (tail == kNone) {
      head = link;
    } else {
      ws_.site_links[tail].next = link;
    }
    tail = link;
    ++count;
  }

  // --- declaration collection ---

  // Binds all identifiers in a binding pattern into the current scope.
  void bind_pattern(const Node* pattern, bool is_parameter) {
    if (pattern == nullptr) return;
    switch (pattern->kind) {
      case NodeKind::kIdentifier: {
        const std::size_t index = bind(pattern);
        out_.bindings[index].is_parameter = is_parameter;
        break;
      }
      case NodeKind::kArrayPattern:
        for (const Node* element : pattern->kids) {
          bind_pattern(element, is_parameter);
        }
        break;
      case NodeKind::kObjectPattern:
        for (const Node* property : pattern->kids) {
          if (property == nullptr) continue;
          if (property->kind == NodeKind::kRestElement) {
            bind_pattern(property->kid(0), is_parameter);
          } else {
            bind_pattern(property->kid(1), is_parameter);
          }
        }
        break;
      case NodeKind::kAssignmentPattern:
        bind_pattern(pattern->kid(0), is_parameter);
        // The default value is an expression, resolved during visit().
        break;
      case NodeKind::kRestElement:
        bind_pattern(pattern->kid(0), is_parameter);
        break;
      default:
        break;  // member-expression targets bind nothing
    }
  }

  // Hoists `var` declarators and function declarations from the subtree
  // into the (currently innermost) function scope, without descending
  // into nested functions: a pre-order scan of the subtree's ids that
  // jumps over every nested function (a FunctionDeclaration binds its
  // name first). Expression chains make the subtree arbitrarily deep, and
  // the scan needs no stack or recursion for them; it meets the
  // declarations in pre-order, so bindings get the same indices as in a
  // tree walk.
  void hoist_into_function_scope(const Node* node) {
    if (node == nullptr) return;
    const std::uint32_t end = ends_[node->id];
    for (std::uint32_t id = node->id + 1; id < end;) {
      const NodeKind kind = kinds_[id];
      if (kind == NodeKind::kFunctionDeclaration) {
        const Node* function = nodes_[id];
        if (function->kid(0) != nullptr) {
          const std::size_t index = bind(function->kids[0]);
          out_.bindings[index].is_function_name = true;
          out_.bindings[index].init = function;
        }
      }
      if (is_function(kind)) {
        id = ends_[id];
        continue;
      }
      if (kind == NodeKind::kVariableDeclaration) {
        const Node* declaration = nodes_[id];
        if (declaration->str_value == "var") {
          for (const Node* declarator : declaration->kids) {
            bind_pattern(declarator->kid(0), false);
          }
        }
        // Initializers may contain more nested statements (rare); the
        // scan descends into the declarators.
      }
      ++id;
    }
  }

  // Binds let/const/class declared directly in this statement list into
  // the current scope. Templated over the list type: callers pass the
  // arena-backed NodeList or (for switch cases) a span over a kid-list
  // tail.
  template <typename StatementList>
  void collect_lexical(const StatementList& statements) {
    for (const Node* statement : statements) {
      if (statement == nullptr) continue;
      if (statement->kind == NodeKind::kVariableDeclaration &&
          statement->str_value != "var") {
        for (const Node* declarator : statement->kids) {
          bind_pattern(declarator->kid(0), false);
        }
      } else if (statement->kind == NodeKind::kClassDeclaration &&
                 statement->kid(0) != nullptr) {
        bind(statement->kids[0]);
      }
    }
  }

  // --- reference resolution ---

  void record_use(const Node* identifier) {
    const std::uint32_t index = resolve(identifier);
    if (index == kNone) {
      ++out_.unresolved_uses;
      return;
    }
    DataFlowScratch::BindingAux& aux = ws_.aux[index];
    append_site(aux.use_head, aux.use_tail, aux.use_count, identifier);
  }

  void record_write(const Node* identifier) {
    const std::uint32_t index = resolve(identifier);
    if (index == kNone) {
      ++out_.unresolved_uses;
      return;
    }
    DataFlowScratch::BindingAux& aux = ws_.aux[index];
    append_site(aux.asg_head, aux.asg_tail, aux.asg_count, identifier);
  }

  // Visits write targets (assignment LHS / for-in heads): identifiers are
  // writes; member expressions read their object; patterns recurse.
  void visit_target(const Node* target) {
    if (target == nullptr) return;
    switch (target->kind) {
      case NodeKind::kIdentifier:
        record_write(target);
        break;
      case NodeKind::kMemberExpression:
        visit(target->kid(0));
        if (target->flag_a) visit(target->kid(1));
        break;
      case NodeKind::kArrayPattern:
        for (const Node* element : target->kids) visit_target(element);
        break;
      case NodeKind::kObjectPattern:
        for (const Node* property : target->kids) {
          if (property == nullptr) continue;
          if (property->kind == NodeKind::kRestElement) {
            visit_target(property->kid(0));
          } else {
            if (property->flag_a) visit(property->kid(0));
            visit_target(property->kid(1));
          }
        }
        break;
      case NodeKind::kAssignmentPattern:
        visit_target(target->kid(0));
        visit(target->kid(1));
        break;
      case NodeKind::kRestElement:
        visit_target(target->kid(0));
        break;
      default:
        visit(target);
    }
  }

  void visit_function(const Node* function) {
    open_scope();
    const bool is_arrow = function->kind == NodeKind::kArrowFunctionExpression;
    const std::size_t first_param = is_arrow ? 1 : 2;
    const Node* body = is_arrow ? function->kid(0) : function->kid(1);
    // Function-expression names are visible inside the function.
    if (!is_arrow && function->kind == NodeKind::kFunctionExpression &&
        function->kid(0) != nullptr) {
      const std::size_t index = bind(function->kids[0]);
      out_.bindings[index].is_function_name = true;
      out_.bindings[index].init = function;
    }
    for (std::size_t i = first_param; i < function->kids.size(); ++i) {
      bind_pattern(function->kids[i], /*is_parameter=*/true);
    }
    if (body != nullptr && body->kind == NodeKind::kBlockStatement) {
      hoist_into_function_scope(body);
      collect_lexical(body->kids);
      // Parameter defaults are expressions in the function scope.
      for (std::size_t i = first_param; i < function->kids.size(); ++i) {
        visit_pattern_defaults(function->kids[i]);
      }
      for (const Node* statement : body->kids) visit(statement);
    } else if (body != nullptr) {
      for (std::size_t i = first_param; i < function->kids.size(); ++i) {
        visit_pattern_defaults(function->kids[i]);
      }
      visit(body);  // expression-bodied arrow
    }
    close_scope();
  }

  void visit_pattern_defaults(const Node* pattern) {
    if (pattern == nullptr) return;
    if (pattern->kind == NodeKind::kAssignmentPattern) {
      visit(pattern->kid(1));
      visit_pattern_defaults(pattern->kid(0));
      return;
    }
    for (const Node* kid : pattern->kids) visit_pattern_defaults(kid);
  }

  void visit_block_like(const Node* node) {
    open_scope();
    collect_lexical(node->kids);
    for (const Node* statement : node->kids) visit(statement);
    close_scope();
  }

  // Visits the subtree at `node` in pre-order, resolving references in
  // the current scope: a scan of the subtree's ids, where step() handles
  // one node and returns the next id to visit. Expression chains (binary,
  // call/member, sequence) are parsed iteratively, so their AST depth is
  // NOT bounded by the parser's nesting recursion guard — a hostile
  // `[]+[]+...` blob must not overflow the native stack — and the scan
  // walks them without recursion. Same-scope kinds descend to `id + 1`
  // or skip to the one kid they resolve; only scope-opening and binding
  // constructs (functions, blocks, loops, catch, switch — forms the
  // parser can only nest through its depth-guarded recursion) re-enter
  // visit() for their parts and then jump past their subtree. The
  // visitation (and deadline-poll) order is the pre-order of the visited
  // nodes.
  void visit(const Node* node) {
    if (node == nullptr) return;
    const std::uint32_t end = ends_[node->id];
    for (std::uint32_t id = node->id; id < end && !aborted_;) id = step(id);
  }

  // The property of a non-computed member expression (`a.b`'s `b`, always
  // an Identifier) names no binding; the visit passes over it.
  static bool is_static_member_property(const Node& identifier) {
    const Node* parent = identifier.parent;
    return parent != nullptr && parent->kind == NodeKind::kMemberExpression &&
           !parent->flag_a && parent->kid(1) == &identifier;
  }

  // Where the visit goes on after node `id` when its last kid `kid` is
  // the only part still to visit: `kid`'s subtree (which ends where the
  // node's does), or past the node when the kid is absent.
  std::uint32_t resume_at(const Node* kid, std::uint32_t id) const {
    return kid != nullptr ? kid->id : ends_[id];
  }

  // Handles node `id` and returns the next id to visit.
  std::uint32_t step(std::uint32_t id) {
    const Node* node = nodes_[id];
    if (kinds_[id] == NodeKind::kIdentifier &&
        is_static_member_property(*node)) {
      return id + 1;
    }
    if (budget_ != nullptr &&
        ++visits_ % Budget::kDeadlinePollStride == 0 &&
        budget_->deadline_expired()) {
      abort_with(ResourceKind::kDeadline);
      return id;
    }
    switch (kinds_[id]) {
      case NodeKind::kIdentifier:
        record_use(node);
        return id + 1;

      case NodeKind::kBlockStatement:
        visit_block_like(node);
        break;

      case NodeKind::kVariableDeclaration:
        for (const Node* declarator : node->kids) {
          // Binding was established during hoisting/lexical collection;
          // here we attach the initializer and resolve it.
          const Node* id_node = declarator->kid(0);
          const Node* init = declarator->kid(1);
          if (id_node != nullptr && id_node->kind == NodeKind::kIdentifier) {
            const std::uint32_t index = resolve(id_node);
            if (index != kNone) {
              Binding& binding = out_.bindings[index];
              if (binding.init == nullptr) binding.init = init;
              // Redeclarations (`var x` appearing twice) share one binding;
              // record the extra declarator identifiers as write sites so
              // renaming and def-use edges cover them.
              if (binding.declaration != id_node) {
                DataFlowScratch::BindingAux& aux = ws_.aux[index];
                append_site(aux.asg_head, aux.asg_tail, aux.asg_count,
                            id_node);
              }
            }
          } else {
            visit_pattern_defaults(id_node);
          }
          visit(init);
        }
        break;

      case NodeKind::kFunctionDeclaration:
      case NodeKind::kFunctionExpression:
      case NodeKind::kArrowFunctionExpression:
        visit_function(node);
        break;

      case NodeKind::kClassDeclaration:
      case NodeKind::kClassExpression: {
        visit(node->kid(1));  // superclass expression
        const Node* body = node->kid(2);
        if (body != nullptr) {
          for (const Node* method : body->kids) {
            if (method->flag_a) visit(method->kid(0));  // computed key
            visit_function(method->kid(1));
          }
        }
        break;
      }

      case NodeKind::kCatchClause: {
        open_scope();  // catch-parameter scope
        if (node->kid(0) != nullptr) {
          bind_pattern(node->kids[0], false);
        }
        // The catch body is a block; give it its own lexical scope under
        // the catch scope.
        visit_block_like(node->kid(1));
        close_scope();
        break;
      }

      case NodeKind::kForStatement: {
        open_scope();
        const Node* init = node->kid(0);
        if (init != nullptr &&
            init->kind == NodeKind::kVariableDeclaration &&
            init->str_value != "var") {
          for (const Node* declarator : init->kids) {
            bind_pattern(declarator->kid(0), false);
          }
        }
        visit(init);
        visit(node->kid(1));
        visit(node->kid(2));
        visit(node->kid(3));
        close_scope();
        break;
      }

      case NodeKind::kForInStatement:
      case NodeKind::kForOfStatement: {
        open_scope();
        const Node* left = node->kid(0);
        if (left != nullptr && left->kind == NodeKind::kVariableDeclaration) {
          if (left->str_value != "var") {
            for (const Node* declarator : left->kids) {
              bind_pattern(declarator->kid(0), false);
            }
          }
          // Loop variable is written each iteration.
          const Node* id_node = left->kid(0) != nullptr
                                    ? left->kids[0]->kid(0)
                                    : nullptr;
          if (id_node != nullptr && id_node->kind == NodeKind::kIdentifier) {
            record_write(id_node);
          }
        } else {
          visit_target(left);
        }
        visit(node->kid(1));
        visit(node->kid(2));
        close_scope();
        break;
      }

      case NodeKind::kAssignmentExpression: {
        const Node* target = node->kid(0);
        visit_target(target);
        if (node->str_value != "=" && target != nullptr &&
            target->kind == NodeKind::kIdentifier) {
          record_use(target);  // compound assignment also reads
        }
        return resume_at(node->kid(1), id);
      }

      case NodeKind::kUpdateExpression: {
        const Node* argument = node->kid(0);
        if (argument != nullptr && argument->kind == NodeKind::kIdentifier) {
          record_use(argument);
          record_write(argument);
          break;
        }
        return id + 1;
      }

      case NodeKind::kProperty:
        // A non-computed key names no binding.
        if (node->flag_a) return id + 1;
        return resume_at(node->kid(1), id);

      case NodeKind::kMethodDefinition:
        if (node->flag_a) visit(node->kid(0));
        visit_function(node->kid(1));
        break;

      case NodeKind::kLabeledStatement:
        // The label identifier is not a reference.
        return resume_at(node->kid(1), id);

      case NodeKind::kBreakStatement:
      case NodeKind::kContinueStatement:
        break;  // label identifier is not a reference

      case NodeKind::kSwitchStatement: {
        visit(node->kid(0));
        open_scope();  // one lexical scope for the whole case list
        for (std::size_t i = 1; i < node->kids.size(); ++i) {
          const Node* switch_case = node->kids[i];
          collect_lexical(std::span<Node* const>(
              switch_case->kids.begin() + 1, switch_case->kids.end()));
        }
        for (std::size_t i = 1; i < node->kids.size(); ++i) {
          const Node* switch_case = node->kids[i];
          visit(switch_case->kid(0));
          for (std::size_t j = 1; j < switch_case->kids.size(); ++j) {
            visit(switch_case->kids[j]);
          }
        }
        close_scope();
        break;
      }

      default:
        // Every kid, in order (a computed member's property included).
        return id + 1;
    }
    return ends_[id];
  }

  // --- results -----------------------------------------------------------

  // Copies each binding's chained sites into one contiguous pool —
  // [assignments][uses] per binding — and points the public spans at it.
  // The pool is reserved to exact size first so data() is stable while
  // the spans are formed.
  void pack_sites() {
    std::vector<const Node*>& pool = site_pool();
    pool.clear();
    std::size_t total = 0;
    for (const DataFlowScratch::BindingAux& aux : ws_.aux) {
      total += aux.asg_count + aux.use_count;
    }
    pool.reserve(total);
    for (std::size_t i = 0; i < out_.bindings.size(); ++i) {
      const DataFlowScratch::BindingAux& aux = ws_.aux[i];
      Binding& binding = out_.bindings[i];
      const std::size_t asg_offset = pool.size();
      for (std::uint32_t link = aux.asg_head; link != kNone;
           link = ws_.site_links[link].next) {
        pool.push_back(ws_.site_links[link].site);
      }
      const std::size_t use_offset = pool.size();
      for (std::uint32_t link = aux.use_head; link != kNone;
           link = ws_.site_links[link].next) {
        pool.push_back(ws_.site_links[link].site);
      }
      binding.assignments = std::span<const Node* const>(
          pool.data() + asg_offset, aux.asg_count);
      binding.uses = std::span<const Node* const>(pool.data() + use_offset,
                                                  aux.use_count);
    }
  }

  // Emits def -> use edges: the declaration and every assignment site are
  // definition sources; every read is a destination. This product is the
  // quadratic blow-up on adversarial inputs (one binding, thousands of
  // writes × thousands of reads), so the edge ceiling and deadline are
  // checked per edge; a trip truncates the edge list and records itself
  // instead of throwing — the pipeline degrades around it.
  void emit_edges() {
    for (const Binding& binding : out_.bindings) {
      if (binding.declaration != nullptr) {
        if (!emit_edges_from(binding.declaration, binding.uses)) return;
      }
      for (const Node* def : binding.assignments) {
        if (!emit_edges_from(def, binding.uses)) return;
      }
    }
  }

  bool emit_edges_from(const Node* def, std::span<const Node* const> uses) {
    for (const Node* use : uses) {
      if (def == use) continue;
      if (budget_ != nullptr) {
        if (!budget_->try_charge_dataflow_edges()) {
          abort_with(ResourceKind::kDataflowEdges);
          return false;
        }
        if (budget_->dataflow_edges_charged() % Budget::kDeadlinePollStride ==
                0 &&
            budget_->deadline_expired()) {
          abort_with(ResourceKind::kDeadline);
          return false;
        }
      }
      out_.edges.emplace_back(def->id, use->id);
    }
    return true;
  }

  // Owned pool for scratchless calls; the caller's scratch otherwise.
  std::vector<const Node*>& site_pool() {
    return owns_sites_ ? out_.site_pool : ws_.sites;
  }

  void abort_with(ResourceKind kind) {
    out_.tripped = budget_->make_trip(kind);
    out_.completed = false;
    aborted_ = true;
  }

 public:
  void set_owns_sites(bool owns) { owns_sites_ = owns; }

 private:
  const Ast& ast_;
  std::span<const NodeKind> kinds_;
  std::span<const std::uint32_t> ends_;
  std::span<const Node* const> nodes_;
  DataFlow& out_;
  Budget* budget_ = nullptr;
  DataFlowScratch& ws_;
  std::size_t visits_ = 0;
  std::uint32_t current_ = kNone;  // innermost open scope
  bool aborted_ = false;
  bool owns_sites_ = false;
};

}  // namespace

DataFlow build_data_flow(const Ast& ast, const DataFlowOptions& options) {
  DataFlow flow;
  if (ast.node_count() > options.node_budget) {
    flow.completed = false;
    return flow;
  }
  DataFlowScratch local_scratch;
  DataFlowScratch& workspace =
      options.scratch != nullptr ? *options.scratch : local_scratch;
  DataFlowBuilder builder(ast, flow, options.budget, workspace);
  builder.set_owns_sites(options.scratch == nullptr);
  builder.run(ast.root());
  return flow;
}

}  // namespace jst
