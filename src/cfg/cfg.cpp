#include "cfg/cfg.h"

#include <algorithm>
#include <span>
#include <string_view>

namespace jst {

// Grants build_control_flow access to the cached adjacency counts.
struct CfgBuildAccess {
  static void set_counts(ControlFlow& flow, std::size_t branches,
                         std::size_t backs) {
    flow.branch_node_count_ = branches;
    flow.back_edge_count_ = backs;
  }
};

namespace {

constexpr std::uint32_t kNone = 0xffffffffu;

// Builder with break/continue context stacks. Exits of a statement are
// the CFG nodes from which control falls through to the lexically
// following statement; they live as segments on a shared stack in the
// scratch (DESIGN.md §17) — a caller marks the stack top, lets
// visit_statement push the statement's exits above the mark, consumes
// them, and truncates back. Break sites chain through a pooled link
// array per breakable target, so a labeled break deep in a nested
// statement lands in its own target's sink without touching the segments
// in between. Every edge is appended raw; build() finalizes through a
// CSR adjacency into the sorted, deduplicated public list.
class CfgBuilder {
 public:
  CfgBuilder(const Ast& ast, Budget* budget, CfgScratch& ws)
      : kinds_(ast.kinds()),
        ends_(ast.ends()),
        nodes_(ast.nodes()),
        budget_(budget),
        ws_(ws) {}

  void build(const Node* root, ControlFlow& out) {
    ws_.edges.clear();
    ws_.exits.clear();
    ws_.breakables.clear();
    ws_.break_links.clear();
    if (root != nullptr) {
      visit_body(root->kids, *root);
      ws_.exits.clear();
      // Nested functions get their own sub-graphs: a scan of the index's
      // kinds finds every function node in pre-order (the statement walk
      // above never descends into them), and each block body is visited
      // with the breakable stack floored so enclosing loop/switch targets
      // are invisible inside the function.
      for (std::size_t id = 0; id < kinds_.size(); ++id) {
        if (!is_function(kinds_[id])) continue;
        const Node* body = function_body(*nodes_[id]);
        // Expression-bodied arrows have conditional-expression nodes only.
        if (body == nullptr || body->kind != NodeKind::kBlockStatement) {
          continue;
        }
        const std::size_t saved_floor = breakable_floor_;
        breakable_floor_ = ws_.breakables.size();
        visit_body(body->kids, *body);
        ws_.exits.clear();
        breakable_floor_ = saved_floor;
      }
    }
    finalize(kinds_.size(), out);
  }

 private:
  static const Node* function_body(const Node& function) {
    // Layout: FunctionDeclaration/Expression: [id, body, params...];
    // ArrowFunctionExpression: [body, params...].
    if (function.kind == NodeKind::kArrowFunctionExpression) {
      return function.kid(0);
    }
    return function.kid(1);
  }

  void edge(const Node* from, const Node* to) {
    if (budget_ != nullptr) budget_->poll_deadline();
    if (from == nullptr || to == nullptr) return;
    ws_.edges.emplace_back(from->id, to->id);
  }

  // Edges from every exit in the segment [mark, top) to `to`.
  void edges_from(std::size_t mark, const Node* to) {
    for (std::size_t i = mark; i < ws_.exits.size(); ++i) {
      edge(ws_.exits[i], to);
    }
  }

  // Adds statement -> ConditionalExpression edges for every conditional
  // expression syntactically inside `statement`, plus nesting edges
  // between conditionals. A range scan over the statement's ids that
  // jumps over nested statements, switch cases and catch clauses (those
  // are visited on their own) and over functions (separate sub-graphs);
  // a conditional's source is the innermost open conditional whose
  // subtree still covers the scan position, else the statement.
  void link_conditional_expressions(const Node& statement) {
    std::vector<std::uint32_t>& open = ws_.open_conditionals;
    open.clear();
    const std::uint32_t end = ends_[statement.id];
    for (std::uint32_t id = statement.id + 1; id < end;) {
      const NodeKind kind = kinds_[id];
      if (is_statement(kind) || is_function(kind) ||
          kind == NodeKind::kSwitchCase || kind == NodeKind::kCatchClause) {
        id = ends_[id];
        continue;
      }
      if (kind == NodeKind::kConditionalExpression) {
        while (!open.empty() && ends_[open.back()] <= id) open.pop_back();
        edge(open.empty() ? &statement : nodes_[open.back()], nodes_[id]);
        open.push_back(id);
      }
      ++id;
    }
  }

  // --- breakable stack ---------------------------------------------------

  void push_breakable(std::string_view label, const Node* continue_target) {
    ws_.breakables.push_back({label, continue_target, kNone, kNone});
  }

  void record_break(CfgScratch::Breakable& target, const Node* site) {
    const std::uint32_t link =
        static_cast<std::uint32_t>(ws_.break_links.size());
    ws_.break_links.push_back({site, kNone});
    if (target.sink_tail == kNone) {
      target.sink_head = link;
    } else {
      ws_.break_links[target.sink_tail].next = link;
    }
    target.sink_tail = link;
  }

  // Pops the innermost breakable, appending its recorded break sites to
  // the exits segment on top of the stack.
  void pop_breakable_into_exits() {
    const CfgScratch::Breakable target = ws_.breakables.back();
    ws_.breakables.pop_back();
    for (std::uint32_t link = target.sink_head; link != kNone;
         link = ws_.break_links[link].next) {
      ws_.exits.push_back(ws_.break_links[link].site);
    }
  }

  // --- statement walk ----------------------------------------------------

  // Visits a statement list: `previous` exits flow into each following
  // statement. On return, the final statement's exits sit on top of the
  // stack (the body's own exits).
  void visit_body(const NodeList& statements, const Node& owner) {
    const std::size_t mark = ws_.exits.size();
    ws_.exits.push_back(&owner);
    bool first = true;
    for (const Node* statement : statements) {
      if (statement == nullptr) continue;
      if (first) {
        // The container (block/program) flows into its first statement
        // only for blocks nested as CFG nodes; for Program we treat the
        // first statement as the entry, so skip the self edge there.
        first = false;
        if (owner.kind != NodeKind::kProgram) {
          edges_from(mark, statement);
        }
      } else {
        edges_from(mark, statement);
      }
      ws_.exits.resize(mark);
      visit_statement(*statement);
    }
  }

  // Pushes the exits of `node` onto the shared stack.
  void visit_statement(const Node& node) {
    link_conditional_expressions(node);
    switch (node.kind) {
      case NodeKind::kBlockStatement:
        visit_body(node.kids, node);
        return;

      case NodeKind::kIfStatement: {
        const Node* consequent = node.kid(1);
        edge(&node, consequent);
        visit_statement(*consequent);
        if (node.kid(2) != nullptr) {
          edge(&node, node.kids[2]);
          visit_statement(*node.kids[2]);  // appended: union of branches
        } else {
          ws_.exits.push_back(&node);  // false branch falls through
        }
        return;
      }

      case NodeKind::kWhileStatement:
      case NodeKind::kDoWhileStatement:
      case NodeKind::kForStatement:
      case NodeKind::kForInStatement:
      case NodeKind::kForOfStatement: {
        push_breakable(pending_label_, &node);
        pending_label_ = {};
        const Node* body = loop_body(node);
        edge(&node, body);
        const std::size_t mark = ws_.exits.size();
        visit_statement(*body);
        edges_from(mark, &node);  // back edge
        ws_.exits.resize(mark);
        ws_.exits.push_back(&node);
        pop_breakable_into_exits();
        return;
      }

      case NodeKind::kSwitchStatement: {
        push_breakable(pending_label_, nullptr);
        pending_label_ = {};
        // The previous case's exits (fallthrough sources) live as the
        // segment above `mark` across case visits.
        const std::size_t mark = ws_.exits.size();
        bool has_default = false;
        for (std::size_t i = 1; i < node.kids.size(); ++i) {
          const Node& switch_case = *node.kids[i];
          if (switch_case.kid(0) == nullptr) has_default = true;
          bool first_statement = true;
          for (std::size_t j = 1; j < switch_case.kids.size(); ++j) {
            const Node* statement = switch_case.kids[j];
            if (first_statement) {
              first_statement = false;
              // Dispatch edge from the switch to the case's first
              // statement, plus fallthrough from the previous case.
              edge(&node, statement);
              edges_from(mark, statement);
            } else {
              edges_from(mark, statement);
            }
            ws_.exits.resize(mark);
            visit_statement(*statement);
          }
          // A case with no statements leaves the previous exits in place
          // (fallthrough continues through the empty case).
        }
        pop_breakable_into_exits();
        if (!has_default) ws_.exits.push_back(&node);
        return;
      }

      case NodeKind::kTryStatement: {
        const Node* block = node.kid(0);
        const Node* handler = node.kid(1);
        const Node* finalizer = node.kid(2);
        edge(&node, block);
        const std::size_t mark = ws_.exits.size();
        visit_statement(*block);
        if (handler != nullptr) {
          edge(&node, handler);  // exception path
          const Node* handler_body = handler->kid(1);
          edge(handler, handler_body);
          visit_statement(*handler_body);  // appended: union
        }
        if (finalizer != nullptr) {
          edges_from(mark, finalizer);
          ws_.exits.resize(mark);
          visit_statement(*finalizer);
        }
        return;
      }

      case NodeKind::kLabeledStatement: {
        pending_label_ = node.kids[0]->str_value;
        const Node* body = node.kid(1);
        edge(&node, body);
        if (body->is_loop() || body->kind == NodeKind::kSwitchStatement) {
          visit_statement(*body);  // the loop/switch consumes the label
          return;
        }
        // Labeled block: breaks to this label exit the block.
        push_breakable(pending_label_, nullptr);
        pending_label_ = {};
        visit_statement(*body);
        pop_breakable_into_exits();
        return;
      }

      case NodeKind::kBreakStatement: {
        const std::string_view label =
            node.kid(0) != nullptr ? node.kids[0]->str_value
                                   : std::string_view();
        for (std::size_t i = ws_.breakables.size(); i > breakable_floor_;
             --i) {
          CfgScratch::Breakable& target = ws_.breakables[i - 1];
          if (label.empty() || target.label == label) {
            record_break(target, &node);
            break;
          }
        }
        return;  // no fall-through exits
      }

      case NodeKind::kContinueStatement: {
        const std::string_view label =
            node.kid(0) != nullptr ? node.kids[0]->str_value
                                   : std::string_view();
        for (std::size_t i = ws_.breakables.size(); i > breakable_floor_;
             --i) {
          const CfgScratch::Breakable& target = ws_.breakables[i - 1];
          if (target.continue_target != nullptr &&
              (label.empty() || target.label == label)) {
            edge(&node, target.continue_target);
            break;
          }
        }
        return;  // no fall-through exits
      }

      case NodeKind::kReturnStatement:
      case NodeKind::kThrowStatement:
        return;  // leaves the function / propagates

      case NodeKind::kWithStatement: {
        const Node* body = node.kid(1);
        edge(&node, body);
        visit_statement(*body);
        return;
      }

      default:
        // Straight-line statements: the node itself is the single exit.
        ws_.exits.push_back(&node);
        return;
    }
  }

  static const Node* loop_body(const Node& loop) {
    switch (loop.kind) {
      case NodeKind::kWhileStatement: return loop.kid(1);
      case NodeKind::kDoWhileStatement: return loop.kid(0);
      case NodeKind::kForStatement: return loop.kid(3);
      case NodeKind::kForInStatement:
      case NodeKind::kForOfStatement:
        return loop.kid(2);
      default:
        return nullptr;
    }
  }

  // --- CSR finalization --------------------------------------------------

  // Counting-sorts the raw edges by source row, sorts each row's targets,
  // and writes the deduplicated (from, to)-sorted list — the same list
  // std::sort + std::unique produced — while reading the branch and
  // back-edge counts off the adjacency in the same pass.
  void finalize(std::size_t node_count, ControlFlow& out) {
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& raw =
        ws_.edges;
    std::vector<std::uint32_t>& offsets = ws_.row_offsets;
    offsets.assign(node_count + 1, 0);
    for (const auto& [from, to] : raw) {
      (void)to;
      ++offsets[from + 1];
    }
    for (std::size_t row = 0; row < node_count; ++row) {
      offsets[row + 1] += offsets[row];
    }
    ws_.col.resize(raw.size());
    {
      // `offsets[row]` doubles as the write cursor; after placement each
      // entry has advanced to the next row's start, restored below.
      for (const auto& [from, to] : raw) {
        ws_.col[offsets[from]++] = to;
      }
      for (std::size_t row = node_count; row > 0; --row) {
        offsets[row] = offsets[row - 1];
      }
      offsets[0] = 0;
    }
    out.edges.clear();
    out.edges.reserve(raw.size());
    std::size_t branches = 0;
    std::size_t backs = 0;
    for (std::size_t row = 0; row < node_count; ++row) {
      const std::size_t begin = offsets[row];
      const std::size_t end = offsets[row + 1];
      if (begin == end) continue;
      std::sort(ws_.col.begin() + static_cast<std::ptrdiff_t>(begin),
                ws_.col.begin() + static_cast<std::ptrdiff_t>(end));
      const std::uint32_t from = static_cast<std::uint32_t>(row);
      std::size_t degree = 0;
      std::uint32_t previous = 0;
      for (std::size_t i = begin; i < end; ++i) {
        const std::uint32_t to = ws_.col[i];
        if (degree > 0 && to == previous) continue;  // duplicate edge
        out.edges.emplace_back(from, to);
        if (to <= from) ++backs;
        previous = to;
        ++degree;
      }
      if (degree >= 2) ++branches;
    }
    CfgBuildAccess::set_counts(out, branches, backs);
  }

  std::span<const NodeKind> kinds_;
  std::span<const std::uint32_t> ends_;
  std::span<const Node* const> nodes_;
  Budget* budget_ = nullptr;
  CfgScratch& ws_;
  // Breakables below the floor belong to an enclosing function and are
  // invisible to break/continue inside the current one.
  std::size_t breakable_floor_ = 0;
  std::string_view pending_label_;
};

}  // namespace

ControlFlow build_control_flow(const Ast& ast, Budget* budget,
                               CfgScratch* scratch) {
  ControlFlow flow;
  CfgScratch local_scratch;
  CfgScratch& workspace = scratch != nullptr ? *scratch : local_scratch;
  CfgBuilder builder(ast, budget, workspace);
  builder.build(ast.root(), flow);
  return flow;
}

}  // namespace jst
