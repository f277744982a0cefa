// Control-flow augmentation of the AST.
//
// Following the paper's JSTAP adjustment (§III-A): "we restrict flows of
// control to nodes having an impact on program execution paths, meaning
// statement nodes, CatchClause, and ConditionalExpression."
//
// The graph is intra-procedural (one sub-graph per function plus the
// top-level program), with edges for sequencing, branching (if/switch/
// conditional expressions), loop back-edges, break/continue (including
// labeled forms), and exception paths into CatchClause.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "ast/ast.h"

namespace jst {

struct ControlFlow {
  // Deduplicated directed edges between node ids (Ast::finalize() order),
  // sorted by (from, to).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;

  std::size_t edge_count() const { return edges.size(); }

  // Number of nodes with out-degree >= 2 (branch points). Computed once
  // from the CSR adjacency while build_control_flow finalizes the edge
  // list (DESIGN.md §17); previously a per-call linear scan, and before
  // that an unordered_map built per call.
  std::size_t branch_node_count() const { return branch_node_count_; }

  // Number of back edges (edge to an id <= own id, i.e., loops; pre-order
  // ids make ancestors smaller). Cached at build like the branch count.
  std::size_t back_edge_count() const { return back_edge_count_; }

 private:
  friend struct CfgBuildAccess;
  std::size_t branch_node_count_ = 0;
  std::size_t back_edge_count_ = 0;
};

// Reusable builder workspace: the raw (unsorted) edge list, the shared
// exits/breakable stacks the statement walk runs on, the enclosing
// conditionals of the conditional-expression scan, and the CSR arrays the
// edge list is finalized through. Node discovery scans the AST's
// pre-order index (Ast::kinds()/ends()), so no traversal stack lives
// here. Capacity survives across scripts; steady-state CFG builds
// allocate only the returned edge vector.
struct CfgScratch {
  // One break/continue target on the breakable stack. `label` views the
  // AST arena; `sink_head`/`sink_tail` chain this target's recorded break
  // sites through `break_links`.
  struct Breakable {
    std::string_view label;       // empty for unlabeled targets
    const Node* continue_target;  // nullptr for switch / labeled block
    std::uint32_t sink_head;
    std::uint32_t sink_tail;
  };
  struct BreakLink {
    const Node* site = nullptr;
    std::uint32_t next = 0;
  };

  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;  // raw order
  // Shared exits stack: each statement's fall-through exits are a
  // segment on top; callers mark/consume/truncate.
  std::vector<const Node*> exits;
  // Ids of the ConditionalExpressions enclosing the conditional scan's
  // position (the sources of its nesting edges); bounded by conditional
  // nesting, not by the tree.
  std::vector<std::uint32_t> open_conditionals;
  std::vector<Breakable> breakables;
  std::vector<BreakLink> break_links;
  // CSR finalization: per-row cursors/offsets and the column array.
  std::vector<std::uint32_t> row_offsets;
  std::vector<std::uint32_t> col;

  std::size_t capacity_bytes() const {
    return edges.capacity() * sizeof(edges[0]) +
           exits.capacity() * sizeof(const Node*) +
           open_conditionals.capacity() * sizeof(std::uint32_t) +
           breakables.capacity() * sizeof(Breakable) +
           break_links.capacity() * sizeof(BreakLink) +
           row_offsets.capacity() * sizeof(std::uint32_t) +
           col.capacity() * sizeof(std::uint32_t);
  }
};

// Builds the control-flow edges for a finalized AST. The AST must have had
// Ast::finalize() called (ids, parents and the pre-order index). A non-null `budget`
// is polled for the wall-clock deadline while edges are emitted; a passed
// deadline throws BudgetExceeded. `scratch`, when non-null, is the
// reusable workspace above; nullptr allocates per call.
ControlFlow build_control_flow(const Ast& ast, Budget* budget = nullptr,
                               CfgScratch* scratch = nullptr);

}  // namespace jst
