// One-stop static analysis of a JavaScript source: AST construction plus
// control-flow and data-flow augmentation (the paper's §III-A pipeline).
#pragma once

#include <string_view>

#include "cfg/cfg.h"
#include "dataflow/dataflow.h"
#include "parser/parser.h"

namespace jst {

struct AnalysisOptions {
  // Node budget standing in for the paper's 2-minute data-flow timeout.
  std::size_t dataflow_node_budget = 2'000'000;
  bool build_cfg = true;
  bool build_dataflow = true;
  // Non-owning per-script resource budget (support/budget.h), threaded
  // into the lexer, parser, CFG builder, and data-flow pass. Trips in the
  // hard stages (lex/parse/CFG) throw BudgetExceeded out of
  // analyze_script; a data-flow trip is soft — it is recorded in
  // DataFlow::tripped and the analysis returns with truncated edges.
  Budget* budget = nullptr;
  // Non-owning reusable data-flow builder workspace (capacity survives
  // across scripts); nullptr allocates per call. With a scratch, the
  // returned bindings' site spans alias it and follow the same pooling
  // contract as the arena below.
  DataFlowScratch* dataflow_scratch = nullptr;
  // Non-owning reusable CFG builder workspace; nullptr allocates per call.
  CfgScratch* cfg_scratch = nullptr;
  // Non-owning pooled front-end arena (support/arena.h). When set, the
  // lexer, token stream, and AST all live in it and parse_program resets
  // it first — the per-script pooling contract: the returned
  // ScriptAnalysis is valid only until the arena's next reset. nullptr
  // gives the Ast a private arena (fully self-contained result).
  support::Arena* arena = nullptr;
  // Non-owning pooled identifier atom table, cleared per script in
  // lockstep with the arena (parse_program). nullptr gives the Ast a
  // private table.
  support::AtomTable* atoms = nullptr;
};

struct ScriptAnalysis {
  ParseResult parse;
  ControlFlow control_flow;
  DataFlow data_flow;
};

// Throws ParseError on malformed input.
ScriptAnalysis analyze_script(std::string_view source,
                              const AnalysisOptions& options = {});

// The paper's script-eligibility filter (§III-D1): between 512 bytes and
// 2 MB, and the AST contains at least one conditional control-flow node,
// function node, or CallExpression. `ast_eligible` checks only the AST
// half so callers can report *which* criterion failed. The check scans
// the AST's pre-order index and stops at the first qualifying node.
// `walk_stack` is unused; the parameter is kept for the benchmark callers
// that pass ExtractScratch::eligibility_stack.
bool script_eligible(const ScriptAnalysis& analysis,
                     std::vector<const Node*>* walk_stack = nullptr);
bool size_eligible(std::string_view source);
bool ast_eligible(const ScriptAnalysis& analysis);

}  // namespace jst
