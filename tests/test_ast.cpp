#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/dataset.h"
#include "ast/ast.h"
#include "ast/walk.h"
#include "codegen/codegen.h"
#include "parser/parser.h"
#include "support/rng.h"
#include "transform/transform.h"

namespace jst {
namespace {

TEST(Ast, NodeKindNamesAreEsprimaCompatible) {
  EXPECT_EQ(node_kind_name(NodeKind::kProgram), "Program");
  EXPECT_EQ(node_kind_name(NodeKind::kVariableDeclaration),
            "VariableDeclaration");
  EXPECT_EQ(node_kind_name(NodeKind::kArrowFunctionExpression),
            "ArrowFunctionExpression");
  EXPECT_EQ(node_kind_name(NodeKind::kConditionalExpression),
            "ConditionalExpression");
  EXPECT_EQ(node_kind_name(NodeKind::kTaggedTemplateExpression),
            "TaggedTemplateExpression");
}

TEST(Ast, FactoryHelpers) {
  Ast ast;
  Node* id = ast.make_identifier("x");
  EXPECT_EQ(id->kind, NodeKind::kIdentifier);
  EXPECT_EQ(id->str_value, "x");

  Node* str = ast.make_string("hi");
  EXPECT_EQ(str->lit_kind, LiteralKind::kString);

  Node* num = ast.make_number(3.5);
  EXPECT_DOUBLE_EQ(num->num_value, 3.5);

  Node* truthy = ast.make_bool(true);
  EXPECT_EQ(truthy->lit_kind, LiteralKind::kBoolean);
  EXPECT_DOUBLE_EQ(truthy->num_value, 1.0);

  Node* null_node = ast.make_null();
  EXPECT_EQ(null_node->lit_kind, LiteralKind::kNull);

  Node* regex = ast.make_regex("a+", "gi");
  EXPECT_EQ(regex->lit_kind, LiteralKind::kRegExp);
  EXPECT_EQ(regex->raw, "gi");

  EXPECT_EQ(ast.allocated(), 6u);
}

TEST(Ast, ClassifierPredicates) {
  const ParseResult result = parse_program(
      "if (a) {} for (;;) {} var f = () => 1; function g() {}");
  std::size_t statements = 0;
  std::size_t functions = 0;
  std::size_t loops = 0;
  walk_preorder(static_cast<const Node*>(result.ast.root()),
                [&](const Node& node) {
                  if (node.is_statement()) ++statements;
                  if (node.is_function()) ++functions;
                  if (node.is_loop()) ++loops;
                });
  EXPECT_GE(statements, 4u);
  EXPECT_EQ(functions, 2u);
  EXPECT_EQ(loops, 1u);
}

TEST(Ast, FinalizeAssignsPreorderIds) {
  const ParseResult result = parse_program("var a = f(1) + 2;");
  std::uint32_t previous = 0;
  bool first = true;
  walk_preorder(static_cast<const Node*>(result.ast.root()),
                [&](const Node& node) {
                  if (!first) {
                    EXPECT_GT(node.id, previous);
                  }
                  previous = node.id;
                  first = false;
                });
  EXPECT_EQ(result.ast.root()->id, 0u);
}

TEST(Ast, FinalizeCountsReachableOnly) {
  Ast ast;
  Node* root = ast.make(NodeKind::kProgram);
  Node* statement = ast.make(NodeKind::kEmptyStatement);
  root->kids.push_back(statement);
  ast.make(NodeKind::kEmptyStatement);  // detached
  ast.set_root(root);
  EXPECT_EQ(ast.finalize(), 2u);
  EXPECT_EQ(ast.node_count(), 2u);
  EXPECT_EQ(ast.allocated(), 3u);
}

TEST(Ast, CloneIsDeepAndDetached) {
  ParseResult result = parse_program("var a = [1, 'two', f(3)];");
  Ast& ast = result.ast;
  Node* original = ast.root()->kids[0];
  Node* copy = ast.clone(original);
  ASSERT_NE(copy, original);
  EXPECT_EQ(copy->kind, original->kind);
  EXPECT_EQ(copy->kids.size(), original->kids.size());
  // Mutating the copy leaves the original untouched.
  copy->kids[0]->kids[0]->str_value = "renamed";
  EXPECT_EQ(original->kids[0]->kids[0]->str_value, "a");
}

TEST(Ast, CloneHandlesNullSlots) {
  ParseResult result = parse_program("if (a) b();");
  Node* if_statement = result.ast.root()->kids[0];
  ASSERT_EQ(if_statement->kids.size(), 3u);
  ASSERT_EQ(if_statement->kids[2], nullptr);
  Node* copy = result.ast.clone(if_statement);
  EXPECT_EQ(copy->kids[2], nullptr);
}

TEST(Walk, PreorderVisitsAllNodes) {
  const ParseResult result = parse_program("f(a, b + c);");
  std::size_t visited = 0;
  walk_preorder(static_cast<const Node*>(result.ast.root()),
                [&](const Node&) { ++visited; });
  EXPECT_EQ(visited, result.ast.node_count());
}

TEST(Walk, PostorderChildrenBeforeParents) {
  ParseResult result = parse_program("x = a + b;");
  std::vector<NodeKind> order;
  walk_postorder(result.ast.root(),
                 [&](Node& node) { order.push_back(node.kind); });
  // BinaryExpression must come after its identifier children and before
  // the assignment / statement / program wrappers.
  const auto position = [&](NodeKind kind) {
    for (std::size_t i = 0; i < order.size(); ++i) {
      if (order[i] == kind) return i;
    }
    return order.size();
  };
  EXPECT_LT(position(NodeKind::kBinaryExpression),
            position(NodeKind::kAssignmentExpression));
  EXPECT_EQ(order.back(), NodeKind::kProgram);
}

TEST(Walk, PreorderKindsMatchesNodeCount) {
  const ParseResult result = parse_program("function f() { return 1; }");
  EXPECT_EQ(preorder_kinds(result.ast.root()).size(), result.ast.node_count());
}

TEST(Walk, DepthAndBreadth) {
  const ParseResult narrow = parse_program("x = y;");
  const ParseResult wide = parse_program("f(1, 2, 3, 4, 5, 6, 7, 8);");
  EXPECT_GT(tree_breadth(wide.ast.root()), tree_breadth(narrow.ast.root()));
}

TEST(Walk, DepthOfNestedBlocks) {
  const ParseResult flat = parse_program("a();");
  const ParseResult nested = parse_program("{ { { a(); } } }");
  EXPECT_GT(tree_depth(nested.ast.root()), tree_depth(flat.ast.root()));
}

TEST(Walk, CountNodesOnNull) {
  EXPECT_EQ(count_nodes(nullptr), 0u);
  EXPECT_EQ(tree_depth(nullptr), 0u);
  EXPECT_EQ(tree_breadth(nullptr), 0u);
  EXPECT_TRUE(preorder_kinds(nullptr).empty());
}

TEST(Walk, CollectKindFindsEveryInstance) {
  ParseResult result = parse_program("a.b; c.d; e['f'];");
  EXPECT_EQ(collect_kind(result.ast.root(), NodeKind::kMemberExpression).size(),
            3u);
  EXPECT_TRUE(
      collect_kind(result.ast.root(), NodeKind::kClassDeclaration).empty());
}

TEST(Ast, MoveSemantics) {
  ParseResult result = parse_program("var q = 1;");
  const std::size_t count = result.ast.node_count();
  Ast moved = std::move(result.ast);
  EXPECT_EQ(moved.node_count(), count);
  ASSERT_NE(moved.root(), nullptr);
  EXPECT_EQ(moved.root()->kind, NodeKind::kProgram);
}


// --- pre-order index --------------------------------------------------------

// Checks the index of a finalized tree against the tree itself: the node
// column is exactly the pre-order walk (walk.h, independent of finalize),
// ids and kinds agree with the Nodes, and each node's kids tile its id
// range — the first kid at id + 1, each next kid at the previous kid's
// end, the node's end at its last kid's — which makes ends[id] - id the
// subtree size. Linear, so it runs on JSFuck-sized trees.
void expect_index_matches_tree(const Ast& ast) {
  const std::span<const NodeKind> kinds = ast.kinds();
  const std::span<const std::uint32_t> ends = ast.ends();
  const std::span<const std::uint32_t> depths = ast.depths();
  const std::span<const Node* const> nodes = ast.nodes();
  std::vector<const Node*> preorder;
  walk_preorder(static_cast<const Node*>(ast.root()),
                [&](const Node& node) { preorder.push_back(&node); });
  ASSERT_EQ(ast.node_count(), preorder.size());
  ASSERT_EQ(kinds.size(), preorder.size());
  ASSERT_EQ(ends.size(), preorder.size());
  ASSERT_EQ(depths.size(), preorder.size());
  ASSERT_EQ(nodes.size(), preorder.size());
  if (preorder.empty()) return;
  EXPECT_EQ(depths[0], 1u);
  EXPECT_EQ(ends[0], preorder.size());
  for (std::uint32_t id = 0; id < nodes.size(); ++id) {
    const Node* node = nodes[id];
    ASSERT_EQ(node, preorder[id]) << "id " << id;
    ASSERT_EQ(node->id, id);
    ASSERT_EQ(kinds[id], node->kind) << "id " << id;
    std::uint32_t next = id + 1;
    for (const Node* kid : node->kids) {
      if (kid == nullptr) continue;
      ASSERT_EQ(kid->id, next) << "kid of id " << id;
      ASSERT_EQ(depths[kid->id], depths[id] + 1) << "kid of id " << id;
      ASSERT_EQ(kid->parent, node);
      next = ends[kid->id];
    }
    ASSERT_EQ(ends[id], next) << "id " << id;
  }
}

// Kinds, extents and depths of two finalized trees agree entry for entry.
void expect_same_index(const Ast& actual, const Ast& expected) {
  ASSERT_EQ(actual.node_count(), expected.node_count());
  for (std::size_t id = 0; id < expected.node_count(); ++id) {
    ASSERT_EQ(actual.kinds()[id], expected.kinds()[id]) << "id " << id;
    ASSERT_EQ(actual.ends()[id], expected.ends()[id]) << "id " << id;
    ASSERT_EQ(actual.depths()[id], expected.depths()[id]) << "id " << id;
  }
}

TEST(PreorderIndex, SmallTreeSubtreeSizes) {
  const ParseResult result = parse_program("var a = f(1) + g(x.y, [2]);");
  expect_index_matches_tree(result.ast);
  for (std::uint32_t id = 0; id < result.ast.node_count(); ++id) {
    EXPECT_EQ(result.ast.ends()[id] - id,
              count_nodes(result.ast.nodes()[id]));
  }
  EXPECT_EQ(result.ast.kinds()[0], NodeKind::kProgram);
}

TEST(PreorderIndex, MatchesTreeOnCorpusAndEveryTechnique) {
  analysis::CorpusSpec spec;
  spec.regular_count = 12;
  spec.seed = 1717;
  const std::vector<std::string> regular =
      analysis::generate_regular_corpus(spec);
  std::vector<std::string> sources = regular;
  Rng rng(4242);
  std::size_t base = 0;
  for (const transform::Technique technique : transform::all_techniques()) {
    for (int round = 0; round < 2; ++round) {
      sources.push_back(analysis::make_transformed_sample(
                            regular[base++ % regular.size()], technique, rng)
                            .source);
    }
  }
  sources.push_back(transform::pack(regular[0], rng));
  // A JSFuck encoding of a whole script, well past the clipped default.
  transform::NoAlnumOptions jsfuck;
  jsfuck.max_source_bytes = 2048;
  sources.push_back(transform::no_alnum_transform(regular[1], jsfuck));
  for (std::size_t i = 0; i < sources.size(); ++i) {
    SCOPED_TRACE("source " + std::to_string(i));
    const ParseResult result = parse_program(sources[i]);
    expect_index_matches_tree(result.ast);
  }
}

TEST(PreorderIndex, NullKidSlotsAreSkipped) {
  // Array holes, the optional for-clauses, a missing else and a try
  // without finally all leave nullptr kid slots.
  const ParseResult result = parse_program(
      "var a = [1, , 3, , ]; for (;;) { break; } if (a) b(); "
      "try { c(); } catch (e) {} let [, x] = a;");
  expect_index_matches_tree(result.ast);
  std::size_t holes = 0;
  walk_preorder(static_cast<const Node*>(result.ast.root()),
                [&](const Node& node) {
                  for (const Node* kid : node.kids) holes += kid == nullptr;
                });
  EXPECT_GE(holes, 8u);
}

TEST(PreorderIndex, EmptyTreeAndEmptyProgram) {
  Ast unrooted;
  EXPECT_EQ(unrooted.finalize(), 0u);
  EXPECT_TRUE(unrooted.kinds().empty());
  EXPECT_TRUE(unrooted.ends().empty());
  EXPECT_TRUE(unrooted.depths().empty());
  EXPECT_TRUE(unrooted.nodes().empty());

  // An empty script still has its Program root: a one-entry index.
  const ParseResult empty = parse_program("");
  expect_index_matches_tree(empty.ast);
  ASSERT_EQ(empty.ast.kinds().size(), 1u);
  EXPECT_EQ(empty.ast.kinds()[0], NodeKind::kProgram);
  EXPECT_EQ(empty.ast.ends()[0], 1u);
  EXPECT_EQ(empty.ast.depths()[0], 1u);
}

TEST(PreorderIndex, TreeOfAnotherAstGrowsTheIndexMidWalk) {
  const ParseResult source =
      parse_program("f(1, 2, 3, [4, 5, [6, 7]], {a: 8, b: [9]});");
  // `borrower` made no nodes, so finalize() starts with one slot and must
  // grow while its walk is under way.
  Ast borrower;
  borrower.set_root(source.ast.root());
  EXPECT_EQ(borrower.finalize(), source.ast.node_count());
  expect_index_matches_tree(borrower);
  expect_same_index(borrower, source.ast);
}

TEST(PreorderIndex, RefinalizeAfterMutationMatchesFreshParse) {
  ParseResult result = parse_program(
      "function f(a) { if (a) { return a + 1; } return g(a); }\n"
      "var x = f(2) ? [1, 2] : {k: 3};\n"
      "while (x) { x = x - 1; }\n");
  Ast& ast = result.ast;
  Node* program = ast.root();
  // Structural edits: duplicate the function, drop the loop, and replace
  // the conditional's consequent with a deeper expression.
  program->kids.push_back(ast.clone(program->kids[0]));
  program->kids.erase(program->kids.begin() + 2);
  Node* conditional = program->kids[1]->kids[0]->kids[1];
  ASSERT_EQ(conditional->kind, NodeKind::kConditionalExpression);
  Node* call = ast.make(NodeKind::kCallExpression);
  call->kids = {ast.make_identifier("h"), conditional->kids[1]};
  conditional->kids[1] = call;
  ast.finalize();
  expect_index_matches_tree(ast);
  const ParseResult fresh = parse_program(to_source(program));
  expect_same_index(ast, fresh.ast);
}

TEST(PreorderIndex, RefinalizeReusesArenaStorage) {
  ParseResult result = parse_program(
      "var a = [1, 2, 3]; function f(x) { return x ? a[x] : f(x - 1); }");
  Ast& ast = result.ast;
  ast.finalize();
  const std::size_t peak = ast.arena().peak_bytes();
  Node* program = ast.root();
  for (int round = 0; round < 200; ++round) {
    // A structural mutation that makes no node: rotate the statements.
    Node* first = program->kids[0];
    program->kids.erase(program->kids.begin());
    program->kids.push_back(first);
    ast.finalize();
  }
  EXPECT_EQ(ast.arena().peak_bytes(), peak);
  expect_index_matches_tree(ast);
}

}  // namespace
}  // namespace jst
