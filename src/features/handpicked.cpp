#include "features/handpicked.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>
#include <string_view>

#include "support/stats.h"
#include "support/strings.h"

namespace jst::features {
namespace {

// String-manipulation method names counted as string operations. Length
// dispatch for the same reason as decoder_builtin_index: this runs for
// every member-callee in the script, and almost every property name exits
// on the first integer compare.
bool is_string_operation(std::string_view name) {
  switch (name.size()) {
    case 4: return name == "join";
    case 5: return name == "split" || name == "slice";
    case 6: return name == "concat" || name == "substr" ||
                   name == "charAt" || name == "repeat";
    case 7: return name == "replace" || name == "reverse" ||
                   name == "indexOf";
    case 8: return name == "padStart";
    case 9: return name == "substring";
    case 10: return name == "charCodeAt";
    case 11: return name == "codePointAt";
    case 12: return name == "fromCharCode";
    default: return false;
  }
}

// Order defines the builtin_seen array layout and the has_* feature
// columns (must stay aligned with handpicked_feature_names()).
constexpr std::array<std::string_view, 9> kDecoderBuiltins = {
    "eval",   "Function",           "atob",
    "btoa",   "unescape",           "escape",
    "decodeURIComponent",           "encodeURIComponent",
    "parseInt",
};

// Index into kDecoderBuiltins, or -1. Dispatching on length first lets
// almost every callee name exit after one integer compare — this runs
// for every identifier callee in the script.
int decoder_builtin_index(std::string_view name) {
  switch (name.size()) {
    case 4:
      if (name == "eval") return 0;
      if (name == "atob") return 2;
      if (name == "btoa") return 3;
      return -1;
    case 6:
      return name == "escape" ? 5 : -1;
    case 8:
      if (name == "Function") return 1;
      if (name == "unescape") return 4;
      if (name == "parseInt") return 8;
      return -1;
    case 18:
      if (name == "decodeURIComponent") return 6;
      if (name == "encodeURIComponent") return 7;
      return -1;
    default:
      return -1;
  }
}

bool looks_encoded(std::string_view value) {
  if (value.size() < 8) return false;
  // Long strings with very low space frequency and either high entropy or
  // base64/hex shape are typical of packed payloads.
  std::size_t spaces = 0;
  std::size_t nonprintable = 0;
  std::size_t hexish = 0;
  for (char c : value) {
    if (c == ' ') ++spaces;
    const auto byte = static_cast<unsigned char>(c);
    if (byte < 0x20 || byte > 0x7e) ++nonprintable;
    if (strings::is_hex_digit(c) || c == '%' || c == '\\' || c == '|') ++hexish;
  }
  const double size = static_cast<double>(value.size());
  if (nonprintable / size > 0.05) return true;
  if (spaces / size < 0.02 && hexish / size > 0.85) return true;
  return false;
}

bool is_hexlike_identifier(std::string_view name) {
  // _0x1a2b3c or similar machine-generated names.
  if (name.size() >= 4 && name[0] == '_' && name[1] == '0' &&
      (name[2] == 'x' || name[2] == 'X')) {
    return true;
  }
  // Pure hex-ish tail after a single letter: a0f3c9.
  if (name.size() >= 6) {
    std::size_t hex = 0;
    for (char c : name) {
      if (strings::is_hex_digit(c)) ++hex;
    }
    if (static_cast<double>(hex) / static_cast<double>(name.size()) > 0.9) {
      return true;
    }
  }
  return false;
}

bool inside_loop_or_function(const Node& node) {
  for (const Node* p = node.parent; p != nullptr; p = p->parent) {
    if (p->is_loop() || p->is_function()) return true;
  }
  return false;
}

bool is_infinite_loop(const Node& node) {
  if (node.kind == NodeKind::kWhileStatement ||
      node.kind == NodeKind::kDoWhileStatement) {
    const Node* test = node.kind == NodeKind::kWhileStatement ? node.kid(0)
                                                              : node.kid(1);
    return test != nullptr && test->kind == NodeKind::kLiteral &&
           test->lit_kind == LiteralKind::kBoolean && test->num_value != 0.0;
  }
  if (node.kind == NodeKind::kForStatement) {
    return node.kid(1) == nullptr;  // no test
  }
  return false;
}

// Whether the subtree at `body` holds a SwitchStatement: a scan of its
// ids in the pre-order index.
bool contains_switch_statement(const Ast& ast, const Node& body) {
  const std::span<const NodeKind> kinds = ast.kinds();
  const std::uint32_t end = ast.ends()[body.id];
  for (std::uint32_t id = body.id; id < end; ++id) {
    if (kinds[id] == NodeKind::kSwitchStatement) return true;
  }
  return false;
}

double safe_div(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

double log1p_scaled(double v) { return std::log1p(std::max(0.0, v)); }

}  // namespace

void gather_handpicked(const Node& node, const Ast& ast,
                       ExtractCounters& c) {
  ++c.nodes;
  switch (node.kind) {
    case NodeKind::kIdentifier: {
      ++c.identifiers;
      const std::string_view name = node.str_value;
      c.identifier_lengths.push_back(static_cast<double>(name.size()));
      if (name.size() == 1) ++c.identifiers_len1;
      if (name.size() == 2) ++c.identifiers_len2;
      if (is_hexlike_identifier(name)) ++c.identifiers_hexlike;
      // Parser-made identifiers carry their atom; transformer-created
      // stragglers are interned into the same id space on first sight.
      c.see_identifier_atom(node.atom != support::AtomTable::kNoAtom
                                ? node.atom
                                : ast.atoms().intern(name));
      break;
    }
    case NodeKind::kLiteral:
      ++c.literals;
      switch (node.lit_kind) {
        case LiteralKind::kString: {
          ++c.string_literals;
          c.string_lengths.push_back(
              static_cast<double>(node.str_value.size()));
          if (c.all_string_bytes.size() < 1 << 20) {
            c.all_string_bytes += node.str_value;
          }
          if (looks_encoded(node.str_value)) ++c.encoded_looking_strings;
          break;
        }
        case LiteralKind::kNumber:
          ++c.number_literals;
          if (node.raw.size() > 2 && node.raw[0] == '0' &&
              (node.raw[1] == 'x' || node.raw[1] == 'X')) {
            ++c.hex_number_literals;
          }
          break;
        case LiteralKind::kRegExp:
          ++c.regex_literals;
          break;
        default:
          break;
      }
      break;
    case NodeKind::kTemplateLiteral:
      ++c.template_literals;
      break;
    case NodeKind::kCallExpression: {
      ++c.calls;
      const Node* callee = node.kid(0);
      if (callee != nullptr) {
        if (callee->kind == NodeKind::kIdentifier) {
          const int builtin = decoder_builtin_index(callee->str_value);
          if (builtin >= 0) c.builtin_seen[static_cast<std::size_t>(builtin)] = true;
          if (builtin == 0) ++c.eval_calls;  // kDecoderBuiltins[0] == "eval"
        }
        if (callee->kind == NodeKind::kMemberExpression && !callee->flag_a &&
            callee->kid(1) != nullptr) {
          if (is_string_operation(callee->kids[1]->str_value)) {
            ++c.string_operations;
          }
        }
        if (callee->kind == NodeKind::kFunctionExpression ||
            callee->kind == NodeKind::kArrowFunctionExpression) {
          ++c.iife;
        }
      }
      break;
    }
    case NodeKind::kMemberExpression: {
      ++c.members;
      if (node.flag_a) {
        ++c.member_bracket;
        const Node* key = node.kid(1);
        if (key != nullptr && key->kind == NodeKind::kLiteral &&
            key->lit_kind == LiteralKind::kString) {
          ++c.member_bracket_string_key;
        }
      } else {
        ++c.member_dot;
        const Node* property = node.kid(1);
        if (property != nullptr &&
            (property->str_value == "toString" ||
             property->str_value == "callee" ||
             property->str_value == "constructor")) {
          ++c.self_defense_markers;
        }
      }
      break;
    }
    case NodeKind::kConditionalExpression:
      ++c.conditionals;
      break;
    case NodeKind::kIfStatement:
      ++c.if_statements;
      break;
    case NodeKind::kSequenceExpression:
      ++c.sequences;
      break;
    case NodeKind::kEmptyStatement:
      ++c.empty_statements;
      break;
    case NodeKind::kUnaryExpression:
      ++c.unary_total;
      if (node.str_value == "!" || node.str_value == "+") ++c.unary_bang_plus;
      break;
    case NodeKind::kBinaryExpression: {
      ++c.binary_total;
      if (node.str_value == "+") {
        ++c.binary_plus;
        const Node* left = node.kid(0);
        const Node* right = node.kid(1);
        const auto is_string = [](const Node* n) {
          return n != nullptr && n->kind == NodeKind::kLiteral &&
                 n->lit_kind == LiteralKind::kString;
        };
        if (is_string(left) || is_string(right)) ++c.binary_plus_on_strings;
      }
      {
        const auto is_number = [](const Node* n) {
          return n != nullptr && n->kind == NodeKind::kLiteral &&
                 n->lit_kind == LiteralKind::kNumber;
        };
        if (is_number(node.kid(0)) && is_number(node.kid(1))) {
          ++c.binary_numeric_only;
        }
      }
      break;
    }
    case NodeKind::kArrayExpression:
      ++c.arrays;
      c.array_elements_total += node.kids.size();
      if (node.kids.empty()) ++c.empty_arrays;
      if (node.kids.size() >= 16) ++c.large_arrays;
      break;
    case NodeKind::kObjectExpression:
      ++c.objects;
      c.object_properties_total += node.kids.size();
      break;
    case NodeKind::kFunctionDeclaration:
    case NodeKind::kFunctionExpression:
      ++c.functions;
      c.function_params += node.kids.size() >= 2 ? node.kids.size() - 2 : 0;
      break;
    case NodeKind::kArrowFunctionExpression:
      ++c.functions;
      c.function_params += node.kids.size() >= 1 ? node.kids.size() - 1 : 0;
      break;
    case NodeKind::kTryStatement:
      ++c.try_statements;
      break;
    case NodeKind::kThrowStatement:
      ++c.throw_statements;
      break;
    case NodeKind::kWithStatement:
      ++c.with_statements;
      break;
    case NodeKind::kDebuggerStatement:
      ++c.debugger_statements;
      if (inside_loop_or_function(node)) ++c.debugger_in_loop_or_function;
      break;
    case NodeKind::kLabeledStatement:
      ++c.labeled;
      break;
    case NodeKind::kAssignmentExpression:
      ++c.assignments;
      break;
    case NodeKind::kUpdateExpression:
      ++c.update_expressions;
      break;
    case NodeKind::kVariableDeclaration:
      ++c.var_declarations;
      c.declarators += node.kids.size();
      break;
    case NodeKind::kSwitchStatement:
      ++c.switches;
      c.switch_cases += node.kids.size() > 0 ? node.kids.size() - 1 : 0;
      break;
    case NodeKind::kNewExpression:
      ++c.new_expressions;
      break;
    case NodeKind::kSpreadElement:
    case NodeKind::kRestElement:
      ++c.spread_like;
      break;
    default:
      break;
  }

  if (node.is_loop() && is_infinite_loop(node)) {
    ++c.infinite_loops;
    // Control-flow-flattening dispatcher: an infinite loop whose body
    // drives a switch.
    const Node* body = nullptr;
    switch (node.kind) {
      case NodeKind::kWhileStatement: body = node.kid(1); break;
      case NodeKind::kDoWhileStatement: body = node.kid(0); break;
      case NodeKind::kForStatement: body = node.kid(3); break;
      default: break;
    }
    if (body != nullptr && contains_switch_statement(ast, *body)) {
      ++c.switch_in_loop;
    }
  }
}

const std::vector<std::string>& handpicked_feature_names() {
  static const std::vector<std::string> kNames = {
      // shape
      "ast_depth_per_line", "ast_breadth_per_line", "nodes_per_line",
      "avg_chars_per_line", "log_max_line_length", "whitespace_ratio",
      "bytes_per_line", "comment_byte_ratio", "comments_per_line",
      "source_alnum_ratio",
      // node-kind proportions
      "call_proportion", "literal_proportion", "identifier_proportion",
      "member_proportion", "member_per_unique_identifier",
      "ternary_proportion", "sequence_proportion", "empty_stmt_proportion",
      "assignment_proportion", "update_proportion", "new_proportion",
      // identifiers
      "avg_identifier_length", "stddev_identifier_length",
      "short1_identifier_fraction", "short2_identifier_fraction",
      "hexlike_identifier_fraction", "unique_identifier_fraction",
      // member access style
      "dot_to_member_ratio", "bracket_string_key_fraction",
      // strings
      "string_literal_fraction_of_literals", "avg_string_length",
      "log_max_string_length", "string_entropy",
      "encoded_string_fraction", "string_ops_per_node",
      "string_concat_fraction_of_binary",
      // numbers
      "hex_number_fraction", "numeric_only_binary_per_node",
      // builtins (presence)
      "has_eval", "has_function_ctor", "has_atob", "has_btoa",
      "has_unescape", "has_escape", "has_decodeuri", "has_encodeuri",
      "has_parseint", "eval_calls_per_node",
      // structure / logic
      "function_per_node", "avg_params_per_function", "iife_per_function",
      "try_per_node", "throw_per_node", "with_present",
      "regex_per_node", "template_per_node",
      "debugger_per_node", "debugger_in_loop_fraction",
      "labeled_per_node", "switch_per_node", "avg_cases_per_switch",
      "switch_in_loop_per_function", "infinite_loops_per_node",
      "if_per_node",
      // arrays / objects
      "avg_array_size", "log_max_array_density", "empty_array_per_node",
      "avg_object_size", "large_array_per_node",
      // declarations
      "declarations_per_line", "avg_declarators_per_declaration",
      // unary (JSFuck-ish)
      "bang_plus_unary_per_node", "unary_per_node",
      // tokens
      "punctuator_token_fraction", "avg_token_length", "tokens_per_byte",
      // control flow
      "cfg_edges_per_node", "cfg_branch_fraction", "cfg_back_edge_fraction",
      // data flow
      "dataflow_edges_per_node", "unresolved_use_fraction",
      "fetched_from_structure_fraction", "avg_uses_per_binding",
      "self_defense_markers_per_node",
  };
  return kNames;
}

void assemble_handpicked(const ScriptAnalysis& analysis,
                         const ExtractCounters& c, std::size_t depth_value,
                         std::size_t breadth_value, std::vector<float>& out) {
  const ParseResult& parse = analysis.parse;

  const double nodes = static_cast<double>(std::max<std::size_t>(c.nodes, 1));
  const double lines =
      static_cast<double>(std::max<std::size_t>(parse.source_lines, 1));
  const double bytes =
      static_cast<double>(std::max<std::size_t>(parse.source_bytes, 1));

  // Token statistics: summarized once at lex time (TokenStats) — the
  // stream itself is never re-walked here.
  const std::size_t punctuators = parse.token_stats.punctuators;
  const double token_length_total = parse.token_stats.raw_bytes;
  const std::size_t max_line_length = parse.token_stats.max_line_length;
  const double token_count = static_cast<double>(
      std::max<std::size_t>(parse.token_stats.count, 1));

  // Whitespace ratio: bytes not covered by tokens or comments approximate
  // whitespace volume.
  const double token_bytes = parse.token_stats.raw_bytes;
  const double whitespace_ratio = std::clamp(
      (bytes - token_bytes - static_cast<double>(parse.comment_bytes)) / bytes,
      0.0, 1.0);

  // Data-flow derived: fraction of identifier uses whose binding was
  // initialized from an array/object literal (the "global array" fetch
  // signature), plus average fan-out.
  std::size_t total_uses = 0;
  std::size_t structure_uses = 0;
  std::size_t bindings_with_uses = 0;
  for (const Binding& binding : analysis.data_flow.bindings) {
    total_uses += binding.uses.size();
    if (!binding.uses.empty()) ++bindings_with_uses;
    if (binding.init != nullptr &&
        (binding.init->kind == NodeKind::kArrayExpression ||
         binding.init->kind == NodeKind::kObjectExpression)) {
      structure_uses += binding.uses.size();
    }
  }
  const double use_count =
      static_cast<double>(std::max<std::size_t>(total_uses, 1));

  const double depth = static_cast<double>(depth_value);
  const double breadth = static_cast<double>(breadth_value);

  out.reserve(out.size() + handpicked_feature_names().size());
  const auto push = [&out](double value) {
    out.push_back(static_cast<float>(value));
  };

  // shape
  push(depth / lines);
  push(breadth / lines);
  push(nodes / lines);
  push(bytes / lines);
  push(log1p_scaled(static_cast<double>(max_line_length)));
  push(whitespace_ratio);
  push(bytes / lines);
  push(static_cast<double>(parse.comment_bytes) / bytes);
  push(static_cast<double>(parse.comment_count) / lines);
  push(strings::alnum_ratio(c.all_string_bytes.empty()
                                ? std::string_view("")
                                : std::string_view(c.all_string_bytes)));
  // node-kind proportions
  push(static_cast<double>(c.calls) / nodes);
  push(static_cast<double>(c.literals) / nodes);
  push(static_cast<double>(c.identifiers) / nodes);
  push(static_cast<double>(c.members) / nodes);
  push(safe_div(static_cast<double>(c.members),
                static_cast<double>(c.unique_identifiers)));
  push(static_cast<double>(c.conditionals) / nodes);
  push(static_cast<double>(c.sequences) / nodes);
  push(static_cast<double>(c.empty_statements) / nodes);
  push(static_cast<double>(c.assignments) / nodes);
  push(static_cast<double>(c.update_expressions) / nodes);
  push(static_cast<double>(c.new_expressions) / nodes);
  // identifiers
  push(stats::mean(c.identifier_lengths));
  push(stats::stddev(c.identifier_lengths));
  push(safe_div(static_cast<double>(c.identifiers_len1),
                static_cast<double>(c.identifiers)));
  push(safe_div(static_cast<double>(c.identifiers_len2),
                static_cast<double>(c.identifiers)));
  push(safe_div(static_cast<double>(c.identifiers_hexlike),
                static_cast<double>(c.identifiers)));
  push(safe_div(static_cast<double>(c.unique_identifiers),
                static_cast<double>(c.identifiers)));
  // member style
  push(safe_div(static_cast<double>(c.member_dot),
                static_cast<double>(c.members)));
  push(safe_div(static_cast<double>(c.member_bracket_string_key),
                static_cast<double>(c.member_bracket)));
  // strings
  push(safe_div(static_cast<double>(c.string_literals),
                static_cast<double>(c.literals)));
  push(stats::mean(c.string_lengths));
  push(log1p_scaled(stats::max(c.string_lengths)));
  push(stats::byte_entropy(std::span<const unsigned char>(
      reinterpret_cast<const unsigned char*>(c.all_string_bytes.data()),
      c.all_string_bytes.size())));
  push(safe_div(static_cast<double>(c.encoded_looking_strings),
                static_cast<double>(c.string_literals)));
  push(static_cast<double>(c.string_operations) / nodes);
  push(safe_div(static_cast<double>(c.binary_plus_on_strings),
                static_cast<double>(c.binary_total)));
  // numbers
  push(safe_div(static_cast<double>(c.hex_number_literals),
                static_cast<double>(c.number_literals)));
  push(static_cast<double>(c.binary_numeric_only) / nodes);
  // builtins (columns follow kDecoderBuiltins order)
  for (const bool seen : c.builtin_seen) {
    push(seen ? 1.0 : 0.0);
  }
  push(static_cast<double>(c.eval_calls) / nodes);
  // structure / logic
  push(static_cast<double>(c.functions) / nodes);
  push(safe_div(static_cast<double>(c.function_params),
                static_cast<double>(c.functions)));
  push(safe_div(static_cast<double>(c.iife),
                static_cast<double>(c.functions)));
  push(static_cast<double>(c.try_statements) / nodes);
  push(static_cast<double>(c.throw_statements) / nodes);
  push(c.with_statements > 0 ? 1.0 : 0.0);
  push(static_cast<double>(c.regex_literals) / nodes);
  push(static_cast<double>(c.template_literals) / nodes);
  push(static_cast<double>(c.debugger_statements) / nodes);
  push(safe_div(static_cast<double>(c.debugger_in_loop_or_function),
                static_cast<double>(c.debugger_statements)));
  push(static_cast<double>(c.labeled) / nodes);
  push(static_cast<double>(c.switches) / nodes);
  push(safe_div(static_cast<double>(c.switch_cases),
                static_cast<double>(c.switches)));
  push(safe_div(static_cast<double>(c.switch_in_loop),
                static_cast<double>(std::max<std::size_t>(c.functions, 1))));
  push(static_cast<double>(c.infinite_loops) / nodes);
  push(static_cast<double>(c.if_statements) / nodes);
  // arrays / objects
  push(safe_div(static_cast<double>(c.array_elements_total),
                static_cast<double>(c.arrays)));
  push(log1p_scaled(static_cast<double>(c.large_arrays)));
  push(static_cast<double>(c.empty_arrays) / nodes);
  push(safe_div(static_cast<double>(c.object_properties_total),
                static_cast<double>(c.objects)));
  push(static_cast<double>(c.large_arrays) / nodes);
  // declarations
  push(static_cast<double>(c.var_declarations) / lines);
  push(safe_div(static_cast<double>(c.declarators),
                static_cast<double>(c.var_declarations)));
  // unary
  push(static_cast<double>(c.unary_bang_plus) / nodes);
  push(static_cast<double>(c.unary_total) / nodes);
  // tokens
  push(static_cast<double>(punctuators) / token_count);
  push(token_length_total / token_count);
  push(token_count / bytes);
  // control flow
  push(static_cast<double>(analysis.control_flow.edge_count()) / nodes);
  push(safe_div(static_cast<double>(analysis.control_flow.branch_node_count()),
                static_cast<double>(
                    std::max<std::size_t>(analysis.control_flow.edge_count(), 1))));
  push(safe_div(static_cast<double>(analysis.control_flow.back_edge_count()),
                static_cast<double>(
                    std::max<std::size_t>(analysis.control_flow.edge_count(), 1))));
  // data flow
  push(static_cast<double>(analysis.data_flow.edge_count()) / nodes);
  push(safe_div(static_cast<double>(analysis.data_flow.unresolved_uses),
                use_count + static_cast<double>(analysis.data_flow.unresolved_uses)));
  push(static_cast<double>(structure_uses) / use_count);
  push(safe_div(static_cast<double>(total_uses),
                static_cast<double>(std::max<std::size_t>(bindings_with_uses, 1))));
  push(static_cast<double>(c.self_defense_markers) / nodes);
}

}  // namespace jst::features
