// The binary operators and their ES-spec precedence tiers: the one list the
// parser's precedence climbing and codegen's parenthesization both read.
#pragma once

#include <array>
#include <string_view>

namespace jst {

struct BinaryOperator {
  std::string_view text;
  int tier;  // higher binds tighter
};

// Spec tiers, loosest first: ShortCircuit (`??`), LogicalOR, LogicalAND,
// BitwiseOR, BitwiseXOR, BitwiseAND, Equality, Relational (`in` and
// `instanceof` included), Shift, Additive, Multiplicative, Exponentiation.
// Tiers up to kLastLogicalTier build LogicalExpression nodes; `**` is the
// only right-associative operator.
inline constexpr std::array<BinaryOperator, 25> kBinaryOperators = {{
    {"??", 1},  {"||", 2},  {"&&", 3},  {"|", 4},   {"^", 5},
    {"&", 6},   {"==", 7},  {"!=", 7},  {"===", 7}, {"!==", 7},
    {"<", 8},   {">", 8},   {"<=", 8},  {">=", 8},  {"in", 8},
    {"instanceof", 8},      {"<<", 9},  {">>", 9},  {">>>", 9},
    {"+", 10},  {"-", 10},  {"*", 11},  {"/", 11},  {"%", 11},
    {"**", 12},
}};
inline constexpr int kLastLogicalTier = 3;

// Tier of a binary operator spelling; 0 when `text` is not one.
constexpr int binary_operator_tier(std::string_view text) {
  for (const BinaryOperator& op : kBinaryOperators) {
    if (op.text == text) return op.tier;
  }
  return 0;
}

}  // namespace jst
