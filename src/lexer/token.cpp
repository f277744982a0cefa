#include "lexer/token.h"

namespace jst {

static_assert(token_id("{") == 1 && token_id("?.") == kFirstKeywordId - 1,
              "punctuators occupy [1, kFirstKeywordId)");
static_assert(token_id("do") == kFirstKeywordId &&
                  token_id("instanceof") == kFirstLiteralWordId - 1,
              "keywords occupy [kFirstKeywordId, kFirstLiteralWordId)");
static_assert(token_id("true") == kFirstLiteralWordId &&
                  token_id("null") == kFirstContextualId - 1,
              "literal words occupy [kFirstLiteralWordId, kFirstContextualId)");
static_assert(token_id("static") == kTokenTexts.size() - 1,
              "contextual words close the table");

std::string_view token_type_name(TokenType type) {
  switch (type) {
    case TokenType::kIdentifier: return "Identifier";
    case TokenType::kKeyword: return "Keyword";
    case TokenType::kBooleanLiteral: return "Boolean";
    case TokenType::kNullLiteral: return "Null";
    case TokenType::kNumericLiteral: return "Numeric";
    case TokenType::kStringLiteral: return "String";
    case TokenType::kTemplate: return "Template";
    case TokenType::kRegularExpression: return "RegularExpression";
    case TokenType::kPunctuator: return "Punctuator";
    case TokenType::kEndOfFile: return "EOF";
  }
  return "Unknown";
}

std::string_view TokenStream::value(const TokenRecord& token) const {
  if (token.has_payload) return payload(token).value;
  switch (token.type) {
    case TokenType::kPunctuator:
      return kTokenTexts[token.id];
    case TokenType::kStringLiteral:  // the text between the quotes
      return std::string_view(source.data() + token.offset + 1,
                              token.extent - 2);
    case TokenType::kEndOfFile:
      return {};
    default:
      return raw(token);
  }
}

std::size_t TokenStream::column(const TokenRecord& token) const {
  if (token.offset == 0) return 0;
  const std::size_t newline = source.rfind('\n', token.offset - 1);
  return newline == std::string_view::npos ? token.offset
                                           : token.offset - newline - 1;
}

}  // namespace jst
