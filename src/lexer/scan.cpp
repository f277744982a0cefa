// SWAR block scanners: each find_* processes 8 bytes per 64-bit word
// (support/swar.h) and finishes the last size % 8 bytes with a
// byte-at-a-time loop over the same stop set. test_lexer_diff checks
// every scanner against a byte-at-a-time reference.
#include "lexer/scan.h"

#include "lexer/char_class.h"
#include "support/swar.h"

namespace jst::lex {
namespace {

using support::swar::broadcast;
using support::swar::eq_bytes;
using support::swar::first_marked;
using support::swar::high_bytes;
using support::swar::kHigh;
using support::swar::load;
using support::swar::range7;
using support::swar::Word;

inline unsigned char uc(char c) { return static_cast<unsigned char>(c); }

inline std::size_t stop_index(std::size_t from, Word stop) {
  return from + static_cast<std::size_t>(first_marked(stop));
}

// High-bit mask of identifier-continuation bytes. Bytes >= 0x80 continue
// unconditionally, so the 7-bit range/equality terms may alias into the
// high half harmlessly ('_' 0x5f also matching 0xdf is absorbed by the
// high_bytes() term).
inline Word id_continue_mask(Word x) {
  const Word x7 = x & ~kHigh;
  return high_bytes(x) | range7(x7, '0', '9') |
         range7(x7 | broadcast(0x20), 'a', 'z') | eq_bytes(x7, '_') |
         eq_bytes(x7, '$');
}

}  // namespace

ScanPolicy scan_policy() { return ScanPolicy::kSwar; }

std::string_view scan_policy_name(ScanPolicy) { return "swar"; }

std::size_t find_id_end(const char* data, std::size_t size, std::size_t from) {
  for (; from + 8 <= size; from += 8) {
    const Word stop = ~id_continue_mask(load(data + from)) & kHigh;
    if (stop != 0) return stop_index(from, stop);
  }
  while (from < size && is_id_part_byte(uc(data[from]))) ++from;
  return from;
}

std::size_t find_ws_end(const char* data, std::size_t size, std::size_t from) {
  for (; from + 8 <= size; from += 8) {
    const Word x = load(data + from);
    const Word ws = eq_bytes(x, ' ') | eq_bytes(x, '\t') | eq_bytes(x, '\v') |
                    eq_bytes(x, '\f') | eq_bytes(x, '\r');
    const Word stop = ~ws & kHigh;
    if (stop != 0) return stop_index(from, stop);
  }
  while (from < size && has_flag(uc(data[from]), kFlagWhitespace)) ++from;
  return from;
}

std::size_t find_line_end(const char* data, std::size_t size,
                          std::size_t from) {
  for (; from + 8 <= size; from += 8) {
    const Word x = load(data + from);
    const Word stop = eq_bytes(x, '\n') | eq_bytes(x, '\r');
    if (stop != 0) return stop_index(from, stop);
  }
  while (from < size && !is_line_terminator_byte(uc(data[from]))) ++from;
  return from;
}

std::size_t find_string_end(const char* data, std::size_t size,
                            std::size_t from, char quote) {
  for (; from + 8 <= size; from += 8) {
    const Word x = load(data + from);
    const Word stop = eq_bytes(x, uc(quote)) | eq_bytes(x, '\\') |
                      eq_bytes(x, '\n') | eq_bytes(x, '\r');
    if (stop != 0) return stop_index(from, stop);
  }
  for (; from < size; ++from) {
    const char c = data[from];
    if (c == quote || c == '\\' || c == '\n' || c == '\r') break;
  }
  return from;
}

std::size_t find_template_end(const char* data, std::size_t size,
                              std::size_t from) {
  for (; from + 8 <= size; from += 8) {
    const Word x = load(data + from);
    const Word stop = eq_bytes(x, '`') | eq_bytes(x, '\\') |
                      eq_bytes(x, '$') | eq_bytes(x, '\n');
    if (stop != 0) return stop_index(from, stop);
  }
  for (; from < size; ++from) {
    const char c = data[from];
    if (c == '`' || c == '\\' || c == '$' || c == '\n') break;
  }
  return from;
}

std::size_t find_block_comment_end(const char* data, std::size_t size,
                                   std::size_t from) {
  for (; from + 8 <= size; from += 8) {
    const Word x = load(data + from);
    const Word stop = eq_bytes(x, '*') | eq_bytes(x, '\n');
    if (stop != 0) return stop_index(from, stop);
  }
  while (from < size && data[from] != '*' && data[from] != '\n') ++from;
  return from;
}

}  // namespace jst::lex
