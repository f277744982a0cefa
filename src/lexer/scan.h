// Block scanners for the lexer's long homogeneous runs.
//
// Obfuscated inputs are pathologically lexer-heavy in a very particular
// way: kilobyte string blobs, identifier floods, comment walls — long
// spans where every byte is "boring" and only the first interesting byte
// (a quote, a backslash, a newline, the end of an identifier) matters.
// Each find_* function below answers exactly that simdjson-style
// question: given [from, size) of `data`, return the index of the first
// byte the scalar lexer must actually look at, or `size` when the run
// reaches the end of input.
//
// Each scanner reads 8 bytes per 64-bit word via support/swar.h, portable
// to any little-endian 64-bit target, and finishes the last size % 8
// bytes one at a time. The scanners only ever SKIP bytes — every
// classification decision, every line/column update, and all budget
// charging stay in the scalar lexer (DESIGN.md §16).
#pragma once

#include <cstddef>
#include <string_view>

namespace jst::lex {

// The benchmark's host fingerprint reports the lexer scan path through
// these two functions; SWAR is the only one, so they always say "swar".
enum class ScanPolicy : unsigned char {
  kSwar,
};

ScanPolicy scan_policy();

std::string_view scan_policy_name(ScanPolicy policy);

// --- the scanners -----------------------------------------------------
// All contracts: 0 <= from <= size, `data` valid for `size` bytes;
// returns the first index >= from whose byte is in the stop set, or
// `size` if the run covers the rest of the input.

// Identifier tail: first byte that is NOT an identifier continuation
// (continuations are [A-Za-z0-9_$] and every byte >= 0x80, matching the
// scalar lexer's UTF-8 passthrough).
std::size_t find_id_end(const char* data, std::size_t size, std::size_t from);

// Inline whitespace run: first byte not in {' ', '\t', '\v', '\f', '\r'}
// (never consumes '\n' — the trivia loop owns newline_pending_).
std::size_t find_ws_end(const char* data, std::size_t size, std::size_t from);

// Line comment / HTML-open-comment body: first '\n' or '\r'.
std::size_t find_line_end(const char* data, std::size_t size,
                          std::size_t from);

// String payload: first occurrence of `quote`, '\\', '\n', or '\r' —
// everything before it is escape-free payload the dirty-flag slicing
// keeps as a zero-copy view.
std::size_t find_string_end(const char* data, std::size_t size,
                            std::size_t from, char quote);

// Template payload: first '`', '\\', '$', or '\n' (newlines are legal in
// templates but advance the line counter, so the scalar loop takes over).
std::size_t find_template_end(const char* data, std::size_t size,
                              std::size_t from);

// Block comment body: first '*' or '\n'.
std::size_t find_block_comment_end(const char* data, std::size_t size,
                                   std::size_t from);

}  // namespace jst::lex
