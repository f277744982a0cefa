// Portable SWAR (SIMD-within-a-register) byte-scanning primitives.
//
// The lexer's block scanners (lexer/scan.h) process 8 source bytes per
// 64-bit word with the classic zero-/range-detection bit tricks from
// Hacker's Delight: each helper returns a word whose per-byte HIGH BIT is
// set exactly for the bytes matching the predicate, so a scanner ORs the
// masks for its stop set, inverts for "run continues", and converts the
// first marked byte to an index with a single count-trailing-zeros.
//
// Every helper is branch-free and exact (no false positives from borrow
// propagation): correctness is asserted byte-for-byte against the scalar
// predicates by test_lexer_diff and the static_asserts below.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>

namespace jst::support::swar {

using Word = std::uint64_t;

inline constexpr Word kOnes = 0x0101010101010101ull;  // 1 in every byte
inline constexpr Word kHigh = 0x8080808080808080ull;  // high bit of every byte

// Unaligned little-endian load of 8 bytes (memcpy compiles to one MOV).
inline Word load(const char* p) {
  Word w;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

// Broadcasts one byte to all 8 lanes.
inline constexpr Word broadcast(unsigned char c) {
  return kOnes * static_cast<Word>(c);
}

// High bit set in every byte of `x` that equals zero. This is the EXACT
// form: `(x & 0x7f..) + 0x7f..` sets a byte's high bit iff its low seven
// bits are non-zero, and the sum never carries across lanes, so — unlike
// the cheaper `(x - kOnes) & ~x & kHigh`, whose borrows chain through
// 0x00/0x01 runs and plant false positives in higher lanes — every
// reported lane really is zero. The scanners rely on that: a false match
// here would silently extend an identifier or split a string payload.
inline constexpr Word zero_bytes(Word x) {
  return ~(((x & ~kHigh) + ~kHigh) | x | ~kHigh);
}

// High bit set in every byte of `x` that equals `c`.
inline constexpr Word eq_bytes(Word x, unsigned char c) {
  return zero_bytes(x ^ broadcast(c));
}

// High bit set in every byte whose own high bit is set (>= 0x80).
inline constexpr Word high_bytes(Word x) { return x & kHigh; }

// High bit set in every byte of `x7` lying in [lo, hi]. REQUIRES all
// bytes of `x7` < 0x80 (mask with `x & ~kHigh` first) and lo <= hi < 0x80:
// under those bounds neither addition can carry nor subtraction borrow
// across lanes, so the masks are exact per byte.
inline constexpr Word range7(Word x7, unsigned char lo, unsigned char hi) {
  const Word ge = ((x7 | kHigh) - broadcast(lo)) & kHigh;  // x7 >= lo
  const Word le = ((broadcast(hi) | kHigh) - x7) & kHigh;  // x7 <= hi
  return ge & le;
}

// Index (0-7) of the least-significant marked byte. `mask` must be
// non-zero and only carry per-byte high bits (little-endian byte order:
// byte 0 is the lowest-addressed source byte).
inline int first_marked(Word mask) { return std::countr_zero(mask) >> 3; }

// load() + first_marked() map the lowest-addressed byte to the lowest
// lane; on a big-endian target every scanner would return wrong offsets.
static_assert(std::endian::native == std::endian::little,
              "SWAR scanners assume a little-endian byte order");

// --- compile-time self-checks on a few adversarial lanes ---
static_assert(zero_bytes(0x0000000000000000ull) == kHigh);
static_assert(zero_bytes(0x0101010101010101ull) == 0);
static_assert(zero_bytes(0xff00810001800100ull) ==
              0x0080008000000080ull);  // 0x00/0x01 runs: no false lanes
static_assert(eq_bytes(0x666564635e5f6261ull /* "ab_^cdef" LE */, '_') ==
              0x0000000000800000ull);  // '^' right after '_' not flagged
static_assert(eq_bytes(broadcast('"'), '"') == kHigh);
static_assert(range7(broadcast('5') & ~kHigh, '0', '9') == kHigh);
static_assert(range7(broadcast('/') & ~kHigh, '0', '9') == 0);
static_assert(range7(broadcast(':') & ~kHigh, '0', '9') == 0);

}  // namespace jst::support::swar
