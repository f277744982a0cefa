// Binary stream primitives for the versioned model encodings.
//
// The text serialization (whitespace-separated decimals, lossless float
// round-trip via precision(17)) stays the readable interchange format;
// the binary encoding exists because formatting/parsing ~20 bytes of
// node as ~60 bytes of decimal text dominates save/load for forest-sized
// models. Fixed-width little-endian fields, no alignment padding. Every
// reader throws ModelError on truncation, so a corrupt or mis-tagged
// stream fails loudly instead of yielding a half-loaded model.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <span>
#include <vector>

#include "support/error.h"

namespace jst::ml::codec {

static_assert(std::endian::native == std::endian::little,
              "binary model encoding assumes a little-endian host");

inline void write_u64(std::ostream& out, std::uint64_t value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

inline std::uint64_t read_u64(std::istream& in, const char* what) {
  std::uint64_t value = 0;
  if (!in.read(reinterpret_cast<char*>(&value), sizeof(value))) {
    throw ModelError(std::string("model load: truncated binary stream (") +
                     what + ")");
  }
  return value;
}

template <typename T>
void write_array(std::ostream& out, std::span<const T> values) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.write(reinterpret_cast<const char*>(values.data()),
            static_cast<std::streamsize>(values.size() * sizeof(T)));
}

template <typename T>
void read_array(std::istream& in, std::span<T> values, const char* what) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (!in.read(reinterpret_cast<char*>(values.data()),
               static_cast<std::streamsize>(values.size() * sizeof(T)))) {
    throw ModelError(std::string("model load: truncated binary stream (") +
                     what + ")");
  }
}

// Reads `count` elements into `values`, growing it chunk by chunk as the
// bytes arrive: a count patched past the stream's size fails as a
// truncation instead of allocating `count` elements up front.
template <typename T>
void read_vector(std::istream& in, std::uint64_t count, std::vector<T>& values,
                 const char* what) {
  constexpr std::uint64_t kChunk = 4096;
  values.clear();
  while (values.size() < count) {
    const std::size_t at = values.size();
    values.resize(at + static_cast<std::size_t>(std::min(count - at, kChunk)));
    read_array<T>(in, std::span<T>(values).subspan(at), what);
  }
}

// Consumes one expected whitespace byte after a text token so binary
// payloads that follow a `<<`-written tag start at an exact offset.
inline void skip_separator(std::istream& in) {
  const int c = in.get();
  if (c != ' ' && c != '\n') {
    throw ModelError("model load: malformed binary stream (missing separator)");
  }
}

}  // namespace jst::ml::codec
