// Removes the wall-clock `"timing":{...},` objects from outcome JSON, so
// two runs of the same batch compare byte for byte. The frontend golden
// fixture was normalized this way.
#pragma once

#include <string>
#include <string_view>

namespace jst {

// Erases every `"timing":{` ... `},` span that has no '}' inside the braces
// (the timing object is flat), scanning left to right past each erasure.
inline std::string strip_timing(std::string json) {
  constexpr std::string_view kOpen = "\"timing\":{";
  std::size_t from = 0;
  while ((from = json.find(kOpen, from)) != std::string::npos) {
    const std::size_t close = json.find('}', from + kOpen.size());
    if (close == std::string::npos) break;
    if (close + 1 < json.size() && json[close + 1] == ',') {
      json.erase(from, close + 2 - from);
    } else {
      ++from;
    }
  }
  return json;
}

}  // namespace jst
