// Product-key helpers shared between the sequential checker (checker.cpp)
// and the parallel safety-prefix scan (parallel.cpp). Not part of the public
// API.
#pragma once

#include <cstdint>

#include "src/omega/det_omega.hpp"

namespace mph::fts::detail {

/// 64-bit product keys: state-graph node in the high half, automaton state
/// in the low half.
constexpr std::uint64_t pack(std::size_t n, omega::State q) {
  return (static_cast<std::uint64_t>(n) << 32) | q;
}
constexpr std::size_t node_of(std::uint64_t key) { return key >> 32; }
constexpr omega::State aut_of(std::uint64_t key) {
  return static_cast<omega::State>(key & 0xffffffffu);
}

}  // namespace mph::fts::detail
