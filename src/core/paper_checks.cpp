#include "src/core/paper_checks.hpp"

#include "src/omega/graph.hpp"
#include "src/support/check.hpp"

namespace mph::core::paper {

using omega::DetOmega;
using omega::State;
using omega::StreettPair;

namespace {

/// G = ⋂ᵢ (Rᵢ ∪ Pᵢ) as a membership mask.
std::vector<bool> good_states(const DetOmega& m, const std::vector<StreettPair>& pairs) {
  MPH_REQUIRE(!pairs.empty(), "at least one Streett pair required");
  std::vector<bool> g(m.state_count(), true);
  for (const auto& pair : pairs) {
    std::vector<bool> in(m.state_count(), false);
    for (State q : pair.r) {
      MPH_REQUIRE(q < m.state_count(), "pair state out of range");
      in[q] = true;
    }
    for (State q : pair.p) {
      MPH_REQUIRE(q < m.state_count(), "pair state out of range");
      in[q] = true;
    }
    for (State q = 0; q < m.state_count(); ++q) g[q] = g[q] && in[q];
  }
  return g;
}

/// The printed §5.1 procedures are only sound for a single Streett pair
/// (erratum E6): with k ≥ 2, a loop of B-states can satisfy every pair
/// through different states.
void warn_if_multi_pair(std::size_t n_pairs, const char* which,
                        analysis::DiagnosticEngine* diagnostics) {
  if (!diagnostics || n_pairs < 2) return;
  auto& d = diagnostics->emit(
      "MPH-P001", std::string("literal ") + which + " check",
      "invoked with " + std::to_string(n_pairs) +
          " Streett pairs; the procedure as printed in §5.1 is unsound for k ≥ 2 "
          "(erratum E6) — its verdict may be wrong");
  d.fix_hint = "use core::classify, which decides every class exactly";
}

}  // namespace

bool literal_safety_check(const DetOmega& m, const std::vector<StreettPair>& pairs,
                          analysis::DiagnosticEngine* diagnostics) {
  warn_if_multi_pair(pairs.size(), "safety", diagnostics);
  auto g = good_states(m, pairs);
  std::vector<bool> b(m.state_count());
  for (State q = 0; q < m.state_count(); ++q) b[q] = !g[q];
  auto b_hat = omega::forward_closure(omega::to_graph(m), b);
  for (State q = 0; q < m.state_count(); ++q)
    if (b_hat[q] && g[q]) return false;
  return true;
}

bool literal_guarantee_check(const DetOmega& m, const std::vector<StreettPair>& pairs,
                             analysis::DiagnosticEngine* diagnostics) {
  warn_if_multi_pair(pairs.size(), "guarantee", diagnostics);
  auto g = good_states(m, pairs);
  auto g_hat = omega::forward_closure(omega::to_graph(m), g);
  for (State q = 0; q < m.state_count(); ++q)
    if (g_hat[q] && !g[q]) return false;
  return true;
}

}  // namespace mph::core::paper
