// Language inclusion for nondeterministic Büchi automata
// (docs/COMPLEMENT.md): L(A) ⊆ L(B) iff A ∩ comp(B) = ∅, with comp(B)
// driven on the fly through the SCC-decomposed ComplementEngine — only the
// complement macrostates the product actually reaches are ever built.
// Counterexample first: a bounded probe tests short lassos of A against B
// before any complement is built, and a lasso B rejects decides
// NotIncluded at once. Budget-governed: exhaustion answers Unknown, never a
// guess.
#pragma once

#include <cstdint>
#include <optional>

#include "src/omega/complement.hpp"
#include "src/omega/nba.hpp"

namespace mph::omega {

enum class InclusionVerdict : std::uint8_t { Included, NotIncluded, Unknown };

/// Stable lower-case names ("included", "not-included", "unknown").
std::string_view to_string(InclusionVerdict v);

struct InclusionOptions {
  Budget budget;
  ComplementAlgorithm algorithm = ComplementAlgorithm::Auto;
};

struct InclusionResult {
  InclusionVerdict verdict = InclusionVerdict::Unknown;
  Outcome outcome = Outcome::Complete;
  /// A word in L(A) ∖ L(B); engaged iff verdict is NotIncluded.
  std::optional<Lasso> counterexample;
  /// Candidate lassos of A tested against B before the product, at most
  /// detail::kMaxProbedLassos (32); when the probe decides, the product is
  /// never built.
  std::size_t lassos_probed = 0;
  /// Interned states of the A × comp(B) product.
  std::size_t product_states = 0;
  ComplementStats complement;
};

/// Decides L(a) ⊆ L(b). Alphabets must match.
InclusionResult included(const Nba& a, const Nba& b, const InclusionOptions& options = {});

}  // namespace mph::omega
