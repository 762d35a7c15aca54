// The two stages of omega::included, each callable on its own so that the
// nba-inclusion fuzz oracle can hold them against each other and against a
// lasso sweep (docs/COMPLEMENT.md, "Inclusion: counterexample first").
// Library callers use omega::included.
#pragma once

#include <cstddef>
#include <optional>

#include "src/omega/inclusion.hpp"

namespace mph::omega::detail {

/// How many candidate lassos the separating-lasso probe tests, at most,
/// before the complement product takes over. Fixed: no option sets it.
inline constexpr std::size_t kMaxProbedLassos = 32;

struct ProbeResult {
  /// A lasso in L(a) ∖ L(b), when one of the candidates separates.
  std::optional<Lasso> separating;
  /// Candidates tested, i.e. calls to b.accepts (≤ kMaxProbedLassos).
  std::size_t probed = 0;
  /// Complete unless the budget's deadline or stop token ended the probe.
  Outcome outcome = Outcome::Complete;
};

/// Stage 1: tests short lassos from a's own accepting runs against b. Each
/// candidate is u·v^ω where u is a breadth-first access word to a live
/// a-state q and v a loop of length 1 or 2 from q back to q through an
/// accepting state, so a accepts it by construction. Candidates go in a
/// fixed order: loop length, then access depth, then edge order.
ProbeResult probe_separating_lasso(const Nba& a, const Nba& b, const Budget& budget);

/// Stage 2: decides L(a) ⊆ L(b) through the on-the-fly A × comp(B)
/// product alone, with no probe (lassos_probed stays 0).
InclusionResult included_by_complement(const Nba& a, const Nba& b,
                                       const InclusionOptions& options);

}  // namespace mph::omega::detail
