// A second, full-enumeration LTL tableau for the tableau-vs-reference
// oracle: every locally consistent (assignment, counter) pair becomes a
// state, reachable or not, and every step-consistent pair of assignments is
// found by scanning all pairs. It shares nothing with ltl::to_nba's forward
// expansion but the closure and NNF; reference_trim() then cuts it down to
// the reachable, live part with a naive per-state search, so ltl::to_nba is
// never its own reference.
#pragma once

#include <optional>
#include <string>

#include "src/lang/alphabet.hpp"
#include "src/ltl/ast.hpp"
#include "src/omega/nba.hpp"
#include "src/support/budget.hpp"

namespace mph::fuzz {

/// The full tableau of future formula f: state (a, c) is numbered
/// a·k + c over the 2^free assignments a and the k until counters, edges
/// are listed per source by (target, symbol). The state cap counts states
/// as they are added; on exhaustion `value` is empty. Past operators and
/// closures over 12 free subformulas throw std::invalid_argument.
Budgeted<omega::Nba> reference_tableau(const ltl::Formula& f, const lang::Alphabet& alphabet,
                                       const Budget& budget);

/// n restricted to the states that are reachable from an initial state and
/// reach an accepting state lying on a cycle, renumbered in their original
/// order; edge lists keep their order.
omega::Nba reference_trim(const omega::Nba& n);

/// The first difference between two NBAs — state count, initial list, an
/// accepting bit or an edge list — or nullopt when they agree.
std::optional<std::string> nba_mismatch(const omega::Nba& want, const omega::Nba& got);

}  // namespace mph::fuzz
