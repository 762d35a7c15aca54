// A second, naive subset construction for the dfa-product-laws oracle:
// std::set subsets keyed in a std::map, each subset × symbol rescanning
// every edge of every member, sharing none of lang::determinize's CSR
// successor lists, mark array or flat interner. dfa_mismatch() compares the
// two cell for cell, so the Pref determinization under the Safra-free
// classification path is never its own reference.
#pragma once

#include <optional>
#include <string>

#include "src/lang/dfa.hpp"
#include "src/lang/nfa.hpp"
#include "src/support/budget.hpp"

namespace mph::fuzz {

/// The reachable subset DFA with subsets numbered in BFS interning order
/// (the order lang::determinize promises), admitting each new subset
/// against the budget's state cap and polling the deadline once per
/// expanded subset; on exhaustion `value` is empty.
Budgeted<lang::Dfa> reference_determinize(const lang::Nfa& n, const Budget& budget);

/// The first difference between two DFAs — state count, initial state,
/// an accepting bit or a transition cell — or nullopt when they agree.
std::optional<std::string> dfa_mismatch(const lang::Dfa& want, const lang::Dfa& got);

}  // namespace mph::fuzz
