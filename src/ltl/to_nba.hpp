// Future LTL → nondeterministic Büchi automata, via the classical
// self-consistent-assignment tableau built on the fly (Gerth–Peled–Vardi–
// Wolper style): states are (assignment, counter) pairs — truth assignments
// to the formula's closure, with a counter degeneralizing the Büchi
// obligation of each Until — and transitions respect the one-step
// expansion laws of U/R/X. Only the pairs reachable from the initial
// assignments are expanded, and only those that can still reach an
// accepting cycle are kept: the expanded pairs form an omega::MarkedGraph
// (accepting pairs carry mark 0) and omega::live_states picks the survivors.
//
// Used for semantic checks on arbitrary future formulae (safety, guarantee,
// liveness — see semantic.hpp) and for model checking; the deterministic
// pipeline for hierarchy-form formulae lives in hierarchy.hpp.
#pragma once

#include "src/lang/alphabet.hpp"
#include "src/ltl/ast.hpp"
#include "src/omega/nba.hpp"
#include "src/support/budget.hpp"

namespace mph::ltl {

/// Builds an NBA accepting exactly the models of f. f must be a future
/// formula (no past operators); the closure is capped (REQUIRE ≤ 12 free
/// subformulas after NNF) because states range over its subsets.
///
/// The result is trim: every state is reachable from an initial state and
/// reaches an accepting cycle. States are numbered in the order of the full
/// tableau — by assignment (its free subformulas' values read as a binary
/// number, first subformula lowest), then counter — and each state's edges
/// are listed by (target, symbol). An unsatisfiable formula (p ∧ ¬p,
/// □◇p ∧ ◇□¬p) gets the empty NBA: no states, no initial states.
omega::Nba to_nba(const Formula& f, const lang::Alphabet& alphabet);

/// Budget-governed tableau expansion: the state cap counts the
/// (assignment, counter) pairs as the forward expansion discovers them —
/// reachable ones only, before dead ones are dropped — and the
/// deadline/cancellation are polled once per expanded pair. Structural
/// errors (past operators, closure over the 12-free-subformula cap) still
/// throw std::invalid_argument; only budget exhaustion is reported through
/// `outcome` (docs/BUDGETS.md).
Budgeted<omega::Nba> to_nba(const Formula& f, const lang::Alphabet& alphabet,
                            const Budget& budget);

/// Negation normal form over {∧,∨,X,U,R} with negations on atoms only.
/// F/G/W/→/↔ are expanded; past operators are rejected.
Formula to_nnf(const Formula& f);

}  // namespace mph::ltl
