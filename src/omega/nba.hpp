// Nondeterministic Büchi automata — the target of the LTL tableau
// construction and the vehicle for semantic checks on arbitrary future
// formulae (safety/guarantee/liveness need only finitary determinization,
// never Safra; see DESIGN.md).
#pragma once

#include <optional>
#include <vector>

#include "src/lang/dfa.hpp"
#include "src/lang/nfa.hpp"
#include "src/omega/det_omega.hpp"
#include "src/support/budget.hpp"

namespace mph::omega {

class Nba {
 public:
  explicit Nba(lang::Alphabet alphabet);

  const lang::Alphabet& alphabet() const { return alphabet_; }
  std::size_t state_count() const { return edges_.size(); }

  State add_state();
  void add_edge(State from, Symbol on, State to);
  void add_initial(State q);
  void set_accepting(State q, bool accepting = true);
  bool accepting(State q) const;
  const std::vector<State>& initial_states() const { return initial_; }
  const std::vector<std::pair<Symbol, State>>& edges(State q) const;

  /// Nondeterministic acceptance of an ultimately periodic word, decided by
  /// a product with the lasso's shape.
  bool accepts(const Lasso& l) const;
  bool accepts_text(std::string_view lasso_text) const;

 private:
  lang::Alphabet alphabet_;
  std::vector<std::vector<std::pair<Symbol, State>>> edges_;
  std::vector<bool> accepting_;
  std::vector<State> initial_;
};

bool is_empty(const Nba& n);
std::optional<Lasso> accepting_lasso(const Nba& n);

/// Embeds a deterministic automaton with Büchi-shaped acceptance; requires
/// acceptance to be exactly Inf(m) for some mark m.
Nba to_nba(const DetOmega& m);

/// Product Büchi automaton for L(n) ∩ L(d) where d carries any acceptance
/// turned Büchi-checkable... (intersection with a *deterministic co-Büchi or
/// safety* right side keeps Büchi shape). Provided for the specific checks
/// in core: right side must have acceptance Fin(m) or t.
Nba intersect_with_cobuchi(const Nba& n, const DetOmega& d);

/// The NFA whose determinization is Pref(L(n)): n's states and edges, each
/// state accepting iff an accepting continuation exists from it, plus a
/// fresh initial state with ε-edges to n's initial states. Requires
/// state_count() > 0.
lang::Nfa pref_skeleton(const Nba& n);

/// Pref(L(n)) as a DFA: minimize(determinize(pref_skeleton(n))).
lang::Dfa pref(const Nba& n);

/// Budget-governed Pref: the state cap bounds the subsets materialized and
/// the deadline/stop token are polled during the construction, so the
/// (worst-case 2^n) determinization refuses instead of blowing up.
Budgeted<lang::Dfa> pref(const Nba& n, const Budget& budget);

}  // namespace mph::omega
