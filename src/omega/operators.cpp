#include "src/omega/operators.hpp"

#include <algorithm>

#include "src/lang/dfa_ops.hpp"
#include "src/lang/finitary_ops.hpp"
#include "src/omega/emptiness.hpp"
#include "src/omega/graph.hpp"
#include "src/support/check.hpp"

namespace mph::omega {

DetOmega op_a(const lang::Dfa& phi) {
  // Mirror Φ's structure; any transition into a rejecting Φ-state (i.e. a
  // non-empty prefix outside Φ) is redirected to an absorbing dead sink
  // carrying mark 0. Acceptance: Fin(0).
  const std::size_t n = phi.state_count();
  const State sink = static_cast<State>(n);
  DetOmega out(phi.alphabet(), n + 1, phi.initial(), Acceptance::co_buchi(0));
  for (State q = 0; q < n; ++q)
    for (Symbol s = 0; s < phi.alphabet().size(); ++s) {
      State t = phi.next(q, s);
      out.set_transition(q, s, phi.accepting(t) ? t : sink);
    }
  for (Symbol s = 0; s < phi.alphabet().size(); ++s) out.set_transition(sink, s, sink);
  out.add_mark(sink, 0);
  return out;
}

DetOmega op_e(const lang::Dfa& phi) {
  // Any transition into an accepting Φ-state jumps to an absorbing good
  // state carrying mark 0. Acceptance: Inf(0).
  const std::size_t n = phi.state_count();
  const State top = static_cast<State>(n);
  DetOmega out(phi.alphabet(), n + 1, phi.initial(), Acceptance::buchi(0));
  for (State q = 0; q < n; ++q)
    for (Symbol s = 0; s < phi.alphabet().size(); ++s) {
      State t = phi.next(q, s);
      out.set_transition(q, s, phi.accepting(t) ? top : t);
    }
  for (Symbol s = 0; s < phi.alphabet().size(); ++s) out.set_transition(top, s, top);
  out.add_mark(top, 0);
  return out;
}

DetOmega op_r(const lang::Dfa& phi) {
  // Run Φ forever; accept iff accepting Φ-states recur. Acceptance: Inf(0).
  DetOmega out(phi.alphabet(), phi.state_count(), phi.initial(), Acceptance::buchi(0));
  for (State q = 0; q < phi.state_count(); ++q) {
    if (phi.accepting(q)) out.add_mark(q, 0);
    for (Symbol s = 0; s < phi.alphabet().size(); ++s) out.set_transition(q, s, phi.next(q, s));
  }
  return out;
}

DetOmega op_p(const lang::Dfa& phi) {
  // Run Φ forever; accept iff rejecting Φ-states eventually stop recurring.
  // Acceptance: Fin(0) with mark 0 on rejecting states.
  DetOmega out(phi.alphabet(), phi.state_count(), phi.initial(), Acceptance::co_buchi(0));
  for (State q = 0; q < phi.state_count(); ++q) {
    if (!phi.accepting(q)) out.add_mark(q, 0);
    for (Symbol s = 0; s < phi.alphabet().size(); ++s) out.set_transition(q, s, phi.next(q, s));
  }
  return out;
}

DetOmega safety_closure(const DetOmega& m) { return op_a(pref(m)); }

bool is_liveness(const DetOmega& m) {
  // Pref(Π) = Σ⁺ iff every reachable state has a non-empty residual.
  const MarkedGraph g = to_graph(m);
  const auto reach = graph_reachable(g);
  const auto live = live_states(g, m.acceptance());
  for (State q = 0; q < m.state_count(); ++q)
    if (reach[q] && !live[q]) return false;
  return true;
}

DetOmega liveness_extension(const DetOmega& m) {
  lang::Dfa dead = lang::complement_nonepsilon(pref(m));
  return union_of(m, op_e(dead));
}

void apply_streett_pairs(DetOmega& m, const std::vector<StreettPair>& pairs) {
  MPH_REQUIRE(!pairs.empty(), "at least one Streett pair required");
  MPH_REQUIRE(pairs.size() <= 32, "at most 32 Streett pairs supported");
  for (State q = 0; q < m.state_count(); ++q) m.clear_marks(q);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    for (State q : pairs[i].r) m.add_mark(q, static_cast<Mark>(2 * i));
    std::vector<bool> in_p(m.state_count(), false);
    for (State q : pairs[i].p) {
      MPH_REQUIRE(q < m.state_count(), "streett pair state out of range");
      in_p[q] = true;
    }
    for (State q = 0; q < m.state_count(); ++q)
      if (!in_p[q]) m.add_mark(q, static_cast<Mark>(2 * i + 1));
  }
  m.set_acceptance(Acceptance::streett(pairs.size()));
}

}  // namespace mph::omega
