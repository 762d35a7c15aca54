#include "src/core/classify.hpp"

#include "src/lang/dfa_ops.hpp"
#include "src/omega/emptiness.hpp"
#include "src/omega/graph.hpp"
#include "src/omega/operators.hpp"
#include "src/support/check.hpp"

namespace mph::core {

using omega::Acceptance;
using omega::DetOmega;

std::string to_string(PropertyClass c) {
  switch (c) {
    case PropertyClass::Safety:
      return "safety";
    case PropertyClass::Guarantee:
      return "guarantee";
    case PropertyClass::Obligation:
      return "obligation";
    case PropertyClass::Recurrence:
      return "recurrence";
    case PropertyClass::Persistence:
      return "persistence";
    case PropertyClass::Reactivity:
      return "reactivity";
  }
  MPH_ASSERT(false);
}

bool Classification::is(PropertyClass c) const {
  switch (c) {
    case PropertyClass::Safety:
      return safety;
    case PropertyClass::Guarantee:
      return guarantee;
    case PropertyClass::Obligation:
      return obligation;
    case PropertyClass::Recurrence:
      return recurrence;
    case PropertyClass::Persistence:
      return persistence;
    case PropertyClass::Reactivity:
      return true;
  }
  MPH_ASSERT(false);
}

PropertyClass Classification::lowest() const {
  if (safety) return PropertyClass::Safety;
  if (guarantee) return PropertyClass::Guarantee;
  if (obligation) return PropertyClass::Obligation;
  if (recurrence) return PropertyClass::Recurrence;
  if (persistence) return PropertyClass::Persistence;
  return PropertyClass::Reactivity;
}

std::string Classification::describe() const {
  std::string out = to_string(lowest());
  std::string also;
  auto add = [&](bool member, PropertyClass c) {
    if (member && c != lowest()) also += (also.empty() ? "" : ", ") + to_string(c);
  };
  add(safety, PropertyClass::Safety);
  add(guarantee, PropertyClass::Guarantee);
  add(obligation, PropertyClass::Obligation);
  add(recurrence, PropertyClass::Recurrence);
  add(persistence, PropertyClass::Persistence);
  if (lowest() != PropertyClass::Reactivity) also += (also.empty() ? "" : ", ") + std::string("reactivity");
  if (!also.empty()) out += " (also " + also + ")";
  if (liveness) out += "; liveness";
  return out;
}

namespace {

/// Landweber's test: L(m) is a recurrence (G_δ / det-Büchi) property iff the
/// family of accepting loops is closed under accessible supersets —
/// equivalently, no *rejecting* loop contains an accepting loop.
///
/// A rejecting loop satisfies some clause of DNF(¬acc): it avoids every
/// `avoid`-marked state and visits every `require` mark. A violating pair
/// (accepting J ⊆ rejecting A) can always be fattened so that A is a full
/// SCC of the graph with avoid-marked states removed: growing a rejecting
/// loop inside that subgraph keeps its clause satisfied. So it suffices to
/// scan, per clause, the SCCs of the restricted reachable graph for one that
/// carries all required marks and still contains an accepting loop.
bool landweber_recurrence(const DetOmega& m) {
  const omega::MarkedGraph g = omega::to_graph(m);
  const auto reach = omega::graph_reachable(g);
  const auto clauses = m.acceptance().negate().dnf();
  for (const auto& clause : clauses) {
    std::vector<bool> allowed(g.size(), false);
    for (omega::State q = 0; q < g.size(); ++q)
      allowed[q] = reach[q] && (g.marks[q] & clause.avoid) == 0;
    for (const auto& scc : omega::nontrivial_sccs(g, allowed)) {
      omega::MarkSet present = 0;
      for (omega::State q : scc) present |= g.marks[q];
      if ((present & clause.require) != clause.require) continue;
      // Probe the sub-graph induced by this SCC for an accepting loop.
      const omega::MarkedGraph sub = omega::induced_subgraph(g, scc);
      if (omega::find_good_loop(sub, m.acceptance()).has_value()) return false;
    }
  }
  return true;
}

}  // namespace

bool is_safety(const DetOmega& m) { return omega::equivalent(m, omega::safety_closure(m)); }

bool is_guarantee(const DetOmega& m) { return is_safety(omega::complement(m)); }

bool is_recurrence(const DetOmega& m) { return landweber_recurrence(m); }

bool is_persistence(const DetOmega& m) { return landweber_recurrence(omega::complement(m)); }

bool is_obligation(const DetOmega& m) { return is_recurrence(m) && is_persistence(m); }

Classification classify(const DetOmega& m) {
  Classification c;
  c.safety = is_safety(m);
  c.guarantee = is_guarantee(m);
  c.recurrence = c.safety || c.guarantee || is_recurrence(m);
  c.persistence = c.safety || c.guarantee || is_persistence(m);
  c.obligation = c.recurrence && c.persistence;
  c.liveness = omega::is_liveness(m);
  return c;
}

NbaClassification classify_nba(const omega::Nba& property, const omega::Nba& negation,
                               const Budget& budget) {
  MPH_REQUIRE(property.alphabet() == negation.alphabet(),
              "classify_nba needs automata over one alphabet");
  NbaClassification out;
  // Safety: Π ⊆ A(Pref Π), i.e. ¬Π ∩ A(Pref Π) = ∅ (the closure contains Π
  // by construction, so inclusion is equality). Both Pref determinizations
  // run budget-governed — they are the only worst-case-exponential steps;
  // everything downstream is polynomial in their (capped) output.
  Budgeted<lang::Dfa> pref_pos = omega::pref(property, budget);
  if (!pref_pos.complete()) {
    out.outcome = pref_pos.outcome;
    return out;
  }
  const bool liveness = lang::is_universal(*pref_pos.value);
  Outcome o = budget.poll();
  if (!is_complete(o)) {
    out.outcome = o;
    return out;
  }
  omega::DetOmega closure_pos = omega::op_a(*pref_pos.value);
  const bool safety =
      omega::is_empty(omega::intersect_with_cobuchi(negation, closure_pos));
  o = budget.poll();
  if (!is_complete(o)) {
    out.outcome = o;
    return out;
  }
  // Guarantee: the negation is safety.
  Budgeted<lang::Dfa> pref_neg = omega::pref(negation, budget);
  if (!pref_neg.complete()) {
    out.outcome = pref_neg.outcome;
    return out;
  }
  omega::DetOmega closure_neg = omega::op_a(*pref_neg.value);
  const bool guarantee =
      omega::is_empty(omega::intersect_with_cobuchi(property, closure_neg));
  o = budget.poll();
  if (!is_complete(o)) {
    out.outcome = o;
    return out;
  }
  if (!safety && !guarantee) return out;  // sound refusal: see header
  Classification c;
  c.safety = safety;
  c.guarantee = guarantee;
  c.obligation = c.recurrence = c.persistence = true;
  c.liveness = liveness;
  out.value = c;
  return out;
}

}  // namespace mph::core
