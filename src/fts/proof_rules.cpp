#include "src/fts/proof_rules.hpp"

#include <deque>
#include <map>

namespace mph::fts {
namespace {

/// Budget exhaustion is an explicit unknown: the premises were never fully
/// enumerated, so the rule is neither proved nor refuted and no witness
/// state is attached.
RuleResult exhausted(Outcome outcome) {
  RuleResult r;
  r.proved = false;
  r.failed_premise = "exploration budget exhausted (" + std::string(to_string(outcome)) +
                     "): premises not enumerated";
  r.outcome = outcome;
  return r;
}

}  // namespace

RuleResult verify_invariance(const Fts& system, const Assertion& inv, const Budget& budget) {
  return verify_invariance_with(system, inv, inv, budget);
}

RuleResult verify_invariance_with(const Fts& system, const Assertion& goal,
                                  const Assertion& aux, const Budget& budget) {
  ExploreResult ex = explore(system, budget);
  if (!is_complete(ex.outcome)) return exhausted(ex.outcome);
  StateGraph g = std::move(ex.graph);
  // Premise I0: aux implies goal everywhere reachable.
  for (std::size_t n = 0; n < g.size(); ++n) {
    const Valuation v = g.valuation(n);
    if (aux(v) && !goal(v)) return {false, "I0: strengthening does not imply the goal", v};
  }
  // Premise I1: initially.
  if (!aux(system.initial_valuation()))
    return {false, "I1: assertion fails initially", system.initial_valuation()};
  // Premise I2: preservation over every reachable aux-state.
  for (std::size_t n = 0; n < g.size(); ++n) {
    if (!aux(g.valuation(n))) continue;
    for (const StateGraph::Edge& e : g.edges(n))
      if (!aux(g.valuation(e.target)))
        return {false, "I2: assertion not preserved by transition", g.valuation(n)};
  }
  return {true, "", std::nullopt};
}

RuleResult verify_response(const Fts& system, const Assertion& p, const Assertion& q,
                           const Ranking& rank,
                           const std::function<std::size_t(const Valuation&)>& helpful,
                           const Budget& budget) {
  ExploreResult ex = explore(system, budget);
  if (!is_complete(ex.outcome)) return exhausted(ex.outcome);
  StateGraph g = std::move(ex.graph);
  // Pending-obligation graph over (node, pending) pairs.
  struct PNode {
    std::size_t node;
    bool pending;
  };
  std::map<std::pair<std::size_t, bool>, std::size_t> index;
  std::vector<PNode> pnodes;
  auto intern = [&](std::size_t n, bool pend) {
    auto [it, inserted] = index.try_emplace({n, pend}, pnodes.size());
    if (inserted) pnodes.push_back({n, pend});
    return it->second;
  };
  auto pending_of = [&](std::size_t n, bool prev_pending) {
    const Valuation v = g.valuation(n);
    return !q(v) && (prev_pending || p(v));
  };
  std::deque<std::size_t> queue{
      intern(0, pending_of(0, false))};
  std::vector<bool> seen;
  std::map<int, std::size_t> helpful_per_rank;
  while (!queue.empty()) {
    std::size_t i = queue.front();
    queue.pop_front();
    seen.resize(pnodes.size(), false);
    if (seen[i]) continue;
    seen[i] = true;
    const auto [n, pend] = pnodes[i];
    const Valuation v = g.valuation(n);
    if (pend) {
      const int r = rank(v);
      if (r < 0) return {false, "R1: rank negative on a pending state", v};
      const std::size_t h = helpful(v);
      if (h >= system.transition_count())
        return {false, "R3: no helpful transition designated", v};
      // R5: helpful constant per rank.
      auto [it, inserted] = helpful_per_rank.try_emplace(r, h);
      if (!inserted && it->second != h)
        return {false, "R5: helpful transition not constant on rank " + std::to_string(r), v};
      // R4: helpful must be weakly (or strongly) fair.
      if (system.transition_fairness(h) == Fairness::None)
        return {false, "R4: helpful transition is not fair", v};
      // R3: helpful enabled, and strictly decreasing (or achieving q).
      if (!g.enabled(n, h))
        return {false, "R3: helpful transition disabled on a pending state", v};
      bool helpful_ok = false;
      for (auto [target, t] : g.edges(n)) {
        const Valuation tv = g.valuation(target);
        if (t == h) helpful_ok = q(tv) || rank(tv) < r;
        // R2: no step increases the rank while the obligation persists.
        if (!q(tv) && rank(tv) > r)
          return {false, "R2: rank increases from a pending state", v};
      }
      if (!helpful_ok)
        return {false, "R3: helpful transition does not decrease the rank", v};
    }
    for (const StateGraph::Edge& e : g.edges(n)) {
      std::size_t j = intern(e.target, pending_of(e.target, pend));
      queue.push_back(j);
    }
  }
  return {true, "", std::nullopt};
}

}  // namespace mph::fts
