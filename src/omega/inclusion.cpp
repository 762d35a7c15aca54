#include "src/omega/inclusion.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "src/omega/graph.hpp"
#include "src/omega/inclusion_detail.hpp"
#include "src/support/check.hpp"
#include "src/support/flat_hash.hpp"

namespace mph::omega {

std::string_view to_string(InclusionVerdict v) {
  switch (v) {
    case InclusionVerdict::Included:
      return "included";
    case InclusionVerdict::NotIncluded:
      return "not-included";
    case InclusionVerdict::Unknown:
      return "unknown";
  }
  MPH_ASSERT(false);
  return "unknown";
}

namespace {

/// A's reachable states from which an accepting run can start. Both stages
/// work over these alone: the product's acceptance already demands
/// A-accepting states infinitely often, so dead A-states only inflate it,
/// and every probe candidate runs through them.
std::vector<bool> useful_states(const Nba& a) {
  const MarkedGraph g = to_graph(a);
  const auto reach = graph_reachable(g);
  const auto live = live_states(g, Acceptance::buchi(0));
  std::vector<bool> keep(a.state_count());
  for (State q = 0; q < a.state_count(); ++q) keep[q] = reach[q] && live[q];
  return keep;
}

bool any_initial(const Nba& a, const std::vector<bool>& keep) {
  return std::any_of(a.initial_states().begin(), a.initial_states().end(),
                     [&](State q) { return keep[q]; });
}

/// L(A) = ∅ ⊆ anything.
InclusionResult empty_left() {
  InclusionResult out;
  out.verdict = InclusionVerdict::Included;
  return out;
}

detail::ProbeResult probe(const Nba& a, const std::vector<bool>& keep, const Nba& b,
                          const Budget& budget) {
  detail::ProbeResult out;
  // Breadth-first access words over the useful states: each state keeps
  // the edge it was first reached by.
  constexpr State kRoot = std::numeric_limits<State>::max();
  std::vector<std::pair<State, Symbol>> parent(a.state_count(), {kRoot, 0});
  std::vector<bool> seen(a.state_count());
  std::vector<State> order;
  for (State q : a.initial_states())
    if (keep[q] && !seen[q]) {
      seen[q] = true;
      order.push_back(q);
    }
  for (std::size_t i = 0; i < order.size(); ++i)
    for (auto [s, t] : a.edges(order[i]))
      if (keep[t] && !seen[t]) {
        seen[t] = true;
        parent[t] = {order[i], s};
        order.push_back(t);
      }
  auto access = [&](State q) {
    lang::Word u;
    for (; parent[q].first != kRoot; q = parent[q].first) u.push_back(parent[q].second);
    std::reverse(u.begin(), u.end());
    return u;
  };
  // Tests one candidate; true ends the probe (separated, bound reached or
  // budget gone). A word already tested is skipped without a charge.
  std::vector<Lasso> tested;
  auto test = [&](Lasso l) {
    for (const Lasso& t : tested)
      if (t.same_word(l)) return false;
    if (out.probed == detail::kMaxProbedLassos) return true;
    out.outcome = budget.poll();
    if (!is_complete(out.outcome)) return true;
    ++out.probed;
    if (!b.accepts(l)) {
      out.separating = std::move(l);
      return true;
    }
    tested.push_back(std::move(l));
    return false;
  };
  // Loops of length 1 at accepting states, then loops of length 2 through
  // an accepting state; each round in breadth-first order of the loop's
  // state.
  for (State q : order) {
    if (!a.accepting(q)) continue;
    for (auto [s, t] : a.edges(q))
      if (t == q && test(Lasso{access(q), {s}})) return out;
  }
  for (State q : order)
    for (auto [s1, r] : a.edges(q)) {
      if (!keep[r] || !(a.accepting(q) || a.accepting(r))) continue;
      for (auto [s2, t] : a.edges(r))
        if (t == q && test(Lasso{access(q), {s1, s2}})) return out;
    }
  return out;
}

/// The A × comp(B) product over A's useful states; decides every pair, up
/// to the budget.
InclusionResult product_stage(const Nba& a, const std::vector<bool>& keep, const Nba& b,
                              const InclusionOptions& options) {
  InclusionResult out;
  ComplementOptions copts;
  copts.budget = options.budget;
  copts.algorithm = options.algorithm;
  ComplementEngine eng(b, copts);
  const std::size_t k = eng.part_count();
  // Node ids are product states, interned in BFS order.
  FlatInterner<std::vector<std::uint32_t>, IntRangeHash> ids;
  try {
    // Product node = (A-state, part macrostates…, counter c ∈ 0..k); layer 0
    // is A's acceptance, layer i+1 is part i. The product is materialized
    // only over what A's runs reach (lazy complement successors), then fed
    // to the standard accepting-lasso search — its symbols are the input's,
    // so a counterexample falls straight out.
    Nba product(a.alphabet());
    auto layer_accepting = [&](const std::vector<std::uint32_t>& node) {
      const std::uint32_t c = node.back();
      return c == 0 ? a.accepting(node[0]) : eng.part_accepting(c - 1, node[c]);
    };
    auto intern = [&](const std::vector<std::uint32_t>& node) {
      auto [id, fresh] = ids.intern_admitted(
          node, [&](std::size_t count) { options.budget.require(count); });
      if (fresh) {
        product.add_state();
        product.set_accepting(id, node.back() == k && layer_accepting(node));
      }
      return static_cast<State>(id);
    };
    std::vector<std::uint32_t> succ(k + 2);
    for (State q : a.initial_states()) {
      if (!keep[q]) continue;
      succ[0] = q;
      for (std::size_t i = 0; i < k; ++i) succ[i + 1] = eng.part_initial(i);
      succ[k + 1] = 0;
      product.add_initial(intern(succ));
    }
    std::vector<ComplementEngine::Edges> runs(k);
    for (State from = 0; from < ids.size(); ++from) {
      const std::vector<std::uint32_t> node = ids[from];  // interning grows the table
      const std::uint32_t c = node.back();
      const bool acc = layer_accepting(node);
      const std::uint32_t next_c = (c == k && acc) ? 0 : (acc ? c + 1 : c);
      // Expand every part first, in part order: that fixes the order in
      // which macrostates are interned and admitted.
      for (std::size_t i = 0; i < k; ++i) eng.part_successors(i, node[i + 1]);
      for (auto [s, ta] : a.edges(static_cast<State>(node[0]))) {
        if (!keep[ta]) continue;
        bool possible = true;
        for (std::size_t i = 0; i < k && possible; ++i) {
          runs[i] = eng.part_successors(i, node[i + 1], s);
          possible = !runs[i].empty();
        }
        if (!possible) continue;
        std::vector<std::size_t> pick(k, 0);
        for (;;) {
          succ[0] = ta;
          for (std::size_t i = 0; i < k; ++i) succ[i + 1] = runs[i][pick[i]].second;
          succ[k + 1] = next_c;
          product.add_edge(from, s, intern(succ));
          std::size_t i = 0;
          while (i < k && pick[i] + 1 == runs[i].size()) {
            pick[i] = 0;
            ++i;
          }
          if (i == k) break;
          ++pick[i];
        }
      }
    }
    if (auto cex = accepting_lasso(product)) {
      out.verdict = InclusionVerdict::NotIncluded;
      out.counterexample = std::move(*cex);
    } else {
      out.verdict = InclusionVerdict::Included;
    }
  } catch (const BudgetExhausted& e) {
    out.verdict = InclusionVerdict::Unknown;
    out.outcome = e.outcome();
    out.counterexample.reset();
  }
  // What was built, also when the budget ran out part-way.
  out.product_states = ids.size();
  out.complement = eng.stats();
  return out;
}

}  // namespace

namespace detail {

ProbeResult probe_separating_lasso(const Nba& a, const Nba& b, const Budget& budget) {
  MPH_REQUIRE(a.alphabet() == b.alphabet(), "inclusion requires a common alphabet");
  return probe(a, useful_states(a), b, budget);
}

InclusionResult included_by_complement(const Nba& a, const Nba& b,
                                       const InclusionOptions& options) {
  MPH_REQUIRE(a.alphabet() == b.alphabet(), "inclusion requires a common alphabet");
  const std::vector<bool> keep = useful_states(a);
  if (!any_initial(a, keep)) return empty_left();
  return product_stage(a, keep, b, options);
}

}  // namespace detail

InclusionResult included(const Nba& a, const Nba& b, const InclusionOptions& options) {
  MPH_REQUIRE(a.alphabet() == b.alphabet(), "inclusion requires a common alphabet");
  const std::vector<bool> keep = useful_states(a);
  if (!any_initial(a, keep)) return empty_left();
  // Counterexample first: a short lasso of A that B rejects is the proof
  // of non-inclusion, found before any complement macrostate is built. The
  // product stays the only route to Included and to Unknown-by-state-cap.
  detail::ProbeResult p = probe(a, keep, b, options.budget);
  InclusionResult out;
  if (p.separating) {
    out.verdict = InclusionVerdict::NotIncluded;
    out.counterexample = std::move(p.separating);
  } else if (!is_complete(p.outcome)) {
    out.outcome = p.outcome;
  } else {
    out = product_stage(a, keep, b, options);
  }
  out.lassos_probed = p.probed;
  return out;
}

}  // namespace mph::omega
