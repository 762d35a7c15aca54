#include "src/omega/inclusion.hpp"

#include <vector>

#include "src/omega/graph.hpp"
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

InclusionResult included(const Nba& a, const Nba& b, const InclusionOptions& options) {
  MPH_REQUIRE(a.alphabet() == b.alphabet(), "inclusion requires a common alphabet");
  InclusionResult out;
  // Trim A to states that matter for an accepting A-run: the product's
  // acceptance already demands A-accepting states infinitely often, so
  // dead A-states only inflate the product.
  const MarkedGraph g = to_graph(a);
  const auto reach = graph_reachable(g);
  const auto live = live_states(g, Acceptance::buchi(0));
  std::vector<bool> keep(a.state_count());
  bool any_initial = false;
  for (State q = 0; q < a.state_count(); ++q) keep[q] = reach[q] && live[q];
  for (State q : a.initial_states()) any_initial = any_initial || keep[q];
  if (!any_initial) {
    // L(A) = ∅ ⊆ anything.
    out.verdict = InclusionVerdict::Included;
    return out;
  }

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

}  // namespace mph::omega
