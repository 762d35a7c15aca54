#include "src/fuzz/reference_graph.hpp"

#include <map>

namespace mph::fuzz {

std::optional<ReferenceGraph> reference_explore(const fts::Fts& sys, const Budget& budget) {
  ReferenceGraph ref;
  std::map<std::pair<fts::Valuation, int>, std::size_t> id;
  auto intern = [&](fts::Valuation v, int last) -> std::optional<std::size_t> {
    auto [it, fresh] = id.try_emplace({v, last}, ref.nodes.size());
    if (fresh) {
      if (!is_complete(budget.admit(ref.nodes.size()))) return std::nullopt;
      ref.nodes.push_back({std::move(v), last, {}, {}, false});
    }
    return it->second;
  };
  if (!intern(sys.initial_valuation(), fts::StateGraph::kNone)) return std::nullopt;
  for (std::size_t n = 0; n < ref.nodes.size(); ++n) {
    const fts::Valuation v = ref.nodes[n].valuation;
    std::vector<bool> enabled(sys.transition_count(), false);
    std::vector<std::pair<std::size_t, std::size_t>> edges;
    for (std::size_t t = 0; t < sys.transition_count(); ++t) {
      if (!sys.enabled(t, v)) continue;
      enabled[t] = true;
      auto target = intern(sys.apply(t, v), static_cast<int>(t));
      if (!target) return std::nullopt;
      edges.push_back({*target, t});
    }
    ReferenceGraph::Node& node = ref.nodes[n];
    node.stutters = edges.empty();
    if (node.stutters) edges.push_back({n, fts::StateGraph::kStutter});
    node.edges = std::move(edges);
    node.enabled = std::move(enabled);
  }
  return ref;
}

std::optional<std::string> graph_mismatch(const fts::Fts& sys, const ReferenceGraph& ref,
                                          const fts::StateGraph& g) {
  if (g.size() != ref.nodes.size())
    return "explore found " + std::to_string(g.size()) + " node(s), the reference " +
           std::to_string(ref.nodes.size());
  for (std::size_t n = 0; n < g.size(); ++n) {
    const ReferenceGraph::Node& r = ref.nodes[n];
    const std::string at = "node " + std::to_string(n) + ": ";
    if (g.valuation(n) != r.valuation) return at + "valuation differs";
    if (g.last_taken(n) != r.last_taken) return at + "last-taken transition differs";
    const auto edges = g.edges(n);
    bool same = edges.size() == r.edges.size();
    for (std::size_t i = 0; same && i < edges.size(); ++i)
      same = edges[i].target == r.edges[i].first && edges[i].transition == r.edges[i].second;
    if (!same) return at + "edge list differs";
    for (std::size_t t = 0; t < sys.transition_count(); ++t)
      if (g.enabled(n, t) != r.enabled[t])
        return at + "enabled bit of " + sys.transition_name(t) + " differs";
    if (g.stutters(n) != r.stutters) return at + "stutter flag differs";
  }
  return std::nullopt;
}

}  // namespace mph::fuzz
