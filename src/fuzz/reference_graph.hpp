// A second, naive explorer for the fts differential oracles: a std::map BFS
// over the public Fts::enabled / Fts::apply, sharing none of fts::explore's
// packed rows, row index or CSR. graph_mismatch() compares the two
// node-for-node, so the checker's state graph is never its own reference.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/fts/fts.hpp"
#include "src/support/budget.hpp"

namespace mph::fuzz {

struct ReferenceGraph {
  struct Node {
    fts::Valuation valuation;
    int last_taken = fts::StateGraph::kNone;
    /// (target, transition) in transition order; a terminal node's only
    /// edge is (itself, StateGraph::kStutter).
    std::vector<std::pair<std::size_t, std::size_t>> edges;
    std::vector<bool> enabled;  // per transition
    bool stutters = false;
  };
  std::vector<Node> nodes;
};

/// The reachable state graph with ids in BFS discovery order (the order
/// fts::explore promises), or nullopt when it needs more nodes than the
/// budget's state cap admits. Domain violations throw std::invalid_argument
/// from Fts::apply.
std::optional<ReferenceGraph> reference_explore(const fts::Fts& sys, const Budget& budget);

/// The first difference between the reference and an explored graph —
/// node count, valuation, last-taken transition, edge list, enabled bits or
/// stutter flag — or nullopt when they agree on every node.
std::optional<std::string> graph_mismatch(const fts::Fts& sys, const ReferenceGraph& ref,
                                          const fts::StateGraph& g);

}  // namespace mph::fuzz
