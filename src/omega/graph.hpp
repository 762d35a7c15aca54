// The one graph kernel under every ω-automaton decision procedure: SCC
// decomposition, forward and backward reachability, live states, and the
// search for "good loops" — loop sets J whose infinitely-visited marks
// satisfy an acceptance formula. This is the cycle/F-family analysis of the
// paper's §5.1 (after Landweber and Wagner), generalized from Streett pairs
// to arbitrary Emerson–Lei conditions by branching on Fin-marks (avoid the
// mark, or commit to visiting it). DetOmega, Nba and the LTL tableau all
// reach it through a MarkedGraph.
#pragma once

#include <optional>
#include <vector>

#include "src/omega/acceptance.hpp"
#include "src/omega/det_omega.hpp"
#include "src/omega/nba.hpp"

namespace mph::omega {

/// Symbol-free view of an automaton: successor sets plus per-state marks.
struct MarkedGraph {
  std::vector<std::vector<State>> succ;  // deduplicated
  std::vector<MarkSet> marks;
  std::vector<State> initial{0};

  std::size_t size() const { return succ.size(); }
};

/// Successors sorted ascending.
MarkedGraph to_graph(const DetOmega& m);

/// Accepting states carry mark 0, so Acceptance::buchi(0) is the NBA's
/// condition. Successors keep their first-occurrence edge order
/// (deduplicated, not sorted): SCCs then complete in the order a Tarjan
/// over the raw edge lists finds them, which fixes the complement's part
/// order.
MarkedGraph to_graph(const Nba& n);

/// The subgraph induced by `states`: its state i is states[i], its initial
/// state is 0, and it keeps the edges between listed states.
MarkedGraph induced_subgraph(const MarkedGraph& g, const std::vector<State>& states);

/// The same states and marks with every edge reversed.
MarkedGraph reversed(const MarkedGraph& g);

/// Membership mask of `states` over the graph's states.
std::vector<bool> state_mask(const MarkedGraph& g, const std::vector<State>& states);

/// States reachable from some seed, the seeds included. A backward closure
/// is the forward closure of reversed(g).
std::vector<bool> forward_closure(const MarkedGraph& g, std::vector<bool> seeds);

/// States reachable from the graph's initial states.
std::vector<bool> graph_reachable(const MarkedGraph& g);

/// Strongly connected components of the subgraph induced by `allowed`
/// (Tarjan, iterative; roots tried in state order, successors in list
/// order), each sorted, in completion order. Trivial one-state components
/// without a self-loop are omitted: only components that can host a loop
/// are returned.
std::vector<std::vector<State>> nontrivial_sccs(const MarkedGraph& g,
                                                const std::vector<bool>& allowed);

/// Some reachable loop set J with acc satisfied by marks(J), or nullopt.
/// A "loop set" is a set of states traversed by a single cyclic path.
std::optional<std::vector<State>> find_good_loop(const MarkedGraph& g, const Acceptance& acc);

/// find_good_loop for a graph known to be one non-trivial SCC (strongly
/// connected, with at least one edge): the same answer, entering the
/// recursion at the SCC's Fin branching without first recomputing
/// reachability and the SCC decomposition. The caller vouches for the shape.
std::optional<std::vector<State>> find_good_loop_in_scc(const MarkedGraph& g,
                                                        const Acceptance& acc);

/// Exactly the reachable states lying on at least one good loop. This is the
/// set the paper calls "states on accepting cycles"; it drives both the
/// residual-language (liveness/Pref) computation and Landweber's recurrence
/// test.
std::vector<bool> good_loop_states(const MarkedGraph& g, const Acceptance& acc);

/// Is there a good loop lying entirely within `allowed`? Reachability from
/// the initial state is NOT required — this probes an arbitrary region.
bool has_good_loop_within(const MarkedGraph& g, const std::vector<bool>& allowed,
                          const Acceptance& acc);

/// All states on good loops lying entirely within `allowed` (again ignoring
/// reachability from the initial state).
std::vector<bool> good_loop_states_within(const MarkedGraph& g, const std::vector<bool>& allowed,
                                          const Acceptance& acc);

/// States from which some good loop is reachable — those with a non-empty
/// residual language — whether or not they are reachable themselves: the
/// backward closure of every state on a good loop.
std::vector<bool> live_states(const MarkedGraph& g, const Acceptance& acc);

}  // namespace mph::omega
