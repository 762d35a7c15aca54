// The omega graph kernel (src/omega/graph.hpp) on hand-built automata: SCC
// membership and completion order, the trivial-component rule, forward and
// backward closures, and live states for Büchi and Fin acceptance.
#include <gtest/gtest.h>

#include "src/omega/emptiness.hpp"
#include "src/omega/graph.hpp"

namespace mph::omega {
namespace {

lang::Alphabet ab() { return lang::Alphabet::plain({"a", "b"}); }

/// 0 -a,b-> 2, 0 -b,a-> 1, 1 and 2 carry self-loops, 3 -> 0 and nothing
/// reaches 3. State 2 is accepting. The edges of 0 list target 2 twice
/// before target 1 twice.
Nba duplicate_targets() {
  Nba n(ab());
  for (int i = 0; i < 4; ++i) n.add_state();
  n.add_edge(0, 0, 2);
  n.add_edge(0, 1, 2);
  n.add_edge(0, 1, 1);
  n.add_edge(0, 0, 1);
  n.add_edge(1, 0, 1);
  n.add_edge(2, 1, 2);
  n.add_edge(3, 0, 0);
  n.add_initial(0);
  n.set_accepting(2);
  return n;
}

TEST(GraphKernel, NbaGraphKeepsFirstOccurrenceEdgeOrder) {
  const MarkedGraph g = to_graph(duplicate_targets());
  ASSERT_EQ(g.size(), 4u);
  EXPECT_EQ(g.succ[0], (std::vector<State>{2, 1}));
  EXPECT_EQ(g.succ[1], (std::vector<State>{1}));
  EXPECT_EQ(g.succ[3], (std::vector<State>{0}));
  EXPECT_EQ(g.marks, (std::vector<MarkSet>{0, 0, mark_bit(0), 0}));
  EXPECT_EQ(g.initial, (std::vector<State>{0}));
}

TEST(GraphKernel, SccsCompleteInEdgeOrder) {
  // Tarjan follows 0's first target, 2, so {2} completes before {1}; a
  // sorted successor list would emit {1} first.
  const MarkedGraph g = to_graph(duplicate_targets());
  const auto sccs = nontrivial_sccs(g, std::vector<bool>(g.size(), true));
  EXPECT_EQ(sccs, (std::vector<std::vector<State>>{{2}, {1}}));
}

TEST(GraphKernel, SingleStateSccNeedsASelfLoop) {
  MarkedGraph g;
  g.succ = {{1}, {1}, {0}};
  g.marks.assign(3, 0);
  const auto sccs = nontrivial_sccs(g, std::vector<bool>(3, true));
  // {0} and {2} are one-state components without a self-loop; {1} has one.
  EXPECT_EQ(sccs, (std::vector<std::vector<State>>{{1}}));
  // Masking 1 out leaves no component that can host a loop.
  EXPECT_TRUE(nontrivial_sccs(g, {true, false, true}).empty());
}

TEST(GraphKernel, SccMembersAreSorted) {
  MarkedGraph g;
  g.succ = {{3}, {0}, {1}, {2}};
  g.marks.assign(4, 0);
  EXPECT_EQ(nontrivial_sccs(g, std::vector<bool>(4, true)),
            (std::vector<std::vector<State>>{{0, 1, 2, 3}}));
}

TEST(GraphKernel, ForwardClosureFromSeveralSeeds) {
  // Two chains 0 → 1 and 2 → 3 → 4, and an isolated 5.
  MarkedGraph g;
  g.succ = {{1}, {}, {3}, {4}, {}, {}};
  g.marks.assign(6, 0);
  EXPECT_EQ(forward_closure(g, state_mask(g, {0, 3})),
            (std::vector<bool>{true, true, false, true, true, false}));
  EXPECT_EQ(forward_closure(g, state_mask(g, {})), std::vector<bool>(6, false));
  // Backward: the forward closure of the reversed graph.
  EXPECT_EQ(forward_closure(reversed(g), state_mask(g, {4})),
            (std::vector<bool>{false, false, true, true, true, false}));
}

TEST(GraphKernel, ReachabilityStartsFromEveryInitialState) {
  MarkedGraph g;
  g.succ = {{}, {2}, {}, {}};
  g.marks.assign(4, 0);
  g.initial = {0, 1};
  EXPECT_EQ(graph_reachable(g), (std::vector<bool>{true, true, true, false}));
  g.initial.clear();
  EXPECT_EQ(graph_reachable(g), std::vector<bool>(4, false));
}

TEST(GraphKernel, InducedSubgraphRenumbersInListOrder) {
  MarkedGraph g;
  g.succ = {{1, 3}, {3}, {0}, {1, 2}};
  g.marks = {0, mark_bit(1), 0, mark_bit(0)};
  const MarkedGraph sub = induced_subgraph(g, {3, 1});
  EXPECT_EQ(sub.succ, (std::vector<std::vector<State>>{{1}, {0}}));
  EXPECT_EQ(sub.marks, (std::vector<MarkSet>{mark_bit(0), mark_bit(1)}));
  EXPECT_EQ(sub.initial, (std::vector<State>{0}));
}

TEST(GraphKernel, LiveStateNeedNotBeReachable) {
  // 0 loops without accepting; 2 → 1, where 1 is an accepting self-loop;
  // only 0 is initial.
  Nba n(ab());
  for (int i = 0; i < 3; ++i) n.add_state();
  n.add_edge(0, 0, 0);
  n.add_edge(1, 0, 1);
  n.add_edge(2, 1, 1);
  n.add_initial(0);
  n.set_accepting(1);
  const MarkedGraph g = to_graph(n);
  EXPECT_EQ(graph_reachable(g), (std::vector<bool>{true, false, false}));
  EXPECT_EQ(live_states(g, Acceptance::buchi(0)), (std::vector<bool>{false, true, true}));
  EXPECT_TRUE(is_empty(n));
}

TEST(GraphKernel, LiveStatesUnderFinAcceptance) {
  // co-Büchi Fin(0): 0 loops on b unmarked (live); 1 carries the mark,
  // loops on a and moves to 2 on b; 2 is a marked trap (dead). 1 turns live
  // once its b-edge leads back to 0.
  auto sigma = ab();
  DetOmega m(sigma, 3, 0, Acceptance::co_buchi(0));
  m.set_transition(0, 0, 1);
  m.set_transition(0, 1, 0);
  m.set_transition(1, 0, 1);
  m.set_transition(1, 1, 2);
  m.set_transition(2, 0, 2);
  m.set_transition(2, 1, 2);
  m.add_mark(1, 0);
  m.add_mark(2, 0);
  EXPECT_EQ(live_states(m), (std::vector<bool>{true, false, false}));
  EXPECT_EQ(live_states(to_graph(m), m.acceptance()), live_states(m));
  m.set_transition(1, 1, 0);
  EXPECT_EQ(live_states(m), (std::vector<bool>{true, true, false}));
}

}  // namespace
}  // namespace mph::omega
