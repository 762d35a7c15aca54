// The omega graph kernel (src/omega/graph.hpp) on hand-built automata: SCC
// membership and completion order, the trivial-component rule, forward and
// backward closures, live states for Büchi and Fin acceptance, and the
// good-loop search entered at a known SCC.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <random>

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

/// A random strongly connected graph on n states: a cycle through every
/// state in shuffled order plus random extra edges (deduplicated, listed in
/// random order), each state carrying a random subset of `marks` marks.
MarkedGraph random_scc(std::mt19937& rng, std::size_t n, Mark marks) {
  std::vector<State> order(n);
  for (State q = 0; q < n; ++q) order[q] = q;
  std::shuffle(order.begin(), order.end(), rng);
  std::vector<std::vector<bool>> edge(n, std::vector<bool>(n, false));
  for (std::size_t i = 0; i < n; ++i) edge[order[i]][order[(i + 1) % n]] = true;
  for (std::size_t extra = rng() % (2 * n + 1); extra > 0; --extra)
    edge[rng() % n][rng() % n] = true;
  MarkedGraph g;
  g.succ.resize(n);
  g.marks.resize(n);
  for (State q = 0; q < n; ++q) {
    for (State t = 0; t < n; ++t)
      if (edge[q][t]) g.succ[q].push_back(t);
    std::shuffle(g.succ[q].begin(), g.succ[q].end(), rng);
    g.marks[q] = rng() & ((MarkSet{1} << marks) - 1);
  }
  return g;
}

/// A random positive boolean formula over Inf and Fin atoms of `marks` marks.
Acceptance random_inf_fin(std::mt19937& rng, Mark marks, int depth) {
  if (depth == 0 || rng() % 3 == 0) {
    const Mark m = static_cast<Mark>(rng() % marks);
    return rng() % 2 ? Acceptance::fin(m) : Acceptance::inf(m);
  }
  Acceptance a = random_inf_fin(rng, marks, depth - 1);
  Acceptance b = random_inf_fin(rng, marks, depth - 1);
  return rng() % 2 ? Acceptance::conj(std::move(a), std::move(b))
                   : Acceptance::disj(std::move(a), std::move(b));
}

/// Whether the states in `set` (a bitmask) form a loop set of g: the
/// subgraph they induce is strongly connected and has an edge.
bool is_loop_set(const MarkedGraph& g, unsigned set) {
  auto closure = [&](bool forward) {
    const State first = static_cast<State>(std::countr_zero(set));
    unsigned seen = 1u << first;
    std::vector<State> todo{first};
    bool edge = false;
    while (!todo.empty()) {
      const State q = todo.back();
      todo.pop_back();
      for (State p = 0; p < g.size(); ++p) {
        const State from = forward ? q : p, to = forward ? p : q;
        const auto& succ = g.succ[from];
        if (!(set >> p & 1) || std::find(succ.begin(), succ.end(), to) == succ.end()) continue;
        edge = true;
        if (!(seen >> p & 1)) {
          seen |= 1u << p;
          todo.push_back(p);
        }
      }
    }
    return edge && seen == set;
  };
  return closure(true) && closure(false);
}

MarkSet marks_of_set(const MarkedGraph& g, unsigned set) {
  MarkSet out = 0;
  for (State q = 0; q < g.size(); ++q)
    if (set >> q & 1) out |= g.marks[q];
  return out;
}

TEST(GraphKernel, SccEntryPointMatchesFindGoodLoop) {
  // On a graph that is one non-trivial SCC, entering the recursion at the
  // SCC returns exactly the loop of the full search, or nothing with it.
  // Both are held to a brute force that shares no code with them: a good
  // loop exists iff some subset of the states is a loop set whose marks
  // satisfy acc, and the loop returned must be such a subset.
  std::mt19937 rng(23);
  int loops = 0, empty = 0, fin = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    const Mark marks = static_cast<Mark>(1 + rng() % 4);
    const MarkedGraph g = random_scc(rng, 1 + rng() % 8, marks);
    const Acceptance acc = random_inf_fin(rng, marks, 3);
    bool exists = false;
    for (unsigned set = 1; set < (1u << g.size()) && !exists; ++set)
      exists = is_loop_set(g, set) && acc.eval(marks_of_set(g, set));
    const auto expected = find_good_loop(g, acc);
    const auto loop = find_good_loop_in_scc(g, acc);
    EXPECT_EQ(loop, expected) << "iteration " << iter << ", " << acc.to_string();
    ASSERT_EQ(loop.has_value(), exists) << "iteration " << iter << ", " << acc.to_string();
    if (loop) {
      unsigned set = 0;
      for (State q : *loop) set |= 1u << q;
      EXPECT_TRUE(is_loop_set(g, set) && acc.eval(marks_of_set(g, set)))
          << "iteration " << iter << ", " << acc.to_string();
    }
    (exists ? loops : empty) += 1;
    fin += acc.fin_marks() != 0;
  }
  // Both answers and Fin branching are exercised.
  EXPECT_GT(loops, 300);
  EXPECT_GT(empty, 300);
  EXPECT_GT(fin, 1500);
}

}  // namespace
}  // namespace mph::omega
