#include "src/omega/graph.hpp"

#include <algorithm>
#include <bit>
#include <numeric>

#include "src/support/check.hpp"

namespace mph::omega {

MarkedGraph to_graph(const DetOmega& m) {
  MarkedGraph g;
  g.succ.resize(m.state_count());
  g.marks.resize(m.state_count());
  g.initial = {m.initial()};
  for (State q = 0; q < m.state_count(); ++q) {
    g.marks[q] = m.marks(q);
    auto& targets = g.succ[q];
    targets.reserve(m.alphabet().size());
    for (Symbol s = 0; s < m.alphabet().size(); ++s) targets.push_back(m.next(q, s));
    std::sort(targets.begin(), targets.end());
    targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
  }
  return g;
}

MarkedGraph to_graph(const Nba& n) {
  MarkedGraph g;
  g.succ.resize(n.state_count());
  g.marks.resize(n.state_count(), 0);
  g.initial = n.initial_states();
  // last_source[t] == q once t is listed among q's successors.
  std::vector<State> last_source(n.state_count(), ~State{0});
  for (State q = 0; q < n.state_count(); ++q) {
    if (n.accepting(q)) g.marks[q] = mark_bit(0);
    g.succ[q].reserve(n.edges(q).size());
    for (auto [s, t] : n.edges(q)) {
      (void)s;
      if (last_source[t] == q) continue;
      last_source[t] = q;
      g.succ[q].push_back(t);
    }
  }
  return g;
}

MarkedGraph induced_subgraph(const MarkedGraph& g, const std::vector<State>& states) {
  constexpr State kOutside = ~State{0};
  std::vector<State> local(g.size(), kOutside);
  for (State j = 0; j < states.size(); ++j) local[states[j]] = j;
  MarkedGraph sub;
  sub.succ.resize(states.size());
  sub.marks.resize(states.size());
  for (State j = 0; j < states.size(); ++j) {
    sub.marks[j] = g.marks[states[j]];
    for (State t : g.succ[states[j]])
      if (local[t] != kOutside) sub.succ[j].push_back(local[t]);
  }
  return sub;
}

MarkedGraph reversed(const MarkedGraph& g) {
  MarkedGraph rev;
  rev.succ.resize(g.size());
  rev.marks = g.marks;
  rev.initial = g.initial;
  std::vector<std::size_t> in_degree(g.size(), 0);
  for (const auto& targets : g.succ)
    for (State t : targets) ++in_degree[t];
  for (State q = 0; q < g.size(); ++q) rev.succ[q].reserve(in_degree[q]);
  for (State q = 0; q < g.size(); ++q)
    for (State t : g.succ[q]) rev.succ[t].push_back(q);
  return rev;
}

std::vector<bool> state_mask(const MarkedGraph& g, const std::vector<State>& states) {
  std::vector<bool> mask(g.size(), false);
  for (State q : states) {
    MPH_REQUIRE(q < g.size(), "state out of range");
    mask[q] = true;
  }
  return mask;
}

std::vector<bool> forward_closure(const MarkedGraph& g, std::vector<bool> seeds) {
  MPH_REQUIRE(seeds.size() == g.size(), "seed mask size mismatch");
  std::vector<State> stack;
  for (State q = 0; q < g.size(); ++q)
    if (seeds[q]) stack.push_back(q);
  while (!stack.empty()) {
    const State q = stack.back();
    stack.pop_back();
    for (State t : g.succ[q])
      if (!seeds[t]) {
        seeds[t] = true;
        stack.push_back(t);
      }
  }
  return seeds;
}

std::vector<bool> graph_reachable(const MarkedGraph& g) {
  if (g.size() == 0) return {};  // no states, nothing reachable
  return forward_closure(g, state_mask(g, g.initial));
}

std::vector<std::vector<State>> nontrivial_sccs(const MarkedGraph& g,
                                                const std::vector<bool>& allowed) {
  MPH_REQUIRE(allowed.size() == g.size(), "allowed mask size mismatch");
  // Iterative Tarjan restricted to `allowed`.
  const auto n = g.size();
  constexpr std::uint32_t kUnvisited = ~std::uint32_t{0};
  std::vector<std::uint32_t> index(n, kUnvisited), low(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<State> stack;
  std::uint32_t counter = 0;
  std::vector<std::vector<State>> out;

  struct Frame {
    State q;
    std::size_t child;
  };
  std::vector<Frame> frames;
  for (State root = 0; root < n; ++root) {
    if (!allowed[root] || index[root] != kUnvisited) continue;
    frames.push_back({root, 0});
    index[root] = low[root] = counter++;
    stack.push_back(root);
    on_stack[root] = true;
    while (!frames.empty()) {
      Frame& f = frames.back();
      if (f.child < g.succ[f.q].size()) {
        State t = g.succ[f.q][f.child++];
        if (!allowed[t]) continue;
        if (index[t] == kUnvisited) {
          index[t] = low[t] = counter++;
          stack.push_back(t);
          on_stack[t] = true;
          frames.push_back({t, 0});
        } else if (on_stack[t]) {
          low[f.q] = std::min(low[f.q], index[t]);
        }
      } else {
        State q = f.q;
        frames.pop_back();
        if (!frames.empty()) low[frames.back().q] = std::min(low[frames.back().q], low[q]);
        if (low[q] == index[q]) {
          // q roots a component: the stack from q up. Keep it only if it
          // can host a loop.
          auto from = std::find(stack.rbegin(), stack.rend(), q).base() - 1;
          const bool nontrivial =
              stack.end() - from > 1 ||
              std::find(g.succ[q].begin(), g.succ[q].end(), q) != g.succ[q].end();
          for (auto it = from; it != stack.end(); ++it) on_stack[*it] = false;
          if (nontrivial) {
            std::vector<State>& scc = out.emplace_back(from, stack.end());
            std::sort(scc.begin(), scc.end());
          }
          stack.erase(from, stack.end());
        }
      }
    }
  }
  return out;
}

namespace {

MarkSet marks_of(const MarkedGraph& g, const std::vector<State>& states) {
  MarkSet out = 0;
  for (State q : states) out |= g.marks[q];
  return out;
}

Mark lowest_mark(MarkSet ms) {
  MPH_ASSERT(ms != 0);
  return static_cast<Mark>(std::countr_zero(ms));
}

std::optional<std::vector<State>> search(const MarkedGraph& g, const std::vector<bool>& allowed,
                                         const Acceptance& acc, std::vector<bool>* collect);

// The Fin branching on one non-trivial SCC (states sorted ascending): the
// body of search() for each component, and the entry point for a graph
// already known to be one SCC.
std::optional<std::vector<State>> search_scc(const MarkedGraph& g,
                                             const std::vector<State>& scc,
                                             const Acceptance& acc, std::vector<bool>* collect) {
  Acceptance phi = acc.restrict_to(marks_of(g, scc));
  if (phi.is_false()) return std::nullopt;
  if (phi.is_true() || phi.fin_marks() == 0) {
    // The loop visiting all of the SCC carries every mark present, which
    // satisfies each remaining Inf atom; with no Fin atoms the formula
    // holds. Every state of the SCC lies on that loop.
    if (!collect) return scc;
    for (State q : scc) (*collect)[q] = true;
    return std::nullopt;
  }
  const Mark m = lowest_mark(phi.fin_marks());
  // Branch 1: the loop avoids mark m entirely.
  {
    std::vector<bool> sub = state_mask(g, scc);
    for (State q : scc)
      if (g.marks[q] & mark_bit(m)) sub[q] = false;
    auto r = search(g, sub, phi.substitute(m, /*inf=*/false, /*fin=*/true), collect);
    if (r) return r;
  }
  // Branch 2: the loop visits mark m, so Fin(m) is false. Substituting
  // only the Fin atom (Inf(m) untouched) keeps the formula a sound
  // strengthening, and the Fin-atom count strictly decreases. The SCC is
  // still the one component of its own states, so the recursion re-enters
  // here instead of decomposing it again.
  return search_scc(g, scc, phi.substitute_fin(m, false), collect);
}

// Core recursion shared by find_good_loop and good_loop_states.
//
// Searches the subgraph induced by `allowed` for loop sets J with
// acc.eval(marks(J)). With `collect` null it returns the first good loop
// found; with `collect` non-null it unions every state lying on some good
// loop into *collect and returns nullopt.
std::optional<std::vector<State>> search(const MarkedGraph& g, const std::vector<bool>& allowed,
                                         const Acceptance& acc, std::vector<bool>* collect) {
  for (const auto& scc : nontrivial_sccs(g, allowed))
    if (auto r = search_scc(g, scc, acc, collect)) return r;
  return std::nullopt;
}

}  // namespace

std::optional<std::vector<State>> find_good_loop(const MarkedGraph& g, const Acceptance& acc) {
  return search(g, graph_reachable(g), acc, nullptr);
}

std::optional<std::vector<State>> find_good_loop_in_scc(const MarkedGraph& g,
                                                        const Acceptance& acc) {
  std::vector<State> all(g.size());
  std::iota(all.begin(), all.end(), State{0});
  return search_scc(g, all, acc, nullptr);
}

std::vector<bool> good_loop_states(const MarkedGraph& g, const Acceptance& acc) {
  std::vector<bool> out(g.size(), false);
  search(g, graph_reachable(g), acc, &out);
  return out;
}

bool has_good_loop_within(const MarkedGraph& g, const std::vector<bool>& allowed,
                          const Acceptance& acc) {
  return search(g, allowed, acc, nullptr).has_value();
}

std::vector<bool> good_loop_states_within(const MarkedGraph& g, const std::vector<bool>& allowed,
                                          const Acceptance& acc) {
  std::vector<bool> out(g.size(), false);
  search(g, allowed, acc, &out);
  return out;
}

std::vector<bool> live_states(const MarkedGraph& g, const Acceptance& acc) {
  return forward_closure(reversed(g),
                         good_loop_states_within(g, std::vector<bool>(g.size(), true), acc));
}

}  // namespace mph::omega
