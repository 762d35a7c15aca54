#include "src/core/chains.hpp"

#include <algorithm>
#include <bit>
#include <deque>

#include "src/omega/graph.hpp"
#include "src/support/check.hpp"

namespace mph::core {

using omega::Acceptance;
using omega::DetOmega;
using omega::MarkedGraph;
using omega::MarkSet;
using omega::State;

namespace {

/// Subset-DP over one SCC. Masks index into `states`; mask m is a loop set
/// iff its induced subgraph is strongly connected (singletons need a
/// self-loop). Chain lengths are counted as alternating-sequence lengths and
/// converted to pair counts by the caller.
struct SccChainDp {
  const MarkedGraph& g;
  const Acceptance& acc;
  std::vector<State> states;           // SCC members
  std::vector<std::uint32_t> local;    // global -> local index (or ~0)

  explicit SccChainDp(const MarkedGraph& graph, const Acceptance& acceptance,
                      std::vector<State> scc)
      : g(graph), acc(acceptance), states(std::move(scc)), local(graph.size(), ~std::uint32_t{0}) {
    for (std::uint32_t i = 0; i < states.size(); ++i) local[states[i]] = i;
  }

  bool is_loop_set(std::uint32_t mask) const {
    if (mask == 0) return false;
    const int first = std::countr_zero(mask);
    if ((mask & (mask - 1)) == 0) {
      // Singleton: needs a self-loop.
      State q = states[static_cast<std::size_t>(first)];
      return std::find(g.succ[q].begin(), g.succ[q].end(), q) != g.succ[q].end();
    }
    // Forward closure within mask.
    std::uint32_t fwd = std::uint32_t{1} << first;
    {
      std::deque<int> queue{first};
      while (!queue.empty()) {
        int i = queue.front();
        queue.pop_front();
        State q = states[static_cast<std::size_t>(i)];
        for (State t : g.succ[q]) {
          auto j = local[t];
          if (j == ~std::uint32_t{0} || !(mask & (std::uint32_t{1} << j))) continue;
          if (!(fwd & (std::uint32_t{1} << j))) {
            fwd |= std::uint32_t{1} << j;
            queue.push_back(static_cast<int>(j));
          }
        }
      }
    }
    if (fwd != mask) return false;
    // Backward reachability: fixpoint over "can reach `first` within mask".
    std::uint32_t can = std::uint32_t{1} << first;
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::uint32_t j = 0; j < states.size(); ++j) {
        const std::uint32_t bit = std::uint32_t{1} << j;
        if (!(mask & bit) || (can & bit)) continue;
        State p = states[j];
        for (State t : g.succ[p]) {
          auto k = local[t];
          if (k != ~std::uint32_t{0} && (mask & (std::uint32_t{1} << k)) &&
              (can & (std::uint32_t{1} << k))) {
            can |= bit;
            changed = true;
            break;
          }
        }
      }
    }
    return can == mask;
  }

  bool accepting(std::uint32_t mask) const {
    MarkSet ms = 0;
    std::uint32_t rest = mask;
    while (rest) {
      int i = std::countr_zero(rest);
      rest &= rest - 1;
      ms |= g.marks[states[static_cast<std::size_t>(i)]];
    }
    return acc.eval(ms);
  }

  /// Returns {streett_chain_pairs, rabin_chain_pairs} for this SCC.
  std::pair<std::size_t, std::size_t> run() const {
    const std::uint32_t n = static_cast<std::uint32_t>(states.size());
    const std::uint32_t full = (n == 32) ? ~std::uint32_t{0} : ((std::uint32_t{1} << n) - 1);
    // Alternating-sequence lengths, by (start kind, end kind):
    // sa: start-rejecting end-accepting; sr: start-rejecting end-rejecting;
    // aa: start-accepting end-accepting; ar: start-accepting end-rejecting.
    std::vector<std::uint8_t> sa(full + 1, 0), sr(full + 1, 0), aa(full + 1, 0),
        ar(full + 1, 0);
    for (std::uint32_t mask = 1; mask <= full; ++mask) {
      std::uint8_t i_sa = 0, i_sr = 0, i_aa = 0, i_ar = 0;
      std::uint32_t rest = mask;
      while (rest) {
        int b = std::countr_zero(rest);
        rest &= rest - 1;
        const std::uint32_t sub = mask & ~(std::uint32_t{1} << b);
        i_sa = std::max(i_sa, sa[sub]);
        i_sr = std::max(i_sr, sr[sub]);
        i_aa = std::max(i_aa, aa[sub]);
        i_ar = std::max(i_ar, ar[sub]);
      }
      sa[mask] = i_sa;
      sr[mask] = i_sr;
      aa[mask] = i_aa;
      ar[mask] = i_ar;
      if (!is_loop_set(mask)) continue;
      if (accepting(mask)) {
        if (i_sr > 0) sa[mask] = std::max<std::uint8_t>(sa[mask], i_sr + 1);
        aa[mask] = std::max<std::uint8_t>(aa[mask], std::max<std::uint8_t>(1, i_ar + 1));
      } else {
        sr[mask] = std::max<std::uint8_t>(sr[mask], std::max<std::uint8_t>(1, i_sa + 1));
        if (i_aa > 0) ar[mask] = std::max<std::uint8_t>(ar[mask], i_aa + 1);
      }
    }
    return {sa[full] / 2, ar[full] / 2};
  }
};

}  // namespace

ChainAnalysis alternation_chains(const DetOmega& m, std::size_t max_scc_size) {
  MPH_REQUIRE(max_scc_size <= 31, "max_scc_size above 31 is not supported");
  MarkedGraph g = omega::to_graph(m);
  auto reach = omega::graph_reachable(g);
  ChainAnalysis out;
  for (auto& scc : omega::nontrivial_sccs(g, reach)) {
    MPH_REQUIRE(scc.size() <= max_scc_size,
                "SCC of size " + std::to_string(scc.size()) +
                    " exceeds max_scc_size for exact chain analysis");
    auto [streett, rabin] = SccChainDp(g, m.acceptance(), std::move(scc)).run();
    out.streett_chain = std::max(out.streett_chain, streett);
    out.rabin_chain = std::max(out.rabin_chain, rabin);
  }
  return out;
}

bool is_simple_reactivity(const DetOmega& m, std::size_t max_scc_size) {
  return alternation_chains(m, max_scc_size).streett_chain <= 1;
}

std::size_t streett_index(const DetOmega& m, std::size_t max_scc_size) {
  return std::max<std::size_t>(1, alternation_chains(m, max_scc_size).streett_chain);
}

std::size_t rabin_index(const DetOmega& m, std::size_t max_scc_size) {
  return std::max<std::size_t>(1, alternation_chains(m, max_scc_size).rabin_chain);
}

std::size_t obligation_chain(const DetOmega& m, std::size_t max_scc_size) {
  MarkedGraph g = omega::to_graph(m);
  auto reach = omega::graph_reachable(g);
  auto sccs = omega::nontrivial_sccs(g, reach);
  // Determine each SCC's homogeneous acceptance value by probing for an
  // accepting and a rejecting loop inside it.
  std::vector<bool> value(sccs.size());
  for (std::size_t i = 0; i < sccs.size(); ++i) {
    MPH_REQUIRE(sccs[i].size() <= max_scc_size,
                "SCC exceeds max_scc_size for obligation chain analysis");
    const MarkedGraph sub = omega::induced_subgraph(g, sccs[i]);
    bool has_acc = omega::find_good_loop(sub, m.acceptance()).has_value();
    bool has_rej = omega::find_good_loop(sub, m.acceptance().negate()).has_value();
    MPH_REQUIRE(!(has_acc && has_rej),
                "automaton has a mixed SCC: its language is not an obligation property");
    MPH_ASSERT(has_acc || has_rej);
    value[i] = has_acc;
  }
  // Reachability between nontrivial SCCs (transitive, via the full graph).
  std::vector<std::vector<bool>> reaches(sccs.size());
  for (std::size_t i = 0; i < sccs.size(); ++i) {
    const std::vector<bool> seen = omega::forward_closure(g, omega::state_mask(g, sccs[i]));
    reaches[i].resize(sccs.size(), false);
    for (std::size_t j = 0; j < sccs.size(); ++j)
      if (j != i) reaches[i][j] = seen[sccs[j][0]];
  }
  // Longest chain of rejecting→accepting flips along SCC reachability order,
  // computed by iterating in a topological-compatible order (reaches is a
  // DAG order on distinct SCCs).
  std::vector<std::size_t> flips(sccs.size(), 0);
  // Repeat until fixpoint (≤ |sccs| rounds; the relation is acyclic).
  for (std::size_t round = 0; round < sccs.size(); ++round) {
    bool changed = false;
    for (std::size_t j = 0; j < sccs.size(); ++j)
      for (std::size_t i = 0; i < sccs.size(); ++i) {
        if (!reaches[i][j]) continue;
        const std::size_t cand = flips[i] + ((!value[i] && value[j]) ? 1 : 0);
        if (cand > flips[j]) {
          flips[j] = cand;
          changed = true;
        }
      }
    if (!changed) break;
  }
  std::size_t best = 0;
  for (std::size_t j = 0; j < sccs.size(); ++j) best = std::max(best, flips[j]);
  return best;
}

}  // namespace mph::core
