#include "src/omega/complement.hpp"

#include <algorithm>

#include "src/omega/graph.hpp"
#include "src/support/check.hpp"
#include "src/support/flat_hash.hpp"

namespace mph::omega {

namespace {

/// Macrostate keys are flat std::uint32_t vectors with this separator
/// between components (state ids stay far below it).
constexpr std::uint32_t kSep = ~std::uint32_t{0};

/// NCSB free-split cap: a single (macrostate, symbol) pair enumerates
/// 2^|free| successors; beyond this we refuse (BudgetStates) instead of
/// stalling inside one successor call.
constexpr std::size_t kNcsbFreeCap = 16;

void sort_unique(std::vector<State>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

bool sorted_contains(const std::vector<State>& v, State q) {
  return std::binary_search(v.begin(), v.end(), q);
}

std::vector<State> intersect_sorted(const std::vector<State>& a, const std::vector<State>& b) {
  std::vector<State> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  return out;
}

/// States of `n` reachable from an accepting state (reflexively) — the
/// deterministic part Q_D of a semi-deterministic automaton.
std::vector<bool> deterministic_part(const Nba& n) {
  const MarkedGraph g = to_graph(n);
  std::vector<bool> accepting(g.size());
  for (State q = 0; q < g.size(); ++q) accepting[q] = g.marks[q] != 0;
  return forward_closure(g, std::move(accepting));
}

/// Whether every state in `det` has at most one successor per symbol.
bool deterministic_on(const Nba& n, const std::vector<bool>& det) {
  std::vector<State> succ;
  for (State q = 0; q < n.state_count(); ++q) {
    if (!det[q]) continue;
    for (Symbol s = 0; s < n.alphabet().size(); ++s) {
      succ.clear();
      for (auto [sym, t] : n.edges(q))
        if (sym == s) succ.push_back(t);
      sort_unique(succ);
      if (succ.size() > 1) return false;
    }
  }
  return true;
}

}  // namespace

bool is_semi_deterministic(const Nba& n) { return deterministic_on(n, deterministic_part(n)); }

struct ComplementEngine::Part {
  Nba aut;
  bool ncsb = false;
  std::vector<bool> det;          ///< Q_D membership (NCSB only)
  std::uint32_t rank_bound = 0;   ///< max rank 2(n−f) (rank-based only)
  /// delta[q][s]: sorted, duplicate-free successor list.
  std::vector<std::vector<std::vector<State>>> delta;

  /// Macrostate keys; a macrostate's id is its key's index.
  FlatInterner<std::vector<std::uint32_t>, IntRangeHash> ids;
  std::vector<bool> acc;
  std::vector<std::optional<std::vector<std::pair<Symbol, std::uint32_t>>>> succs;

  explicit Part(Nba a) : aut(std::move(a)) {}

  /// Interns a macrostate key, admitting against the shared work counter.
  std::uint32_t intern(const std::vector<std::uint32_t>& key, bool accepting,
                       const Budget& budget, std::size_t& work) {
    auto [id, fresh] = ids.intern_admitted(key, [&](std::size_t) { budget.require(work++); });
    if (fresh) {
      acc.push_back(accepting);
      succs.emplace_back();
    }
    return static_cast<std::uint32_t>(id);
  }

  std::vector<State> image(const std::vector<State>& set, Symbol s) const {
    std::vector<State> out;
    for (State q : set)
      out.insert(out.end(), delta[q][s].begin(), delta[q][s].end());
    sort_unique(out);
    return out;
  }
};

namespace {

/// Restricts `input` to `keep`, renumbering densely; accepting states are
/// `accepting_mask ∩ keep`.
Nba build_part(const Nba& input, const std::vector<bool>& keep,
               const std::vector<bool>& accepting_mask) {
  Nba out(input.alphabet());
  std::vector<State> map(input.state_count(), 0);
  for (State q = 0; q < input.state_count(); ++q)
    if (keep[q]) {
      map[q] = out.add_state();
      out.set_accepting(map[q], accepting_mask[q]);
    }
  for (State q = 0; q < input.state_count(); ++q) {
    if (!keep[q]) continue;
    for (auto [s, t] : input.edges(q))
      if (keep[t]) out.add_edge(map[q], s, map[t]);
  }
  for (State q : input.initial_states())
    if (keep[q]) out.add_initial(map[q]);
  return out;
}

}  // namespace

ComplementEngine::ComplementEngine(const Nba& input, const ComplementOptions& options)
    : alphabet_(input.alphabet()), options_(options) {
  const std::size_t ns = input.state_count();
  const MarkedGraph g = to_graph(input);
  const auto reach = graph_reachable(g);
  const MarkedGraph rev = reversed(g);
  for (const auto& scc : nontrivial_sccs(g, std::vector<bool>(ns, true))) {
    if (std::none_of(scc.begin(), scc.end(), [&](State q) { return input.accepting(q); }))
      continue;
    // Keep states that are reachable from the initial states and can reach
    // this SCC; accepting states are F ∩ SCC — runs accepting in this part
    // are exactly the input runs whose infinity set meets F inside it.
    const std::vector<bool> in_scc = state_mask(g, scc);
    const std::vector<bool> canreach = forward_closure(rev, in_scc);
    std::vector<bool> keep(ns, false), accepting_mask(ns, false);
    bool any_initial = false;
    for (State q = 0; q < ns; ++q) {
      keep[q] = reach[q] && canreach[q];
      accepting_mask[q] = in_scc[q] && input.accepting(q);
    }
    for (State q : input.initial_states()) any_initial = any_initial || keep[q];
    if (!any_initial) continue;

    auto part = std::make_unique<Part>(build_part(input, keep, accepting_mask));
    const Nba& a = part->aut;
    std::vector<bool> det = deterministic_part(a);
    const bool semi = deterministic_on(a, det);
    switch (options_.algorithm) {
      case ComplementAlgorithm::Auto:
        part->ncsb = semi;
        break;
      case ComplementAlgorithm::Ncsb:
        MPH_REQUIRE(semi, "forced NCSB requires a semi-deterministic part");
        part->ncsb = true;
        break;
      case ComplementAlgorithm::Rank:
        part->ncsb = false;
        break;
    }
    if (part->ncsb) {
      part->det = std::move(det);
    } else {
      std::size_t f = 0;
      for (State q = 0; q < a.state_count(); ++q)
        if (a.accepting(q)) ++f;
      part->rank_bound = static_cast<std::uint32_t>(2 * (a.state_count() - f));
    }
    part->delta.assign(a.state_count(),
                       std::vector<std::vector<State>>(alphabet_.size()));
    for (State q = 0; q < a.state_count(); ++q) {
      for (auto [s, t] : a.edges(q)) part->delta[q][s].push_back(t);
      for (auto& row : part->delta[q]) sort_unique(row);
    }
    parts_.push_back(std::move(part));
  }
}

ComplementEngine::~ComplementEngine() = default;

std::size_t ComplementEngine::part_count() const { return parts_.size(); }

bool ComplementEngine::part_uses_ncsb(std::size_t part) const {
  MPH_REQUIRE(part < parts_.size(), "part out of range");
  return parts_[part]->ncsb;
}

bool ComplementEngine::part_accepting(std::size_t part, std::uint32_t id) const {
  MPH_REQUIRE(part < parts_.size(), "part out of range");
  MPH_REQUIRE(id < parts_[part]->acc.size(), "macrostate out of range");
  return parts_[part]->acc[id];
}

ComplementStats ComplementEngine::stats() const {
  ComplementStats st;
  st.parts = parts_.size();
  for (const auto& p : parts_) {
    if (p->ncsb)
      ++st.ncsb_parts;
    else
      ++st.rank_parts;
    st.macrostates += p->acc.size();
  }
  return st;
}

namespace {

/// Splits a flat key on kSep into component views.
std::vector<std::vector<std::uint32_t>> split_key(const std::vector<std::uint32_t>& key) {
  std::vector<std::vector<std::uint32_t>> out(1);
  for (std::uint32_t v : key) {
    if (v == kSep)
      out.emplace_back();
    else
      out.back().push_back(v);
  }
  return out;
}

}  // namespace

std::uint32_t ComplementEngine::part_initial(std::size_t part) {
  MPH_REQUIRE(part < parts_.size(), "part out of range");
  Part& p = *parts_[part];
  std::vector<State> init(p.aut.initial_states());
  sort_unique(init);
  std::vector<std::uint32_t> key;
  bool accepting = false;
  if (p.ncsb) {
    // (N, C, S, B) = (I ∖ Q_D, I ∩ Q_D, ∅, I ∩ Q_D).
    std::vector<State> n0, c0;
    for (State q : init) (p.det[q] ? c0 : n0).push_back(q);
    key.insert(key.end(), n0.begin(), n0.end());
    key.push_back(kSep);
    key.insert(key.end(), c0.begin(), c0.end());
    key.push_back(kSep);
    key.push_back(kSep);
    key.insert(key.end(), c0.begin(), c0.end());
    accepting = c0.empty();
  } else {
    // Every initial state starts at the (even) maximal rank; O starts empty.
    for (State q : init) {
      key.push_back(q);
      key.push_back(p.rank_bound);
    }
    key.push_back(kSep);
    accepting = true;
  }
  return p.intern(key, accepting, options_.budget, work_);
}

const std::vector<std::pair<Symbol, std::uint32_t>>& ComplementEngine::part_successors(
    std::size_t part, std::uint32_t id) {
  MPH_REQUIRE(part < parts_.size(), "part out of range");
  Part& p = *parts_[part];
  MPH_REQUIRE(id < p.succs.size(), "macrostate out of range");
  if (p.succs[id].has_value()) return *p.succs[id];

  const auto comps = split_key(p.ids[id]);

  std::vector<std::pair<Symbol, std::uint32_t>> edges;
  auto intern = [&](const std::vector<std::uint32_t>& k, bool accepting) {
    return p.intern(k, accepting, options_.budget, work_);
  };

  if (p.ncsb) {
    MPH_ASSERT(comps.size() == 4);
    const std::vector<std::uint32_t>&N = comps[0], &C = comps[1], &S = comps[2], &B = comps[3];
    for (Symbol s = 0; s < alphabet_.size(); ++s) {
      auto dN = p.image(N, s);
      auto dC = p.image(C, s);
      auto dS = p.image(S, s);
      // Blocked: a safe run would visit F again.
      if (std::any_of(dS.begin(), dS.end(), [&](State q) { return p.aut.accepting(q); }))
        continue;
      std::vector<State> nprime, tracked;
      for (State q : dN) (p.det[q] ? tracked : nprime).push_back(q);
      tracked.insert(tracked.end(), dC.begin(), dC.end());
      tracked.insert(tracked.end(), dS.begin(), dS.end());
      sort_unique(tracked);
      // Mandatory C′: F-states (S′ ∩ F = ∅); mandatory S′: δ(S); the rest
      // split freely — the nondeterministic "safe from here on" guess.
      std::vector<State> mand_c, free;
      for (State q : tracked) {
        if (p.aut.accepting(q))
          mand_c.push_back(q);
        else if (!sorted_contains(dS, q))
          free.push_back(q);
      }
      if (free.size() > kNcsbFreeCap) throw BudgetExhausted(Outcome::BudgetStates);
      auto dB = p.image(B, s);
      for (std::uint32_t mask = 0; mask < (std::uint32_t{1} << free.size()); ++mask) {
        if ((mask & 0xFF) == 0) {
          Outcome o = options_.budget.poll();
          if (!is_complete(o)) throw BudgetExhausted(o);
        }
        std::vector<State> cp = mand_c, sp = dS;
        for (std::size_t i = 0; i < free.size(); ++i)
          ((mask >> i) & 1 ? sp : cp).push_back(free[i]);
        sort_unique(cp);
        sort_unique(sp);
        std::vector<State> bp = B.empty() ? cp : intersect_sorted(dB, cp);
        std::vector<std::uint32_t> k;
        k.insert(k.end(), nprime.begin(), nprime.end());
        k.push_back(kSep);
        k.insert(k.end(), cp.begin(), cp.end());
        k.push_back(kSep);
        k.insert(k.end(), sp.begin(), sp.end());
        k.push_back(kSep);
        k.insert(k.end(), bp.begin(), bp.end());
        edges.emplace_back(s, intern(k, bp.empty()));
      }
    }
  } else {
    MPH_ASSERT(comps.size() == 2);
    // comps[0] is (state, rank) pairs; comps[1] is the O-set.
    std::vector<State> support;
    std::vector<std::uint32_t> rank;
    MPH_ASSERT(comps[0].size() % 2 == 0);
    for (std::size_t i = 0; i < comps[0].size(); i += 2) {
      support.push_back(comps[0][i]);
      rank.push_back(comps[0][i + 1]);
    }
    const std::vector<std::uint32_t>& oset = comps[1];
    std::vector<std::uint32_t> key;  // scratch for each emitted macrostate
    std::vector<State> evens, oset_next;
    for (Symbol s = 0; s < alphabet_.size(); ++s) {
      auto next_support = p.image(support, s);
      if (next_support.empty()) {
        // No run survives: the accepting sink (empty support).
        edges.emplace_back(s, intern({kSep}, true));
        continue;
      }
      // cap(q′) = min over predecessors of their rank, floored to even on
      // accepting states (odd ranks are forbidden on F).
      std::vector<std::uint32_t> cap(next_support.size(), p.rank_bound);
      for (std::size_t i = 0; i < support.size(); ++i)
        for (State t : p.delta[support[i]][s]) {
          auto pos = std::lower_bound(next_support.begin(), next_support.end(), t) -
                     next_support.begin();
          cap[pos] = std::min(cap[pos], rank[i]);
        }
      for (std::size_t i = 0; i < next_support.size(); ++i)
        if (p.aut.accepting(next_support[i])) cap[i] &= ~std::uint32_t{1};
      auto d_o = p.image(std::vector<State>(oset.begin(), oset.end()), s);
      std::vector<bool> on_f(next_support.size());
      for (std::size_t i = 0; i < next_support.size(); ++i)
        on_f[i] = p.aut.accepting(next_support[i]);
      // Enumerate all pointwise-≤ rankings (full Kupferman–Vardi; each leaf
      // is a candidate macrostate and counts against the budget).
      auto emit = [&](const std::vector<std::uint32_t>& assign) {
        options_.budget.require(work_++);
        key.clear();
        evens.clear();
        for (std::size_t i = 0; i < next_support.size(); ++i) {
          key.push_back(next_support[i]);
          key.push_back(assign[i]);
          if ((assign[i] & 1) == 0) evens.push_back(next_support[i]);
        }
        key.push_back(kSep);
        const std::vector<State>* op = &evens;
        if (!oset.empty()) {
          oset_next.clear();
          std::set_intersection(d_o.begin(), d_o.end(), evens.begin(), evens.end(),
                                std::back_inserter(oset_next));
          op = &oset_next;
        }
        key.insert(key.end(), op->begin(), op->end());
        edges.emplace_back(s, intern(key, op->empty()));
      };
      // Iterative odometer over ranks (descending from cap keeps the
      // highest-rank successor first deterministically).
      std::vector<std::uint32_t> cur(cap);
      for (;;) {
        bool ok = true;
        for (std::size_t i = 0; i < cur.size(); ++i)
          if (on_f[i] && (cur[i] & 1)) ok = false;
        if (ok) emit(cur);
        // Decrement odometer.
        std::size_t i = 0;
        while (i < cur.size() && cur[i] == 0) {
          cur[i] = cap[i];
          ++i;
        }
        if (i == cur.size()) break;
        --cur[i];
      }
    }
  }
  // Ascending (symbol, id), duplicates dropped.
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  p.succs[id] = std::move(edges);
  return *p.succs[id];
}

ComplementEngine::Edges ComplementEngine::part_successors(std::size_t part, std::uint32_t id,
                                                          Symbol s) {
  const auto& all = part_successors(part, id);
  auto lo = std::lower_bound(all.begin(), all.end(), s,
                             [](const auto& e, Symbol sym) { return e.first < sym; });
  auto hi = std::upper_bound(lo, all.end(), s,
                             [](Symbol sym, const auto& e) { return sym < e.first; });
  return {lo, hi};
}

ComplementResult complement(const Nba& n, const ComplementOptions& options) {
  ComplementResult out;
  try {
    ComplementEngine eng(n, options);
    const std::size_t k = eng.part_count();
    Nba result(n.alphabet());
    if (k == 0) {
      // L(n) = ∅: the complement is universal.
      State u = result.add_state();
      result.set_accepting(u, true);
      result.add_initial(u);
      for (Symbol s = 0; s < n.alphabet().size(); ++s) result.add_edge(u, s, u);
      out.stats = eng.stats();
      out.value = std::move(result);
      return out;
    }
    // Degeneralized product of the part complements: node = (ids…, c); the
    // counter advances when layer c's component is accepting and a node is
    // accepting when the last layer fires.
    // Node ids are result states, interned in BFS order.
    FlatInterner<std::vector<std::uint32_t>, IntRangeHash> product;
    auto intern = [&](const std::vector<std::uint32_t>& node) {
      auto [id, fresh] = product.intern_admitted(
          node, [&](std::size_t count) { options.budget.require(count); });
      if (fresh) {
        result.add_state();
        const std::uint32_t c = node.back();
        result.set_accepting(id, c == k - 1 && eng.part_accepting(c, node[c]));
      }
      return static_cast<State>(id);
    };
    std::vector<std::uint32_t> succ(k + 1);
    for (std::size_t i = 0; i < k; ++i) succ[i] = eng.part_initial(i);
    succ[k] = 0;
    result.add_initial(intern(succ));
    std::vector<ComplementEngine::Edges> runs(k);
    for (State from = 0; from < product.size(); ++from) {
      const std::vector<std::uint32_t> node = product[from];  // interning grows the table
      const std::uint32_t c = node.back();
      bool layer_acc = eng.part_accepting(c, node[c]);
      std::uint32_t next_c = (c == k - 1 && layer_acc) ? 0 : (layer_acc ? c + 1 : c);
      // Expand every part first, in part order: that fixes the order in
      // which macrostates are interned and admitted.
      for (std::size_t i = 0; i < k; ++i) eng.part_successors(i, node[i]);
      for (Symbol s = 0; s < n.alphabet().size(); ++s) {
        bool possible = true;
        for (std::size_t i = 0; i < k && possible; ++i) {
          runs[i] = eng.part_successors(i, node[i], s);
          possible = !runs[i].empty();
        }
        if (!possible) continue;
        // Cross product of the per-part choices.
        std::vector<std::size_t> pick(k, 0);
        for (;;) {
          for (std::size_t i = 0; i < k; ++i) succ[i] = runs[i][pick[i]].second;
          succ[k] = next_c;
          result.add_edge(from, s, intern(succ));
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
    out.stats = eng.stats();
    out.value = std::move(result);
  } catch (const BudgetExhausted& e) {
    out.value.reset();
    out.outcome = e.outcome();
  }
  return out;
}

}  // namespace mph::omega
