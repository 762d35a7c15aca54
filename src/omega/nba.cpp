#include "src/omega/nba.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <deque>

#include "src/lang/dfa_ops.hpp"
#include "src/lang/nfa.hpp"
#include "src/omega/graph.hpp"
#include "src/support/check.hpp"

namespace mph::omega {

Nba::Nba(lang::Alphabet alphabet) : alphabet_(std::move(alphabet)) {}

State Nba::add_state() {
  edges_.emplace_back();
  accepting_.push_back(false);
  return static_cast<State>(edges_.size() - 1);
}

void Nba::add_edge(State from, Symbol on, State to) {
  MPH_REQUIRE(from < state_count() && to < state_count(), "state out of range");
  MPH_REQUIRE(on < alphabet_.size(), "symbol out of range");
  edges_[from].push_back({on, to});
}

void Nba::add_initial(State q) {
  MPH_REQUIRE(q < state_count(), "state out of range");
  initial_.push_back(q);
}

void Nba::set_accepting(State q, bool accepting) {
  MPH_REQUIRE(q < state_count(), "state out of range");
  accepting_[q] = accepting;
}

bool Nba::accepting(State q) const {
  MPH_REQUIRE(q < state_count(), "state out of range");
  return accepting_[q];
}

const std::vector<std::pair<Symbol, State>>& Nba::edges(State q) const {
  MPH_REQUIRE(q < state_count(), "state out of range");
  return edges_[q];
}

namespace {

/// Fixed-width bitset over dense indices; frontiers and reachability rows in
/// the lasso-acceptance hot path live here instead of `std::set<State>` (the
/// complementation engine hammers `accepts` on every oracle iteration).
class BitRow {
 public:
  explicit BitRow(std::size_t bits) : words_((bits + 63) / 64, 0) {}

  bool test(std::size_t i) const { return (words_[i >> 6] >> (i & 63)) & 1; }
  /// Sets bit i; returns true iff it was previously clear.
  bool set(std::size_t i) {
    std::uint64_t& w = words_[i >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (i & 63);
    if (w & bit) return false;
    w |= bit;
    return true;
  }
  bool any() const {
    return std::any_of(words_.begin(), words_.end(), [](std::uint64_t w) { return w != 0; });
  }
  void clear() { std::fill(words_.begin(), words_.end(), 0); }
  void swap(BitRow& other) { words_.swap(other.words_); }

  template <class Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t wi = 0; wi < words_.size(); ++wi)
      for (std::uint64_t w = words_[wi]; w != 0; w &= w - 1)
        fn(wi * 64 + static_cast<std::size_t>(std::countr_zero(w)));
  }

 private:
  std::vector<std::uint64_t> words_;
};

/// For each NBA state p: the states q reachable by reading `loop` once, with
/// a flag recording whether an accepting state was visited strictly along
/// the way (positions 1..|loop| of the leg, i.e. including the endpoint).
std::vector<std::vector<std::pair<State, bool>>> loop_relation(const Nba& n,
                                                               const lang::Word& loop) {
  const std::size_t ns = n.state_count();
  std::vector<std::vector<std::pair<State, bool>>> rel(ns);
  // Frontier bit 2q+flag = "in state q having seen an accepting state iff
  // flag" after the positions read so far.
  BitRow cur(2 * ns), next(2 * ns);
  for (State p = 0; p < ns; ++p) {
    cur.clear();
    cur.set(2 * p);
    for (Symbol s : loop) {
      next.clear();
      cur.for_each([&](std::size_t bit) {
        const State q = static_cast<State>(bit >> 1);
        const bool seen = (bit & 1) != 0;
        for (auto [sym, t] : n.edges(q))
          if (sym == s) next.set(2 * t + ((seen || n.accepting(t)) ? 1 : 0));
      });
      cur.swap(next);
    }
    // Keep the strongest flag per endpoint: a true edge dominates a false
    // one between the same endpoints, and cycles need at least one true
    // edge, so keeping the maximal flag loses nothing.
    for (State q = 0; q < ns; ++q) {
      if (cur.test(2 * q + 1))
        rel[p].push_back({q, true});
      else if (cur.test(2 * q))
        rel[p].push_back({q, false});
    }
  }
  return rel;
}

}  // namespace

bool Nba::accepts(const Lasso& l) const {
  MPH_REQUIRE(!l.loop.empty(), "lasso loop must be non-empty");
  const std::size_t ns = state_count();
  if (ns == 0 || initial_.empty()) return false;
  // States reachable after the prefix.
  BitRow boundary(ns);
  {
    BitRow cur(ns), next(ns);
    for (State q : initial_) cur.set(q);
    for (Symbol s : l.prefix) {
      next.clear();
      cur.for_each([&](std::size_t q) {
        for (auto [sym, t] : edges_[q])
          if (sym == s) next.set(t);
      });
      cur.swap(next);
    }
    boundary.swap(cur);
  }
  if (!boundary.any()) return false;
  auto rel = loop_relation(*this, l.loop);
  // Search for a reachable cycle in the loop-relation graph containing at
  // least one accepting-flagged edge: for every flagged edge (p,q) with p
  // reachable from the boundary, check q can reach p.
  // reach[p] = transitive-closure row of p in rel.
  std::vector<BitRow> reach(ns, BitRow(ns));
  std::vector<State> queue;
  for (State p = 0; p < ns; ++p) {
    BitRow& r = reach[p];
    r.set(p);
    queue.assign(1, p);
    while (!queue.empty()) {
      State q = queue.back();
      queue.pop_back();
      for (auto [t, seen] : rel[q]) {
        (void)seen;
        if (r.set(t)) queue.push_back(t);
      }
    }
  }
  bool found = false;
  boundary.for_each([&](std::size_t b) {
    if (found) return;
    reach[b].for_each([&](std::size_t p) {
      if (found) return;
      for (auto [q, seen] : rel[p])
        if (seen && reach[q].test(p)) {
          found = true;
          return;
        }
    });
  });
  return found;
}

bool Nba::accepts_text(std::string_view lasso_text) const {
  return accepts(parse_lasso(lasso_text, alphabet_));
}

namespace {

std::optional<lang::Word> nba_symbol_path(const Nba& n, const std::vector<State>& from,
                                          const std::vector<bool>& targets) {
  struct Back {
    State prev;
    Symbol sym;
    bool is_seed;
  };
  std::vector<std::optional<Back>> back(n.state_count());
  std::deque<State> queue;
  for (State q : from) {
    if (targets[q]) return lang::Word{};
    if (!back[q].has_value()) {
      back[q] = Back{q, 0, true};
      queue.push_back(q);
    }
  }
  while (!queue.empty()) {
    State q = queue.front();
    queue.pop_front();
    for (auto [s, t] : n.edges(q)) {
      if (back[t].has_value()) continue;
      back[t] = Back{q, s, false};
      if (targets[t]) {
        lang::Word w;
        for (State cur = t; !back[cur]->is_seed;) {
          w.push_back(back[cur]->sym);
          cur = back[cur]->prev;
        }
        std::reverse(w.begin(), w.end());
        return w;
      }
      queue.push_back(t);
    }
  }
  return std::nullopt;
}

}  // namespace

bool is_empty(const Nba& n) {
  return !find_good_loop(to_graph(n), Acceptance::buchi(0)).has_value();
}

std::optional<Lasso> accepting_lasso(const Nba& n) {
  // The lowest reachable accepting state inside a nontrivial SCC.
  auto cyc = good_loop_states(to_graph(n), Acceptance::buchi(0));
  std::optional<State> anchor;
  for (State q = 0; q < n.state_count(); ++q)
    if (cyc[q] && n.accepting(q)) {
      anchor = q;
      break;
    }
  if (!anchor) return std::nullopt;
  std::vector<bool> target(n.state_count(), false);
  target[*anchor] = true;
  auto prefix = nba_symbol_path(n, n.initial_states(), target);
  MPH_ASSERT(prefix.has_value());
  // Close a cycle anchor → anchor: try each outgoing edge, then BFS back.
  for (auto [s, t] : n.edges(*anchor)) {
    lang::Word loop{s};
    if (t != *anchor) {
      auto tail = nba_symbol_path(n, {t}, target);
      if (!tail) continue;
      loop.insert(loop.end(), tail->begin(), tail->end());
    }
    Lasso l{*prefix, loop};
    if (n.accepts(l)) return l;
  }
  // The anchor lies on a cycle, so one of the edges above must close it.
  MPH_ASSERT(false);
  return std::nullopt;
}

Nba to_nba(const DetOmega& m) {
  MPH_REQUIRE(m.acceptance().kind() == Acceptance::Kind::Inf,
              "to_nba requires Büchi (Inf) acceptance");
  const Mark mark = m.acceptance().mark();
  Nba out(m.alphabet());
  for (State q = 0; q < m.state_count(); ++q) {
    State added = out.add_state();
    MPH_ASSERT(added == q);
    out.set_accepting(q, (m.marks(q) & mark_bit(mark)) != 0);
  }
  for (State q = 0; q < m.state_count(); ++q)
    for (Symbol s = 0; s < m.alphabet().size(); ++s) out.add_edge(q, s, m.next(q, s));
  out.add_initial(m.initial());
  return out;
}

Nba intersect_with_cobuchi(const Nba& n, const DetOmega& d) {
  MPH_REQUIRE(n.alphabet() == d.alphabet(), "product requires a common alphabet");
  const auto& acc = d.acceptance();
  MPH_REQUIRE(acc.kind() == Acceptance::Kind::Fin || acc.is_true(),
              "right side must be co-Büchi (Fin) or trivially accepting");
  const bool trivial = acc.is_true();
  const MarkSet bad = trivial ? 0 : mark_bit(acc.mark());
  // Two phases: phase 0 tracks the product freely; at any point the run may
  // jump to phase 1, where bad-marked d-states are forbidden. Accepting
  // states are phase-1 states whose NBA component is accepting.
  Nba out(n.alphabet());
  const std::size_t nd = d.state_count();
  auto id = [&](State qn, State qd, int phase) {
    return static_cast<State>((qn * nd + qd) * 2 + static_cast<State>(phase));
  };
  for (State qn = 0; qn < n.state_count(); ++qn)
    for (State qd = 0; qd < nd; ++qd)
      for (int phase = 0; phase < 2; ++phase) {
        State added = out.add_state();
        MPH_ASSERT(added == id(qn, qd, phase));
        out.set_accepting(added, phase == 1 && n.accepting(qn));
      }
  for (State qn = 0; qn < n.state_count(); ++qn)
    for (State qd = 0; qd < nd; ++qd)
      for (auto [s, tn] : n.edges(qn)) {
        State td = d.next(qd, s);
        out.add_edge(id(qn, qd, 0), s, id(tn, td, 0));
        if ((d.marks(td) & bad) == 0) {
          out.add_edge(id(qn, qd, 0), s, id(tn, td, 1));  // commit now
          out.add_edge(id(qn, qd, 1), s, id(tn, td, 1));
        }
      }
  for (State qn : n.initial_states()) {
    out.add_initial(id(qn, d.initial(), 0));
    if ((d.marks(d.initial()) & bad) == 0) out.add_initial(id(qn, d.initial(), 1));
  }
  return out;
}

lang::Nfa pref_skeleton(const Nba& n) {
  MPH_REQUIRE(n.state_count() > 0, "pref_skeleton needs at least one state");
  auto live = live_states(to_graph(n), Acceptance::buchi(0));
  lang::Nfa skeleton(n.alphabet());
  for (State q = 1; q < n.state_count(); ++q) skeleton.add_state();
  for (State q = 0; q < n.state_count(); ++q) {
    skeleton.set_accepting(q, live[q]);
    for (auto [s, t] : n.edges(q)) skeleton.add_edge(q, s, t);
  }
  State fresh = skeleton.add_state();
  skeleton.set_initial(fresh);
  for (State q : n.initial_states()) skeleton.add_epsilon(fresh, q);
  return skeleton;
}

lang::Dfa pref(const Nba& n) {
  if (n.state_count() == 0) return lang::Dfa(n.alphabet(), 1, 0);
  return lang::minimize(lang::determinize(pref_skeleton(n)));
}

Budgeted<lang::Dfa> pref(const Nba& n, const Budget& budget) {
  Budgeted<lang::Dfa> out;
  if (n.state_count() == 0) {
    out.value = lang::Dfa(n.alphabet(), 1, 0);
    return out;
  }
  Budgeted<lang::Dfa> det = lang::determinize(pref_skeleton(n), budget);
  out.outcome = det.outcome;
  if (det.complete()) out.value = lang::minimize(*det.value);
  return out;
}

}  // namespace mph::omega
