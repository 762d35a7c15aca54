#include "src/lang/dfa_ops.hpp"

#include <algorithm>
#include <deque>
#include <map>

#include "src/support/check.hpp"
#include "src/support/flat_hash.hpp"

namespace mph::lang {

Dfa complement(const Dfa& d) {
  Dfa out = d;
  for (State q = 0; q < out.state_count(); ++q) out.set_accepting(q, !out.accepting(q));
  return out;
}

Dfa product(const Dfa& a, const Dfa& b, const std::function<bool(bool, bool)>& combine) {
  MPH_REQUIRE(a.alphabet() == b.alphabet(), "product requires a common alphabet");
  const std::size_t sigma = a.alphabet().size();
  // Build only the reachable part of the product.
  std::map<std::pair<State, State>, State> index;
  std::vector<std::pair<State, State>> states;
  auto intern = [&](State qa, State qb) {
    auto [it, inserted] = index.try_emplace({qa, qb}, static_cast<State>(states.size()));
    if (inserted) states.push_back({qa, qb});
    return it->second;
  };
  intern(a.initial(), b.initial());
  // Row-major alphabet-sized rows; `states` keeps growing while rows are
  // appended, so the table is indexed rather than iterated with `states`.
  std::vector<State> trans;
  for (State q = 0; q < states.size(); ++q) {
    auto [qa, qb] = states[q];
    for (Symbol s = 0; s < sigma; ++s) trans.push_back(intern(a.next(qa, s), b.next(qb, s)));
  }
  Dfa out(a.alphabet(), states.size(), 0);
  for (State q = 0; q < states.size(); ++q) {
    auto [qa, qb] = states[q];
    out.set_accepting(q, combine(a.accepting(qa), b.accepting(qb)));
    for (Symbol s = 0; s < sigma; ++s) out.set_transition(q, s, trans[q * sigma + s]);
  }
  return out;
}

Dfa intersection(const Dfa& a, const Dfa& b) {
  return product(a, b, [](bool x, bool y) { return x && y; });
}

Dfa union_of(const Dfa& a, const Dfa& b) {
  return product(a, b, [](bool x, bool y) { return x || y; });
}

Dfa difference(const Dfa& a, const Dfa& b) {
  return product(a, b, [](bool x, bool y) { return x && !y; });
}

std::vector<bool> reachable_states(const Dfa& d) {
  std::vector<bool> seen(d.state_count(), false);
  std::deque<State> queue{d.initial()};
  seen[d.initial()] = true;
  while (!queue.empty()) {
    State q = queue.front();
    queue.pop_front();
    for (Symbol s = 0; s < d.alphabet().size(); ++s) {
      State t = d.next(q, s);
      if (!seen[t]) {
        seen[t] = true;
        queue.push_back(t);
      }
    }
  }
  return seen;
}

std::vector<bool> coreachable_states(const Dfa& d) {
  // Reverse-BFS from accepting states.
  std::vector<std::vector<State>> preds(d.state_count());
  for (State q = 0; q < d.state_count(); ++q)
    for (Symbol s = 0; s < d.alphabet().size(); ++s) preds[d.next(q, s)].push_back(q);
  std::vector<bool> live(d.state_count(), false);
  std::deque<State> queue;
  for (State q = 0; q < d.state_count(); ++q)
    if (d.accepting(q)) {
      live[q] = true;
      queue.push_back(q);
    }
  while (!queue.empty()) {
    State q = queue.front();
    queue.pop_front();
    for (State p : preds[q])
      if (!live[p]) {
        live[p] = true;
        queue.push_back(p);
      }
  }
  return live;
}

bool is_empty(const Dfa& d) {
  auto reach = reachable_states(d);
  for (State q = 0; q < d.state_count(); ++q)
    if (reach[q] && d.accepting(q)) return false;
  return true;
}

bool is_universal(const Dfa& d) {
  auto reach = reachable_states(d);
  for (State q = 0; q < d.state_count(); ++q)
    if (reach[q] && !d.accepting(q)) return false;
  return true;
}

bool is_empty_nonepsilon(const Dfa& d) {
  return !shortest_accepted(d, /*require_nonempty=*/true).has_value();
}

bool subset(const Dfa& a, const Dfa& b) { return is_empty(difference(a, b)); }

bool equivalent(const Dfa& a, const Dfa& b) {
  return is_empty(product(a, b, [](bool x, bool y) { return x != y; }));
}

Dfa minimize(const Dfa& d) {
  const std::size_t sigma = d.alphabet().size();
  const auto reach = reachable_states(d);

  // Moore refinement over reachable states: classes start as accept/reject.
  std::vector<int> cls(d.state_count(), -1);
  for (State q = 0; q < d.state_count(); ++q)
    if (reach[q]) cls[q] = d.accepting(q) ? 1 : 0;

  std::size_t n_classes = 2;
  std::vector<int> sig;
  sig.reserve(sigma + 1);
  for (;;) {
    // Signature: (class, class-of-successor per symbol). Classes are
    // numbered in first-seen order of their signature.
    FlatInterner<std::vector<int>, IntRangeHash> sig_to_class;
    std::vector<int> next_cls(d.state_count(), -1);
    for (State q = 0; q < d.state_count(); ++q) {
      if (!reach[q]) continue;
      sig.clear();
      sig.push_back(cls[q]);
      for (Symbol s = 0; s < sigma; ++s) sig.push_back(cls[d.next(q, s)]);
      next_cls[q] =
          static_cast<int>(sig_to_class.intern_admitted(sig, [](std::size_t) {}).first);
    }
    const std::size_t refined = sig_to_class.size();
    cls = std::move(next_cls);
    if (refined == n_classes) break;
    n_classes = refined;
  }

  Dfa out(d.alphabet(), n_classes, static_cast<State>(cls[d.initial()]));
  for (State q = 0; q < d.state_count(); ++q) {
    if (!reach[q]) continue;
    const auto c = static_cast<State>(cls[q]);
    out.set_accepting(c, d.accepting(q));
    for (Symbol s = 0; s < sigma; ++s)
      out.set_transition(c, s, static_cast<State>(cls[d.next(q, s)]));
  }
  return out;
}

std::optional<Word> shortest_accepted(const Dfa& d, bool require_nonempty) {
  if (!require_nonempty && d.accepting(d.initial())) return Word{};
  // BFS seeded from the depth-1 successors of the initial state, so that a
  // non-empty witness may revisit the initial state. Symbols are explored in
  // increasing order, so the first accepting state popped yields a shortest
  // witness.
  struct Back {
    State prev;
    Symbol sym;
    bool is_seed;
  };
  std::vector<std::optional<Back>> back(d.state_count());
  std::deque<State> bfs;
  for (Symbol s = 0; s < d.alphabet().size(); ++s) {
    State t = d.next(d.initial(), s);
    if (!back[t].has_value()) {
      back[t] = Back{d.initial(), s, true};
      bfs.push_back(t);
    }
  }
  auto reconstruct = [&](State q) {
    Word w;
    for (State cur = q;;) {
      const Back& b = *back[cur];
      w.push_back(b.sym);
      if (b.is_seed) break;
      cur = b.prev;
    }
    std::reverse(w.begin(), w.end());
    return w;
  };
  while (!bfs.empty()) {
    State q = bfs.front();
    bfs.pop_front();
    if (d.accepting(q)) return reconstruct(q);
    for (Symbol s = 0; s < d.alphabet().size(); ++s) {
      State t = d.next(q, s);
      if (!back[t].has_value()) {
        back[t] = Back{q, s, false};
        bfs.push_back(t);
      }
    }
  }
  return std::nullopt;
}

std::vector<Word> enumerate_accepted(const Dfa& d, std::size_t max_len) {
  std::vector<Word> out;
  // Level-by-level enumeration gives length-lexicographic order.
  std::vector<Word> level{Word{}};
  for (std::size_t len = 0; len <= max_len; ++len) {
    for (const Word& w : level)
      if (d.accepts(w)) out.push_back(w);
    if (len == max_len) break;
    std::vector<Word> next_level;
    next_level.reserve(level.size() * d.alphabet().size());
    for (const Word& w : level)
      for (Symbol s = 0; s < d.alphabet().size(); ++s) {
        Word e = w;
        e.push_back(s);
        next_level.push_back(std::move(e));
      }
    level = std::move(next_level);
  }
  return out;
}

Dfa prefixes(const Dfa& d) {
  Dfa out = d;
  const auto live = coreachable_states(d);
  for (State q = 0; q < out.state_count(); ++q) out.set_accepting(q, live[q]);
  return out;
}

bool is_prefix_closed(const Dfa& d) { return equivalent(d, prefixes(d)); }

Dfa single_word(const Alphabet& alphabet, const Word& w) {
  // Chain of |w|+1 states plus a dead state.
  const std::size_t n = w.size() + 2;
  const State dead = static_cast<State>(n - 1);
  Dfa out(alphabet, n, 0);
  for (State q = 0; q < n; ++q)
    for (Symbol s = 0; s < alphabet.size(); ++s) out.set_transition(q, s, dead);
  for (std::size_t i = 0; i < w.size(); ++i)
    out.set_transition(static_cast<State>(i), w[i], static_cast<State>(i + 1));
  out.set_accepting(static_cast<State>(w.size()));
  return out;
}

Dfa universal_dfa(const Alphabet& alphabet) {
  Dfa out(alphabet, 1, 0);
  out.set_accepting(0);
  return out;
}

Dfa empty_dfa(const Alphabet& alphabet) { return Dfa(alphabet, 1, 0); }

}  // namespace mph::lang
