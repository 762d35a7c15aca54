#include "src/lang/nfa.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "src/support/check.hpp"
#include "src/support/flat_hash.hpp"

namespace mph::lang {

Nfa::Nfa(Alphabet alphabet) : alphabet_(std::move(alphabet)) { initial_ = add_state(); }

State Nfa::add_state() {
  edges_.emplace_back();
  eps_.emplace_back();
  accepting_.push_back(false);
  return static_cast<State>(edges_.size() - 1);
}

void Nfa::add_edge(State from, Symbol on, State to) {
  MPH_REQUIRE(from < state_count() && to < state_count(), "state out of range");
  MPH_REQUIRE(on < alphabet_.size(), "symbol out of range");
  edges_[from].push_back({on, to});
}

void Nfa::add_epsilon(State from, State to) {
  MPH_REQUIRE(from < state_count() && to < state_count(), "state out of range");
  eps_[from].push_back(to);
}

void Nfa::set_initial(State q) {
  MPH_REQUIRE(q < state_count(), "state out of range");
  initial_ = q;
}

void Nfa::set_accepting(State q, bool accepting) {
  MPH_REQUIRE(q < state_count(), "state out of range");
  accepting_[q] = accepting;
}

bool Nfa::accepting(State q) const {
  MPH_REQUIRE(q < state_count(), "state out of range");
  return accepting_[q];
}

const std::vector<std::pair<Symbol, State>>& Nfa::edges(State q) const {
  MPH_REQUIRE(q < state_count(), "state out of range");
  return edges_[q];
}

const std::vector<State>& Nfa::epsilon_edges(State q) const {
  MPH_REQUIRE(q < state_count(), "state out of range");
  return eps_[q];
}

namespace {

/// Builds one subset at a time: a stamped mark array (never cleared between
/// subsets) filters duplicates, and finish() closes the subset under ε-moves
/// iteratively and puts it in ascending order, the canonical key.
class SubsetBuilder {
 public:
  explicit SubsetBuilder(const Nfa& n) : mark_(n.state_count(), 0), eps_first_(1, 0) {
    for (State q = 0; q < n.state_count(); ++q) {
      const auto& eps = n.epsilon_edges(q);
      eps_.insert(eps_.end(), eps.begin(), eps.end());
      eps_first_.push_back(static_cast<std::uint32_t>(eps_.size()));
    }
  }

  void begin() {
    subset_.clear();
    if (++stamp_ == 0) {
      std::fill(mark_.begin(), mark_.end(), 0);
      stamp_ = 1;
    }
  }

  void add(State q) {
    if (mark_[q] == stamp_) return;
    mark_[q] = stamp_;
    subset_.push_back(q);
  }

  const std::vector<State>& finish() {
    if (!eps_.empty())
      for (std::size_t i = 0; i < subset_.size(); ++i) {
        const State q = subset_[i];
        for (std::uint32_t e = eps_first_[q]; e < eps_first_[q + 1]; ++e) add(eps_[e]);
      }
    // A dense subset is read off the marks in one pass; a sparse one sorted.
    const std::size_t m = subset_.size();
    if (m * std::bit_width(m) > mark_.size()) {
      std::size_t k = 0;
      for (State q = 0; k < m; ++q)
        if (mark_[q] == stamp_) subset_[k++] = q;
    } else {
      std::sort(subset_.begin(), subset_.end());
    }
    return subset_;
  }

 private:
  std::vector<std::uint32_t> mark_;
  std::uint32_t stamp_ = 0;
  /// CSR ε-edges: the ε-successors of q are eps_[eps_first_[q] .. eps_first_[q+1]).
  std::vector<std::uint32_t> eps_first_;
  std::vector<State> eps_;
  std::vector<State> subset_;
};

}  // namespace

bool Nfa::accepts(const Word& w) const {
  SubsetBuilder build(*this);
  build.begin();
  build.add(initial_);
  std::vector<State> cur = build.finish();
  for (Symbol s : w) {
    build.begin();
    for (State q : cur)
      for (auto [sym, t] : edges_[q])
        if (sym == s) build.add(t);
    cur = build.finish();
  }
  return std::any_of(cur.begin(), cur.end(), [&](State q) { return accepting_[q]; });
}

namespace {

// Shared body of both determinize() overloads; throws BudgetExhausted at the
// interning site when the budget runs out. Subsets are interned in BFS order
// (subset q's successors by ascending symbol before subset q+1's), which is
// the DFA's state numbering.
Dfa determinize_impl(const Nfa& n, const Budget& budget) {
  const std::size_t sigma = n.alphabet().size();
  const std::size_t ns = n.state_count();
  // CSR successor lists: the targets of (q, s) are
  // succ[first[q·|Σ| + s] .. first[q·|Σ| + s + 1]).
  std::vector<std::uint32_t> first(ns * sigma + 1, 0);
  for (State q = 0; q < ns; ++q)
    for (auto [s, t] : n.edges(q)) ++first[q * sigma + s + 1];
  for (std::size_t i = 1; i < first.size(); ++i) first[i] += first[i - 1];
  std::vector<State> succ(first.back());
  {
    std::vector<std::uint32_t> fill(first.begin(), first.end() - 1);
    for (State q = 0; q < ns; ++q)
      for (auto [s, t] : n.edges(q)) succ[fill[q * sigma + s]++] = t;
  }

  FlatInterner<std::vector<State>, IntRangeHash> subsets;
  SubsetBuilder build(n);
  auto intern = [&](const std::vector<State>& qs) {
    return static_cast<State>(
        subsets.intern_admitted(qs, [&](std::size_t id) { budget.require(id); }).first);
  };
  build.begin();
  build.add(n.initial());
  intern(build.finish());
  std::vector<State> trans;  // row-major: subset · |Σ| + symbol
  for (State q = 0; q < subsets.size(); ++q) {
    if (Outcome o = budget.poll(); !is_complete(o)) throw BudgetExhausted(o);
    for (Symbol s = 0; s < sigma; ++s) {
      build.begin();
      for (State p : subsets[q]) {
        const std::size_t row = p * sigma + s;
        for (std::uint32_t e = first[row]; e < first[row + 1]; ++e) build.add(succ[e]);
      }
      trans.push_back(intern(build.finish()));
    }
  }
  Dfa out(n.alphabet(), subsets.size(), 0);
  auto accepting = [&](State p) { return n.accepting(p); };
  for (State q = 0; q < subsets.size(); ++q) {
    out.set_accepting(q, std::any_of(subsets[q].begin(), subsets[q].end(), accepting));
    for (Symbol s = 0; s < sigma; ++s) out.set_transition(q, s, trans[q * sigma + s]);
  }
  return out;
}

}  // namespace

Dfa determinize(const Nfa& n) { return determinize_impl(n, Budget()); }

Budgeted<Dfa> determinize(const Nfa& n, const Budget& budget) {
  try {
    return {determinize_impl(n, budget), Outcome::Complete};
  } catch (const BudgetExhausted& e) {
    return {std::nullopt, e.outcome()};
  }
}

Nfa to_nfa(const Dfa& d) {
  Nfa out(d.alphabet());
  // State 0 already exists as the NFA initial; add the rest.
  for (State q = 1; q < d.state_count(); ++q) out.add_state();
  // Map DFA state q to NFA state q, but make the NFA initial match.
  out.set_initial(d.initial());
  for (State q = 0; q < d.state_count(); ++q) {
    out.set_accepting(q, d.accepting(q));
    for (Symbol s = 0; s < d.alphabet().size(); ++s) out.add_edge(q, s, d.next(q, s));
  }
  return out;
}

}  // namespace mph::lang
