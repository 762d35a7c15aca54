#include "src/fuzz/reference_determinize.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <set>

namespace mph::fuzz {
namespace {

using lang::State;
using lang::Symbol;

std::set<State> eps_closure(const lang::Nfa& n, std::set<State> states) {
  std::deque<State> queue(states.begin(), states.end());
  while (!queue.empty()) {
    State q = queue.front();
    queue.pop_front();
    for (State t : n.epsilon_edges(q))
      if (states.insert(t).second) queue.push_back(t);
  }
  return states;
}

lang::Dfa determinize_impl(const lang::Nfa& n, const Budget& budget) {
  const std::size_t sigma = n.alphabet().size();
  std::map<std::set<State>, State> index;
  std::vector<std::set<State>> subsets;
  auto intern = [&](std::set<State> qs) {
    auto [it, inserted] = index.try_emplace(qs, static_cast<State>(subsets.size()));
    if (inserted) {
      budget.require(subsets.size());
      subsets.push_back(std::move(qs));
    }
    return it->second;
  };
  intern(eps_closure(n, {n.initial()}));
  std::vector<std::vector<State>> trans;
  for (State q = 0; q < subsets.size(); ++q) {
    if (Outcome o = budget.poll(); !is_complete(o)) throw BudgetExhausted(o);
    trans.emplace_back(sigma);
    for (Symbol s = 0; s < sigma; ++s) {
      std::set<State> next;
      for (State p : subsets[q])
        for (auto [sym, t] : n.edges(p))
          if (sym == s) next.insert(t);
      trans[q][s] = intern(eps_closure(n, std::move(next)));
    }
  }
  lang::Dfa out(n.alphabet(), subsets.size(), 0);
  for (State q = 0; q < subsets.size(); ++q) {
    bool acc = std::any_of(subsets[q].begin(), subsets[q].end(),
                           [&](State p) { return n.accepting(p); });
    out.set_accepting(q, acc);
    for (Symbol s = 0; s < sigma; ++s) out.set_transition(q, s, trans[q][s]);
  }
  return out;
}

}  // namespace

Budgeted<lang::Dfa> reference_determinize(const lang::Nfa& n, const Budget& budget) {
  try {
    return {determinize_impl(n, budget), Outcome::Complete};
  } catch (const BudgetExhausted& e) {
    return {std::nullopt, e.outcome()};
  }
}

std::optional<std::string> dfa_mismatch(const lang::Dfa& want, const lang::Dfa& got) {
  if (want.state_count() != got.state_count())
    return "state count " + std::to_string(got.state_count()) + ", reference " +
           std::to_string(want.state_count());
  if (want.initial() != got.initial()) return std::string("initial state differs");
  const std::size_t sigma = want.alphabet().size();
  for (State q = 0; q < want.state_count(); ++q) {
    if (want.accepting(q) != got.accepting(q))
      return "accepting bit of state " + std::to_string(q) + " differs";
    for (Symbol s = 0; s < sigma; ++s)
      if (want.next(q, s) != got.next(q, s))
        return "transition (" + std::to_string(q) + ", " + std::to_string(s) + ") goes to " +
               std::to_string(got.next(q, s)) + ", reference " +
               std::to_string(want.next(q, s));
  }
  return std::nullopt;
}

}  // namespace mph::fuzz
