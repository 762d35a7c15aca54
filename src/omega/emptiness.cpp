#include "src/omega/emptiness.hpp"

#include <algorithm>
#include <deque>

#include "src/omega/graph.hpp"
#include "src/support/check.hpp"

namespace mph::omega {
namespace {

/// Shortest symbol path from `from` to any state in `targets`, moving only
/// through states allowed by `within` (empty mask = anywhere).
std::optional<lang::Word> symbol_path(const DetOmega& m, State from,
                                      const std::vector<bool>& targets,
                                      const std::vector<bool>* within) {
  if (targets[from]) return lang::Word{};
  struct Back {
    State prev;
    Symbol sym;
  };
  std::vector<std::optional<Back>> back(m.state_count());
  std::deque<State> queue{from};
  std::vector<bool> seen(m.state_count(), false);
  seen[from] = true;
  while (!queue.empty()) {
    State q = queue.front();
    queue.pop_front();
    for (Symbol s = 0; s < m.alphabet().size(); ++s) {
      State t = m.next(q, s);
      if (seen[t]) continue;
      if (within && !(*within)[t]) continue;
      seen[t] = true;
      back[t] = Back{q, s};
      if (targets[t]) {
        lang::Word w;
        for (State cur = t; cur != from;) {
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

/// A cyclic word from `anchor` back to `anchor` visiting every state of the
/// loop set J (J must be closed under "strongly connected within J").
lang::Word covering_cycle(const DetOmega& m, State anchor, const std::vector<State>& loop) {
  std::vector<bool> within(m.state_count(), false);
  for (State q : loop) within[q] = true;
  lang::Word out;
  State cur = anchor;
  for (State goal : loop) {
    std::vector<bool> target(m.state_count(), false);
    target[goal] = true;
    auto leg = symbol_path(m, cur, target, &within);
    MPH_ASSERT(leg.has_value());
    out.insert(out.end(), leg->begin(), leg->end());
    cur = goal;
  }
  std::vector<bool> target(m.state_count(), false);
  target[anchor] = true;
  auto leg = symbol_path(m, cur, target, &within);
  MPH_ASSERT(leg.has_value());
  out.insert(out.end(), leg->begin(), leg->end());
  if (out.empty()) {
    // Single-state loop reached with no movement: take its self-loop symbol.
    for (Symbol s = 0; s < m.alphabet().size(); ++s)
      if (m.next(anchor, s) == anchor) {
        out.push_back(s);
        break;
      }
    MPH_ASSERT(!out.empty());
  }
  return out;
}

}  // namespace

std::optional<Lasso> accepting_lasso(const DetOmega& m) {
  MarkedGraph g = to_graph(m);
  auto loop = find_good_loop(g, m.acceptance());
  if (!loop) return std::nullopt;
  std::vector<bool> targets(m.state_count(), false);
  for (State q : *loop) targets[q] = true;
  auto prefix = symbol_path(m, m.initial(), targets, nullptr);
  MPH_ASSERT(prefix.has_value());
  State anchor = m.run(m.initial(), *prefix);
  Lasso l{*prefix, covering_cycle(m, anchor, *loop)};
  MPH_ASSERT(m.accepts(l));
  return l;
}

bool is_empty(const DetOmega& m) {
  return !find_good_loop(to_graph(m), m.acceptance()).has_value();
}

std::vector<bool> live_states(const DetOmega& m) {
  return live_states(to_graph(m), m.acceptance());
}

lang::Dfa pref(const DetOmega& m) {
  auto live = live_states(m);
  lang::Dfa out(m.alphabet(), m.state_count(), m.initial());
  for (State q = 0; q < m.state_count(); ++q) {
    out.set_accepting(q, live[q]);
    for (Symbol s = 0; s < m.alphabet().size(); ++s) out.set_transition(q, s, m.next(q, s));
  }
  return out;
}

bool contains(const DetOmega& b, const DetOmega& a) {
  return is_empty(intersection(a, complement(b)));
}

bool equivalent(const DetOmega& a, const DetOmega& b) {
  return contains(a, b) && contains(b, a);
}

std::optional<Lasso> difference_witness(const DetOmega& a, const DetOmega& b) {
  if (auto l = accepting_lasso(intersection(a, complement(b)))) return l;
  return accepting_lasso(intersection(b, complement(a)));
}

}  // namespace mph::omega
