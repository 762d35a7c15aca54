#include "src/core/decompose.hpp"

#include <bit>
#include <map>

#include "src/omega/emptiness.hpp"
#include "src/omega/graph.hpp"
#include "src/omega/operators.hpp"
#include "src/support/check.hpp"

namespace mph::core {

using omega::Acceptance;
using omega::DetOmega;
using omega::Mark;
using omega::MarkSet;
using omega::State;
using omega::Symbol;

SafetyLivenessParts sl_decompose(const DetOmega& m) {
  return {omega::safety_closure(m), omega::liveness_extension(m)};
}

bool is_uniform_liveness(const DetOmega& m) {
  // States reachable by at least one symbol.
  const omega::MarkedGraph g = omega::to_graph(m);
  const std::vector<bool> seen =
      omega::forward_closure(g, omega::state_mask(g, g.succ[m.initial()]));
  std::vector<State> starts;
  for (State q = 0; q < m.state_count(); ++q)
    if (seen[q]) starts.push_back(q);
  MPH_ASSERT(!starts.empty());

  // Mark width of one copy.
  MarkSet used = m.acceptance().mentioned_marks();
  for (State q = 0; q < m.state_count(); ++q) used |= m.marks(q);
  const Mark width = static_cast<Mark>(64 - std::countl_zero(used | MarkSet{1}));
  MPH_REQUIRE(static_cast<std::size_t>(width) * starts.size() <= 64,
              "uniform-liveness product exceeds 64 marks; automaton too large");

  // Synchronized product: one copy of the automaton per start state;
  // acceptance is the conjunction of per-copy acceptances over shifted marks.
  std::map<std::vector<State>, State> index;
  std::vector<std::vector<State>> tuples;
  auto intern = [&](std::vector<State> t) {
    auto [it, inserted] = index.try_emplace(t, static_cast<State>(tuples.size()));
    if (inserted) tuples.push_back(std::move(t));
    return it->second;
  };
  intern(starts);
  std::vector<std::vector<State>> trans;
  for (State q = 0; q < tuples.size(); ++q) {
    trans.emplace_back(m.alphabet().size());
    for (Symbol s = 0; s < m.alphabet().size(); ++s) {
      std::vector<State> next(tuples[q].size());
      for (std::size_t i = 0; i < next.size(); ++i) next[i] = m.next(tuples[q][i], s);
      trans[q][s] = intern(std::move(next));
    }
  }
  Acceptance acc = Acceptance::t();
  for (std::size_t i = 0; i < starts.size(); ++i)
    acc = Acceptance::conj(std::move(acc),
                           m.acceptance().shift(static_cast<Mark>(i * width)));
  DetOmega prod(m.alphabet(), tuples.size(), 0, std::move(acc));
  for (State q = 0; q < tuples.size(); ++q) {
    for (std::size_t i = 0; i < tuples[q].size(); ++i) {
      MarkSet ms = m.marks(tuples[q][i]);
      for (Mark b = 0; b < width; ++b)
        if (ms & omega::mark_bit(b)) prod.add_mark(q, static_cast<Mark>(i * width + b));
    }
    for (Symbol s = 0; s < m.alphabet().size(); ++s) prod.set_transition(q, s, trans[q][s]);
  }
  return !omega::is_empty(prod);
}

}  // namespace mph::core
