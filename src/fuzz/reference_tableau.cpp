#include "src/fuzz/reference_tableau.hpp"

#include <array>
#include <cstdint>
#include <deque>
#include <vector>

#include "src/ltl/to_nba.hpp"
#include "src/support/check.hpp"

namespace mph::fuzz {
namespace {

using ltl::Formula;
using ltl::Op;
using omega::State;

void collect(const Formula& f, std::vector<Formula>& out) {
  for (std::size_t i = 0; i < f.arity(); ++i) collect(f.child(i), out);
  for (const auto& g : out)
    if (g == f) return;
  out.push_back(f);
}

std::size_t index_of(const std::vector<Formula>& subs, const Formula& f) {
  for (std::size_t i = 0; i < subs.size(); ++i)
    if (subs[i] == f) return i;
  MPH_ASSERT(false);
}

omega::Nba tableau_impl(const Formula& f, const lang::Alphabet& alphabet,
                        const Budget& budget) {
  const Formula nnf = ltl::to_nnf(f);
  std::vector<Formula> subs;
  collect(nnf, subs);
  const std::size_t n = subs.size();
  std::vector<std::array<std::size_t, 2>> kid(n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t k = 0; k < subs[i].arity(); ++k)
      kid[i][k] = index_of(subs, subs[i].child(k));
  // Free positions: atoms, X, U, R. Everything else is determined bottom-up.
  std::vector<std::size_t> free_idx;
  for (std::size_t i = 0; i < n; ++i) {
    Op op = subs[i].op();
    if (op == Op::Atom || op == Op::Next || op == Op::Until || op == Op::Release)
      free_idx.push_back(i);
  }
  MPH_REQUIRE(free_idx.size() <= 12,
              "closure too large for the tableau construction (cap: 12 free subformulas)");

  // Every locally consistent assignment, one bool vector each.
  const std::size_t n_assigns = std::size_t{1} << free_idx.size();
  std::vector<std::vector<bool>> rows(n_assigns, std::vector<bool>(n, false));
  for (std::size_t bits = 0; bits < n_assigns; ++bits) {
    if (Outcome o = budget.poll(); !is_complete(o)) throw BudgetExhausted(o);
    std::vector<bool>& a = rows[bits];
    for (std::size_t k = 0; k < free_idx.size(); ++k) a[free_idx[k]] = (bits >> k) & 1;
    for (std::size_t i = 0; i < n; ++i) {
      switch (subs[i].op()) {
        case Op::True:
          a[i] = true;
          break;
        case Op::Not:
          a[i] = !a[kid[i][0]];
          break;
        case Op::And:
          a[i] = a[kid[i][0]] && a[kid[i][1]];
          break;
        case Op::Or:
          a[i] = a[kid[i][0]] || a[kid[i][1]];
          break;
        default:
          break;  // False stays false; free positions already set
      }
    }
  }

  // (a, b) is step-consistent iff the one-step laws of X, U and R hold
  // between them, checked position by position.
  auto step_ok = [&](const std::vector<bool>& a, const std::vector<bool>& b) {
    for (std::size_t i = 0; i < n; ++i) {
      switch (subs[i].op()) {
        case Op::Next:
          if (a[i] != b[kid[i][0]]) return false;
          break;
        case Op::Until:  // now ⇔ β ∨ (α ∧ X now)
          if (a[i] != (a[kid[i][1]] || (a[kid[i][0]] && b[i]))) return false;
          break;
        case Op::Release:  // now ⇔ β ∧ (α ∨ X now)
          if (a[i] != (a[kid[i][1]] && (a[kid[i][0]] || b[i]))) return false;
          break;
        default:
          break;
      }
    }
    return true;
  };

  std::vector<std::size_t> until_idx;
  for (std::size_t i = 0; i < n; ++i)
    if (subs[i].op() == Op::Until) until_idx.push_back(i);
  const std::size_t n_counters = until_idx.empty() ? 1 : until_idx.size();
  auto state_id = [&](std::size_t ai, std::size_t c) {
    return static_cast<State>(ai * n_counters + c);
  };
  omega::Nba out(alphabet);
  for (std::size_t s = 0; s < n_assigns * n_counters; ++s) {
    budget.require(out.state_count());
    out.add_state();
  }

  // A symbol fits an assignment when every atom of the closure has the
  // symbol's truth value.
  auto fits = [&](const std::vector<bool>& a, lang::Symbol s) {
    for (std::size_t i = 0; i < n; ++i) {
      if (subs[i].op() != Op::Atom) continue;
      const std::string& name = subs[i].atom_name();
      bool holds;
      if (alphabet.prop_based()) {
        auto idx = alphabet.prop_index(name);
        MPH_REQUIRE(idx.has_value(), "unknown proposition: " + name);
        holds = alphabet.holds(s, *idx);
      } else {
        auto sym = alphabet.find(name);
        MPH_REQUIRE(sym.has_value(), "unknown letter: " + name);
        holds = *sym == s;
      }
      if (holds != a[i]) return false;
    }
    return true;
  };
  // An assignment fulfills until u when ¬a[u] or a[β].
  auto fulfills = [&](std::size_t ai, std::size_t u) {
    return !rows[ai][u] || rows[ai][kid[u][1]];
  };
  for (std::size_t ai = 0; ai < n_assigns; ++ai) {
    if (Outcome o = budget.poll(); !is_complete(o)) throw BudgetExhausted(o);
    for (std::size_t bi = 0; bi < n_assigns; ++bi) {
      if (!step_ok(rows[ai], rows[bi])) continue;
      for (lang::Symbol s = 0; s < alphabet.size(); ++s) {
        if (!fits(rows[ai], s)) continue;
        for (std::size_t c = 0; c < n_counters; ++c) {
          // The counter advances when the watched until is fulfilled now.
          const bool advance = !until_idx.empty() && fulfills(ai, until_idx[c]);
          out.add_edge(state_id(ai, c), s, state_id(bi, advance ? (c + 1) % n_counters : c));
        }
      }
    }
  }
  // The counter moves cyclically, so a run wraps infinitely often iff it
  // visits counter 0 with u₀ fulfilled infinitely often.
  for (std::size_t ai = 0; ai < n_assigns; ++ai)
    if (until_idx.empty() || fulfills(ai, until_idx[0])) out.set_accepting(state_id(ai, 0));
  const std::size_t root = index_of(subs, nnf);
  for (std::size_t ai = 0; ai < n_assigns; ++ai)
    if (rows[ai][root]) out.add_initial(state_id(ai, 0));
  return out;
}

/// States reachable from `from` in one or more steps.
std::vector<bool> successors_closure(const omega::Nba& n, const std::vector<State>& from) {
  std::vector<bool> seen(n.state_count(), false);
  std::deque<State> queue(from.begin(), from.end());
  while (!queue.empty()) {
    const State q = queue.front();
    queue.pop_front();
    for (auto [s, t] : n.edges(q))
      if (!seen[t]) {
        seen[t] = true;
        queue.push_back(t);
      }
  }
  return seen;
}

}  // namespace

Budgeted<omega::Nba> reference_tableau(const ltl::Formula& f, const lang::Alphabet& alphabet,
                                       const Budget& budget) {
  try {
    return {tableau_impl(f, alphabet, budget), Outcome::Complete};
  } catch (const BudgetExhausted& e) {
    return {std::nullopt, e.outcome()};
  }
}

omega::Nba reference_trim(const omega::Nba& n) {
  const std::size_t ns = n.state_count();
  std::vector<bool> reach = successors_closure(n, n.initial_states());
  for (State q : n.initial_states()) reach[q] = true;
  // Live: reaches (or is) a reachable accepting state that reaches itself.
  std::vector<std::vector<State>> preds(ns);
  for (State q = 0; q < ns; ++q)
    for (auto [s, t] : n.edges(q)) preds[t].push_back(q);
  std::vector<bool> keep(ns, false);
  std::deque<State> queue;
  for (State q = 0; q < ns; ++q)
    if (reach[q] && n.accepting(q) && successors_closure(n, {q})[q]) {
      keep[q] = true;
      queue.push_back(q);
    }
  while (!queue.empty()) {
    const State q = queue.front();
    queue.pop_front();
    for (State p : preds[q])
      if (reach[p] && !keep[p]) {
        keep[p] = true;
        queue.push_back(p);
      }
  }
  std::vector<State> renumber(ns, 0);
  omega::Nba out(n.alphabet());
  for (State q = 0; q < ns; ++q)
    if (keep[q]) {
      renumber[q] = out.add_state();
      out.set_accepting(renumber[q], n.accepting(q));
    }
  for (State q = 0; q < ns; ++q)
    if (keep[q])
      for (auto [s, t] : n.edges(q))
        if (keep[t]) out.add_edge(renumber[q], s, renumber[t]);
  for (State q : n.initial_states())
    if (keep[q]) out.add_initial(renumber[q]);
  return out;
}

std::optional<std::string> nba_mismatch(const omega::Nba& want, const omega::Nba& got) {
  if (want.state_count() != got.state_count())
    return "state count " + std::to_string(got.state_count()) + ", expected " +
           std::to_string(want.state_count());
  if (want.initial_states() != got.initial_states())
    return std::string("initial states differ");
  for (State q = 0; q < want.state_count(); ++q) {
    if (want.accepting(q) != got.accepting(q))
      return "accepting bit of state " + std::to_string(q) + " differs";
    if (want.edges(q) != got.edges(q))
      return "edge list of state " + std::to_string(q) + " differs";
  }
  return std::nullopt;
}

}  // namespace mph::fuzz
