#include "src/ltl/to_nba.hpp"

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/support/check.hpp"

namespace mph::ltl {

Formula to_nnf(const Formula& f) {
  MPH_REQUIRE(!f.has_past(), "to_nnf/to_nba support future formulas only: " + f.to_string());
  switch (f.op()) {
    case Op::True:
    case Op::False:
    case Op::Atom:
      return f;
    case Op::And:
      return f_and(to_nnf(f.child(0)), to_nnf(f.child(1)));
    case Op::Or:
      return f_or(to_nnf(f.child(0)), to_nnf(f.child(1)));
    case Op::Implies:
      return f_or(to_nnf(f_not(f.child(0))), to_nnf(f.child(1)));
    case Op::Iff:
      return f_or(f_and(to_nnf(f.child(0)), to_nnf(f.child(1))),
                  f_and(to_nnf(f_not(f.child(0))), to_nnf(f_not(f.child(1)))));
    case Op::Next:
      return f_next(to_nnf(f.child(0)));
    case Op::Until:
      return f_until(to_nnf(f.child(0)), to_nnf(f.child(1)));
    case Op::Release:
      return f_release(to_nnf(f.child(0)), to_nnf(f.child(1)));
    case Op::WeakUntil:
      // φWψ ≡ ψ R (φ ∨ ψ).
      return f_release(to_nnf(f.child(1)), f_or(to_nnf(f.child(0)), to_nnf(f.child(1))));
    case Op::Eventually:
      return f_until(f_true(), to_nnf(f.child(0)));
    case Op::Always:
      return f_release(f_false(), to_nnf(f.child(0)));
    case Op::Not: {
      const Formula& g = f.child(0);
      switch (g.op()) {
        case Op::True:
          return f_false();
        case Op::False:
          return f_true();
        case Op::Atom:
          return f_not(g);
        case Op::Not:
          return to_nnf(g.child(0));
        case Op::And:
          return f_or(to_nnf(f_not(g.child(0))), to_nnf(f_not(g.child(1))));
        case Op::Or:
          return f_and(to_nnf(f_not(g.child(0))), to_nnf(f_not(g.child(1))));
        case Op::Implies:
          return f_and(to_nnf(g.child(0)), to_nnf(f_not(g.child(1))));
        case Op::Iff:
          return to_nnf(f_not(f_or(f_and(g.child(0), g.child(1)),
                                   f_and(f_not(g.child(0)), f_not(g.child(1))))));
        case Op::Next:
          return f_next(to_nnf(f_not(g.child(0))));
        case Op::Until:
          return f_release(to_nnf(f_not(g.child(0))), to_nnf(f_not(g.child(1))));
        case Op::Release:
          return f_until(to_nnf(f_not(g.child(0))), to_nnf(f_not(g.child(1))));
        case Op::WeakUntil:
          return to_nnf(f_not(f_release(g.child(1), f_or(g.child(0), g.child(1)))));
        case Op::Eventually:
          return f_release(f_false(), to_nnf(f_not(g.child(0))));
        case Op::Always:
          return f_until(f_true(), to_nnf(f_not(g.child(0))));
        default:
          MPH_ASSERT(false);
      }
      MPH_ASSERT(false);
      return f;
    }
    default:
      MPH_ASSERT(false);
  }
}

namespace {

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

omega::Nba to_nba_impl(const Formula& f, const lang::Alphabet& alphabet,
                       const Budget& budget) {
  const Formula nnf = to_nnf(f);
  std::vector<Formula> subs;
  collect(nnf, subs);
  const std::size_t n = subs.size();
  // Child positions, resolved once; collect() lists children first.
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

  // Enumerate locally consistent assignments, stored as rows of `words`
  // bit words.
  const std::size_t words = (n + 63) / 64;
  std::vector<std::uint64_t> rows;
  auto bit = [&](std::size_t ai, std::size_t i) {
    return (rows[ai * words + i / 64] >> (i % 64)) & 1;
  };
  const std::size_t combos = std::size_t{1} << free_idx.size();
  std::vector<bool> a(n);
  for (std::size_t bits = 0; bits < combos; ++bits) {
    if (Outcome o = budget.poll(); !is_complete(o)) throw BudgetExhausted(o);
    std::fill(a.begin(), a.end(), false);
    for (std::size_t k = 0; k < free_idx.size(); ++k)
      a[free_idx[k]] = (bits >> k) & 1;
    for (std::size_t i = 0; i < n; ++i) {
      switch (subs[i].op()) {
        case Op::True:
          a[i] = true;
          break;
        case Op::False:
          a[i] = false;
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
          break;  // free positions already set
      }
    }
    rows.resize(rows.size() + words, 0);
    std::uint64_t* row = &rows[rows.size() - words];
    for (std::size_t i = 0; i < n; ++i)
      if (a[i]) row[i / 64] |= std::uint64_t{1} << (i % 64);
  }
  const std::size_t n_assigns = combos;

  // Step-consistency (the symbol-independent part of a transition): the
  // one-step laws of X, U and R at a source assignment either fail outright
  // or pin some target positions, so (a, b) is step-consistent iff
  // `next_ok[a]` and b agrees with `next_val[a]` on `next_mask[a]`.
  std::vector<std::uint64_t> next_mask(n_assigns * words, 0), next_val(n_assigns * words, 0);
  std::vector<bool> next_ok(n_assigns, true);
  for (std::size_t ai = 0; ai < n_assigns; ++ai) {
    std::uint64_t* mask = &next_mask[ai * words];
    std::uint64_t* val = &next_val[ai * words];
    auto pin = [&](std::size_t j, bool v) {
      const std::uint64_t m = std::uint64_t{1} << (j % 64);
      if ((mask[j / 64] & m) && bool(val[j / 64] & m) != v) next_ok[ai] = false;
      mask[j / 64] |= m;
      if (v) val[j / 64] |= m;
    };
    for (std::size_t i = 0; i < n && next_ok[ai]; ++i) {
      const bool now = bit(ai, i);
      switch (subs[i].op()) {
        case Op::Next:
          pin(kid[i][0], now);
          break;
        case Op::Until:  // now ⇔ β ∨ (α ∧ X now)
          if (bit(ai, kid[i][1]))
            next_ok[ai] = now;
          else if (!bit(ai, kid[i][0]))
            next_ok[ai] = !now;
          else
            pin(i, now);
          break;
        case Op::Release:  // now ⇔ β ∧ (α ∨ X now)
          if (!bit(ai, kid[i][1]))
            next_ok[ai] = !now;
          else if (bit(ai, kid[i][0]))
            next_ok[ai] = now;
          else
            pin(i, now);
          break;
        default:
          break;
      }
    }
  }
  auto step_ok = [&](std::size_t ai, std::size_t bi) {
    if (!next_ok[ai]) return false;
    for (std::size_t w = 0; w < words; ++w)
      if ((rows[bi * words + w] & next_mask[ai * words + w]) != next_val[ai * words + w])
        return false;
    return true;
  };

  // Until obligations for the generalized Büchi condition.
  std::vector<std::size_t> until_idx;
  for (std::size_t i = 0; i < n; ++i)
    if (subs[i].op() == Op::Until) until_idx.push_back(i);
  const std::size_t n_counters = until_idx.empty() ? 1 : until_idx.size();

  // NBA states: (assignment index, counter).
  omega::Nba out(alphabet);
  auto state_id = [&](std::size_t ai, std::size_t c) {
    return static_cast<omega::State>(ai * n_counters + c);
  };
  for (std::size_t ai = 0; ai < n_assigns; ++ai)
    for (std::size_t c = 0; c < n_counters; ++c) {
      budget.require(out.state_count());
      omega::State added = out.add_state();
      MPH_ASSERT(added == state_id(ai, c));
    }

  // Symbols compatible with each assignment: a symbol's atom signature (bit
  // k = atom k holds) must equal the assignment's atom values. Each atom is
  // resolved against the alphabet once.
  std::vector<std::size_t> atom_idx;
  for (std::size_t i = 0; i < n; ++i)
    if (subs[i].op() == Op::Atom) atom_idx.push_back(i);
  std::vector<std::uint32_t> symbol_sig(alphabet.size(), 0);
  for (std::size_t k = 0; k < atom_idx.size(); ++k) {
    const std::string& name = subs[atom_idx[k]].atom_name();
    if (alphabet.prop_based()) {
      auto idx = alphabet.prop_index(name);
      MPH_REQUIRE(idx.has_value(), "unknown proposition: " + name);
      for (lang::Symbol s = 0; s < alphabet.size(); ++s)
        if (alphabet.holds(s, *idx)) symbol_sig[s] |= std::uint32_t{1} << k;
    } else {
      auto sym = alphabet.find(name);
      MPH_REQUIRE(sym.has_value(), "unknown letter: " + name);
      symbol_sig[*sym] |= std::uint32_t{1} << k;
    }
  }
  std::vector<std::vector<lang::Symbol>> symbols_of_sig(std::size_t{1} << atom_idx.size());
  for (lang::Symbol s = 0; s < alphabet.size(); ++s) symbols_of_sig[symbol_sig[s]].push_back(s);
  auto symbols = [&](std::size_t ai) -> const std::vector<lang::Symbol>& {
    std::uint32_t sig = 0;
    for (std::size_t k = 0; k < atom_idx.size(); ++k)
      if (bit(ai, atom_idx[k])) sig |= std::uint32_t{1} << k;
    return symbols_of_sig[sig];
  };

  // An assignment fulfills until u when ¬a[u] or a[β].
  auto fulfills = [&](std::size_t ai, std::size_t u) {
    return !bit(ai, u) || bit(ai, kid[u][1]);
  };
  for (std::size_t ai = 0; ai < n_assigns; ++ai) {
    if (Outcome o = budget.poll(); !is_complete(o)) throw BudgetExhausted(o);
    const std::vector<lang::Symbol>& compatible = symbols(ai);
    for (std::size_t bi = 0; bi < n_assigns; ++bi) {
      if (!step_ok(ai, bi)) continue;
      for (lang::Symbol s : compatible) {
        for (std::size_t c = 0; c < n_counters; ++c) {
          // Counter advances when the watched until is fulfilled *now*.
          std::size_t c2 = c;
          if (!until_idx.empty() && fulfills(ai, until_idx[c])) {
            c2 = (c + 1) % n_counters;
          }
          out.add_edge(state_id(ai, c), s, state_id(bi, c2));
        }
      }
    }
  }
  // Accepting: counter-0 states reached by a wrap; with state-based
  // acceptance, mark states where counter==0 and the last until (index
  // n_counters-1) is fulfilled... Simpler and standard: accept states where
  // the watched until is fulfilled and the counter is at the last index —
  // but fulfillment is a property of the *source*. Mark instead all states
  // (a, 0) such that a run passing through counter 0 infinitely often has
  // wrapped infinitely often. Wrapping is detectable at counter 0 only if
  // every wrap visits it, which holds since the counter moves cyclically by
  // +1. With no untils every state is accepting.
  for (std::size_t ai = 0; ai < n_assigns; ++ai) {
    if (until_idx.empty()) {
      out.set_accepting(state_id(ai, 0));
    } else if (fulfills(ai, until_idx[0])) {
      // (a, 0) with u₀ fulfilled: the next wrap cycle starts here.
      out.set_accepting(state_id(ai, 0));
    }
  }
  // Initial states: root true, counter 0.
  const std::size_t root = index_of(subs, nnf);
  for (std::size_t ai = 0; ai < n_assigns; ++ai)
    if (bit(ai, root)) out.add_initial(state_id(ai, 0));
  return out;
}

}  // namespace

omega::Nba to_nba(const Formula& f, const lang::Alphabet& alphabet) {
  return to_nba_impl(f, alphabet, Budget());
}

Budgeted<omega::Nba> to_nba(const Formula& f, const lang::Alphabet& alphabet,
                            const Budget& budget) {
  try {
    return {to_nba_impl(f, alphabet, budget), Outcome::Complete};
  } catch (const BudgetExhausted& e) {
    return {std::nullopt, e.outcome()};
  }
}

}  // namespace mph::ltl
