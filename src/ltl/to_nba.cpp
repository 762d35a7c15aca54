#include "src/ltl/to_nba.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/omega/graph.hpp"
#include "src/support/check.hpp"
#include "src/support/flat_hash.hpp"

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

/// The forward tableau of one formula. An assignment gives a truth value
/// to every position of the NNF closure; it is fixed by its free positions
/// (atoms, X, U, R), whose values read as a binary number — bit k for the
/// k-th free position in closure order — form its key. Every other position
/// is determined bottom-up, since collect() lists children first.
class Tableau {
 public:
  Tableau(const Formula& f, const lang::Alphabet& alphabet) : alphabet_(alphabet) {
    const Formula nnf = to_nnf(f);
    std::vector<Formula> subs;
    collect(nnf, subs);
    const std::size_t n = subs.size();
    pos_.resize(n);
    int n_free = 0;
    for (std::size_t i = 0; i < n; ++i) {
      Position& p = pos_[i];
      p.op = subs[i].op();
      for (std::size_t k = 0; k < subs[i].arity(); ++k)
        p.kid[k] = static_cast<std::uint32_t>(index_of(subs, subs[i].child(k)));
      const bool step = p.op == Op::Next || p.op == Op::Until || p.op == Op::Release;
      if (p.op == Op::Atom || step) p.rank = n_free++;
      if (p.op == Op::Atom) atom_idx_.push_back(i);
      if (step) step_idx_.push_back(i);
      if (p.op == Op::Until) until_idx_.push_back(i);
    }
    MPH_REQUIRE(n_free <= 12,
                "closure too large for the tableau construction (cap: 12 free subformulas)");
    root_ = index_of(subs, nnf);
    words_ = (n + 63) / 64;
    counters_ = until_idx_.empty() ? 1 : until_idx_.size();
    assignment_of_.assign(std::size_t{1} << n_free, -1);
    scratch_.resize(3 * words_);

    // Symbols compatible with an assignment: a symbol's atom signature (bit
    // k = atom k holds) must equal the assignment's atom values. Each atom
    // is resolved against the alphabet once.
    std::vector<std::uint32_t> symbol_sig(alphabet.size(), 0);
    for (std::size_t k = 0; k < atom_idx_.size(); ++k) {
      const std::string& name = subs[atom_idx_[k]].atom_name();
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
    symbols_of_sig_.resize(std::size_t{1} << atom_idx_.size());
    for (lang::Symbol s = 0; s < alphabet.size(); ++s)
      symbols_of_sig_[symbol_sig[s]].push_back(s);
  }

  omega::Nba build(const Budget& budget);

 private:
  struct Position {
    Op op = Op::True;
    int rank = -1;  ///< bit of the key for a free position, else -1
    std::array<std::uint32_t, 2> kid{};
  };

  static bool bit(const std::uint64_t* row, std::size_t i) {
    return (row[i / 64] >> (i % 64)) & 1;
  }
  static void put(std::uint64_t* row, std::size_t i, bool v) {
    const std::uint64_t m = std::uint64_t{1} << (i % 64);
    row[i / 64] = v ? row[i / 64] | m : row[i / 64] & ~m;
  }
  const std::uint64_t* row(std::uint32_t a) const { return &rows_[a * words_]; }
  // Enumeration scratch: the pinned positions, their values, and the
  // assignment being filled in.
  std::uint64_t* mask() { return scratch_.data(); }
  std::uint64_t* val() { return scratch_.data() + words_; }
  std::uint64_t* cur() { return scratch_.data() + 2 * words_; }
  bool allowed(std::size_t i, bool v) {
    return !bit(mask(), i) || bit(val(), i) == v;
  }

  /// Collects into found_, in key order, every assignment that agrees with
  /// val() on the pinned positions mask(), obeys the present-tense half of
  /// the U and R laws (β → U, ¬α ∧ ¬β → ¬U; ¬β → ¬R, α ∧ β → R) and fits
  /// some symbol. Assignments that break those laws or fit no symbol have
  /// no successor in the full tableau, so they are never built.
  void enumerate() {
    found_.clear();
    extend(0, 0);
    std::sort(found_.begin(), found_.end(),
              [&](std::uint32_t x, std::uint32_t y) { return key_[x] < key_[y]; });
  }

  /// Backtracking over the positions from i on: a position with two
  /// possible values branches, one with a single value is set in place, and
  /// one with none — a broken pin or law — ends the branch.
  void extend(std::size_t i, std::uint32_t bits) {
    std::uint64_t* row = cur();
    for (const std::size_t n = pos_.size(); i < n; ++i) {
      const Position& p = pos_[i];
      if (p.rank < 0) {
        bool v = false;
        switch (p.op) {
          case Op::True:
            v = true;
            break;
          case Op::Not:
            v = !bit(row, p.kid[0]);
            break;
          case Op::And:
            v = bit(row, p.kid[0]) && bit(row, p.kid[1]);
            break;
          case Op::Or:
            v = bit(row, p.kid[0]) || bit(row, p.kid[1]);
            break;
          default:
            break;  // False
        }
        if (!allowed(i, v)) return;
        put(row, i, v);
        continue;
      }
      bool can_false = allowed(i, false), can_true = allowed(i, true);
      if (p.op == Op::Until || p.op == Op::Release) {
        const bool alpha = bit(row, p.kid[0]), beta = bit(row, p.kid[1]);
        can_false = can_false && !(p.op == Op::Until ? beta : alpha && beta);
        can_true = can_true && !(p.op == Op::Until ? !alpha && !beta : !beta);
      }
      if (!can_false && !can_true) return;
      if (can_false && can_true) {
        put(row, i, false);
        extend(i + 1, bits);
      }
      put(row, i, can_true);
      if (can_true) bits |= std::uint32_t{1} << p.rank;
    }
    intern(bits);
  }

  /// Appends the assignment in cur() to found_, registering it on first
  /// sight, unless it fits no symbol.
  void intern(std::uint32_t bits) {
    std::uint32_t sig = 0;
    for (std::size_t k = 0; k < atom_idx_.size(); ++k)
      if (bit(cur(), atom_idx_[k])) sig |= std::uint32_t{1} << k;
    if (symbols_of_sig_[sig].empty()) return;
    std::int32_t& a = assignment_of_[bits];
    if (a < 0) {
      a = static_cast<std::int32_t>(key_.size());
      rows_.insert(rows_.end(), cur(), cur() + words_);
      key_.push_back(bits);
      sig_.push_back(sig);
    }
    found_.push_back(static_cast<std::uint32_t>(a));
  }

  /// Whether assignment a pins X, U or R position i in its successors: the
  /// X laws fix X's operand, and a pending U (α ∧ ¬β) or R (β ∧ ¬α) keeps
  /// its value.
  bool pins(std::uint32_t a, std::size_t i) const {
    const Position& p = pos_[i];
    const bool alpha = bit(row(a), p.kid[0]), beta = bit(row(a), p.kid[1]);
    return p.op == Op::Next || (p.op == Op::Until && alpha && !beta) ||
           (p.op == Op::Release && beta && !alpha);
  }

  /// The pins of a as 2 bits (pinned, value) per X/U/R position: sources
  /// with equal signatures have the same successors.
  std::uint32_t signature(std::uint32_t a) const {
    std::uint32_t out = 0;
    for (std::size_t i : step_idx_) {
      const bool pinned = pins(a, i);
      out = out << 2 | (pinned ? 2u : 0u) | (pinned && bit(row(a), i) ? 1u : 0u);
    }
    return out;
  }

  /// Sets mask()/val() to the pins of a's successors; false when two pins
  /// clash, leaving a without successors.
  bool constrain(std::uint32_t a) {
    std::fill(scratch_.begin(), scratch_.begin() + 2 * words_, 0);
    for (std::size_t i : step_idx_) {
      if (!pins(a, i)) continue;
      const std::size_t j = pos_[i].op == Op::Next ? pos_[i].kid[0] : i;
      const bool v = bit(row(a), i);
      if (!allowed(j, v)) return false;
      put(mask(), j, true);
      put(val(), j, v);
    }
    return true;
  }

  /// Assignment a fulfills until u when ¬a[u] or a[β].
  bool fulfills(std::uint32_t a, std::size_t u) const {
    return !bit(row(a), u) || bit(row(a), pos_[u].kid[1]);
  }

  const lang::Alphabet& alphabet_;
  std::vector<Position> pos_;
  std::vector<std::size_t> atom_idx_, step_idx_, until_idx_;
  std::size_t root_ = 0, words_ = 1, counters_ = 1;
  std::vector<std::vector<lang::Symbol>> symbols_of_sig_;
  // Assignments met so far: rows of words_ bit words, keys, atom signatures.
  std::vector<std::uint64_t> rows_;
  std::vector<std::uint32_t> key_, sig_;
  std::vector<std::int32_t> assignment_of_;  // by key; -1 = not met
  std::vector<std::uint64_t> scratch_;
  std::vector<std::uint32_t> found_;
};

omega::Nba Tableau::build(const Budget& budget) {
  // States are (assignment, counter) pairs in discovery order; the cap
  // admits each as it is discovered. State s's successors are g.succ[s], in
  // key order. The counter advances when the watched until is fulfilled
  // *now*.
  struct State {
    std::uint32_t assign, counter;
  };
  std::vector<State> states;
  std::vector<std::int32_t> state_of;  // by assignment · counters + counter; -1 = not yet
  auto state = [&](std::uint32_t a, std::size_t c) {
    if (state_of.size() < key_.size() * counters_) state_of.resize(key_.size() * counters_, -1);
    std::int32_t& id = state_of[a * counters_ + c];
    if (id < 0) {
      budget.require(states.size());
      id = static_cast<std::int32_t>(states.size());
      states.push_back({a, static_cast<std::uint32_t>(c)});
    }
    return static_cast<std::uint32_t>(id);
  };
  std::fill(scratch_.begin(), scratch_.begin() + 2 * words_, 0);
  put(mask(), root_, true);
  put(val(), root_, true);
  enumerate();
  omega::MarkedGraph g;
  g.initial.clear();
  for (std::uint32_t a : found_) g.initial.push_back(state(a, 0));

  // Successor assignments, enumerated once per signature k:
  // succ[succ_first[k] .. succ_first[k + 1]).
  FlatInterner<std::uint32_t, IntHash> signatures;
  std::vector<std::uint32_t> succ, succ_first{0};
  for (std::uint32_t s = 0; s < states.size(); ++s) {
    if (Outcome o = budget.poll(); !is_complete(o)) throw BudgetExhausted(o);
    const std::uint32_t a = states[s].assign;
    const auto [k, fresh] = signatures.intern(signature(a));
    if (fresh) {
      if (constrain(a)) {
        enumerate();
        succ.insert(succ.end(), found_.begin(), found_.end());
      }
      succ_first.push_back(static_cast<std::uint32_t>(succ.size()));
    }
    const std::size_t c = states[s].counter;
    const std::size_t next_c =
        !until_idx_.empty() && fulfills(a, until_idx_[c]) ? (c + 1) % counters_ : c;
    std::vector<omega::State>& targets = g.succ.emplace_back();
    targets.reserve(succ_first[k + 1] - succ_first[k]);
    for (std::uint32_t j = succ_first[k]; j < succ_first[k + 1]; ++j)
      targets.push_back(state(succ[j], next_c));
  }

  // Accepting (mark 0): counter-0 states whose watched until u₀ is
  // fulfilled. The counter moves cyclically by +1, so a run wraps infinitely
  // often iff it visits such a state infinitely often. With no untils every
  // state is accepting.
  g.marks.resize(states.size(), 0);
  for (std::uint32_t s = 0; s < states.size(); ++s)
    if (states[s].counter == 0 &&
        (until_idx_.empty() || fulfills(states[s].assign, until_idx_[0])))
      g.marks[s] = omega::mark_bit(0);
  const std::vector<bool> live = omega::live_states(g, omega::Acceptance::buchi(0));

  // The live states, numbered by (key, counter): the order of the full
  // tableau, where state (a, c) sits at a·counters + c.
  std::vector<std::uint32_t> order;
  for (std::uint32_t s = 0; s < states.size(); ++s)
    if (live[s]) order.push_back(s);
  auto rank = [&](std::uint32_t s) {
    return std::size_t{key_[states[s].assign]} * counters_ + states[s].counter;
  };
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t x, std::uint32_t y) { return rank(x) < rank(y); });
  std::vector<omega::State> renumber(states.size(), 0);
  omega::Nba out(alphabet_);
  for (std::uint32_t s : order) {
    renumber[s] = out.add_state();
    out.set_accepting(renumber[s], g.marks[s] != 0);
  }
  for (std::uint32_t s : order)
    for (omega::State t : g.succ[s])
      if (live[t])
        for (lang::Symbol sym : symbols_of_sig_[sig_[states[s].assign]])
          out.add_edge(renumber[s], sym, renumber[t]);
  for (omega::State s : g.initial)
    if (live[s]) out.add_initial(renumber[s]);
  return out;
}

omega::Nba to_nba_impl(const Formula& f, const lang::Alphabet& alphabet,
                       const Budget& budget) {
  return Tableau(f, alphabet).build(budget);
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
