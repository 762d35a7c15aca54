// Fair transition systems — the paper's program model (§4, after [MP83]):
// finite-domain variables, guarded deterministic transitions, and a weak
// (justice) or strong (compassion) fairness requirement per transition.
//
// Computations are infinite; a state with no enabled transition stutters
// (the paper's convention of extending terminated computations by duplicate
// states). The explicit state graph annotates each node with the transition
// just taken, so the predicates enabled(τ) and taken(τ) used by the fairness
// formulae are plain state predicates, exactly as §4 assumes.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/support/budget.hpp"
#include "src/support/check.hpp"

namespace mph::fts {

using Valuation = std::vector<int>;

enum class Fairness { None, Weak, Strong };

class Fts {
 public:
  /// Adds a variable with inclusive domain [lo, hi] and initial value.
  std::size_t add_var(std::string name, int lo, int hi, int init);

  /// Adds a guarded transition. The effect mutates a copy of the valuation;
  /// values outside their domain throw at exploration time.
  std::size_t add_transition(std::string name, Fairness fairness,
                             std::function<bool(const Valuation&)> guard,
                             std::function<void(Valuation&)> effect);

  std::size_t var_count() const { return vars_.size(); }
  std::size_t transition_count() const { return transitions_.size(); }
  const std::string& var_name(std::size_t v) const;
  /// Inclusive domain bounds of variable v.
  int var_lo(std::size_t v) const;
  int var_hi(std::size_t v) const;
  const std::string& transition_name(std::size_t t) const;
  Fairness transition_fairness(std::size_t t) const;
  /// Index of a variable by name (cached map lookup; throws if unknown).
  std::size_t var_index(std::string_view name) const;
  const Valuation& initial_valuation() const { return init_; }

  bool enabled(std::size_t t, const Valuation& v) const;
  Valuation apply(std::size_t t, const Valuation& v) const;

 private:
  friend class GraphBuilder;

  /// Applies t's effect to v in place with apply()'s size and domain checks
  /// but without re-evaluating the guard: explore() has just evaluated it,
  /// and a value outside its domain would alias another packed state.
  void step(std::size_t t, Valuation& v) const;

  struct Var {
    std::string name;
    int lo, hi;
  };
  struct Transition {
    std::string name;
    Fairness fairness;
    std::function<bool(const Valuation&)> guard;
    std::function<void(Valuation&)> effect;
  };
  std::vector<Var> vars_;
  std::vector<Transition> transitions_;
  Valuation init_;
  std::map<std::string, std::size_t, std::less<>> var_index_;
};

/// Explicit state graph of an Fts in one flat, packed layout. Node 0 is
/// initial (no transition taken yet, last_taken = kNone); ids are BFS
/// discovery order.
///   - Nodes are packed rows of words() 64-bit words. Variable v owns a
///     fixed bit field of ⌈log₂(hi−lo+1)⌉ bits holding value − lo; a field
///     never straddles a word, and a single-valued variable takes no bits.
///     The transition just taken is one more field after the variables
///     (last_taken + 1), so a row is the node's whole identity.
///   - Successors are a CSR: edges(n) is a span into one edge array, in
///     transition order. A terminal node's only edge is the stutter
///     self-loop {n, kStutter}.
///   - Enabledness is ⌈T/64⌉ bit words per node for T transitions, and the
///     stutter flag is one byte per node.
/// Built only by explore(); see docs/CHECKER.md, phase 1.
class StateGraph {
 public:
  static constexpr int kNone = -1;
  /// Transition slot of the stutter self-loop.
  static constexpr std::uint32_t kStutter = ~std::uint32_t{0};

  struct Edge {
    std::uint32_t target;
    std::uint32_t transition;  // transition index, or kStutter
    friend bool operator==(const Edge&, const Edge&) = default;
  };

  std::size_t size() const { return stutter_.size(); }
  /// Value of variable v at node n.
  int value(std::size_t n, std::size_t v) const { return read(n, fields_[v]); }
  /// Unpacks node n's valuation into out (resized to the variable count;
  /// no allocation once out has the capacity).
  void valuation_into(std::size_t n, Valuation& out) const;
  Valuation valuation(std::size_t n) const;
  int last_taken(std::size_t n) const { return read(n, last_field_); }
  std::span<const Edge> edges(std::size_t n) const {
    return {edges_.data() + offsets_[n], offsets_[n + 1] - offsets_[n]};
  }
  bool enabled(std::size_t n, std::size_t t) const {
    return (enabled_[n * enabled_words_ + (t >> 6)] >> (t & 63)) & 1;
  }
  /// Whether the node's only step is the stutter self-loop.
  bool stutters(std::size_t n) const { return stutter_[n] != 0; }
  /// 64-bit words per packed row.
  std::size_t words() const { return words_; }

  friend bool operator==(const StateGraph&, const StateGraph&) = default;

 private:
  friend class GraphBuilder;

  /// Where a variable, or the last-taken transition, lives in a row:
  /// (row[word] >> shift) & mask is value − lo.
  struct Field {
    std::uint32_t word = 0, shift = 0;
    std::uint64_t mask = 0;
    std::int64_t lo = 0;
    friend bool operator==(const Field&, const Field&) = default;
  };
  int read(std::size_t n, const Field& f) const {
    return static_cast<int>(
        f.lo + static_cast<std::int64_t>((rows_[n * words_ + f.word] >> f.shift) & f.mask));
  }

  std::vector<Field> fields_;
  Field last_field_;  // lo = kNone
  std::size_t words_ = 1;
  std::size_t enabled_words_ = 0;
  std::vector<std::uint64_t> rows_;         // size() × words_
  std::vector<std::size_t> offsets_ = {0};  // size() + 1
  std::vector<Edge> edges_;
  std::vector<std::uint64_t> enabled_;      // size() × enabled_words_
  std::vector<std::uint8_t> stutter_;       // size()
};

/// A possibly-partial exploration. When `outcome` is not Complete the graph
/// stopped mid-BFS: already-discovered nodes may still have no edges and an
/// all-clear enabled row, so the graph is NOT suitable for checking —
/// consumers must consult `outcome` before using it.
struct ExploreResult {
  StateGraph graph;
  Outcome outcome = Outcome::Complete;
};

/// Budget-governed BFS exploration: stops at the budget's state cap /
/// deadline / cancellation and reports how far it got (docs/BUDGETS.md).
/// Domain violations still throw std::invalid_argument.
ExploreResult explore(const Fts& system, const Budget& budget);

/// Atomic state predicate over (valuation, last-taken transition).
using AtomFn = std::function<bool(const Fts&, const Valuation&, int last_taken)>;

/// Named atoms evaluated on state-graph nodes; the vocabulary of
/// specifications.
using AtomMap = std::map<std::string, AtomFn>;

/// Common atom builders.
AtomFn var_equals(const Fts& system, std::string_view var, int value);
AtomFn var_at_least(const Fts& system, std::string_view var, int value);
AtomFn taken(std::size_t transition);
AtomFn enabled_atom(std::size_t transition);
/// True on states where no transition is enabled (the stuttering states).
AtomFn deadlocked();

}  // namespace mph::fts
