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

#include <functional>
#include <map>
#include <optional>
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

/// Explicit state graph of an Fts. Node 0 is initial (with no transition
/// taken yet, last_taken = kNone).
struct StateGraph {
  static constexpr int kNone = -1;

  struct Node {
    Valuation valuation;
    int last_taken;  // transition index, or kNone
  };
  std::vector<Node> nodes;
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> edges;  // (target, transition)
  /// Per node: which transitions are enabled (bitmask would cap at 64; use
  /// a vector of flags for generality).
  std::vector<std::vector<bool>> enabled;
  /// Whether the node's only step is the stutter self-loop.
  std::vector<bool> stutters;
};

/// Telemetry from one exploration (docs/PARALLEL.md). The per-worker
/// vectors are empty on the sequential path.
struct ExploreStats {
  unsigned threads_used = 1;
  std::vector<std::size_t> worker_nodes;   ///< nodes expanded per worker
  std::vector<std::size_t> worker_steals;  ///< frontier items stolen per worker
};

/// A possibly-partial exploration. When `outcome` is not Complete the graph
/// stopped mid-BFS: already-discovered nodes may still have empty `edges` /
/// `enabled` rows, so the graph is NOT suitable for checking — consumers
/// must consult `outcome` before using it.
struct ExploreResult {
  StateGraph graph;
  Outcome outcome = Outcome::Complete;
  ExploreStats stats;
};

/// Budget-governed BFS exploration: stops at the budget's state cap /
/// deadline / cancellation and reports how far it got (docs/BUDGETS.md).
/// Domain violations still throw std::invalid_argument.
ExploreResult explore(const Fts& system, const Budget& budget);

/// Parallel exploration on `threads` workers over a work-stealing frontier
/// (docs/PARALLEL.md). A complete graph is identical to the sequential one —
/// node ids are renumbered post-merge into BFS discovery order, so replay,
/// diagnostics and downstream products do not depend on the thread count.
/// Under a state cap both variants stop at exactly the cap's node count (the
/// partial *frontier* may differ; partial graphs are only ever counted).
/// threads <= 1 takes exactly the sequential code path.
ExploreResult explore(const Fts& system, const Budget& budget, unsigned threads);

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
