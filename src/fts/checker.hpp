// Automata-theoretic model checking of temporal specifications over fair
// transition systems: P ⊨ φ iff no fair computation of P satisfies ¬φ.
// The negated specification is compiled to a deterministic ω-automaton
// (hierarchy fragment), the fairness requirements become Streett-style
// acceptance on the product, and the question is a good-loop search.
//
// One on-the-fly engine decides every ω-product: a Tarjan DFS over the
// lazily interned (state-graph node × ¬spec state) product that keeps the
// union of acceptance marks on Couvreur's root stack. Under generalized-Büchi
// acceptance (weak fairness plus an Inf-shaped ¬spec or the NBA tableau) it
// stops as soon as a partial SCC carries every required mark, so a violation
// is reported before the full product exists; under acceptance mentioning
// Fin (strong fairness, Streett/Rabin ¬spec) each closed SCC is handed to
// omega::find_good_loop. See docs/CHECKER.md.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "src/analysis/diagnostics.hpp"
#include "src/fts/fts.hpp"
#include "src/ltl/ast.hpp"

namespace mph::fts {

struct Counterexample {
  /// A fair computation violating the specification, as valuations.
  std::vector<Valuation> prefix;
  std::vector<Valuation> loop;  // repeated forever

  std::string to_string(const Fts& system) const;
};

/// Which emptiness machinery decided a check. Scc is the general ω-product
/// engine; the next two are the class-aware shortcuts every check takes
/// unless `CheckOptions::force_scc` pins the general route (docs/CHECKER.md):
///   SafetyPrefix  — syntactically-safety spec, decided by plain BFS over the
///                   node × det(spec) product against the dead (residual-empty)
///                   automaton states. Sound without any fairness machinery:
///                   transition fairness is machine-closed, so every finite
///                   run extends to a fair computation, and a closed property
///                   fails on some fair computation iff some reachable prefix
///                   is already bad.
///   GuaranteeDual — syntactically-guarantee spec, checked through its safety
///                   dual: det(¬spec) is a closed language, so its accepting
///                   runs are exactly those staying inside the live states;
///                   pruning the dead states turns the acceptance into ⊤ and
///                   the product search into a fairness-only lasso hunt
///                   (the same SCC search with an early exit) instead of
///                   waiting for closed SCCs under Fin-shaped acceptance.
/// A fourth source of verdicts sits above all three:
///   StaticProof   — the spec was discharged by `CheckOptions::static_prover`
///                   (interval abstract interpretation, src/analysis/absint.*)
///                   without exploring a single state; stats report 0 nodes
///                   and 0 product states. Only "holds" verdicts arrive this
///                   way — a prover that cannot certify the spec returns
///                   nothing and the check falls through to the engines.
enum class CheckEngine : std::uint8_t { Scc, SafetyPrefix, GuaranteeDual, StaticProof };

std::string_view to_string(CheckEngine e);

/// Where the classification that picked the engine came from:
///   None       — `force_scc` pinned the general engine; no class was computed
///   Syntactic  — ltl::syntactic_classification on the spec as written
///   Normalized — the spec was ΔΓ-normalized (src/ltl/normalize.hpp) and the
///                classification/compilation used the hierarchy normal form;
///                this is how specs *denoting* safety/guarantee but written
///                otherwise still reach the shortcut engines
enum class ClassSource : std::uint8_t { None, Syntactic, Normalized };

std::string_view to_string(ClassSource s);

/// Engine telemetry for one check, surfaced by `mph-lint --check` and the
/// tab11 bench. The exploration and labelling phases are shared through the
/// ModelContext: their timings are reported on every result of the check()
/// call that ran them, and as 0 by later calls that reuse them, so each
/// call's phases add up to its own wall time.
struct CheckStats {
  std::size_t state_graph_nodes = 0;  ///< system states explored
  std::size_t automaton_states = 0;   ///< states of the compiled ¬spec automaton
  std::size_t product_states = 0;     ///< distinct (node, automaton-state) pairs built
  std::size_t product_bound = 0;      ///< state_graph_nodes × automaton_states
  bool nba_fallback = false;          ///< ¬spec outside the hierarchy fragment
  CheckEngine engine = CheckEngine::Scc;  ///< machinery that decided the verdict
  ClassSource class_source = ClassSource::None;  ///< provenance of the routing class
  std::size_t normalize_steps = 0;  ///< rewrite steps spent by ΔΓ-normalization
  Outcome outcome = Outcome::Complete;  ///< how the check ended (docs/BUDGETS.md)
  double explore_seconds = 0.0;       ///< state-graph exploration
  double label_seconds = 0.0;         ///< atom labelling of the state graph
  double compile_seconds = 0.0;       ///< routing: classification, normalization, compilation
  double search_seconds = 0.0;        ///< product construction + emptiness search
};

struct CheckResult {
  /// Verdict; authoritative only when `outcome` is Complete. A
  /// budget-exhausted check reports holds == false with no counterexample:
  /// the verdict is *unknown*, not "violated".
  bool holds = false;
  std::optional<Counterexample> counterexample;
  /// How far the check got (== stats.outcome). Anything other than Complete
  /// means the budget ran out and `holds` must not be trusted; MPH-V004 is
  /// emitted when diagnostics are attached.
  Outcome outcome = Outcome::Complete;
  CheckStats stats;
};

/// State cap applied to a budget that carries none: a ModelContext explores
/// at most this many states, and each construction of a check at most this
/// many, by default.
inline constexpr std::size_t kDefaultStateCap = 200000;

struct CheckOptions {
  /// Resource budget governing the exploration, each ¬spec tableau, and each
  /// product construction (the state cap bounds each of those
  /// individually). A budget without a state cap is capped at
  /// kDefaultStateCap.
  Budget budget;
  /// Worker threads checking independent specs. 1 (the default) keeps the
  /// run fully sequential and deterministic; with more threads, results and
  /// merged diagnostics still come back in spec order.
  unsigned threads = 1;
  /// ignored; delete at the next benchmark revision
  unsigned explore_threads = 1;
  /// Skip class dispatch and the static prover: every spec goes through
  /// the general ω-product search. Without it, syntactically-safety specs
  /// take the closed-prefix reachability check and syntactically-guarantee
  /// specs the safety dual (see CheckEngine), with verdicts identical to the
  /// general engine on every input. This is the only route switch: serve
  /// keys its verdict cache on it, and the fuzz oracles, the vacuity and
  /// normalization benches and `perfbench --reanchor` use it to pin the
  /// ω-product route.
  bool force_scc = false;
  /// ignored; delete at the next benchmark revision
  bool class_dispatch = false;
  /// Rule-application cap for the ΔΓ-normalization attempted (never under
  /// force_scc) when the syntactic classification finds neither safety nor
  /// guarantee, or when the spec as written does not compile
  /// deterministically: a completed normal form re-classifies the spec and
  /// becomes the compilation source, routing it to the shortcut engines.
  /// 0 disables normalization in the checker.
  std::size_t normalize_steps = 512;
  /// Exploration-free proof hook, consulted per spec *before* the model
  /// context explores (skipped under `force_scc`).
  /// Returning a result means "this spec is proved to hold" — the checker
  /// stamps it `CheckEngine::StaticProof` / Outcome::Complete with zero
  /// exploration and, when every spec in the batch resolves statically,
  /// never builds the state graph at all. Returning nullopt falls through
  /// to the engines; the hook must be sound (never a guess) — see
  /// analysis::make_static_prover (docs/ABSINT.md).
  std::function<std::optional<CheckResult>(const ltl::Formula&)> static_prover;
  analysis::DiagnosticEngine* diagnostics = nullptr;
};

/// One model, explored once for every check against it (docs/CHECKER.md,
/// "Model context"). The context explores lazily, on the first check that
/// reaches the engines or the first exploration() call, under its own budget.
/// It keeps the state graph, the exploration's outcome and seconds, the
/// fairness frame with its per-node marks, and one atom-label cache per
/// vocabulary. It refers to `system` and `atoms`, which must outlive it.
/// Concurrent check() calls must not share a context; one call's worker pool
/// is fine.
class ModelContext {
 public:
  /// `budget` governs the exploration alone; without a state cap it is
  /// capped at kDefaultStateCap.
  ModelContext(const Fts& system, const AtomMap& atoms, Budget budget = {});
  ~ModelContext();

  const Fts& system() const { return system_; }
  const AtomMap& atoms() const { return atoms_; }
  bool explored() const { return shared_ != nullptr; }
  /// The exploration, run on the first call and kept. Consult `outcome`
  /// before using the graph.
  const ExploreResult& exploration();

 private:
  friend std::vector<CheckResult> check(ModelContext&, const std::vector<ltl::Formula>&,
                                        const CheckOptions&);
  struct Shared;

  const Fts& system_;
  const AtomMap& atoms_;
  Budget budget_;
  std::unique_ptr<Shared> shared_;
};

/// Checks the (mutually independent) specs against the context's model on a
/// worker pool of `options.threads` threads; results[i] corresponds to
/// specs[i]. `options.budget` governs each spec's constructions, the
/// context's budget the exploration. Specs over the same atom vocabulary
/// share one label cache, across calls too.
std::vector<CheckResult> check(ModelContext& model, const std::vector<ltl::Formula>& specs,
                               const CheckOptions& options = {});

/// check() over a fresh context whose exploration runs under
/// `options.budget`.
std::vector<CheckResult> check_all(const Fts& system, const std::vector<ltl::Formula>& specs,
                                   const AtomMap& atoms, const CheckOptions& options = {});

/// Checks that every fair computation satisfies `spec`. The atoms of `spec`
/// must all be present in `atoms`. The negated specification is compiled
/// deterministically when it lies in the hierarchy fragment; otherwise, for
/// future-only formulas, a nondeterministic Büchi tableau is used. Throws if
/// neither route applies. Equivalent to check_all with a one-element batch,
/// so Outcome reporting is identical between the two entry points.
///
/// When `options.diagnostics` is set, the checker reports through it:
/// MPH-V001 (tableau fallback), MPH-V002 (product size), MPH-V003
/// (violation found), MPH-V004 (budget exhausted, verdict unknown).
CheckResult check(const Fts& system, const ltl::Formula& spec, const AtomMap& atoms,
                  const CheckOptions& options = {});

}  // namespace mph::fts
