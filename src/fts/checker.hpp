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
/// engine; the next two are the class-aware shortcuts taken when
/// `CheckOptions::class_dispatch` is on (docs/VACUITY.md):
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
///   None       — class dispatch off (or force_scc): the general engine runs
///   Syntactic  — ltl::syntactic_classification on the spec as written
///   Normalized — the spec was ΔΓ-normalized (src/ltl/normalize.hpp) and the
///                classification/compilation used the hierarchy normal form;
///                this is how specs *denoting* safety/guarantee but written
///                otherwise still reach the shortcut engines
enum class ClassSource : std::uint8_t { None, Syntactic, Normalized };

std::string_view to_string(ClassSource s);

/// Engine telemetry for one check, surfaced by `mph-lint --check` and the
/// tab11 bench. In a `check_all` batch the exploration and labelling phases
/// are shared; their timings are reported identically on every result that
/// used them.
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

/// State cap applied to a check whose budget carries none: check_all (and
/// the analyzers built on it) explore at most this many states by default.
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
  /// the general ω-product search. Serve keys its verdict cache on it, and
  /// the fuzz oracles and `perfbench --reanchor` use it to pin that route.
  bool force_scc = false;
  /// Class-aware engine dispatch: route syntactically-safety specs to the
  /// closed-prefix reachability check and syntactically-guarantee specs
  /// through the safety dual (see CheckEngine). Verdicts are identical to
  /// the full engines on every input — the vacuity analyzer
  /// (mph::analysis, docs/VACUITY.md) turns this on to keep mutant batches
  /// off the ω-product path. Ignored when `force_scc` is set, and silently
  /// skipped for specs outside the dispatchable shapes.
  bool class_dispatch = false;
  /// Rule-application cap for the ΔΓ-normalization attempted (under
  /// class_dispatch, never with force_scc) when the syntactic
  /// classification finds neither safety nor guarantee, or when the spec as
  /// written does not compile deterministically: a completed normal form
  /// re-classifies the spec and becomes the compilation source, routing it
  /// to the shortcut engines. 0 disables normalization in the checker.
  std::size_t normalize_steps = 512;
  /// Exploration-free proof hook, consulted per spec *before* the shared
  /// exploration (skipped under `force_scc`).
  /// Returning a result means "this spec is proved to hold" — the checker
  /// stamps it `CheckEngine::StaticProof` / Outcome::Complete with zero
  /// exploration and, when every spec in the batch resolves statically,
  /// never builds the state graph at all. Returning nullopt falls through
  /// to the engines; the hook must be sound (never a guess) — see
  /// analysis::make_static_prover (docs/ABSINT.md).
  std::function<std::optional<CheckResult>(const ltl::Formula&)> static_prover;
  analysis::DiagnosticEngine* diagnostics = nullptr;
};

/// Batch variant of `check`: explores the state graph once, shares atom-label
/// caches between specs over the same vocabulary, and checks the (mutually
/// independent) specs on a worker pool of `options.threads` threads.
/// results[i] corresponds to specs[i].
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
