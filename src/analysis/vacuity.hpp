// Verdict-aware vacuity analysis (docs/VACUITY.md): a requirement that
// *holds* on a fair transition system may hold for the wrong reason — the
// §1 trap of specifications satisfied by systems that never exercise them.
// Beer-style detection makes this precise: strengthen each subformula
// occurrence per its polarity (src/ltl/polarity.hpp); if some strengthened
// mutant still holds, the occurrence was never needed and the pass is
// vacuous (MPH-Y001). If every mutant fails, the model exercises every
// occurrence and a failing mutant's counterexample — a fair computation
// satisfying the requirement but violating the mutant — is an *interesting
// witness* (MPH-Y003), replayable like any counterexample.
//
// Cost model: the requirements, the □(p→q) antecedent labelings and the
// mutants all run on the caller's fts::ModelContext, so the model is explored
// at most once per analysis, and not at all when the caller's context was
// explored before. All mutants of all requirements go through ONE fts::check
// batch, so atom-label caches and the worker pool are shared across them;
// the checker's class-aware dispatch then routes safety mutants to the
// closed-prefix scan and guarantee mutants through duality, keeping most
// mutants off the ω-product path entirely. The □(p→q) antecedent shape
// short-circuits without any mutation: one pass over the context's reachable
// states decides whether p is ever exercised (MPH-Y002).
//
// Everything honors mph::Budget: a budget-exhausted mutant makes the
// requirement's vacuity verdict Unknown (MPH-Y005) — never a false
// "non-vacuous".
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/analysis/diagnostics.hpp"
#include "src/fts/checker.hpp"
#include "src/ltl/polarity.hpp"

namespace mph::analysis {

struct VacuityOptions {
  /// Engine options for the requirement and mutant checks (budget, threads,
  /// force_scc). `check.diagnostics` is ignored — the engine checks stay
  /// silent and only the MPH-Y findings reach the DiagnosticEngine given to
  /// analyze_vacuity. Mutants take the checker's default class-aware route
  /// (CheckEngine::SafetyPrefix / GuaranteeDual); `check.force_scc` sends
  /// every mutant through the full ω-product instead, and the tab13 bench
  /// measures the difference.
  fts::CheckOptions check;
};

/// One strengthening mutant and how it fared.
struct MutantCheck {
  std::string occurrence;   ///< text of the mutated subformula occurrence
  ltl::Polarity polarity;   ///< its polarity in the requirement
  std::string replacement;  ///< "true" or "false"
  std::string text;         ///< the full mutant formula
  /// "constant", "safety-prefix", "guarantee-dual", "SCC"
  /// (suffixed " (NBA)" on tableau fallback), or "skipped" (mixed polarity,
  /// outside every engine's fragment, or over the mutant cap).
  std::string engine = "skipped";
  Outcome outcome = Outcome::Complete;
  bool holds = false;
};

struct RequirementVacuity {
  /// Violated — the requirement itself fails; vacuity does not apply.
  /// Vacuous — some strengthening still holds (or the antecedent is
  /// unreachable). NonVacuous — every checked mutant fails. Unknown — the
  /// requirement's own check or some mutant ran out of budget.
  enum class Verdict : std::uint8_t { Violated, Vacuous, NonVacuous, Unknown };

  std::string text;
  fts::CheckResult original;
  Verdict verdict = Verdict::Unknown;
  bool antecedent_failure = false;  ///< MPH-Y002 fired (no mutation needed)
  std::vector<MutantCheck> mutants;
  /// Interesting witness (MPH-Y003): a computation satisfying the
  /// requirement while violating a mutant — verified by replaying the
  /// requirement over the lasso before it is reported.
  std::optional<fts::Counterexample> witness;
};

std::string_view to_string(RequirementVacuity::Verdict v);

/// Aggregate dispatch/verdict telemetry, surfaced by `mph-lint --vacuity`
/// and BENCH_vacuity.json.
struct VacuityStats {
  std::size_t mutants_checked = 0;
  std::size_t mutants_skipped = 0;
  std::size_t safety_prefix = 0;   ///< mutants decided by the closed-prefix scan
  std::size_t guarantee_dual = 0;  ///< mutants decided through the safety dual
  std::size_t scc = 0;             ///< mutants on the full ω-product (SCC search)
  std::size_t static_proof = 0;    ///< mutants discharged by `check.static_prover`
  std::size_t constant = 0;        ///< atom-free mutants decided by evaluation
  std::size_t unknown = 0;         ///< mutants whose check exhausted its budget
};

struct VacuityResult {
  std::vector<RequirementVacuity> requirements;
  VacuityStats stats;
};

/// The MPH-Y002 fast path in isolation: for a □(p→q)-shaped requirement
/// with a propositional (state-formula) antecedent p, decide whether any
/// reachable state satisfies p — a pointwise labeling of the context's
/// exploration (run now if the context has not explored yet), no mutation,
/// no product. nullopt when the requirement is not of that shape; an engaged
/// result carries value() == false exactly when the antecedent is never
/// exercised, and no value when the exploration exhausted the context's
/// budget. Differential fuzzing (oracle `vacuity-antecedent`) cross-checks
/// this against the mutation path.
std::optional<Budgeted<bool>> antecedent_exercised(fts::ModelContext& model,
                                                   const ltl::Formula& requirement);

/// Analyzes every requirement that holds on the context's model and reports
/// MPH-Y001/Y002/Y003/Y005 through `out`. Requirements that fail or exhaust
/// their budget come back as Violated / Unknown and are not mutated.
VacuityResult analyze_vacuity(fts::ModelContext& model, const std::vector<ltl::Formula>& specs,
                              DiagnosticEngine& out, const VacuityOptions& options = {});

}  // namespace mph::analysis
