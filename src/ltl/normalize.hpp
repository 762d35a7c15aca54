// ΔΓ-normalization of future LTL into hierarchy normal form (docs/
// NORMALIZATION.md; after Esparza–Rubio–Sickert, "Efficient Normalization
// of Linear Temporal Logic").
//
// A formula is in *hierarchy normal form* when it is a boolean combination
// of the five canonical shapes of §4/§5 — □p, ◇p, □◇p, ◇□p and bare past
// kernels p — exactly the fragment compile_hierarchy_form accepts. The
// normalizer rewrites arbitrary future LTL toward that form through three
// cooperating rule layers:
//
//   * ν/μ-stabilization: under □◇ / ◇□ every future operator reduces
//     (□◇(αUβ) = □◇β, ◇□(αRβ) = ◇□β, □◇(αWβ) = ◇□α ∨ □◇β, ...), so
//     recurrence/persistence contexts normalize completely;
//   * Σ₂/Π₂ kernel extraction: ◇(P ∧ □q) = ◇□(q ∧ (q S (q ∧ P))) and its
//     dual fold "eventually-stabilizing" shapes into single kernels;
//   * initial-context elimination: at position 0, U/R/W with a past side
//     and X-shifts become ◇/□ of past kernels (pUq = ◇(q ∧ Z H p), ...).
//
// Every rule is a documented temporal equivalence (global, position-
// independent, or initial-only — initial rules are applied only in
// top-level boolean context), so the normal form denotes the same
// property; the exact hierarchy class is then core::classify on the
// compiled deterministic automaton. The procedure is sound and total but
// deliberately *incomplete*: formulas outside the envelope (e.g. U with
// two temporal arguments in a position-uniform context) come back with
// `normal == false` and are never misclassified. Rewriting is budget-
// governed (mph::Budget + a node ceiling) and reports a structured
// Outcome instead of diverging on adversarial inputs.
#pragma once

#include <cstddef>
#include <optional>

#include "src/core/classify.hpp"
#include "src/ltl/ast.hpp"
#include "src/support/budget.hpp"

namespace mph::ltl {

struct NormalizeOptions {
  /// Governs rewriting effort: the state cap bounds rule applications, the
  /// deadline/stop token are polled between rules.
  Budget budget;
  /// Ceiling on the node count of any intermediate or final form; crossing
  /// it aborts with Outcome::BudgetStates (MPH-N003 upstream). The default
  /// comfortably covers every §4 idiom while keeping adversarial
  /// double-exponential inputs bounded.
  std::size_t max_form_nodes = 4096;
  /// exact_classification() refuses alphabets beyond 2^max_atoms symbols.
  std::size_t max_atoms = 10;
};

struct NormalizeResult {
  /// The rewritten formula: hierarchy normal form when `normal`, otherwise
  /// the best sound partial rewrite (still equivalent to the input).
  Formula form;
  /// True iff `form` passes is_hierarchy_form (compilable exactly).
  bool normal = false;
  /// Complete, or the budget/node-ceiling cause of early stop.
  Outcome outcome = Outcome::Complete;
  /// Rule applications spent.
  std::size_t steps = 0;

  /// Authoritative normal form obtained within budget.
  bool complete() const { return normal && is_complete(outcome); }
};

/// Rewrites `f` toward hierarchy normal form. Total: always returns an
/// equivalent formula; inspect `normal`/`outcome` for how far it got.
/// Past-only formulas are already kernels and return unchanged.
NormalizeResult normalize(const Formula& f, const NormalizeOptions& options = {});

/// Structural test for the compile_hierarchy_form fragment: boolean
/// combinations of □p, ◇p, □◇p, ◇□p and bare past kernels.
bool is_hierarchy_form(const Formula& f);

/// Negation normal form over the future layer: ¬ pushed down to past
/// kernels, Implies/Iff with future operands expanded. Past subformulas
/// are kernels and are left untouched. Shared with the syntactic
/// classifier's pre-pass.
Formula nnf(const Formula& f);

/// An exact classification together with the evidence it was computed from.
struct ExactClass {
  /// How the class was established.
  enum class Source : std::uint8_t {
    NormalForm,    ///< compiled hierarchy normal form, core::classify
    NbaSemantics,  ///< tableau NBA closure tests, core::classify_nba
  };

  core::Classification value;  ///< the semantic membership vector
  Formula normal_form;         ///< the rewrite the evidence started from
  Source source = Source::NormalForm;
};

/// The exact hierarchy class of `f`: normalize, compile the normal form
/// deterministically, classify the language (semantic, so e.g. ◇p with
/// unsatisfiable p correctly reports safety too). When the rewrite system
/// refuses (no hierarchy normal form found), a second, Safra-free path
/// tries the formula/negation tableau NBAs through core::classify_nba
/// (docs/COMPLEMENT.md) — it recovers safety/guarantee/clopen formulas the
/// normalizer's envelope misses. nullopt when both paths refuse, the
/// formula spans more than 2^max_atoms alphabet symbols, or the normal
/// form's acceptance is too large for the recurrence test's DNF expansion
/// (Acceptance::dnf's clause cap) — never a misreported class.
std::optional<ExactClass> exact_classification(const Formula& f,
                                               const NormalizeOptions& options = {});

}  // namespace mph::ltl
