#include "src/analysis/vacuity.hpp"

#include <map>
#include <set>
#include <utility>

#include "src/ltl/eval.hpp"
#include "src/ltl/hierarchy.hpp"
#include "src/ltl/syntactic.hpp"
#include "src/omega/lasso.hpp"
#include "src/support/check.hpp"

namespace mph::analysis {

using ltl::Formula;
using ltl::Op;

std::string_view to_string(RequirementVacuity::Verdict v) {
  switch (v) {
    case RequirementVacuity::Verdict::Violated: return "violated";
    case RequirementVacuity::Verdict::Vacuous: return "VACUOUS";
    case RequirementVacuity::Verdict::NonVacuous: return "non-vacuous";
    case RequirementVacuity::Verdict::Unknown: return "unknown";
  }
  MPH_ASSERT(false);
}

namespace {

/// Pointwise evaluation of a state formula on one state-graph node.
bool eval_state(const Formula& f, const fts::Fts& system, const fts::AtomMap& atoms,
                const fts::Valuation& v, int last_taken) {
  switch (f.op()) {
    case Op::True: return true;
    case Op::False: return false;
    case Op::Atom: return atoms.at(f.atom_name())(system, v, last_taken);
    case Op::Not: return !eval_state(f.child(0), system, atoms, v, last_taken);
    case Op::And:
      return eval_state(f.child(0), system, atoms, v, last_taken) &&
             eval_state(f.child(1), system, atoms, v, last_taken);
    case Op::Or:
      return eval_state(f.child(0), system, atoms, v, last_taken) ||
             eval_state(f.child(1), system, atoms, v, last_taken);
    case Op::Implies:
      return !eval_state(f.child(0), system, atoms, v, last_taken) ||
             eval_state(f.child(1), system, atoms, v, last_taken);
    case Op::Iff:
      return eval_state(f.child(0), system, atoms, v, last_taken) ==
             eval_state(f.child(1), system, atoms, v, last_taken);
    default:
      MPH_ASSERT(false);  // callers guarantee is_state()
  }
}

/// The antecedent of a □(p→q)-shaped requirement with a state-formula p.
const Formula* antecedent_of(const Formula& requirement) {
  if (requirement.op() != Op::Always) return nullptr;
  const Formula& body = requirement.child(0);
  if (body.op() != Op::Implies) return nullptr;
  const Formula& p = body.child(0);
  return p.is_state() ? &p : nullptr;
}

/// Mirrors the checker's route(): is there any engine that can take this
/// formula? (det(¬f); det(f) for a dispatchable safety formula; the
/// future-only NBA tableau.) Mutants that fail this screen are skipped —
/// feeding them to check_all would throw out of the whole batch.
bool checkable(const Formula& f, const lang::Alphabet& alphabet) {
  try {
    (void)ltl::compile(ltl::f_not(f), alphabet);
    return true;
  } catch (const std::invalid_argument&) {
  }
  if (ltl::syntactic_classification(f).safety) {
    try {
      (void)ltl::compile(f, alphabet);
      return true;
    } catch (const std::invalid_argument&) {
    }
  }
  return !f.has_past();
}

/// An atom-free mutant denotes a fixed truth value on every word; decide it
/// by evaluating on the one-letter lasso. nullopt when even the evaluator
/// rejects it (future operators under past ones).
std::optional<bool> constant_value(const Formula& f) {
  static const lang::Alphabet alphabet = lang::Alphabet::of_props({"p"});
  omega::Lasso sigma;
  sigma.loop = {0};
  try {
    return ltl::evaluates(f, sigma, alphabet);
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
}

std::string engine_name(const fts::CheckStats& stats) {
  std::string name{to_string(stats.engine)};
  if (stats.nba_fallback) name += " (NBA)";
  return name;
}

/// Labels a counterexample's valuations over the requirement's vocabulary
/// and replays the requirement on the lasso. Atoms are evaluated with
/// last_taken = kNone, exact for state-predicate atom maps (the shipped
/// models); `taken`-style atoms make the replay conservative, which only
/// suppresses an MPH-Y003 report.
bool witness_satisfies(const Formula& requirement, const fts::Counterexample& cex,
                       const fts::Fts& system, const fts::AtomMap& atoms) {
  if (cex.loop.empty()) return false;
  const auto names = requirement.atoms();
  const lang::Alphabet alphabet = lang::Alphabet::of_props(names);
  auto label = [&](const fts::Valuation& v) {
    lang::Symbol s = 0;
    for (std::size_t i = 0; i < names.size(); ++i)
      if (atoms.at(names[i])(system, v, fts::StateGraph::kNone)) s |= lang::Symbol{1} << i;
    return s;
  };
  omega::Lasso sigma;
  for (const auto& v : cex.prefix) sigma.prefix.push_back(label(v));
  for (const auto& v : cex.loop) sigma.loop.push_back(label(v));
  try {
    return ltl::evaluates(requirement, sigma, alphabet);
  } catch (const std::invalid_argument&) {
    return false;
  }
}

}  // namespace

std::optional<Budgeted<bool>> antecedent_exercised(const fts::Fts& system,
                                                   const ltl::Formula& requirement,
                                                   const fts::AtomMap& atoms,
                                                   const Budget& budget) {
  const Formula* p = antecedent_of(requirement);
  if (!p) return std::nullopt;
  for (const auto& name : p->atoms())
    MPH_REQUIRE(atoms.contains(name), "antecedent atom not defined: " + name);
  fts::ExploreResult ex = fts::explore(system, budget);
  if (!is_complete(ex.outcome)) return Budgeted<bool>{std::nullopt, ex.outcome};
  fts::Valuation v;
  for (std::size_t n = 0; n < ex.graph.size(); ++n) {
    ex.graph.valuation_into(n, v);
    if (eval_state(*p, system, atoms, v, ex.graph.last_taken(n)))
      return Budgeted<bool>{true, Outcome::Complete};
  }
  return Budgeted<bool>{false, Outcome::Complete};
}

VacuityResult analyze_vacuity(const fts::Fts& system, const std::vector<ltl::Formula>& specs,
                              const fts::AtomMap& atoms, DiagnosticEngine& out,
                              const VacuityOptions& options) {
  VacuityResult result;
  result.requirements.resize(specs.size());
  if (specs.empty()) return result;

  fts::CheckOptions co = options.check;
  co.diagnostics = nullptr;  // only MPH-Y findings leave this analyzer
  Budget budget = co.budget;
  if (!budget.has_state_cap()) budget.with_state_cap(fts::kDefaultStateCap);

  const auto originals = fts::check_all(system, specs, atoms, co);

  // Mutant batch: one check_all over every mutant of every requirement, so
  // exploration / label caches / worker pool are shared across the lot.
  std::vector<Formula> batch;
  std::vector<std::pair<std::size_t, std::size_t>> owner;  // (requirement, mutant index)

  auto emit_unknown = [&](const std::string& subject, const std::string& message) {
    out.emit("MPH-Y005", subject, message).fix_hint =
        "raise the budget (state cap / deadline) or simplify the model or requirement";
  };

  for (std::size_t i = 0; i < specs.size(); ++i) {
    RequirementVacuity& rv = result.requirements[i];
    rv.text = specs[i].to_string();
    rv.original = originals[i];
    const std::string subject = "vacuity of '" + rv.text + "'";

    if (!is_complete(originals[i].outcome)) {
      rv.verdict = RequirementVacuity::Verdict::Unknown;
      emit_unknown(subject, "the requirement's own check exhausted its budget (" +
                                std::string(to_string(originals[i].outcome)) +
                                "); vacuity not analyzed");
      continue;
    }
    if (!originals[i].holds) {
      rv.verdict = RequirementVacuity::Verdict::Violated;
      continue;
    }

    // Fast path: a □(p→q) whose antecedent no reachable state satisfies is
    // vacuously true — equivalent to □(false→q) — with no mutation at all.
    if (options.antecedent_fast_path) {
      if (auto exercised = antecedent_exercised(system, specs[i], atoms, budget);
          exercised && exercised->complete() && !*exercised->value) {
        rv.verdict = RequirementVacuity::Verdict::Vacuous;
        rv.antecedent_failure = true;
        auto& d = out.emit("MPH-Y002", subject,
                           "the antecedent '" + antecedent_of(specs[i])->to_string() +
                               "' holds in no reachable state: the requirement is "
                               "satisfied vacuously (it constrains nothing the model "
                               "ever does)");
        d.fix_hint = "make the model reach the antecedent or drop the requirement";
        continue;
      }
    }

    // Polarity-directed strengthening mutants, deduplicated per requirement.
    std::set<std::string> seen;
    for (const auto& occ : ltl::occurrences(specs[i])) {
      if (occ.polarity == ltl::Polarity::Mixed) {
        // Constant replacements are not sufficient for ∀-vacuity under <->;
        // stay sound by not claiming anything about mixed occurrences.
        ++result.stats.mutants_skipped;
        continue;
      }
      for (const Formula& mutant : ltl::strengthenings(specs[i], occ)) {
        if (!seen.insert(mutant.to_string()).second) continue;
        MutantCheck mc;
        mc.occurrence = occ.sub.to_string();
        mc.polarity = occ.polarity;
        mc.replacement = occ.polarity == ltl::Polarity::Positive ? "false" : "true";
        mc.text = mutant.to_string();
        if (rv.mutants.size() >= options.max_mutants_per_requirement) {
          ++result.stats.mutants_skipped;
          rv.mutants.push_back(std::move(mc));
          continue;
        }
        const auto mutant_atoms = mutant.atoms();
        if (mutant_atoms.empty()) {
          if (auto value = constant_value(mutant)) {
            mc.engine = "constant";
            mc.holds = *value;
            ++result.stats.constant;
            ++result.stats.mutants_checked;
          } else {
            ++result.stats.mutants_skipped;
          }
          rv.mutants.push_back(std::move(mc));
          continue;
        }
        if (!checkable(mutant, lang::Alphabet::of_props(mutant_atoms))) {
          ++result.stats.mutants_skipped;
          rv.mutants.push_back(std::move(mc));
          continue;
        }
        owner.emplace_back(i, rv.mutants.size());
        rv.mutants.push_back(std::move(mc));
        batch.push_back(mutant);
      }
    }
  }

  const auto mutant_results = fts::check_all(system, batch, atoms, co);
  for (std::size_t k = 0; k < batch.size(); ++k) {
    auto [i, j] = owner[k];
    MutantCheck& mc = result.requirements[i].mutants[j];
    const fts::CheckResult& r = mutant_results[k];
    mc.engine = engine_name(r.stats);
    mc.outcome = r.outcome;
    mc.holds = is_complete(r.outcome) && r.holds;
    ++result.stats.mutants_checked;
    if (!is_complete(r.outcome)) {
      ++result.stats.unknown;
    } else {
      switch (r.stats.engine) {
        case fts::CheckEngine::SafetyPrefix: ++result.stats.safety_prefix; break;
        case fts::CheckEngine::GuaranteeDual: ++result.stats.guarantee_dual; break;
        case fts::CheckEngine::Scc: ++result.stats.scc; break;
      }
    }
  }

  // Per-requirement verdicts from the batch results.
  for (std::size_t i = 0; i < specs.size(); ++i) {
    RequirementVacuity& rv = result.requirements[i];
    if (rv.verdict != RequirementVacuity::Verdict::Unknown || rv.antecedent_failure ||
        !is_complete(rv.original.outcome) || !rv.original.holds)
      continue;  // already decided (violated / unknown / fast-path vacuous)
    const std::string subject = "vacuity of '" + rv.text + "'";

    bool vacuous = false;
    std::size_t exhausted = 0, checked = 0;
    for (const MutantCheck& mc : rv.mutants) {
      if (mc.engine == "skipped") continue;
      ++checked;
      if (!is_complete(mc.outcome)) {
        ++exhausted;
        continue;
      }
      if (!mc.holds) continue;
      vacuous = true;
      auto& d = out.emit(
          "MPH-Y001", subject,
          "requirement holds vacuously: replacing the " +
              std::string(to_string(mc.polarity)) + " occurrence of '" + mc.occurrence +
              "' with " + mc.replacement + " still holds ('" + mc.text + "')");
      d.witness = "witnessing mutation: " + mc.occurrence + " <- " + mc.replacement;
      d.fix_hint = "the model never exercises this part of the requirement; strengthen "
                   "the model or simplify the requirement";
    }
    if (vacuous) {
      rv.verdict = RequirementVacuity::Verdict::Vacuous;
      continue;
    }
    if (exhausted > 0) {
      rv.verdict = RequirementVacuity::Verdict::Unknown;
      emit_unknown(subject, std::to_string(exhausted) + " of " + std::to_string(checked) +
                                " mutant check(s) exhausted the budget; the vacuity "
                                "verdict is unknown, not non-vacuous");
      continue;
    }
    rv.verdict = RequirementVacuity::Verdict::NonVacuous;
    // Interesting witness: a failing mutant's counterexample is a fair
    // computation violating the mutant; replay the requirement over it and
    // report the first lasso that also satisfies the requirement.
    for (std::size_t k = 0; k < batch.size() && !rv.witness; ++k) {
      if (owner[k].first != i) continue;
      const auto& cex = mutant_results[k].counterexample;
      if (!cex || !witness_satisfies(specs[i], *cex, system, atoms)) continue;
      rv.witness = *cex;
      const MutantCheck& mc = rv.mutants[owner[k].second];
      auto& d = out.emit(
          "MPH-Y003", subject,
          "interesting witness: a computation satisfies the requirement while "
          "violating the mutant '" +
              mc.text + "' — the occurrence '" + mc.occurrence + "' is genuinely used");
      d.witness = "lasso with prefix " + std::to_string(cex->prefix.size()) +
                  " state(s), loop " + std::to_string(cex->loop.size()) +
                  " state(s); replayable like a counterexample";
    }
  }
  return result;
}

}  // namespace mph::analysis
