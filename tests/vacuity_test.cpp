// The vacuity subsystem end to end: the polarity walker (flips under ¬ and
// the left side of ->, mixed under <->, past operators covered), the
// MPH-Y002 antecedent fast path against models that do and do not exercise
// the antecedent, Beer-style mutation verdicts with named witnessing
// mutations, interesting-witness replay, class-aware dispatch routing
// (safety mutants stay off the ω-product path), transition coverage, and
// budget exhaustion surfacing as Unknown — never as "non-vacuous".
#include <gtest/gtest.h>

#include "src/analysis/coverage.hpp"
#include "src/analysis/vacuity.hpp"
#include "src/fts/programs.hpp"
#include "src/ltl/eval.hpp"
#include "src/ltl/polarity.hpp"

namespace mph {
namespace {

using analysis::RequirementVacuity;
using ltl::Occurrence;
using ltl::parse_formula;
using ltl::Polarity;

/// The polarity of the unique occurrence printing as `text` (asserts it
/// exists and is unambiguous).
Polarity polarity_of(const std::vector<Occurrence>& occs, const std::string& text) {
  const Occurrence* found = nullptr;
  for (const auto& o : occs)
    if (o.sub.to_string() == text) {
      EXPECT_EQ(found, nullptr) << "ambiguous occurrence " << text;
      found = &o;
    }
  EXPECT_NE(found, nullptr) << "no occurrence " << text;
  return found ? found->polarity : Polarity::Mixed;
}

TEST(PolarityWalker, UntilOperandsArePositive) {
  const auto occs = ltl::occurrences(parse_formula("p U q"));
  ASSERT_EQ(occs.size(), 2u);
  EXPECT_EQ(polarity_of(occs, "p"), Polarity::Positive);
  EXPECT_EQ(polarity_of(occs, "q"), Polarity::Positive);
}

TEST(PolarityWalker, NegationFlipsAndDoubleNegationRestores) {
  const auto occs = ltl::occurrences(parse_formula("!(p U q)"));
  EXPECT_EQ(polarity_of(occs, "p U q"), Polarity::Negative);
  EXPECT_EQ(polarity_of(occs, "p"), Polarity::Negative);
  EXPECT_EQ(polarity_of(occs, "q"), Polarity::Negative);
  const auto twice = ltl::occurrences(parse_formula("!!p"));
  EXPECT_EQ(polarity_of(twice, "p"), Polarity::Positive);
}

TEST(PolarityWalker, ImpliesIsAntitoneOnTheLeft) {
  const auto occs = ltl::occurrences(parse_formula("G(p -> q)"));
  EXPECT_EQ(polarity_of(occs, "p -> q"), Polarity::Positive);
  EXPECT_EQ(polarity_of(occs, "p"), Polarity::Negative);
  EXPECT_EQ(polarity_of(occs, "q"), Polarity::Positive);
}

TEST(PolarityWalker, PastOperatorsPreservePolarity) {
  const auto occs = ltl::occurrences(parse_formula("H(p -> O q)"));
  EXPECT_EQ(polarity_of(occs, "p"), Polarity::Negative);
  EXPECT_EQ(polarity_of(occs, "O q"), Polarity::Positive);
  EXPECT_EQ(polarity_of(occs, "q"), Polarity::Positive);
  const auto since = ltl::occurrences(parse_formula("p S !q"));
  EXPECT_EQ(polarity_of(since, "p"), Polarity::Positive);
  EXPECT_EQ(polarity_of(since, "q"), Polarity::Negative);
}

TEST(PolarityWalker, IffMakesEverythingBeneathMixed) {
  const auto occs = ltl::occurrences(parse_formula("(p & r) <-> !q"));
  EXPECT_EQ(polarity_of(occs, "p & r"), Polarity::Mixed);
  EXPECT_EQ(polarity_of(occs, "p"), Polarity::Mixed);
  EXPECT_EQ(polarity_of(occs, "q"), Polarity::Mixed);
}

TEST(PolarityWalker, ConstantOccurrencesAreOmitted) {
  for (const auto& o : ltl::occurrences(parse_formula("G(true -> p)")))
    EXPECT_NE(o.sub.to_string(), "true");
}

TEST(PolarityWalker, PreorderPathsAddressTheirNodes) {
  const ltl::Formula f = parse_formula("G(p -> q)");
  const auto occs = ltl::occurrences(f);
  ASSERT_EQ(occs.size(), 3u);
  EXPECT_EQ(occs[0].sub.to_string(), "p -> q");
  EXPECT_EQ(occs[1].sub.to_string(), "p");
  EXPECT_EQ(occs[2].sub.to_string(), "q");
  EXPECT_EQ(occs[1].path, (std::vector<std::size_t>{0, 0}));
  // Each path addresses exactly the subformula it was reported with.
  for (const auto& o : occs) {
    const ltl::Formula back = ltl::replace_at(f, o.path, o.sub);
    EXPECT_EQ(back.to_string(), f.to_string());
  }
}

TEST(PolarityWalker, ReplaceAtRewritesOneOccurrence) {
  const ltl::Formula f = parse_formula("G(p -> q)");
  const std::size_t path[] = {0, 0};
  EXPECT_EQ(ltl::replace_at(f, path, ltl::f_false()).to_string(),
            parse_formula("G(false -> q)").to_string());
}

TEST(PolarityWalker, StrengtheningsFollowPolarity) {
  const ltl::Formula f = parse_formula("G(p -> q)");
  const auto occs = ltl::occurrences(f);
  for (const auto& o : occs) {
    const auto muts = ltl::strengthenings(f, o);
    ASSERT_EQ(muts.size(), 1u);
    // Negative occurrence -> true, positive -> false; either way the mutant
    // entails the original on every lasso over {p, q}.
    const std::string expect = o.polarity == Polarity::Negative ? "true" : "false";
    const ltl::Formula back = ltl::replace_at(f, o.path, parse_formula(expect));
    EXPECT_EQ(muts[0].to_string(), back.to_string());
  }
  const auto mixed = ltl::occurrences(parse_formula("p <-> q"));
  EXPECT_EQ(ltl::strengthenings(parse_formula("p <-> q"), mixed[0]).size(), 2u);
}

TEST(AntecedentFastPath, UnreachableVsExercised) {
  const ltl::Formula req = parse_formula("G(c1 -> O t1)");
  const auto mutex = fts::programs::trivial_mutex();
  const auto unreachable =
      analysis::antecedent_exercised(mutex.system, req, mutex.atoms, Budget{});
  ASSERT_TRUE(unreachable.has_value());
  ASSERT_TRUE(unreachable->complete());
  EXPECT_FALSE(*unreachable->value);  // trivial-mutex never reaches critical

  const auto peterson = fts::programs::peterson();
  const auto exercised =
      analysis::antecedent_exercised(peterson.system, req, peterson.atoms, Budget{});
  ASSERT_TRUE(exercised.has_value());
  ASSERT_TRUE(exercised->complete());
  EXPECT_TRUE(*exercised->value);
}

TEST(AntecedentFastPath, OnlyImplicationUnderAlwaysQualifies) {
  const auto prog = fts::programs::peterson();
  EXPECT_FALSE(analysis::antecedent_exercised(prog.system, parse_formula("F c1"),
                                              prog.atoms, Budget{}));
  // A temporal antecedent is outside the fast path's fragment too.
  EXPECT_FALSE(analysis::antecedent_exercised(prog.system, parse_formula("G(F t1 -> c1)"),
                                              prog.atoms, Budget{}));
}

TEST(Vacuity, UnreachableAntecedentFiresY002WithoutMutation) {
  const auto prog = fts::programs::trivial_mutex();
  analysis::DiagnosticEngine diag;
  const auto vr = analysis::analyze_vacuity(prog.system, {parse_formula("G(c1 -> O t1)")},
                                            prog.atoms, diag);
  const auto& rv = vr.requirements[0];
  EXPECT_EQ(rv.verdict, RequirementVacuity::Verdict::Vacuous);
  EXPECT_TRUE(rv.antecedent_failure);
  EXPECT_TRUE(rv.mutants.empty());  // decided by labeling alone
  EXPECT_TRUE(diag.has_code("MPH-Y002"));
  EXPECT_FALSE(diag.has_code("MPH-Y001"));
}

TEST(Vacuity, SameSpecIsNonVacuousWhereTheAntecedentIsExercised) {
  const auto prog = fts::programs::peterson();
  analysis::DiagnosticEngine diag;
  const auto vr = analysis::analyze_vacuity(prog.system, {parse_formula("G(c1 -> O t1)")},
                                            prog.atoms, diag);
  const auto& rv = vr.requirements[0];
  EXPECT_TRUE(rv.original.holds);
  EXPECT_FALSE(rv.antecedent_failure);
  EXPECT_FALSE(diag.has_code("MPH-Y002"));
  EXPECT_EQ(rv.verdict, RequirementVacuity::Verdict::NonVacuous);
}

TEST(Vacuity, VacuousPassNamesTheWitnessingMutation) {
  const auto prog = fts::programs::trivial_mutex();
  analysis::DiagnosticEngine diag;
  const auto vr = analysis::analyze_vacuity(prog.system, {parse_formula("G !(c1 & c2)")},
                                            prog.atoms, diag);
  EXPECT_EQ(vr.requirements[0].verdict, RequirementVacuity::Verdict::Vacuous);
  ASSERT_TRUE(diag.has_code("MPH-Y001"));
  bool named = false;
  for (const auto& d : diag.diagnostics())
    if (d.code == "MPH-Y001" && d.witness.find("c1 <- true") != std::string::npos)
      named = true;
  EXPECT_TRUE(named) << "no MPH-Y001 names the c1 <- true mutation";
}

TEST(Vacuity, InterestingWitnessReplaysUnderTheLassoEvaluator) {
  const auto prog = fts::programs::peterson();
  const ltl::Formula req = parse_formula("G(t1 -> F c1)");
  analysis::DiagnosticEngine diag;
  const auto vr = analysis::analyze_vacuity(prog.system, {req}, prog.atoms, diag);
  const auto& rv = vr.requirements[0];
  EXPECT_EQ(rv.verdict, RequirementVacuity::Verdict::NonVacuous);
  EXPECT_TRUE(diag.has_code("MPH-Y003"));
  ASSERT_TRUE(rv.witness.has_value());
  ASSERT_FALSE(rv.witness->loop.empty());
  // Replay: the witness must satisfy the requirement it is a witness for.
  const auto names = req.atoms();
  const lang::Alphabet sigma = lang::Alphabet::of_props(names);
  auto symbol_of = [&](const fts::Valuation& v) {
    lang::Symbol s = 0;
    for (std::size_t i = 0; i < names.size(); ++i)
      if (prog.atoms.at(names[i])(prog.system, v, fts::StateGraph::kNone))
        s |= lang::Symbol{1} << i;
    return s;
  };
  omega::Lasso word;
  for (const auto& v : rv.witness->prefix) word.prefix.push_back(symbol_of(v));
  for (const auto& v : rv.witness->loop) word.loop.push_back(symbol_of(v));
  EXPECT_TRUE(ltl::evaluates(req, word, sigma));
}

TEST(Vacuity, BudgetExhaustionIsUnknownNeverNonVacuous) {
  const auto prog = fts::programs::peterson();
  analysis::VacuityOptions opts;
  opts.check.budget.with_state_cap(3);  // below peterson's 15 reachable states
  analysis::DiagnosticEngine diag;
  const auto vr = analysis::analyze_vacuity(prog.system, {parse_formula("G(t1 -> F c1)")},
                                            prog.atoms, diag, opts);
  EXPECT_EQ(vr.requirements[0].verdict, RequirementVacuity::Verdict::Unknown);
  EXPECT_TRUE(diag.has_code("MPH-Y005"));
  EXPECT_FALSE(diag.has_code("MPH-Y003"));
}

TEST(Dispatch, SafetyMutantsStayOffTheOmegaProduct) {
  const auto prog = fts::programs::trivial_mutex();
  analysis::DiagnosticEngine diag;
  analysis::VacuityOptions dispatched;  // mutants take the class-aware route
  const auto with =
      analysis::analyze_vacuity(prog.system, {parse_formula("G !(c1 & c2)")}, prog.atoms,
                                diag, dispatched);
  // Mutating either atom keeps a syntactically-safety formula: both routed
  // through the closed-prefix scan. The whole-formula / conjunction mutants
  // are constant and never touch an engine.
  EXPECT_EQ(with.stats.safety_prefix, 2u);
  EXPECT_EQ(with.stats.constant, 2u);
  EXPECT_EQ(with.stats.scc, 0u);

  analysis::VacuityOptions full = dispatched;
  full.check.force_scc = true;
  analysis::DiagnosticEngine diag2;
  const auto without =
      analysis::analyze_vacuity(prog.system, {parse_formula("G !(c1 & c2)")}, prog.atoms,
                                diag2, full);
  EXPECT_EQ(without.stats.safety_prefix, 0u);
  EXPECT_EQ(without.stats.scc, 2u);
  // Same verdicts either way.
  EXPECT_EQ(with.requirements[0].verdict, without.requirements[0].verdict);
  ASSERT_EQ(with.requirements[0].mutants.size(), without.requirements[0].mutants.size());
  for (std::size_t i = 0; i < with.requirements[0].mutants.size(); ++i)
    EXPECT_EQ(with.requirements[0].mutants[i].holds,
              without.requirements[0].mutants[i].holds);
}

TEST(Dispatch, GuaranteeSpecsTakeTheDualEngine) {
  const auto prog = fts::programs::peterson();
  const ltl::Formula spec = parse_formula("F c1");
  const auto fast = fts::check(prog.system, spec, prog.atoms);
  EXPECT_EQ(fast.stats.engine, fts::CheckEngine::GuaranteeDual);
  fts::CheckOptions scc;
  scc.force_scc = true;
  const auto slow = fts::check(prog.system, spec, prog.atoms, scc);
  EXPECT_NE(slow.stats.engine, fts::CheckEngine::GuaranteeDual);
  EXPECT_NE(slow.stats.engine, fts::CheckEngine::SafetyPrefix);
  ASSERT_TRUE(is_complete(fast.outcome));
  ASSERT_TRUE(is_complete(slow.outcome));
  EXPECT_EQ(fast.holds, slow.holds);
}

TEST(Coverage, VacuousSpecCoversNoTransition) {
  const auto prog = fts::programs::trivial_mutex();
  analysis::DiagnosticEngine diag;
  const auto cr = analysis::analyze_coverage(prog.system, {parse_formula("G !(c1 & c2)")},
                                             prog.atoms, diag);
  EXPECT_EQ(cr.reachable, 2u);  // try1, try2; the enter/exit family is dead
  EXPECT_EQ(cr.covered, 0u);
  EXPECT_EQ(cr.percent_covered, 0.0);
  EXPECT_EQ(diag.count_code("MPH-Y004"), 2u);
}

TEST(Coverage, LivenessSpecCoversTheTransitionsItNeeds) {
  const auto prog = fts::programs::peterson();
  analysis::DiagnosticEngine diag;
  const auto cr = analysis::analyze_coverage(prog.system, {parse_formula("G(t1 -> F c1)")},
                                             prog.atoms, diag);
  EXPECT_TRUE(is_complete(cr.outcome));
  EXPECT_GT(cr.covered, 0u);
  EXPECT_GT(cr.percent_covered, 0.0);
}

TEST(Coverage, BudgetExhaustionAbortsWithY005) {
  const auto prog = fts::programs::peterson();
  analysis::CoverageOptions opts;
  opts.check.budget.with_state_cap(3);
  analysis::DiagnosticEngine diag;
  const auto cr = analysis::analyze_coverage(prog.system, {parse_formula("G(t1 -> F c1)")},
                                             prog.atoms, diag, opts);
  EXPECT_FALSE(is_complete(cr.outcome));
  EXPECT_TRUE(diag.has_code("MPH-Y005"));
  EXPECT_FALSE(diag.has_code("MPH-Y004"));  // nothing may be called uncovered
  EXPECT_TRUE(cr.transitions.empty());
}

}  // namespace
}  // namespace mph
