// The subsumption lint (src/analysis/subsume.hpp): three-valued language
// implication between LTL requirements via the Safra-free Büchi pipeline,
// and the MPH-S011/S012/S013 diagnostics it feeds. Every verdict is
// budget-governed — exhaustion yields Unknown and a note, never a guess.
#include <gtest/gtest.h>

#include "src/analysis/diagnostics.hpp"
#include "src/analysis/subsume.hpp"
#include "src/ltl/ast.hpp"

namespace mph {
namespace {

using analysis::Implication;
using analysis::SubsumeOptions;
using ltl::parse_formula;

// ------------------------------------------------------------ implies() --

TEST(Implies, DecidesTextbookEntailments) {
  EXPECT_EQ(analysis::implies(parse_formula("G p"), parse_formula("F p")),
            Implication::Implies);
  EXPECT_EQ(analysis::implies(parse_formula("F p"), parse_formula("G p")),
            Implication::NotImplies);
  EXPECT_EQ(analysis::implies(parse_formula("p U q"), parse_formula("F q")),
            Implication::Implies);
  EXPECT_EQ(analysis::implies(parse_formula("G F p"), parse_formula("F p")),
            Implication::Implies);
}

TEST(Implies, EquivalentFormulasImplyBothWays) {
  const auto a = parse_formula("G (p & q)");
  const auto b = parse_formula("G (q & p)");
  EXPECT_EQ(analysis::implies(a, b), Implication::Implies);
  EXPECT_EQ(analysis::implies(b, a), Implication::Implies);
}

TEST(Implies, ExhaustedBudgetRefusesDeterministically) {
  SubsumeOptions tight;
  tight.budget = Budget().with_state_cap(1);
  // Refusal is a verdict, not a crash — and re-asking must refuse the same
  // way (the memoized three-valued answers in mph-serve rely on this). The
  // implication holds, so no separating lasso decides it before the
  // two-state inclusion product, which the cap of 1 cuts off.
  for (int round = 0; round < 2; ++round)
    EXPECT_EQ(analysis::implies(parse_formula("G (p & q)"), parse_formula("G p"), tight),
              Implication::Unknown);
  // The converse is refuted by a lasso of G p alone, before any product
  // state is admitted.
  EXPECT_EQ(analysis::implies(parse_formula("G p"), parse_formula("G (p & q)"), tight),
            Implication::NotImplies);
}

TEST(Implies, OversizedAlphabetIsRefusedNotGuessed) {
  SubsumeOptions narrow;
  narrow.max_atoms = 2;
  EXPECT_EQ(analysis::implies(parse_formula("G (a & b & c)"), parse_formula("G a"),
                              narrow),
            Implication::Unknown);
}

// -------------------------------------------------------- lint_subsume() --

TEST(LintSubsume, RedundantRequirementFiresS011) {
  analysis::DiagnosticEngine out;
  SubsumeOptions options;
  const auto result = analysis::lint_subsume(
      {parse_formula("G p"), parse_formula("G (p & q)")}, out, options);
  ASSERT_EQ(result.pairs.size(), 1u);
  EXPECT_EQ(result.pairs[0].stronger, 1u) << "G (p & q) is the stronger requirement";
  EXPECT_EQ(result.pairs[0].weaker, 0u);
  EXPECT_FALSE(result.pairs[0].equivalent);
  EXPECT_TRUE(out.has_code("MPH-S011"));
  EXPECT_FALSE(out.has_errors()) << "redundancy is a warning, not an error";
  EXPECT_EQ(result.unknown_pairs, 0u);
}

TEST(LintSubsume, SameLanguageFiresS012) {
  analysis::DiagnosticEngine out;
  const auto result = analysis::lint_subsume(
      {parse_formula("G (p & q)"), parse_formula("G (q & p)")}, out, {});
  ASSERT_EQ(result.pairs.size(), 1u);
  EXPECT_TRUE(result.pairs[0].equivalent);
  EXPECT_TRUE(out.has_code("MPH-S012"));
  EXPECT_FALSE(out.has_code("MPH-S011"))
      << "an equivalence must not double-report as plain redundancy";
}

TEST(LintSubsume, IndependentRequirementsStaySilent) {
  analysis::DiagnosticEngine out;
  const auto result =
      analysis::lint_subsume({parse_formula("G p"), parse_formula("F q")}, out, {});
  EXPECT_TRUE(result.pairs.empty());
  EXPECT_EQ(result.unknown_pairs, 0u);
  EXPECT_EQ(out.diagnostics().size(), 0u) << "no wolf-crying on independent specs";
  EXPECT_EQ(result.checked_pairs, 2u) << "both ordered directions were examined";
}

TEST(LintSubsume, ExhaustionIsANoteNeverAVerdict) {
  analysis::DiagnosticEngine out;
  SubsumeOptions tight;
  tight.budget = Budget().with_state_cap(1);
  const auto result = analysis::lint_subsume(
      {parse_formula("G p"), parse_formula("G (p & q)")}, out, tight);
  EXPECT_TRUE(result.pairs.empty()) << "an undecided pair must not become a claim";
  EXPECT_GT(result.unknown_pairs, 0u);
  EXPECT_TRUE(out.has_code("MPH-S013"));
  EXPECT_FALSE(out.has_code("MPH-S011"));
}

}  // namespace
}  // namespace mph
