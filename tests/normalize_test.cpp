// ΔΓ-normalization (src/ltl/normalize.hpp): language preservation on small
// lassos, class exactness against core::classify through the deterministic
// pipeline, idempotence, soundness of the syntactic classifier relative to
// the exact class, and budget-governed refusal.
#include <gtest/gtest.h>

#include "src/core/classify.hpp"
#include "src/fuzz/generators.hpp"
#include "src/ltl/eval.hpp"
#include "src/ltl/hierarchy.hpp"
#include "src/ltl/normalize.hpp"
#include "src/ltl/semantic.hpp"
#include "src/ltl/syntactic.hpp"

namespace mph {
namespace {

using core::PropertyClass;

// The examples/ corpus plus the shapes the normalizer exists for: formulas
// that denote low classes but are not written in hierarchy normal form.
const char* kCorpus[] = {
    "G p", "G !p", "G(p | q)", "F q", "F(p & q)", "!(G p)", "G p | F q",
    "G p & F q", "F p -> F q", "G F p", "G(p -> F q)", "G F (p & q)",
    "F G p", "p -> F G q", "!(G F p)", "G F p | F G q", "G F p -> G F q",
    "G F p & F G q", "p U q", "p W q", "p R q", "X p", "X F p",
    "G(q -> O p)", "F(q & Z H p)", "G(p -> G q)", "G(p -> X q)",
    "G(p -> F G q)", "G(p -> G F q)", "true U q",
    // Non-normal-form shapes routed through each rule layer.
    "F(p & F q)", "F(p & G q)", "F(p U q)", "F(p R q)", "F(p W q)",
    "G F(p U q)", "G F(p R q)", "G F(p W q)", "F G(p U q)", "F G(p R q)",
    "F G(p W q)", "G F(p & F q)", "G F(p & G q)", "G F(X p)", "F G(X p)",
    "X X (p U q)", "p U (q U p)", "(p U q) U q", "q R (p R q)",
    "F(p & X q)", "F(p & X X q)", "G(p | F q)", "(G p) U q", "(F p) U q",
    "p U (G q)", "p U (F q)", "F(p & (q U p))", "F((O p) & G q)",
    "G F(p & (q U p))", "(p U q) | (q U p)", "(p U q) & (q U p)",
    "X(p U q)", "G(X p | q)", "F(X p & q)", "!(p U q)", "!(p W q)",
    "!F(p & G q)", "(p W q) & (q W p)", "G((O p) | F q)",
};

lang::Alphabet pq() { return lang::Alphabet::of_props({"p", "q"}); }

class NormalizeCorpus : public ::testing::TestWithParam<const char*> {};

// The one property everything else rests on: the normal form denotes the
// same language as the input, witnessed exhaustively on small lassos.
TEST_P(NormalizeCorpus, NormalFormPreservesLanguage) {
  ltl::Formula f = ltl::parse_formula(GetParam());
  auto r = ltl::normalize(f);
  ASSERT_TRUE(r.complete()) << "corpus formula left the envelope: "
                            << r.form.to_string();
  ASSERT_TRUE(ltl::is_hierarchy_form(r.form)) << r.form.to_string();
  auto alphabet = pq();
  auto m = ltl::compile_hierarchy_form(r.form, alphabet);
  ASSERT_TRUE(m.has_value()) << r.form.to_string();
  for (const omega::Lasso& l : omega::enumerate_lassos(alphabet, 3, 3))
    ASSERT_EQ(m->accepts(l), ltl::evaluates(f, l, alphabet))
        << "input " << f.to_string() << "\nnormal " << r.form.to_string()
        << "\nword " << l.to_string(alphabet);
}

// Exactness: the class computed from the normal form equals core::classify
// of the independently compiled automaton (the PR-1 rewrite pipeline).
TEST_P(NormalizeCorpus, ExactClassMatchesSemanticClassify) {
  ltl::Formula f = ltl::parse_formula(GetParam());
  auto exact = ltl::exact_classification(f);
  ASSERT_TRUE(exact.has_value());
  auto alphabet = pq();
  try {
    // PR-1's rewrite pipeline — a meaningfully different compilation route.
    auto reference = core::classify(ltl::compile(f, alphabet));
    EXPECT_EQ(exact->value.safety, reference.safety) << f.to_string();
    EXPECT_EQ(exact->value.guarantee, reference.guarantee) << f.to_string();
    EXPECT_EQ(exact->value.recurrence, reference.recurrence) << f.to_string();
    EXPECT_EQ(exact->value.persistence, reference.persistence) << f.to_string();
    EXPECT_EQ(exact->value.lowest(), reference.lowest()) << f.to_string();
  } catch (const std::invalid_argument&) {
    // Outside the old pipeline's fragment — the reason this PR exists. The
    // NBA-based semantic checks still referee the safety/guarantee bits.
    if (!f.has_past()) {
      EXPECT_EQ(exact->value.safety, ltl::nba_is_safety(f, alphabet)) << f.to_string();
      EXPECT_EQ(exact->value.guarantee, ltl::nba_is_guarantee(f, alphabet)) << f.to_string();
    }
  }
}

// Syntactic ⊇ exact: every class the syntactic analysis claims must contain
// the exact class (satellite: the NNF pre-pass + dual rules must stay sound).
TEST_P(NormalizeCorpus, SyntacticContainsExact) {
  ltl::Formula f = ltl::parse_formula(GetParam());
  auto exact = ltl::exact_classification(f);
  ASSERT_TRUE(exact.has_value());
  auto syn = ltl::syntactic_classification(f);
  for (auto cls : {PropertyClass::Safety, PropertyClass::Guarantee,
                   PropertyClass::Obligation, PropertyClass::Recurrence,
                   PropertyClass::Persistence}) {
    if (syn.is(cls))
      EXPECT_TRUE(exact->value.is(cls))
          << f.to_string() << " syntactic over-claimed " << core::to_string(cls);
  }
}

// normalize ∘ normalize = normalize: a normal form re-normalizes to itself.
TEST_P(NormalizeCorpus, Idempotent) {
  ltl::Formula f = ltl::parse_formula(GetParam());
  auto r1 = ltl::normalize(f);
  ASSERT_TRUE(r1.complete());
  auto r2 = ltl::normalize(r1.form);
  ASSERT_TRUE(r2.complete());
  EXPECT_TRUE(r2.form == r1.form)
      << "first  " << r1.form.to_string() << "\nsecond " << r2.form.to_string();
}

INSTANTIATE_TEST_SUITE_P(Corpus, NormalizeCorpus, ::testing::ValuesIn(kCorpus));

// ---------------------------------------------------------------------------
// Randomized exactness: seed-1 fuzz formulas through the same three checks.

class NormalizeFuzzSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NormalizeFuzzSweep, RandomFormulasPreserveLanguageAndClass) {
  Rng rng(GetParam());
  const std::vector<std::string> atoms{"p", "q"};
  auto alphabet = pq();
  int normalized = 0;
  for (int i = 0; i < 50; ++i) {
    ltl::Formula f = fuzz::random_ltl(rng, atoms, 9, fuzz::LtlFlavor::FutureOnly);
    auto r = ltl::normalize(f);
    if (!r.complete()) continue;
    ++normalized;
    auto m = ltl::compile_hierarchy_form(r.form, alphabet);
    ASSERT_TRUE(m.has_value()) << r.form.to_string();
    for (const omega::Lasso& l : omega::enumerate_lassos(alphabet, 2, 2))
      ASSERT_EQ(m->accepts(l), ltl::evaluates(f, l, alphabet))
          << "input " << f.to_string() << "\nnormal " << r.form.to_string()
          << "\nword " << l.to_string(alphabet);
    // Safety/guarantee bits of the exact class agree with the NBA checks.
    auto sem = core::classify(*m);
    EXPECT_EQ(ltl::nba_is_safety(f, alphabet), sem.safety) << f.to_string();
    EXPECT_EQ(ltl::nba_is_guarantee(f, alphabet), sem.guarantee) << f.to_string();
    // Regression: syntactic ⊇ exact on random formulas too.
    auto syn = ltl::syntactic_classification(f);
    for (auto cls : {PropertyClass::Safety, PropertyClass::Guarantee,
                     PropertyClass::Obligation, PropertyClass::Recurrence,
                     PropertyClass::Persistence}) {
      if (syn.is(cls))
        EXPECT_TRUE(sem.is(cls))
            << f.to_string() << " syntactic over-claimed " << core::to_string(cls);
    }
  }
  // The envelope is meant to be broad: a healthy share of small random
  // formulas normalizes (the rest refuse soundly, never misclassify).
  EXPECT_GE(normalized, 20);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NormalizeFuzzSweep,
                         ::testing::Range<std::uint64_t>(1, 11));

// ---------------------------------------------------------------------------
// Budget governance and refusal semantics.

TEST(NormalizeBudget, ExhaustionReportsOutcomeNeverMisclassifies) {
  ltl::Formula f = ltl::parse_formula("F(p & (q U p)) & G F(p R q)");
  ltl::NormalizeOptions opt;
  opt.budget = Budget().with_state_cap(3);
  auto r = ltl::normalize(f, opt);
  EXPECT_FALSE(r.complete());
  EXPECT_EQ(r.outcome, Outcome::BudgetStates);
  EXPECT_TRUE(r.form == f);  // sound fallback: the input itself
  EXPECT_FALSE(ltl::exact_classification(f, opt).has_value());
}

TEST(NormalizeBudget, NodeCeilingReportsBudgetStates) {
  ltl::Formula f = ltl::parse_formula("F(p & (q U p)) & F(q & (p U q))");
  ltl::NormalizeOptions opt;
  opt.max_form_nodes = 4;
  auto r = ltl::normalize(f, opt);
  EXPECT_FALSE(r.complete());
  EXPECT_EQ(r.outcome, Outcome::BudgetStates);
}

TEST(NormalizeBudget, OutOfEnvelopeIsRefusedNotMisreported) {
  // U over two genuinely temporal arguments inside □◇-free uniform context:
  // outside the supported envelope — must come back normal == false with a
  // Complete outcome, and exact_classification must refuse.
  ltl::Formula f = ltl::parse_formula("G((X p) U (X X q))");
  auto r = ltl::normalize(f);
  if (!r.normal) {
    EXPECT_EQ(r.outcome, Outcome::Complete);
    EXPECT_FALSE(ltl::exact_classification(f).has_value());
  }
}

TEST(NormalizeBudget, OversizedAcceptanceDnfIsRefusedNotThrown) {
  // The normal form compiles to a 7-state automaton whose 27-mark
  // acceptance negates past Acceptance::dnf's clause cap inside Landweber's
  // recurrence test: an explicit refusal, not an exception.
  ltl::Formula f = ltl::parse_formula("G F(q W (false W p))");
  ASSERT_TRUE(ltl::normalize(f).normal);
  std::optional<ltl::ExactClass> exact;
  EXPECT_NO_THROW(exact = ltl::exact_classification(f));
  EXPECT_FALSE(exact.has_value());
}

TEST(NormalizeBasics, PastFormulasAreAlreadyKernels) {
  ltl::Formula f = ltl::parse_formula("q & O(p & Y q)");
  auto r = ltl::normalize(f);
  EXPECT_TRUE(r.complete());
  EXPECT_TRUE(r.form == f);
  EXPECT_EQ(r.steps, 0u);
}

TEST(NormalizeBasics, HierarchyFormsPassStraightThrough) {
  for (const char* text : {"G p", "F p", "G F p", "F G p", "G p | F G q",
                           "G(O p) & F(q & O p)"}) {
    ltl::Formula f = ltl::parse_formula(text);
    EXPECT_TRUE(ltl::is_hierarchy_form(f)) << text;
    auto r = ltl::normalize(f);
    EXPECT_TRUE(r.complete()) << text;
  }
}

}  // namespace
}  // namespace mph
