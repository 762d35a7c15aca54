// Edge cases and helper coverage across modules: atom builders, DNF caps,
// evaluator guard rails, tracker limits, and error paths that the main
// suites don't reach.
#include <gtest/gtest.h>

#include "src/fts/fts.hpp"
#include "src/fts/programs.hpp"
#include "src/lang/dfa_ops.hpp"
#include "src/lang/regex.hpp"
#include "src/ltl/eval.hpp"
#include "src/ltl/hierarchy.hpp"
#include "src/ltl/to_nba.hpp"
#include "src/omega/acceptance.hpp"
#include "src/omega/emptiness.hpp"
#include "src/omega/operators.hpp"

namespace mph {
namespace {

TEST(AcceptanceDnf, StreettNegationHasKClauses) {
  for (std::size_t k = 1; k <= 4; ++k) {
    auto clauses = omega::Acceptance::streett(k).negate().dnf();
    EXPECT_EQ(clauses.size(), k);
    for (const auto& c : clauses) {
      // Each clause: avoid R_i, require (Q − P_i)'s mark.
      EXPECT_EQ(std::popcount(c.avoid), 1);
      EXPECT_EQ(std::popcount(c.require), 1);
    }
  }
}

TEST(AcceptanceDnf, UnsatisfiableClausesDropped) {
  // Inf(0) ∧ Fin(0) is unsatisfiable → empty DNF.
  auto acc = omega::Acceptance::conj(omega::Acceptance::inf(0), omega::Acceptance::fin(0));
  EXPECT_TRUE(acc.dnf().empty());
}

TEST(AcceptanceDnf, CapThrows) {
  // A conjunction of k two-clause disjunctions expands to 2^k clauses.
  omega::Acceptance acc = omega::Acceptance::t();
  for (omega::Mark m = 0; m < 10; ++m)
    acc = omega::Acceptance::conj(
        std::move(acc),
        omega::Acceptance::disj(omega::Acceptance::inf(2 * m),
                                omega::Acceptance::inf(2 * m + 1)));
  EXPECT_THROW(acc.dnf(/*max_clauses=*/16), std::invalid_argument);
  EXPECT_EQ(acc.dnf(/*max_clauses=*/2048).size(), 1024u);
}

TEST(FtsAtoms, BuildersEvaluateOnValuations) {
  fts::Fts s;
  std::size_t x = s.add_var("x", 0, 5, 2);
  std::size_t t = s.add_transition(
      "inc", fts::Fairness::None, [x](const fts::Valuation& v) { return v[x] < 5; },
      [x](fts::Valuation& v) { ++v[x]; });
  fts::Valuation v{3};
  EXPECT_TRUE(fts::var_equals(s, "x", 3)(s, v, -1));
  EXPECT_FALSE(fts::var_equals(s, "x", 2)(s, v, -1));
  EXPECT_TRUE(fts::var_at_least(s, "x", 3)(s, v, -1));
  EXPECT_FALSE(fts::var_at_least(s, "x", 4)(s, v, -1));
  EXPECT_TRUE(fts::taken(t)(s, v, static_cast<int>(t)));
  EXPECT_FALSE(fts::taken(t)(s, v, -1));
  EXPECT_TRUE(fts::enabled_atom(t)(s, v, -1));
  fts::Valuation top{5};
  EXPECT_FALSE(fts::enabled_atom(t)(s, top, -1));
  EXPECT_TRUE(fts::deadlocked()(s, top, -1));
  EXPECT_FALSE(fts::deadlocked()(s, v, -1));
}

TEST(FtsAtoms, UnknownVariableThrows) {
  fts::Fts s;
  s.add_var("x", 0, 1, 0);
  EXPECT_THROW(fts::var_equals(s, "y", 0), std::invalid_argument);
  EXPECT_THROW(s.var_index("zz"), std::invalid_argument);
}

TEST(FtsApply, GuardViolationsThrow) {
  fts::Fts s;
  std::size_t x = s.add_var("x", 0, 1, 0);
  std::size_t t = s.add_transition(
      "flip", fts::Fairness::None, [x](const fts::Valuation& v) { return v[x] == 0; },
      [x](fts::Valuation& v) { v[x] = 1; });
  EXPECT_THROW(s.apply(t, fts::Valuation{1}), std::invalid_argument);
  EXPECT_EQ(s.apply(t, fts::Valuation{0}), (fts::Valuation{1}));
}

TEST(EvalGuards, UnknownAtomsThrow) {
  auto sigma = lang::Alphabet::of_props({"p"});
  omega::Lasso l{{}, {0}};
  EXPECT_THROW(ltl::evaluates(ltl::parse_formula("nope"), l, sigma), std::invalid_argument);
  EXPECT_THROW(ltl::evaluates(ltl::parse_formula("G zz"), l, sigma), std::invalid_argument);
}

TEST(EvalGuards, EmptyLoopRejected) {
  auto sigma = lang::Alphabet::of_props({"p"});
  omega::Lasso bad{{0}, {}};
  EXPECT_THROW(ltl::evaluates(ltl::parse_formula("p"), bad, sigma), std::invalid_argument);
}

TEST(CompileGuards, PastOverFutureRejected) {
  auto sigma = lang::Alphabet::of_props({"p", "q"});
  EXPECT_THROW(ltl::compile(ltl::parse_formula("O F p"), sigma), std::invalid_argument);
}

TEST(ToNbaGuards, ClosureCapThrows) {
  auto sigma = lang::Alphabet::of_props({"p", "q"});
  // 13 temporal subformulas exceed the 12-free-variable cap.
  std::string big = "p";
  for (int i = 0; i < 13; ++i) big = "X(" + big + ")";
  EXPECT_THROW(ltl::to_nba(ltl::parse_formula(big), sigma), std::invalid_argument);
}

TEST(ToNbaGuards, PastRejected) {
  auto sigma = lang::Alphabet::of_props({"p"});
  EXPECT_THROW(ltl::to_nba(ltl::parse_formula("O p"), sigma), std::invalid_argument);
}

TEST(AlphabetOf, RequiresAtoms) {
  EXPECT_THROW(ltl::alphabet_of(ltl::parse_formula("true")), std::invalid_argument);
  auto a = ltl::alphabet_of(ltl::parse_formula("G(p -> F q)"));
  EXPECT_EQ(a.prop_count(), 2u);
}

TEST(ProductGuards, MarkBudgetEnforced) {
  // Two automata with ~33 marks each cannot be multiplied under 64 marks.
  auto sigma = lang::Alphabet::plain({"a", "b"});
  omega::DetOmega big1(sigma, 1, 0, omega::Acceptance::streett(17));  // marks 0..33
  omega::DetOmega big2(sigma, 1, 0, omega::Acceptance::streett(17));
  EXPECT_THROW(intersection(big1, big2), std::invalid_argument);
}

TEST(UnionIntersectionChains, ManyOperandsStayCorrect) {
  // Chain four operator-built automata; spot-check semantics on lassos.
  auto sigma = lang::Alphabet::plain({"a", "b"});
  auto r = [&](const std::string& re) { return lang::compile_regex(re, sigma); };
  auto m = intersection(intersection(omega::op_r(r("(a|b)*a")), omega::op_r(r("(a|b)*b"))),
                        omega::op_a(r("(a|b)+")));
  // "Infinitely many a and infinitely many b".
  EXPECT_TRUE(m.accepts_text("(ab)"));
  EXPECT_FALSE(m.accepts_text("(a)"));
  EXPECT_FALSE(m.accepts_text("ab(b)"));
  auto u = union_of(m, omega::op_p(r("(a|b)*a")));
  EXPECT_TRUE(u.accepts_text("(a)"));  // via the persistence disjunct
  EXPECT_TRUE(u.accepts_text("(ab)"));
  EXPECT_FALSE(u.accepts_text("a(b)"));
}

TEST(ExploreGuards, MaxStatesEnforced) {
  auto prog = fts::programs::dining_philosophers(3);
  fts::ExploreResult ex = fts::explore(prog.system, Budget().with_state_cap(3));
  EXPECT_EQ(ex.outcome, Outcome::BudgetStates);
  EXPECT_EQ(ex.graph.size(), 3u);
}

TEST(StreettPairsGuards, Validation) {
  auto sigma = lang::Alphabet::plain({"a", "b"});
  omega::DetOmega m(sigma, 2, 0, omega::Acceptance::t());
  EXPECT_THROW(omega::apply_streett_pairs(m, {}), std::invalid_argument);
  EXPECT_THROW(omega::apply_streett_pairs(m, {omega::StreettPair{{5}, {}}}),
               std::invalid_argument);
}

}  // namespace
}  // namespace mph
