// Büchi complementation + language inclusion (docs/COMPLEMENT.md):
// differential agreement against lasso enumeration, NCSB vs rank-based
// agreement on semi-deterministic inputs, inclusion reflexivity and
// antisymmetry-up-to-language, budget-refusal determinism, and the two
// inclusion stages (separating-lasso probe, complement product) against
// each other.
#include <gtest/gtest.h>

#include "src/fuzz/generators.hpp"
#include "src/ltl/eval.hpp"
#include "src/ltl/to_nba.hpp"
#include "src/omega/complement.hpp"
#include "src/omega/inclusion.hpp"
#include "src/omega/inclusion_detail.hpp"
#include "src/omega/lasso.hpp"
#include "src/support/rng.hpp"

namespace mph::omega {
namespace {

lang::Alphabet letters(std::size_t n) {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < n; ++i) names.emplace_back(1, static_cast<char>('a' + i));
  return lang::Alphabet::plain(names);
}

/// □◇-style two-state semi-deterministic automaton over {a, b}: accepts
/// words with infinitely many `a`.
Nba inf_a() {
  Nba n(letters(2));
  n.add_state();
  n.add_state();
  n.set_accepting(1, true);
  for (Symbol s = 0; s < 2; ++s) {
    n.add_edge(0, s, s == 0 ? 1 : 0);
    n.add_edge(1, s, s == 0 ? 1 : 0);
  }
  n.add_initial(0);
  return n;
}

TEST(Complement, UniversalOfEmpty) {
  Nba n(letters(2));
  n.add_state();  // no accepting cycle, no language
  n.add_edge(0, 0, 0);
  n.add_initial(0);
  auto comp = complement(n);
  ASSERT_TRUE(comp.complete());
  for (const Lasso& l : enumerate_lassos(n.alphabet(), 2, 2))
    EXPECT_TRUE(comp.value->accepts(l));
}

TEST(Complement, EmptyOfUniversal) {
  Nba n(letters(2));
  n.add_state();
  n.set_accepting(0, true);
  for (Symbol s = 0; s < 2; ++s) n.add_edge(0, s, 0);
  n.add_initial(0);
  auto comp = complement(n);
  ASSERT_TRUE(comp.complete());
  EXPECT_TRUE(is_empty(*comp.value));
}

TEST(Complement, InfAIsSemiDeterministicAndComplements) {
  Nba n = inf_a();
  EXPECT_TRUE(is_semi_deterministic(n));
  auto comp = complement(n);
  ASSERT_TRUE(comp.complete());
  EXPECT_GE(comp.stats.ncsb_parts, 1u);
  for (const Lasso& l : enumerate_lassos(n.alphabet(), 2, 3))
    EXPECT_EQ(comp.value->accepts(l), !n.accepts(l)) << "lasso disagreement";
}

TEST(Complement, DifferentialAgainstLassoEnumeration) {
  Rng rng(0xc0117e57);
  for (int iter = 0; iter < 60; ++iter) {
    lang::Alphabet sigma = letters(2 + rng.below(2));
    Nba n = fuzz::random_nba(rng, sigma, 1 + rng.below(4));
    ComplementOptions opts;
    opts.budget = Budget().with_state_cap(20000);
    auto comp = complement(n, opts);
    if (!comp.complete()) continue;  // budget refusal is allowed, silence is not
    for (const Lasso& l : enumerate_lassos(sigma, 2, 2))
      ASSERT_EQ(comp.value->accepts(l), !n.accepts(l))
          << "iteration " << iter << " disagrees on a lasso";
  }
}

TEST(Complement, NcsbAndRankAgreeOnSemiDeterministicInputs) {
  Rng rng(0x5e111de7);
  int checked = 0;
  for (int iter = 0; iter < 120 && checked < 30; ++iter) {
    lang::Alphabet sigma = letters(2);
    Nba n = fuzz::random_nba(rng, sigma, 1 + rng.below(4));
    if (!is_semi_deterministic(n)) continue;
    ComplementOptions ncsb, rank;
    ncsb.budget = rank.budget = Budget().with_state_cap(20000);
    ncsb.algorithm = ComplementAlgorithm::Ncsb;
    rank.algorithm = ComplementAlgorithm::Rank;
    auto c1 = complement(n, ncsb);
    auto c2 = complement(n, rank);
    if (!c1.complete() || !c2.complete()) continue;
    ++checked;
    for (const Lasso& l : enumerate_lassos(sigma, 2, 2)) {
      const bool expect = !n.accepts(l);
      ASSERT_EQ(c1.value->accepts(l), expect) << "NCSB wrong at iteration " << iter;
      ASSERT_EQ(c2.value->accepts(l), expect) << "rank wrong at iteration " << iter;
    }
  }
  EXPECT_GE(checked, 10);
}

TEST(Inclusion, Reflexivity) {
  Rng rng(0xf1e1d);
  for (int iter = 0; iter < 40; ++iter) {
    lang::Alphabet sigma = letters(2);
    Nba n = fuzz::random_nba(rng, sigma, 1 + rng.below(4));
    InclusionOptions opts;
    opts.budget = Budget().with_state_cap(50000);
    auto r = included(n, n, opts);
    if (r.verdict == InclusionVerdict::Unknown) continue;
    EXPECT_EQ(r.verdict, InclusionVerdict::Included) << "iteration " << iter;
  }
}

TEST(Inclusion, VerdictsMatchLassoEnumerationAndCexIsValid) {
  Rng rng(0x1c1d);
  for (int iter = 0; iter < 60; ++iter) {
    lang::Alphabet sigma = letters(2);
    Nba a = fuzz::random_nba(rng, sigma, 1 + rng.below(3));
    Nba b = fuzz::random_nba(rng, sigma, 1 + rng.below(3));
    InclusionOptions opts;
    opts.budget = Budget().with_state_cap(50000);
    auto r = included(a, b, opts);
    if (r.verdict == InclusionVerdict::Unknown) continue;
    if (r.verdict == InclusionVerdict::NotIncluded) {
      ASSERT_TRUE(r.counterexample.has_value());
      EXPECT_TRUE(a.accepts(*r.counterexample)) << "cex not in L(A), iteration " << iter;
      EXPECT_FALSE(b.accepts(*r.counterexample)) << "cex in L(B), iteration " << iter;
    } else {
      for (const Lasso& l : enumerate_lassos(sigma, 2, 2))
        ASSERT_FALSE(a.accepts(l) && !b.accepts(l))
            << "Included but witness exists, iteration " << iter;
    }
  }
}

TEST(Inclusion, AntisymmetryUpToLanguage) {
  Rng rng(0xa57);
  int mutual = 0;
  for (int iter = 0; iter < 80; ++iter) {
    lang::Alphabet sigma = letters(2);
    Nba a = fuzz::random_nba(rng, sigma, 1 + rng.below(3));
    Nba b = fuzz::random_nba(rng, sigma, 1 + rng.below(3));
    InclusionOptions opts;
    opts.budget = Budget().with_state_cap(50000);
    if (included(a, b, opts).verdict != InclusionVerdict::Included) continue;
    if (included(b, a, opts).verdict != InclusionVerdict::Included) continue;
    ++mutual;
    for (const Lasso& l : enumerate_lassos(sigma, 2, 2))
      ASSERT_EQ(a.accepts(l), b.accepts(l)) << "mutual inclusion but languages differ";
  }
  EXPECT_GE(mutual, 1);
}

TEST(Inclusion, BudgetRefusalIsDeterministic) {
  Rng rng(0xb4d9e7);
  lang::Alphabet sigma = letters(2);
  Nba a = fuzz::random_nba(rng, sigma, 4);
  Nba b = fuzz::random_nba(rng, sigma, 4);
  InclusionOptions tight;
  tight.budget = Budget().with_state_cap(3);
  auto r1 = included(a, b, tight);
  auto r2 = included(a, b, tight);
  EXPECT_EQ(r1.verdict, r2.verdict);
  EXPECT_EQ(r1.outcome, r2.outcome);
  EXPECT_EQ(r1.product_states, r2.product_states);
  if (r1.verdict == InclusionVerdict::Unknown) {
    EXPECT_EQ(r1.outcome, Outcome::BudgetStates);
    EXPECT_FALSE(r1.counterexample.has_value());
  }
}

/// Tableau NBAs of two formulas over the joint alphabet {p, q}.
std::pair<Nba, Nba> pq_pair(const char* left, const char* right) {
  const lang::Alphabet sigma = lang::Alphabet::of_props({"p", "q"});
  return {ltl::to_nba(ltl::parse_formula(left), sigma),
          ltl::to_nba(ltl::parse_formula(right), sigma)};
}

TEST(Inclusion, UnknownReportsWhatWasBuilt) {
  // F(p ∧ X(p U q)) ⊆ F q holds, so no lasso separates and only the
  // product decides; its product has 1,093 states, so a cap of 500 runs
  // out part-way. The probe, product and complement telemetry still count
  // what was built.
  const auto [a, b] = pq_pair("F (p & X (p U q))", "F q");
  InclusionOptions o;
  o.budget.with_state_cap(500);
  const InclusionResult r = included(a, b, o);
  EXPECT_EQ(r.verdict, InclusionVerdict::Unknown);
  EXPECT_EQ(r.outcome, Outcome::BudgetStates);
  EXPECT_FALSE(r.counterexample.has_value());
  EXPECT_GT(r.lassos_probed, 0u);
  EXPECT_GT(r.product_states, 0u);
  EXPECT_GT(r.complement.parts, 0u);
  EXPECT_GT(r.complement.macrostates, 0u);
}

TEST(Inclusion, Tab17RowIsNotIncludedWithReplayedLasso) {
  // F q ⊄ F(p ∧ X(p U q)): q at once, p never. The complement product
  // overran the 200k cap serve and the benches use on this row; the probe
  // finds the separating lasso before any complement is built.
  const lang::Alphabet sigma = lang::Alphabet::of_props({"p", "q"});
  const ltl::Formula fa = ltl::parse_formula("F q");
  const ltl::Formula fb = ltl::parse_formula("F (p & X (p U q))");
  const Nba a = ltl::to_nba(fa, sigma);
  const Nba b = ltl::to_nba(fb, sigma);
  InclusionOptions o;
  o.budget.with_state_cap(200000);
  const InclusionResult r = included(a, b, o);
  EXPECT_EQ(r.verdict, InclusionVerdict::NotIncluded);
  EXPECT_EQ(r.outcome, Outcome::Complete);
  EXPECT_EQ(r.product_states, 0u) << "the probe decides before the product";
  EXPECT_EQ(r.complement.macrostates, 0u);
  ASSERT_TRUE(r.counterexample.has_value());
  const Lasso& cex = *r.counterexample;
  EXPECT_TRUE(a.accepts(cex)) << cex.to_string(sigma);
  EXPECT_FALSE(b.accepts(cex)) << cex.to_string(sigma);
  EXPECT_TRUE(ltl::evaluates(fa, cex, sigma)) << cex.to_string(sigma);
  EXPECT_FALSE(ltl::evaluates(fb, cex, sigma)) << cex.to_string(sigma);
}

TEST(Inclusion, ProbeStaysWithinItsBoundOnIncludedPairs) {
  // An included pair has no separating lasso, so the probe tests every
  // candidate it generates, up to the fixed bound, before the product
  // decides.
  for (auto [left, right] : {std::pair{"F (p & X (p U q))", "F q"},
                             std::pair{"p U q", "F q"}, std::pair{"G p", "G (p | q)"}}) {
    const auto [a, b] = pq_pair(left, right);
    const InclusionResult r = included(a, b);
    EXPECT_EQ(r.verdict, InclusionVerdict::Included) << left;
    EXPECT_GT(r.lassos_probed, 0u) << left;
    EXPECT_LE(r.lassos_probed, detail::kMaxProbedLassos) << left;
  }
  // A universal automaton over 6 letters against itself: it has more
  // distinct candidates than the bound and accepts every one, so only the
  // bound stops the probe.
  Nba all(letters(6));
  all.add_state();
  all.add_state();
  all.set_accepting(0, true);
  all.set_accepting(1, true);
  for (Symbol s = 0; s < 6; ++s)
    for (State from = 0; from < 2; ++from)
      for (State to = 0; to < 2; ++to) all.add_edge(from, s, to);
  all.add_initial(0);
  const InclusionResult r = included(all, all);
  EXPECT_EQ(r.verdict, InclusionVerdict::Included);
  EXPECT_EQ(r.lassos_probed, detail::kMaxProbedLassos);
}

TEST(Inclusion, ProbeAnswersSeparateAndTheProductAgrees) {
  // Every probe answer is a lasso of A that B rejects; the product stage
  // alone never contradicts it.
  Rng rng(0x9e0be);
  int separated = 0;
  for (int iter = 0; iter < 60; ++iter) {
    lang::Alphabet sigma = letters(2);
    Nba a = fuzz::random_nba(rng, sigma, 1 + rng.below(4));
    Nba b = fuzz::random_nba(rng, sigma, 1 + rng.below(4));
    const detail::ProbeResult p = detail::probe_separating_lasso(a, b, Budget());
    EXPECT_LE(p.probed, detail::kMaxProbedLassos);
    if (!p.separating) continue;
    ++separated;
    EXPECT_TRUE(a.accepts(*p.separating)) << "iteration " << iter;
    EXPECT_FALSE(b.accepts(*p.separating)) << "iteration " << iter;
    InclusionOptions opts;
    opts.budget = Budget().with_state_cap(50000);
    const InclusionResult r = detail::included_by_complement(a, b, opts);
    EXPECT_NE(r.verdict, InclusionVerdict::Included) << "iteration " << iter;
    EXPECT_EQ(r.lassos_probed, 0u);
  }
  EXPECT_GE(separated, 10);
}

TEST(Inclusion, ProbeHonoursCancellation) {
  std::stop_source stop;
  stop.request_stop();
  InclusionOptions o;
  o.budget.with_stop_token(stop.get_token());
  const auto [a, b] = pq_pair("F q", "F (p & X (p U q))");
  const InclusionResult r = included(a, b, o);
  EXPECT_EQ(r.verdict, InclusionVerdict::Unknown);
  EXPECT_EQ(r.outcome, Outcome::Cancelled);
  EXPECT_EQ(r.lassos_probed, 0u);
  EXPECT_EQ(r.product_states, 0u);
}

TEST(Inclusion, StrictSubsetDirections) {
  // L(inf-a) ⊆ Σ^ω strictly.
  Nba universal(letters(2));
  universal.add_state();
  universal.set_accepting(0, true);
  for (Symbol s = 0; s < 2; ++s) universal.add_edge(0, s, 0);
  universal.add_initial(0);
  Nba inf = inf_a();
  EXPECT_EQ(included(inf, universal).verdict, InclusionVerdict::Included);
  auto back = included(universal, inf);
  EXPECT_EQ(back.verdict, InclusionVerdict::NotIncluded);
  ASSERT_TRUE(back.counterexample.has_value());
  EXPECT_TRUE(universal.accepts(*back.counterexample));
  EXPECT_FALSE(inf.accepts(*back.counterexample));
}

}  // namespace
}  // namespace mph::omega
