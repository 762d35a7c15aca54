// Tests of the symbolic system description (src/fts/spec_model.hpp): the
// FtsSpec::build semantics at its edges — modular wrap at the exact span,
// negative adds, src≠var copies, sequential effect application, single-point
// domains — each cross-checked against explicit exploration of the built
// system, plus the dining/ring symbolic families and the budget-explicit
// proof rules those systems feed.
#include <gtest/gtest.h>

#include <set>

#include "src/fts/fts.hpp"
#include "src/fts/proof_rules.hpp"
#include "src/fts/spec_model.hpp"

namespace mph::fts {
namespace {

/// All reachable valuations of a spec, via explicit exploration.
std::set<Valuation> reachable(const FtsSpec& spec) {
  const ExploreResult ex = explore(spec.build(), Budget().with_state_cap(10000));
  EXPECT_EQ(ex.outcome, Outcome::Complete);
  std::set<Valuation> states;
  for (std::size_t n = 0; n < ex.graph.size(); ++n) states.insert(ex.graph.valuation(n));
  return states;
}

TEST(SpecModel, WrapAtExactSpanIsIdentity) {
  // x ∈ [0, 2], x += 3: the add equals the span, so every step is the
  // identity and the initial state is the only reachable one.
  FtsSpec spec;
  spec.vars.push_back({"x", 0, 2, 1});
  FtsSpec::Trans t;
  t.name = "tick";
  t.effects.push_back({0, 0, 3});
  spec.transitions.push_back(t);
  EXPECT_EQ(reachable(spec), (std::set<Valuation>{{1}}));
}

TEST(SpecModel, NegativeAddWrapsBelowTheDomain) {
  // x ∈ [0, 3] init 0, x -= 1: 0 wraps to 3, then walks back down — the
  // whole domain is reachable.
  FtsSpec spec;
  spec.vars.push_back({"x", 0, 3, 0});
  FtsSpec::Trans t;
  t.name = "dec";
  t.effects.push_back({0, 0, -1});
  spec.transitions.push_back(t);
  EXPECT_EQ(reachable(spec), (std::set<Valuation>{{0}, {1}, {2}, {3}}));
  EXPECT_EQ(wrap_into(-1, 0, 3), 3);
  EXPECT_EQ(wrap_into(-5, 0, 3), 3);
}

TEST(SpecModel, CrossVariableCopy) {
  // y := x + 1 with x fixed: y jumps to x+1 and stays.
  FtsSpec spec;
  spec.vars.push_back({"x", 0, 4, 2});
  spec.vars.push_back({"y", 0, 4, 0});
  FtsSpec::Trans t;
  t.name = "copy";
  t.effects.push_back({1, 0, 1});  // y = x + 1
  spec.transitions.push_back(t);
  EXPECT_EQ(reachable(spec), (std::set<Valuation>{{2, 0}, {2, 3}}));
}

TEST(SpecModel, EffectsApplySequentially) {
  // x += 1 then y := x: y must observe the *updated* x, not the pre-state.
  FtsSpec spec;
  spec.vars.push_back({"x", 0, 3, 0});
  spec.vars.push_back({"y", 0, 3, 0});
  FtsSpec::Trans t;
  t.name = "chain";
  t.guard.push_back({0, 0, 1});    // x <= 1 keeps it finite and wrap-free
  t.effects.push_back({0, 0, 1});  // x += 1
  t.effects.push_back({1, 0, 0});  // y = x
  spec.transitions.push_back(t);
  EXPECT_EQ(reachable(spec), (std::set<Valuation>{{0, 0}, {1, 1}, {2, 2}}));
}

TEST(SpecModel, SinglePointDomainAbsorbsEveryAdd) {
  FtsSpec spec;
  spec.vars.push_back({"x", 2, 2, 2});
  FtsSpec::Trans t;
  t.name = "spin";
  t.effects.push_back({0, 0, 5});
  spec.transitions.push_back(t);
  EXPECT_EQ(reachable(spec), (std::set<Valuation>{{2}}));
  EXPECT_EQ(wrap_into(7, 2, 2), 2);
}

TEST(SpecModel, GuardOperatorsMatchTheirSemantics) {
  // One var, three self-loop transitions guarded x<=1, x>=2, x==1; explore
  // enabledness at each reachable state.
  FtsSpec spec;
  spec.vars.push_back({"x", 0, 2, 0});
  FtsSpec::Trans inc;
  inc.name = "inc";
  inc.guard.push_back({0, 0, 1});  // x <= 1
  inc.effects.push_back({0, 0, 1});
  spec.transitions.push_back(inc);
  const Fts sys = spec.build();
  EXPECT_TRUE(sys.enabled(0, {0}));
  EXPECT_TRUE(sys.enabled(0, {1}));
  EXPECT_FALSE(sys.enabled(0, {2}));
  EXPECT_EQ(sys.apply(0, {1}), (Valuation{2}));
}

TEST(SpecModel, AtomsExposeDomainEndpoints) {
  FtsSpec spec;
  spec.vars.push_back({"x", 1, 3, 2});
  const Fts sys = spec.build();
  const AtomMap atoms = spec.atoms();
  ASSERT_TRUE(atoms.count("xhi"));
  ASSERT_TRUE(atoms.count("xlo"));
  EXPECT_FALSE(atoms.at("xlo")(sys, {2}, -1));
  EXPECT_TRUE(atoms.at("xlo")(sys, {1}, -1));
  EXPECT_TRUE(atoms.at("xhi")(sys, {3}, -1));
}

TEST(SpecModel, DiningFamilyShape) {
  const FtsSpec spec = symbolic_dining(3);
  // 3 philosophers + 3 forks + the alarm latch.
  EXPECT_EQ(spec.vars.size(), 7u);
  // 3 transitions per philosopher + escalate.
  EXPECT_EQ(spec.transitions.size(), 10u);
  // The classic deadlock (everyone holds the left fork) is reachable, so
  // the system has a stuttering state but stays well-defined.
  const auto states = reachable(spec);
  EXPECT_FALSE(states.empty());
  for (const auto& v : states) EXPECT_EQ(v.back(), 0) << "alarm must stay 0";
}

TEST(SpecModel, RingFamilyConservesTheToken) {
  const FtsSpec spec = symbolic_ring(4);
  for (const auto& v : reachable(spec)) {
    int tokens = 0;
    for (std::size_t i = 0; i < 4; ++i) tokens += v[i];
    EXPECT_EQ(tokens, 1) << "exactly one token circulates";
  }
}

TEST(ProofRules, BudgetExhaustionIsExplicitNotThrown) {
  // Satellite of the absint PR: the proof rules take a Budget and report
  // exhaustion as an explicit unknown RuleResult instead of throwing.
  const FtsSpec spec = symbolic_dining(3);
  const Fts sys = spec.build();
  const Assertion alarm_zero = [](const Valuation& v) { return v.back() == 0; };
  const RuleResult ok = verify_invariance(sys, alarm_zero);
  EXPECT_TRUE(ok.proved);
  EXPECT_EQ(ok.outcome, Outcome::Complete);

  const RuleResult starved =
      verify_invariance(sys, alarm_zero, Budget().with_state_cap(2));
  EXPECT_FALSE(starved.proved);
  EXPECT_NE(starved.outcome, Outcome::Complete);
  EXPECT_FALSE(starved.witness_state.has_value());
  EXPECT_NE(starved.failed_premise.find("exhausted"), std::string::npos);
}

}  // namespace
}  // namespace mph::fts
