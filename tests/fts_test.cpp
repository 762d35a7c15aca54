// Fair transition systems, model checking, and the proof rules, exercised on
// the paper's motivating examples: the mutual-exclusion story (§1), weak vs
// strong fairness (§4), and the two proof principles.
#include <gtest/gtest.h>

#include "src/fts/checker.hpp"
#include "src/fts/programs.hpp"
#include "src/fts/proof_rules.hpp"
#include "src/ltl/patterns.hpp"

namespace mph::fts {
namespace {

using ltl::parse_formula;
using programs::Program;

TEST(Fts, BasicConstructionAndExploration) {
  Fts s;
  std::size_t x = s.add_var("x", 0, 3, 0);
  s.add_transition(
      "inc", Fairness::Weak, [x](const Valuation& v) { return v[x] < 3; },
      [x](Valuation& v) { ++v[x]; });
  ExploreResult res = explore(s, Budget());
  ASSERT_TRUE(is_complete(res.outcome));
  StateGraph g = std::move(res.graph);
  // States: x=0..3, each reached with last_taken ∈ {none, inc}.
  // 0 is initial-only; 1..3 via inc → 4 nodes.
  EXPECT_EQ(g.size(), 4u);
  // Terminal x=3 stutters.
  bool terminal_found = false;
  for (std::size_t n = 0; n < g.size(); ++n)
    if (g.value(n, x) == 3) {
      EXPECT_TRUE(g.stutters(n));
      terminal_found = true;
    }
  EXPECT_TRUE(terminal_found);
}

TEST(Fts, DomainViolationThrows) {
  Fts s;
  std::size_t x = s.add_var("x", 0, 1, 0);
  s.add_transition(
      "boom", Fairness::None, [](const Valuation&) { return true; },
      [x](Valuation& v) { v[x] = 7; });
  EXPECT_THROW(explore(s, Budget()), std::invalid_argument);
}

TEST(Fts, DuplicateVarThrows) {
  Fts s;
  s.add_var("x", 0, 1, 0);
  EXPECT_THROW(s.add_var("x", 0, 1, 0), std::invalid_argument);
  EXPECT_THROW(s.add_var("y", 0, 1, 5), std::invalid_argument);
}

TEST(Checker, TrivialMutexTellsTheIntroStory) {
  Program prog = programs::trivial_mutex();
  // Mutual exclusion holds...
  auto safety = check(prog.system, ltl::patterns::mutual_exclusion("c1", "c2"), prog.atoms);
  EXPECT_TRUE(safety.holds);
  // ...but accessibility fails: the specification was incomplete.
  auto live = check(prog.system, ltl::patterns::accessibility("t1", "c1"), prog.atoms);
  EXPECT_FALSE(live.holds);
  ASSERT_TRUE(live.counterexample.has_value());
  EXPECT_FALSE(live.counterexample->loop.empty());
}

TEST(Checker, PetersonSatisfiesBothRequirements) {
  Program prog = programs::peterson();
  EXPECT_TRUE(check(prog.system, ltl::patterns::mutual_exclusion("c1", "c2"), prog.atoms).holds);
  EXPECT_TRUE(check(prog.system, ltl::patterns::accessibility("t1", "c1"), prog.atoms).holds);
  EXPECT_TRUE(check(prog.system, ltl::patterns::accessibility("t2", "c2"), prog.atoms).holds);
}

TEST(Checker, PetersonViolatesAbsurdSpecs) {
  Program prog = programs::peterson();
  // "Process 1 never enters" is false — and the counterexample is a fair run.
  auto r = check(prog.system, parse_formula("G !c1"), prog.atoms);
  EXPECT_FALSE(r.holds);
  // "Always eventually critical" fails: both processes may stay noncritical.
  auto r2 = check(prog.system, parse_formula("G F c1"), prog.atoms);
  EXPECT_FALSE(r2.holds);
}

TEST(Checker, SemaphoreNeedsStrongFairness) {
  // Weak fairness on acquire: starvation possible.
  Program weak = programs::semaphore_mutex(2, Fairness::Weak);
  EXPECT_TRUE(check(weak.system, ltl::patterns::mutual_exclusion("c1", "c2"), weak.atoms).holds);
  auto starved = check(weak.system, ltl::patterns::accessibility("t1", "c1"), weak.atoms);
  EXPECT_FALSE(starved.holds);
  ASSERT_TRUE(starved.counterexample.has_value());
  // Strong fairness on acquire: accessibility holds.
  Program strong = programs::semaphore_mutex(2, Fairness::Strong);
  EXPECT_TRUE(
      check(strong.system, ltl::patterns::accessibility("t1", "c1"), strong.atoms).holds);
  EXPECT_TRUE(
      check(strong.system, ltl::patterns::accessibility("t2", "c2"), strong.atoms).holds);
}

TEST(Checker, SemaphoreThreeProcesses) {
  Program strong = programs::semaphore_mutex(3, Fairness::Strong);
  EXPECT_TRUE(
      check(strong.system, ltl::patterns::mutual_exclusion("c1", "c2"), strong.atoms).holds);
  EXPECT_TRUE(
      check(strong.system, ltl::patterns::mutual_exclusion("c1", "c3"), strong.atoms).holds);
  EXPECT_TRUE(
      check(strong.system, ltl::patterns::accessibility("t3", "c3"), strong.atoms).holds);
}

TEST(Checker, ProducerConsumer) {
  Program prog = programs::producer_consumer(3);
  // Safety: never full and empty at once.
  EXPECT_TRUE(check(prog.system, parse_formula("G !(full & empty)"), prog.atoms).holds);
  // When full, the weakly fair consumer eventually makes room.
  EXPECT_TRUE(check(prog.system, parse_formula("G(full -> F !full)"), prog.atoms).holds);
  // But the buffer need not drain: produce/consume may alternate above 0.
  auto drain = check(prog.system, parse_formula("G(nonempty -> F empty)"), prog.atoms);
  EXPECT_FALSE(drain.holds);
}

TEST(Checker, PrecedencePatternOnPeterson) {
  Program prog = programs::peterson();
  // A process is critical only if it was trying before: □(c1 → ◇̄t1).
  EXPECT_TRUE(check(prog.system, ltl::patterns::precedence("c1", "t1"), prog.atoms).holds);
  // The converse precedence is false.
  EXPECT_FALSE(check(prog.system, ltl::patterns::precedence("t1", "c1"), prog.atoms).holds);
}

TEST(Checker, UnknownAtomThrows) {
  Program prog = programs::peterson();
  EXPECT_THROW(check(prog.system, parse_formula("G nope"), prog.atoms),
               std::invalid_argument);
}

TEST(ProofRules, InvarianceProvesMutualExclusion) {
  Program prog = programs::peterson();
  const Fts& s = prog.system;
  std::size_t pc1 = s.var_index("pc1"), pc2 = s.var_index("pc2");
  auto mutex = [pc1, pc2](const Valuation& v) { return !(v[pc1] == 2 && v[pc2] == 2); };
  auto result = verify_invariance(prog.system, mutex);
  EXPECT_TRUE(result.proved) << result.failed_premise;
}

TEST(ProofRules, InvarianceRejectsNonInvariant) {
  Program prog = programs::peterson();
  const Fts& s = prog.system;
  std::size_t pc1 = s.var_index("pc1");
  auto never_critical = [pc1](const Valuation& v) { return v[pc1] != 2; };
  auto result = verify_invariance(prog.system, never_critical);
  EXPECT_FALSE(result.proved);
  EXPECT_TRUE(result.witness_state.has_value());
  EXPECT_EQ(result.failed_premise.substr(0, 2), "I2");
}

TEST(ProofRules, StrengtheningMustImplyGoal) {
  Program prog = programs::producer_consumer(2);
  const Fts& s = prog.system;
  std::size_t count = s.var_index("count");
  auto goal = [count](const Valuation& v) { return v[count] <= 1; };  // false in general
  auto aux = [](const Valuation&) { return true; };
  auto result = verify_invariance_with(prog.system, goal, aux);
  EXPECT_FALSE(result.proved);
  EXPECT_EQ(result.failed_premise.substr(0, 2), "I0");
}

TEST(ProofRules, ResponseProvesPetersonAccessibility) {
  Program prog = programs::peterson();
  const Fts& s = prog.system;
  const std::size_t pc1 = s.var_index("pc1"), pc2 = s.var_index("pc2");
  const std::size_t f2 = s.var_index("flag2"), turn = s.var_index("turn");
  auto trying = [pc1](const Valuation& v) { return v[pc1] == 1; };
  auto critical = [pc1](const Valuation& v) { return v[pc1] == 2; };
  // Ranking: the length of the wait chain until enter1 becomes enabled.
  // While pending (pc1 = 1, so flag1 = 1):
  //   3: p2 trying with priority (turn = 1): enter2 → exit2 → enabled
  //   2: p2 critical with turn = 1: exit2 → enabled
  //   1: enter1 enabled (f2 = 0 or turn = 0)
  auto enter1_enabled = [f2, turn](const Valuation& v) {
    return v[f2] == 0 || v[turn] == 0;
  };
  auto rank = [=](const Valuation& v) -> int {
    if (enter1_enabled(v)) return 1;
    if (v[pc2] == 2) return 2;  // p2 critical; exit2 frees the flag
    return 3;                   // p2 trying with priority; enter2 comes first
  };
  // Helpful transition per rank: 1 → enter1, 2 → exit2, 3 → enter2.
  const std::size_t enter1 = 1, enter2 = 4, exit2 = 5;  // indices per peterson()
  auto helpful = [=](const Valuation& v) -> std::size_t {
    switch (rank(v)) {
      case 1:
        return enter1;
      case 2:
        return exit2;
      default:
        return enter2;
    }
  };
  auto result = verify_response(prog.system, trying, critical, rank, helpful);
  EXPECT_TRUE(result.proved) << result.failed_premise;
}

TEST(ProofRules, ResponseRejectsTrivialMutex) {
  Program prog = programs::trivial_mutex();
  const Fts& s = prog.system;
  const std::size_t pc1 = s.var_index("pc1");
  auto trying = [pc1](const Valuation& v) { return v[pc1] == 1; };
  auto critical = [pc1](const Valuation& v) { return v[pc1] == 2; };
  auto rank = [](const Valuation&) { return 0; };
  auto helpful = [](const Valuation&) { return std::size_t{0}; };
  auto result = verify_response(prog.system, trying, critical, rank, helpful);
  EXPECT_FALSE(result.proved);
}

TEST(ProofRules, AgreementWithModelChecker) {
  // Where the response rule proves □(t1 → ◇c1), the model checker agrees.
  Program prog = programs::peterson();
  auto checked = check(prog.system, ltl::patterns::accessibility("t1", "c1"), prog.atoms);
  EXPECT_TRUE(checked.holds);
}

TEST(Checker, CounterexampleRendering) {
  Program prog = programs::trivial_mutex();
  auto live = check(prog.system, ltl::patterns::accessibility("t1", "c1"), prog.atoms);
  ASSERT_TRUE(live.counterexample.has_value());
  std::string text = live.counterexample->to_string(prog.system);
  EXPECT_NE(text.find("loop"), std::string::npos);
  EXPECT_NE(text.find("pc1="), std::string::npos);
}

}  // namespace
}  // namespace mph::fts
