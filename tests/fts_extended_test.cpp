// Extended verification scenarios: the NBA fallback path of the model
// checker (specifications outside the deterministic hierarchy fragment),
// deadlock detection on dining philosophers, and the deadlocked() atom.
#include <gtest/gtest.h>

#include "src/fts/checker.hpp"
#include "src/fts/programs.hpp"
#include "src/ltl/patterns.hpp"

namespace mph::fts {
namespace {

using ltl::parse_formula;
using programs::Program;

TEST(DiningPhilosophers, NaiveProtocolCanDeadlock) {
  Program prog = programs::dining_philosophers(2);
  // "Never deadlocked" is violated: the all-left-forks state is reachable.
  auto r = check(prog.system, parse_formula("G !deadlock"), prog.atoms);
  EXPECT_FALSE(r.holds);
  ASSERT_TRUE(r.counterexample.has_value());
  // The violating run ends stuttering in the deadlock state.
  EXPECT_FALSE(r.counterexample->loop.empty());
}

TEST(DiningPhilosophers, ForksAreMutuallyExclusive) {
  Program prog = programs::dining_philosophers(2);
  // Adjacent philosophers never eat together (they share both forks at n=2).
  EXPECT_TRUE(check(prog.system, parse_formula("G !(eat1 & eat2)"), prog.atoms).holds);
}

TEST(DiningPhilosophers, ThreePhilosophers) {
  Program prog = programs::dining_philosophers(3);
  EXPECT_TRUE(check(prog.system, parse_formula("G !(eat1 & eat2)"), prog.atoms).holds);
  EXPECT_FALSE(check(prog.system, parse_formula("G !deadlock"), prog.atoms).holds);
  // Eating is not guaranteed (deadlock is one obstruction).
  EXPECT_FALSE(check(prog.system, parse_formula("G(hungry1 -> F eat1)"), prog.atoms).holds);
}

TEST(Checker, DeadlockedAtomMatchesStutterStates) {
  Program prog = programs::dining_philosophers(2);
  StateGraph g = std::move(explore(prog.system, Budget()).graph);
  auto dead = deadlocked();
  bool found_deadlock = false;
  for (std::size_t n = 0; n < g.size(); ++n) {
    EXPECT_EQ(g.stutters(n), dead(prog.system, g.valuation(n), g.last_taken(n)));
    found_deadlock = found_deadlock || g.stutters(n);
  }
  EXPECT_TRUE(found_deadlock);
}

TEST(Checker, NbaFallbackForNonFragmentSpecs) {
  // (F eat1) U deadlock is outside the deterministic hierarchy fragment
  // (until over future operands) — exercised via the NBA tableau.
  Program prog = programs::dining_philosophers(2);
  auto r = check(prog.system, parse_formula("(F eat1) U deadlock"), prog.atoms);
  // Not every fair run reaches the deadlock, so the spec fails; the point is
  // that the check *runs* through the fallback and yields a counterexample.
  EXPECT_FALSE(r.holds);
  ASSERT_TRUE(r.counterexample.has_value());
}

TEST(Checker, NbaFallbackAgreesWithDeterministicPath) {
  // A fragment spec forced through both routes must agree. G(t1 -> F c1) is
  // in the fragment; X X (F c1) ... compare a pair of semantically equal
  // specs where one parses to a fragment shape and the other doesn't.
  Program prog = programs::peterson();
  auto direct = check(prog.system, parse_formula("G(t1 -> F c1)"), prog.atoms);
  // Same property phrased with nested untils (outside the rewriter):
  // G(t1 -> (true U c1)) — the rewriter handles true U c1 → F-ish? Force
  // the fallback with an inequivalent-shape tautology conjunct:
  auto fallback =
      check(prog.system, parse_formula("G(t1 -> (true U (c1 & (c1 U c1))))"), prog.atoms);
  EXPECT_EQ(direct.holds, fallback.holds);
  EXPECT_TRUE(direct.holds);
}

TEST(Checker, ProducerConsumerNbaSpec) {
  Program prog = programs::producer_consumer(2);
  // (¬full) U full — reachable but not guaranteed: produce may never run.
  auto r = check(prog.system, parse_formula("(!full) U full"), prog.atoms);
  EXPECT_FALSE(r.holds);
  // The weaker weak-until version holds: either always non-full or
  // non-full until full.
  auto r2 = check(prog.system, parse_formula("(!full) W full"), prog.atoms);
  EXPECT_TRUE(r2.holds);
}

}  // namespace
}  // namespace mph::fts
