// End-to-end validation of model-checker counterexamples: every reported
// (prefix, loop) trace, replayed as the word of its atom labels, must
// actually violate the specification according to the independent lasso
// evaluator — closing the loop between the fts, ltl, and omega layers.
#include <gtest/gtest.h>

#include "src/fts/checker.hpp"
#include "src/fts/programs.hpp"
#include "src/ltl/eval.hpp"
#include "src/ltl/patterns.hpp"

namespace mph::fts {
namespace {

using ltl::parse_formula;
using programs::Program;

/// Replays a counterexample into the atom word and checks that the word
/// falsifies the spec. Valid only for atoms that ignore last_taken (all the
/// location atoms of the program library do).
void expect_genuine_counterexample(const Program& prog, const ltl::Formula& spec,
                                   const CheckOptions& options = {}) {
  auto result = check(prog.system, spec, prog.atoms, options);
  ASSERT_FALSE(result.holds) << spec.to_string();
  ASSERT_TRUE(result.counterexample.has_value());
  const auto& cex = *result.counterexample;
  ASSERT_FALSE(cex.loop.empty());
  auto atom_names = spec.atoms();
  auto alphabet = lang::Alphabet::of_props(atom_names);
  auto symbol_of = [&](const Valuation& v) {
    lang::Symbol s = 0;
    for (std::size_t i = 0; i < atom_names.size(); ++i)
      if (prog.atoms.at(atom_names[i])(prog.system, v, StateGraph::kNone))
        s |= lang::Symbol{1} << i;
    return s;
  };
  omega::Lasso word;
  for (const auto& v : cex.prefix) word.prefix.push_back(symbol_of(v));
  for (const auto& v : cex.loop) word.loop.push_back(symbol_of(v));
  EXPECT_FALSE(ltl::evaluates(spec, word, alphabet))
      << "counterexample does not violate " << spec.to_string();
}

TEST(CheckerReplay, TrivialMutexAccessibility) {
  expect_genuine_counterexample(programs::trivial_mutex(),
                                ltl::patterns::accessibility("t1", "c1"));
}

TEST(CheckerReplay, SemaphoreWeakStarvation) {
  expect_genuine_counterexample(programs::semaphore_mutex(2, Fairness::Weak),
                                ltl::patterns::accessibility("t1", "c1"));
}

TEST(CheckerReplay, PetersonAbsurdSpecs) {
  Program prog = programs::peterson();
  expect_genuine_counterexample(prog, parse_formula("G !c1"));
  expect_genuine_counterexample(prog, parse_formula("G F c1"));
  expect_genuine_counterexample(prog, parse_formula("F G !t1 & G !c1"));
}

TEST(CheckerReplay, ProducerConsumerDrain) {
  expect_genuine_counterexample(programs::producer_consumer(3),
                                parse_formula("G(nonempty -> F empty)"));
}

TEST(CheckerReplay, DiningPhilosophersDeadlock) {
  expect_genuine_counterexample(programs::dining_philosophers(2),
                                parse_formula("G !deadlock"));
  expect_genuine_counterexample(programs::dining_philosophers(3),
                                parse_formula("G(hungry1 -> F eat1)"));
  // The closed-prefix scan's bad prefix, extended into a full computation.
  CheckOptions dispatch;
  dispatch.class_dispatch = true;
  expect_genuine_counterexample(programs::dining_philosophers(3), parse_formula("G !deadlock"),
                                dispatch);
}

TEST(CheckerReplay, RingLeaderEarlyExit) {
  expect_genuine_counterexample(programs::ring_leader(4), parse_formula("G !quiet"));
}

TEST(CheckerReplay, NbaFallbackCounterexamples) {
  expect_genuine_counterexample(programs::dining_philosophers(2),
                                parse_formula("(F eat1) U deadlock"));
  expect_genuine_counterexample(programs::producer_consumer(2),
                                parse_formula("(!full) U full"));
}

}  // namespace
}  // namespace mph::fts
