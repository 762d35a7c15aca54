// The packed state-graph layout (fts.hpp StateGraph): bit fields of
// ⌈log₂(hi−lo+1)⌉ bits per variable plus the last-taken field, rows wider
// than one word, more than 64 transitions, and the domain check that keeps
// packed states from aliasing.
// Every case compares fts::explore against the naive std::map reference
// explorer node-for-node. Labeled `graph-layout` so the sanitizer lane runs
// it: a packing bug is a shift width or out-of-bounds index that UBSan and
// ASan report.
#include <gtest/gtest.h>

#include <climits>
#include <stdexcept>

#include "src/fts/fts.hpp"
#include "src/fuzz/reference_graph.hpp"

namespace mph::fts {
namespace {

/// explore agrees with the reference on every node.
void expect_matches_reference(const Fts& sys) {
  const auto ref = fuzz::reference_explore(sys, Budget());
  ASSERT_TRUE(ref.has_value());
  const ExploreResult ex = explore(sys, Budget());
  ASSERT_TRUE(is_complete(ex.outcome));
  const auto why = fuzz::graph_mismatch(sys, *ref, ex.graph);
  EXPECT_FALSE(why.has_value()) << why.value_or("");
}

TEST(PackedGraph, NegativeLowerBound) {
  Fts s;
  const std::size_t x = s.add_var("x", -5, 3, -5);
  const std::size_t y = s.add_var("y", -1, 0, 0);
  s.add_transition(
      "up", Fairness::Weak, [x](const Valuation& v) { return v[x] < 3; },
      [x](Valuation& v) { ++v[x]; });
  s.add_transition(
      "flip", Fairness::None, [x](const Valuation& v) { return v[x] < 0; },
      [y](Valuation& v) { v[y] = -1 - v[y]; });
  expect_matches_reference(s);
  const ExploreResult ex = explore(s, Budget());
  EXPECT_EQ(ex.graph.value(0, x), -5);
  EXPECT_EQ(ex.graph.value(0, y), 0);
}

TEST(PackedGraph, SingleValuedVariableTakesNoBits) {
  Fts s;
  const std::size_t c = s.add_var("c", 7, 7, 7);
  const std::size_t x = s.add_var("x", 0, 2, 0);
  s.add_transition(
      "step", Fairness::Weak, [x](const Valuation& v) { return v[x] < 2; },
      [x](Valuation& v) { ++v[x]; });
  expect_matches_reference(s);
  const ExploreResult ex = explore(s, Budget());
  EXPECT_EQ(ex.graph.words(), 1u);
  for (std::size_t n = 0; n < ex.graph.size(); ++n) EXPECT_EQ(ex.graph.value(n, c), 7);
}

TEST(PackedGraph, AllSingleValuedVariables) {
  Fts s;
  s.add_var("a", -3, -3, -3);
  s.add_var("b", INT_MAX, INT_MAX, INT_MAX);
  s.add_transition(
      "idle", Fairness::None, [](const Valuation&) { return true; }, [](Valuation&) {});
  expect_matches_reference(s);
  EXPECT_EQ(explore(s, Budget()).graph.size(), 2u);  // initial, then idle-taken
}

TEST(PackedGraph, FullIntDomain) {
  Fts s;
  const std::size_t x = s.add_var("x", INT_MIN, INT_MAX, 0);
  const std::size_t y = s.add_var("y", INT_MIN, INT_MAX, INT_MIN);
  s.add_transition(
      "to_min", Fairness::None, [x](const Valuation& v) { return v[x] == 0; },
      [x](Valuation& v) { v[x] = INT_MIN; });
  s.add_transition(
      "to_max", Fairness::None, [x](const Valuation& v) { return v[x] == 0; },
      [x](Valuation& v) { v[x] = INT_MAX; });
  s.add_transition(
      "back", Fairness::Weak, [x](const Valuation& v) { return v[x] != 0; },
      [x, y](Valuation& v) {
        v[y] = v[x];
        v[x] = v[x] == INT_MAX ? -1 : 0;
      });
  expect_matches_reference(s);
  const ExploreResult ex = explore(s, Budget());
  // Two 32-bit fields fill the first word; the last-taken field opens a second.
  EXPECT_EQ(ex.graph.words(), 2u);
  bool saw_min = false, saw_max = false;
  for (std::size_t n = 0; n < ex.graph.size(); ++n) {
    saw_min = saw_min || ex.graph.value(n, y) == INT_MIN;
    saw_max = saw_max || ex.graph.value(n, y) == INT_MAX;
  }
  EXPECT_TRUE(saw_min && saw_max);
}

TEST(PackedGraph, FieldsNeverStraddleAWord) {
  // Three 30-bit fields: the third does not fit in the 4 bits left.
  Fts s;
  const int top = (1 << 30) - 1;
  std::vector<std::size_t> vars;
  for (const char* name : {"a", "b", "c"}) vars.push_back(s.add_var(name, 0, top, top));
  s.add_transition(
      "dec", Fairness::Weak, [vars](const Valuation& v) { return v[vars[2]] > top - 3; },
      [vars](Valuation& v) {
        for (std::size_t i : vars) --v[i];
      });
  expect_matches_reference(s);
  EXPECT_EQ(explore(s, Budget()).graph.words(), 2u);
}

TEST(PackedGraph, RowsWiderThanOneWord) {
  // 40 three-valued variables (2 bits each, 80 bits): a token moves round
  // the ring, and each holder may also mark itself 2.
  constexpr std::size_t kVars = 40;
  Fts s;
  for (std::size_t i = 0; i < kVars; ++i)
    s.add_var("v" + std::to_string(i), 0, 2, i == 0 ? 1 : 0);
  for (std::size_t i = 0; i < kVars; ++i) {
    s.add_transition(
        "pass" + std::to_string(i), Fairness::Weak,
        [i](const Valuation& v) { return v[i] != 0 && v[(i + 1) % kVars] == 0; },
        [i](Valuation& v) {
          v[(i + 1) % kVars] = v[i];
          v[i] = 0;
        });
    s.add_transition(
        "mark" + std::to_string(i), Fairness::None,
        [i](const Valuation& v) { return v[i] == 1; }, [i](Valuation& v) { v[i] = 2; });
  }
  expect_matches_reference(s);
  const ExploreResult ex = explore(s, Budget());
  EXPECT_EQ(ex.graph.words(), 2u);
  bool last_var_held = false;
  for (std::size_t n = 0; n < ex.graph.size(); ++n)
    last_var_held = last_var_held || ex.graph.value(n, kVars - 1) == 2;
  EXPECT_TRUE(last_var_held);
}

TEST(PackedGraph, MoreThan64Transitions) {
  // x steps through 0..69 by transition x, and the always-enabled "spin"
  // sits at index 70: enabled rows span two words.
  constexpr int kSteps = 70;
  Fts s;
  const std::size_t x = s.add_var("x", 0, kSteps - 1, 0);
  for (int t = 0; t < kSteps; ++t)
    s.add_transition(
        "s" + std::to_string(t), Fairness::Weak,
        [x, t](const Valuation& v) { return v[x] == t; },
        [x, t](Valuation& v) { v[x] = (t + 1) % kSteps; });
  const std::size_t spin = s.add_transition(
      "spin", Fairness::None, [](const Valuation&) { return true; }, [](Valuation&) {});
  expect_matches_reference(s);
  const ExploreResult ex = explore(s, Budget());
  for (std::size_t n = 0; n < ex.graph.size(); ++n) {
    EXPECT_TRUE(ex.graph.enabled(n, spin));
    EXPECT_TRUE(ex.graph.enabled(n, static_cast<std::size_t>(ex.graph.value(n, x))));
  }
}

TEST(PackedGraph, PartialGraphKeepsBfsPrefix) {
  Fts s;
  const std::size_t x = s.add_var("x", 0, 9, 0);
  s.add_transition(
      "inc", Fairness::Weak, [x](const Valuation& v) { return v[x] < 9; },
      [x](Valuation& v) { ++v[x]; });
  s.add_transition(
      "reset", Fairness::None, [x](const Valuation& v) { return v[x] > 0; },
      [x](Valuation& v) { v[x] = 0; });
  const auto ref = fuzz::reference_explore(s, Budget());
  ASSERT_TRUE(ref.has_value());
  const ExploreResult ex = explore(s, Budget().with_state_cap(5));
  EXPECT_EQ(ex.outcome, Outcome::BudgetStates);
  ASSERT_EQ(ex.graph.size(), 5u);
  for (std::size_t n = 0; n < ex.graph.size(); ++n) {
    EXPECT_EQ(ex.graph.valuation(n), ref->nodes[n].valuation) << "node " << n;
    EXPECT_EQ(ex.graph.last_taken(n), ref->nodes[n].last_taken) << "node " << n;
    for (const StateGraph::Edge& e : ex.graph.edges(n)) EXPECT_LT(e.target, ex.graph.size());
  }
}

TEST(PackedGraph, DomainViolationThrowsOnEveryPath) {
  Fts s;
  const std::size_t x = s.add_var("x", 0, 1, 0);
  s.add_transition(
      "boom", Fairness::None, [](const Valuation&) { return true; },
      [x](Valuation& v) { v[x] = 2; });
  EXPECT_THROW(explore(s, Budget()), std::invalid_argument);
  EXPECT_THROW(fuzz::reference_explore(s, Budget()), std::invalid_argument);
}

TEST(PackedGraph, ResizingEffectThrows) {
  Fts s;
  s.add_var("x", 0, 1, 0);
  s.add_transition(
      "grow", Fairness::None, [](const Valuation&) { return true; },
      [](Valuation& v) { v.push_back(0); });
  EXPECT_THROW(explore(s, Budget()), std::invalid_argument);
}

}  // namespace
}  // namespace mph::fts
