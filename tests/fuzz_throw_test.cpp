// The fuzz runner on oracles that throw. It registers throwing oracles, so
// it lives in its own executable: no other test's full-registry run meets
// them.
#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/fuzz/runner.hpp"

namespace mph::fuzz {
namespace {

/// An oracle named `name` that draws lasso-roundtrip cases, relabelled as
/// its own so they replay through it, and checks each one by running `check`.
Oracle throwing_oracle(const std::string& name,
                       std::function<CheckOutcome(const FuzzCase&, const Budget&)> check) {
  const Oracle* lassos = find_oracle("lasso-roundtrip");
  EXPECT_NE(lassos, nullptr);
  // A copy: registering an oracle may move the registry's entries.
  auto generate = [name, draw = lassos->generate](Rng& rng) {
    FuzzCase c = draw(rng);
    c.oracle = name;
    return c;
  };
  return {name, "test oracle that throws", generate, std::move(check)};
}

TEST(FuzzRunner, OracleThrowIsAFailure) {
  register_oracle(throwing_oracle("test-throws", [](const FuzzCase&, const Budget&) -> CheckOutcome {
    throw std::logic_error("engine invariant broken");
  }));
  FuzzOptions opt;
  opt.seed = 1;
  opt.iters = 3;
  opt.oracles = {"test-throws"};
  analysis::DiagnosticEngine diags;
  const FuzzReport r = run_fuzz(opt, &diags);
  ASSERT_EQ(r.oracles.size(), 1u);
  EXPECT_GE(r.total_failures(), 1u) << r.to_text();
  EXPECT_EQ(r.oracles[0].budget_exhausted, 0u);
  const FuzzFailure& f = r.oracles[0].failures.at(0);
  EXPECT_EQ(f.message, "oracle threw: engine invariant broken");
  // Every candidate still throws, so the shrinker accepts reductions.
  EXPECT_GT(f.shrink_stats.accepted, 0u);
  EXPECT_LT(f.shrunk_size, f.original_size);
  EXPECT_TRUE(diags.has_code("MPH-X001"));
  EXPECT_FALSE(diags.has_code("MPH-X004"));
  EXPECT_NE(r.to_text().find("FAILED"), std::string::npos);
  // A stored case replays as the same failure.
  EXPECT_EQ(replay(FuzzCase::parse(f.case_text)).kind, CheckOutcome::Kind::Fail);
}

TEST(FuzzRunner, BudgetExhaustedThrowAbandonsTheIteration) {
  register_oracle(throwing_oracle("test-exhausts", [](const FuzzCase&, const Budget&) -> CheckOutcome {
    throw BudgetExhausted(Outcome::BudgetStates);
  }));
  FuzzOptions opt;
  opt.seed = 1;
  opt.iters = 3;
  opt.oracles = {"test-exhausts"};
  analysis::DiagnosticEngine diags;
  const FuzzReport r = run_fuzz(opt, &diags);
  EXPECT_EQ(r.total_failures(), 0u) << r.to_text();
  EXPECT_EQ(r.oracles.at(0).budget_exhausted, 3u);
  EXPECT_TRUE(diags.has_code("MPH-X004"));
  EXPECT_FALSE(diags.has_code("MPH-X001"));
}

}  // namespace
}  // namespace mph::fuzz
