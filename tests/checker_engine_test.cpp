// The on-the-fly SCC engine, observed through CheckStats and the batch API:
// one engine for every acceptance shape, early exit strictly below the full
// product bound, NBA-fallback traces that replay, and check_all agreement
// with sequential check — sequentially and on a worker pool.
#include <gtest/gtest.h>

#include "src/fts/checker.hpp"
#include "src/fts/programs.hpp"
#include "src/ltl/eval.hpp"
#include "src/ltl/patterns.hpp"

namespace mph::fts {
namespace {

using ltl::parse_formula;
using programs::Program;

/// Replays a counterexample as its atom word; true iff it falsifies `spec`.
bool replay_violates(const Program& prog, const ltl::Formula& spec,
                     const CheckResult& result) {
  if (result.holds || !result.counterexample || result.counterexample->loop.empty())
    return false;
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
  for (const auto& v : result.counterexample->prefix) word.prefix.push_back(symbol_of(v));
  for (const auto& v : result.counterexample->loop) word.loop.push_back(symbol_of(v));
  return !ltl::evaluates(spec, word, alphabet);
}

TEST(CheckStats, BasicFieldsAreConsistent) {
  Program prog = programs::peterson();
  auto result = check(prog.system, parse_formula("G !(c1 & c2)"), prog.atoms);
  EXPECT_TRUE(result.holds);
  const auto& s = result.stats;
  EXPECT_GT(s.state_graph_nodes, 0u);
  EXPECT_GT(s.automaton_states, 0u);
  EXPECT_EQ(s.product_bound, s.state_graph_nodes * s.automaton_states);
  EXPECT_GE(s.product_bound, s.product_states);
  EXPECT_EQ(result.product_states, s.product_states);
  EXPECT_FALSE(s.nba_fallback);  // safety lies in the hierarchy fragment
  EXPECT_GE(s.explore_seconds, 0.0);
  EXPECT_GE(s.search_seconds, 0.0);
}

TEST(EngineSelection, BuchiShapedGoesOnTheFly) {
  Program prog = programs::peterson();
  // ¬(safety) is a guarantee (Inf acceptance) and ¬(response) a persistence
  // (Fin acceptance): both go through the one on-the-fly SCC search, and a
  // holding spec interns the whole reachable product either way.
  auto safety = check(prog.system, parse_formula("G !(c1 & c2)"), prog.atoms);
  EXPECT_EQ(safety.stats.engine, CheckEngine::Scc);
  EXPECT_TRUE(safety.holds);
  auto response = check(prog.system, parse_formula("G(t1 -> F c1)"), prog.atoms);
  EXPECT_EQ(response.stats.engine, CheckEngine::Scc);
  EXPECT_TRUE(response.holds);
  EXPECT_GT(response.stats.product_states, 0u);
  EXPECT_LE(response.stats.product_states, response.stats.product_bound);
}

TEST(EngineSelection, NormalizationRoutesNonSyntacticShapesToShortcuts) {
  Program prog = programs::peterson();
  CheckOptions opt;
  opt.class_dispatch = true;
  // ◇(t1 ∧ ◇c1) denotes a guarantee but is not written as one: the syntactic
  // classifier alone cannot route it, the ΔΓ-normalizer can.
  auto spec = parse_formula("F(t1 & F c1)");
  auto r = check(prog.system, spec, prog.atoms, opt);
  EXPECT_EQ(r.stats.class_source, ClassSource::Normalized);
  EXPECT_EQ(r.stats.engine, CheckEngine::GuaranteeDual);
  EXPECT_GT(r.stats.normalize_steps, 0u);
  // The verdict agrees with the general engine.
  CheckOptions full;
  full.class_dispatch = false;
  EXPECT_EQ(r.holds, check(prog.system, spec, prog.atoms, full).holds);

  // Syntactically-visible shapes keep the Syntactic source (no normalize).
  auto direct = check(prog.system, parse_formula("G !(c1 & c2)"), prog.atoms, opt);
  EXPECT_EQ(direct.stats.class_source, ClassSource::Syntactic);
  EXPECT_EQ(direct.stats.engine, CheckEngine::SafetyPrefix);

  // normalize_steps = 0 turns the rescue off.
  CheckOptions off = opt;
  off.normalize_steps = 0;
  auto unrouted = check(prog.system, spec, prog.atoms, off);
  EXPECT_EQ(unrouted.stats.class_source, ClassSource::Syntactic);
  EXPECT_NE(unrouted.stats.engine, CheckEngine::GuaranteeDual);
  EXPECT_EQ(r.holds, unrouted.holds);
}

TEST(EarlyExit, ViolationStopsStrictlyBelowTheProductBound) {
  // Seeded violation: the naive dining protocol deadlocks. The SCC search
  // must report it without interning the whole state-graph × automaton
  // product.
  Program prog = programs::dining_philosophers(3);
  auto spec = parse_formula("G !deadlock");
  auto result = check(prog.system, spec, prog.atoms);
  ASSERT_FALSE(result.holds);
  EXPECT_EQ(result.stats.engine, CheckEngine::Scc);
  EXPECT_LT(result.stats.product_states, result.stats.product_bound);
  EXPECT_TRUE(replay_violates(prog, spec, result));
}

TEST(EarlyExit, NbaFallbackViolationReplays) {
  // Outside the hierarchy fragment: the tableau NBA drives the same SCC
  // search and its counterexample must still be genuine.
  Program prog = programs::dining_philosophers(2);
  auto spec = parse_formula("(F eat1) U deadlock");
  auto result = check(prog.system, spec, prog.atoms);
  ASSERT_FALSE(result.holds);
  EXPECT_TRUE(result.stats.nba_fallback);
  EXPECT_EQ(result.stats.engine, CheckEngine::Scc);
  EXPECT_LT(result.stats.product_states, result.stats.product_bound);
  EXPECT_TRUE(replay_violates(prog, spec, result));
}

TEST(EarlyExit, HoldingSpecExploresWithoutCounterexample) {
  Program prog = programs::peterson();
  auto result = check(prog.system, parse_formula("G !(c1 & c2)"), prog.atoms);
  EXPECT_TRUE(result.holds);
  EXPECT_FALSE(result.counterexample.has_value());
  EXPECT_GT(result.stats.product_states, 0u);
}

std::vector<ltl::Formula> mixed_specs() {
  return {
      parse_formula("G !(c1 & c2)"),           // safety, holds
      parse_formula("G(t1 -> F c1)"),          // response (SCC engine)
      parse_formula("G !c1"),                  // safety, violated
      parse_formula("G F c1"),                 // recurrence, violated
      parse_formula("F(t1 & X(!t1 & X t1))"),  // NBA fallback
      ltl::patterns::accessibility("t2", "c2"),
  };
}

TEST(CheckAll, AgreesWithSequentialCheck) {
  Program prog = programs::peterson();
  auto specs = mixed_specs();
  auto batch = check_all(prog.system, specs, prog.atoms);
  ASSERT_EQ(batch.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    auto single = check(prog.system, specs[i], prog.atoms);
    EXPECT_EQ(batch[i].holds, single.holds) << specs[i].to_string();
    EXPECT_EQ(batch[i].stats.product_states, single.stats.product_states)
        << specs[i].to_string();
    EXPECT_EQ(batch[i].stats.engine, single.stats.engine) << specs[i].to_string();
    EXPECT_EQ(batch[i].counterexample.has_value(), single.counterexample.has_value());
    if (!batch[i].holds) {
      EXPECT_TRUE(replay_violates(prog, specs[i], batch[i]));
    }
  }
}

TEST(CheckAll, WorkerPoolMatchesSequentialBatch) {
  Program prog = programs::semaphore_mutex(3, Fairness::Strong);
  std::vector<ltl::Formula> specs;
  for (int i = 1; i <= 3; ++i) {
    specs.push_back(ltl::patterns::accessibility("t" + std::to_string(i),
                                                 "c" + std::to_string(i)));
    specs.push_back(parse_formula("G !c" + std::to_string(i)));
  }
  auto sequential = check_all(prog.system, specs, prog.atoms);
  CheckOptions options;
  options.threads = 4;
  auto threaded = check_all(prog.system, specs, prog.atoms, options);
  ASSERT_EQ(threaded.size(), sequential.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(threaded[i].holds, sequential[i].holds) << specs[i].to_string();
    EXPECT_EQ(threaded[i].stats.product_states, sequential[i].stats.product_states);
    if (!threaded[i].holds) {
      EXPECT_TRUE(replay_violates(prog, specs[i], threaded[i]));
    }
  }
}

TEST(CheckAll, ThreadedDiagnosticsMergeInSpecOrder) {
  Program prog = programs::peterson();
  auto specs = mixed_specs();
  analysis::DiagnosticEngine sequential_engine, threaded_engine;
  CheckOptions sequential_options;
  sequential_options.diagnostics = &sequential_engine;
  CheckOptions threaded_options;
  threaded_options.threads = 3;
  threaded_options.diagnostics = &threaded_engine;
  check_all(prog.system, specs, prog.atoms, sequential_options);
  check_all(prog.system, specs, prog.atoms, threaded_options);
  ASSERT_EQ(threaded_engine.size(), sequential_engine.size());
  for (std::size_t i = 0; i < threaded_engine.size(); ++i) {
    EXPECT_EQ(threaded_engine.diagnostics()[i].code, sequential_engine.diagnostics()[i].code);
    EXPECT_EQ(threaded_engine.diagnostics()[i].subject,
              sequential_engine.diagnostics()[i].subject);
  }
  EXPECT_TRUE(threaded_engine.has_code("MPH-V001"));
  EXPECT_TRUE(threaded_engine.has_code("MPH-V003"));
}

TEST(CheckAll, EmptyBatchAndErrors) {
  Program prog = programs::peterson();
  EXPECT_TRUE(check_all(prog.system, {}, prog.atoms).empty());
  std::vector<ltl::Formula> bad = {parse_formula("G nosuchatom")};
  EXPECT_THROW(check_all(prog.system, bad, prog.atoms), std::invalid_argument);
  CheckOptions threaded;
  threaded.threads = 2;
  std::vector<ltl::Formula> tiny = {parse_formula("G !(c1 & c2)"),
                                    parse_formula("G !c1")};
  CheckOptions capped = threaded;
  capped.max_states = 3;  // exploration alone must blow the cap (deprecated alias)
  auto exhausted = check_all(prog.system, tiny, prog.atoms, capped);
  ASSERT_EQ(exhausted.size(), tiny.size());
  for (const auto& r : exhausted) {
    EXPECT_EQ(r.outcome, Outcome::BudgetStates);
    EXPECT_EQ(r.stats.outcome, Outcome::BudgetStates);
    EXPECT_FALSE(r.holds);
    EXPECT_FALSE(r.counterexample.has_value());
  }
}

TEST(Budgets, ZeroStateBudgetReturnsImmediately) {
  Program prog = programs::peterson();
  CheckOptions options;
  options.budget.with_state_cap(0);
  analysis::DiagnosticEngine diags;
  options.diagnostics = &diags;
  auto r = check(prog.system, parse_formula("G !(c1 & c2)"), prog.atoms, options);
  EXPECT_EQ(r.outcome, Outcome::BudgetStates);
  EXPECT_EQ(r.stats.outcome, Outcome::BudgetStates);
  EXPECT_FALSE(r.holds);
  EXPECT_FALSE(r.counterexample.has_value());
  EXPECT_EQ(r.stats.state_graph_nodes, 0u);
  EXPECT_TRUE(diags.has_code("MPH-V004"));
}

TEST(Budgets, PastDeadlineReportsBudgetDeadline) {
  Program prog = programs::peterson();
  CheckOptions options;
  options.budget.with_deadline(Budget::Clock::now() - std::chrono::seconds(1));
  auto r = check(prog.system, parse_formula("G !(c1 & c2)"), prog.atoms, options);
  EXPECT_EQ(r.outcome, Outcome::BudgetDeadline);
  EXPECT_FALSE(r.holds);
  EXPECT_FALSE(r.counterexample.has_value());
}

TEST(Budgets, CancellationReportsCancelled) {
  Program prog = programs::peterson();
  std::stop_source source;
  source.request_stop();
  CheckOptions options;
  options.budget.with_stop_token(source.get_token());
  auto r = check(prog.system, parse_formula("G !(c1 & c2)"), prog.atoms, options);
  EXPECT_EQ(r.outcome, Outcome::Cancelled);
  EXPECT_FALSE(r.holds);
}

TEST(Budgets, ExhaustionIsDeterministicAcrossThreadCounts) {
  Program prog = programs::peterson();
  auto free_run = check(prog.system, parse_formula("G !(c1 & c2)"), prog.atoms);
  const std::size_t graph_nodes = free_run.stats.state_graph_nodes;
  ASSERT_GT(graph_nodes, 0u);

  // The cap admits the state graph exactly, so exploration completes but the
  // larger product constructions exhaust — deterministically, because the cap
  // counts interned states, not time.
  std::vector<ltl::Formula> specs = {
      parse_formula("G !(c1 & c2)"),
      parse_formula("G F c1"),       // SCC engine builds the full product
      parse_formula("G(t1 -> F c1)"),
      parse_formula("F(t1 & X(!t1 & X t1))"),  // NBA fallback
  };
  CheckOptions seq;
  seq.budget.with_state_cap(graph_nodes);
  CheckOptions par = seq;
  par.threads = 4;
  analysis::DiagnosticEngine seq_diags, par_diags;
  seq.diagnostics = &seq_diags;
  par.diagnostics = &par_diags;
  auto a = check_all(prog.system, specs, prog.atoms, seq);
  auto b = check_all(prog.system, specs, prog.atoms, par);
  ASSERT_EQ(a.size(), b.size());
  bool any_exhausted = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].outcome, b[i].outcome) << specs[i].to_string();
    EXPECT_EQ(a[i].holds, b[i].holds) << specs[i].to_string();
    EXPECT_EQ(a[i].stats.product_states, b[i].stats.product_states)
        << specs[i].to_string();
    if (!is_complete(a[i].outcome)) {
      any_exhausted = true;
      EXPECT_FALSE(a[i].counterexample.has_value()) << specs[i].to_string();
    }
  }
  EXPECT_TRUE(any_exhausted);
  EXPECT_TRUE(seq_diags.has_code("MPH-V004"));
  ASSERT_EQ(par_diags.size(), seq_diags.size());
  for (std::size_t i = 0; i < seq_diags.size(); ++i)
    EXPECT_EQ(par_diags.diagnostics()[i].code, seq_diags.diagnostics()[i].code);
}

}  // namespace
}  // namespace mph::fts
