// Multicore checking (docs/PARALLEL.md): the parallel work-stealing
// exploration and the parallel safety-prefix scan must be indistinguishable
// from the sequential paths — identical state graphs, identical verdicts
// across thread counts, genuine counterexamples, and identical
// budget-exhausted diagnostics. ω-products are searched on one thread behind
// the parallel exploration.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "src/analysis/diagnostics.hpp"
#include "src/fts/checker.hpp"
#include "src/fts/programs.hpp"
#include "src/ltl/eval.hpp"

namespace mph::fts {
namespace {

using programs::Program;

void expect_graphs_identical(const StateGraph& a, const StateGraph& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t n = 0; n < a.size(); ++n) {
    EXPECT_EQ(a.valuation(n), b.valuation(n)) << "node " << n;
    EXPECT_EQ(a.last_taken(n), b.last_taken(n)) << "node " << n;
    EXPECT_TRUE(std::ranges::equal(a.edges(n), b.edges(n))) << "node " << n;
    EXPECT_EQ(a.stutters(n), b.stutters(n)) << "node " << n;
  }
  // Field for field: packed rows, CSR offsets and enabled bit rows too.
  EXPECT_TRUE(a == b);
}

TEST(ParallelExplore, GraphIdenticalToSequential) {
  for (auto make : {+[] { return programs::dining_philosophers(4); },
                    +[] { return programs::ring_leader(5); },
                    +[] { return programs::peterson(); }}) {
    const Program prog = make();
    ExploreResult seq = explore(prog.system, Budget());
    ASSERT_TRUE(is_complete(seq.outcome));
    for (unsigned threads : {2u, 4u}) {
      ExploreResult par = explore(prog.system, Budget(), threads);
      ASSERT_TRUE(is_complete(par.outcome));
      EXPECT_EQ(par.stats.threads_used, threads);
      ASSERT_EQ(par.stats.worker_nodes.size(), threads);
      const std::size_t expanded = std::accumulate(par.stats.worker_nodes.begin(),
                                                   par.stats.worker_nodes.end(),
                                                   std::size_t{0});
      EXPECT_EQ(expanded, par.graph.size());
      expect_graphs_identical(seq.graph, par.graph);
    }
  }
}

TEST(ParallelExplore, SingleThreadTakesSequentialPath) {
  const Program prog = programs::dining_philosophers(3);
  ExploreResult one = explore(prog.system, Budget(), 1);
  EXPECT_EQ(one.stats.threads_used, 1u);
  EXPECT_TRUE(one.stats.worker_nodes.empty());
  expect_graphs_identical(explore(prog.system, Budget()).graph, one.graph);
}

TEST(ParallelExplore, StateCapParityWithSequential) {
  const Program prog = programs::dining_philosophers(4);
  const std::size_t cap = 40;
  ExploreResult seq = explore(prog.system, Budget().with_state_cap(cap));
  ASSERT_EQ(seq.outcome, Outcome::BudgetStates);
  for (unsigned threads : {2u, 4u}) {
    ExploreResult par = explore(prog.system, Budget().with_state_cap(cap), threads);
    EXPECT_EQ(par.outcome, Outcome::BudgetStates);
    // Both stop at exactly the cap's node count — the budget contract is
    // thread-count independent even though the partial frontiers differ.
    EXPECT_EQ(par.graph.size(), seq.graph.size());
    EXPECT_EQ(par.graph.size(), cap);
    // Every discovered node carries its valuation (edge rows may be empty).
    for (std::size_t n = 0; n < par.graph.size(); ++n)
      EXPECT_EQ(par.graph.valuation(n).size(), prog.system.var_count());
  }
}

struct Case {
  const char* model;
  const char* spec;
  bool class_dispatch;
};

Program model_by_name(const std::string& name) {
  if (name == "peterson") return programs::peterson();
  if (name == "trivial-mutex") return programs::trivial_mutex();
  if (name == "ring-4") return programs::ring_leader(4);
  if (name == "ring-5") return programs::ring_leader(5);
  if (name == "dining-3") return programs::dining_philosophers(3);
  if (name == "dining-4") return programs::dining_philosophers(4);
  throw std::runtime_error("unknown test model: " + name);
}

// Verdicts (and outcomes) must be identical for explore_threads 1 vs N on
// every route the parallel paths feed: the parallel safety-prefix scan and
// the (sequential, but parallel-explore-fed) SCC search, including the
// guarantee dual and the NBA fallback.
TEST(ParallelEngines, VerdictAgreementAcrossThreadCounts) {
  const Case cases[] = {
      {"dining-4", "G !(eat1 & eat2)", false},          // SCC (Inf), holds
      {"dining-4", "G !(eat1 & eat2)", true},           // SafetyPrefix, holds
      {"dining-3", "G !deadlock", false},               // SCC (Inf), violated
      {"dining-3", "G !deadlock", true},                // SafetyPrefix, violated
      {"dining-3", "G(hungry1 -> F eat1)", false},      // SCC (Fin), violated
      {"ring-5", "F elected", true},                    // GuaranteeDual, holds
      {"ring-5", "G(elected -> maxleader)", true},      // SafetyPrefix, holds
      {"ring-4", "G !quiet", false},                    // SCC (Inf), violated
      {"trivial-mutex", "F G (t1 & t2)", false},        // SCC (FG), holds
      {"dining-3", "(F eat1) U deadlock", false},       // NBA fallback, violated
      {"peterson", "G(t1 -> F c1)", false},             // SCC (strong shape), holds
  };
  for (const Case& c : cases) {
    const Program prog = model_by_name(c.model);
    const ltl::Formula spec = ltl::parse_formula(c.spec);
    CheckOptions base;
    base.class_dispatch = c.class_dispatch;
    CheckResult seq = check(prog.system, spec, prog.atoms, base);
    for (unsigned threads : {2u, 4u}) {
      CheckOptions opts = base;
      opts.explore_threads = threads;
      CheckResult par = check(prog.system, spec, prog.atoms, opts);
      EXPECT_EQ(par.holds, seq.holds) << c.model << " ⊨ " << c.spec;
      EXPECT_EQ(par.outcome, seq.outcome) << c.model << " ⊨ " << c.spec;
      EXPECT_EQ(par.stats.engine, seq.stats.engine) << c.model << " ⊨ " << c.spec;
      EXPECT_EQ(par.counterexample.has_value(), seq.counterexample.has_value())
          << c.model << " ⊨ " << c.spec;
      // Holding specs need the full closure on every schedule, so even the
      // product size is thread-count independent.
      if (seq.holds) {
        EXPECT_EQ(par.stats.product_states, seq.stats.product_states)
            << c.model << " ⊨ " << c.spec;
      }
    }
  }
}

/// Replays a counterexample as its atom word against the independent lasso
/// evaluator (same contract as checker_replay_test).
void expect_genuine(const Program& prog, const ltl::Formula& spec,
                    const CheckResult& result) {
  ASSERT_FALSE(result.holds) << spec.to_string();
  ASSERT_TRUE(result.counterexample.has_value()) << spec.to_string();
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

TEST(ParallelEngines, CounterexamplesReplayGenuinely) {
  const Case cases[] = {
      {"dining-3", "G !deadlock", false},           // early-exit lasso
      {"dining-3", "G !deadlock", true},            // parallel scan bad prefix
      {"dining-3", "G(hungry1 -> F eat1)", false},  // Fin: closed-SCC good loop
      {"ring-4", "G !quiet", false},                // early exit on the ring
      {"peterson", "G F c1", false},                // fairness marks
      {"dining-3", "(F eat1) U deadlock", false},   // over the NBA tableau
  };
  for (const Case& c : cases) {
    const Program prog = model_by_name(c.model);
    const ltl::Formula spec = ltl::parse_formula(c.spec);
    for (unsigned threads : {1u, 3u}) {
      CheckOptions opts;
      opts.class_dispatch = c.class_dispatch;
      opts.explore_threads = threads;
      expect_genuine(prog, spec, check(prog.system, spec, prog.atoms, opts));
    }
  }
}

// Exploration exhaustion is reported identically for 1 and N threads: the
// whole batch gets the same unknown verdict and the single batch-level
// MPH-V004 names the same state count (exactly the cap).
TEST(ParallelEngines, ExploreExhaustionDiagnosticsIdentical) {
  const Program prog = programs::dining_philosophers(4);
  const ltl::Formula spec = ltl::parse_formula("G !(eat1 & eat2)");
  std::string expected;
  for (unsigned threads : {1u, 2u, 4u}) {
    analysis::DiagnosticEngine diags;
    CheckOptions opts;
    opts.budget.with_state_cap(60);
    opts.explore_threads = threads;
    opts.diagnostics = &diags;
    CheckResult r = check(prog.system, spec, prog.atoms, opts);
    EXPECT_EQ(r.outcome, Outcome::BudgetStates);
    EXPECT_FALSE(r.holds);
    EXPECT_FALSE(r.counterexample.has_value());
    if (threads == 1)
      expected = diags.to_text();
    else
      EXPECT_EQ(diags.to_text(), expected) << "threads=" << threads;
  }
}

// Product exhaustion behind parallel exploration: 'F G (t1 & t2)' holds on
// trivial-mutex with a 7-pair product over a 5-node graph, so a cap of 6
// completes the exploration but exhausts the SCC search's product — at
// exactly cap + 1 interned pairs on every thread count.
TEST(ParallelEngines, ProductExhaustionDiagnosticsIdentical) {
  const Program prog = programs::trivial_mutex();
  const ltl::Formula spec = ltl::parse_formula("F G (t1 & t2)");
  std::string expected;
  for (unsigned threads : {1u, 2u, 4u}) {
    analysis::DiagnosticEngine diags;
    CheckOptions opts;
    opts.budget.with_state_cap(6);
    opts.explore_threads = threads;
    opts.diagnostics = &diags;
    CheckResult r = check(prog.system, spec, prog.atoms, opts);
    EXPECT_EQ(r.outcome, Outcome::BudgetStates) << "threads=" << threads;
    EXPECT_FALSE(r.holds);
    EXPECT_EQ(r.stats.product_states, 7u) << "threads=" << threads;
    if (threads == 1)
      expected = diags.to_text();
    else
      EXPECT_EQ(diags.to_text(), expected) << "threads=" << threads;
  }
}

// Holding runs produce identical diagnostics (codes, subjects, messages —
// including the product-size note) across thread counts.
TEST(ParallelEngines, HoldsDiagnosticsIdenticalAcrossThreadCounts) {
  const Case cases[] = {
      {"dining-4", "G !(eat1 & eat2)", false},
      {"dining-4", "G !(eat1 & eat2)", true},
      {"ring-5", "F elected", true},
      {"trivial-mutex", "F G (t1 & t2)", false},
  };
  for (const Case& c : cases) {
    const Program prog = model_by_name(c.model);
    const ltl::Formula spec = ltl::parse_formula(c.spec);
    std::string expected;
    for (unsigned threads : {1u, 3u}) {
      analysis::DiagnosticEngine diags;
      CheckOptions opts;
      opts.class_dispatch = c.class_dispatch;
      opts.explore_threads = threads;
      opts.diagnostics = &diags;
      CheckResult r = check(prog.system, spec, prog.atoms, opts);
      EXPECT_TRUE(r.holds) << c.model << " ⊨ " << c.spec;
      if (threads == 1)
        expected = diags.to_text();
      else
        EXPECT_EQ(diags.to_text(), expected) << c.model << " ⊨ " << c.spec;
    }
  }
}

TEST(ParallelEngines, StatsReportWorkers) {
  const Program prog = programs::dining_philosophers(4);
  CheckOptions opts;
  opts.explore_threads = 3;
  CheckResult r =
      check(prog.system, ltl::parse_formula("G !(eat1 & eat2)"), prog.atoms, opts);
  EXPECT_TRUE(r.holds);
  // The ω-product is searched on one thread behind the parallel exploration.
  EXPECT_EQ(r.stats.engine, CheckEngine::Scc);
  EXPECT_EQ(r.stats.threads_used, 1u);
  EXPECT_TRUE(r.stats.worker_states.empty());

  CheckOptions scan = opts;
  scan.class_dispatch = true;
  CheckResult s =
      check(prog.system, ltl::parse_formula("G !(eat1 & eat2)"), prog.atoms, scan);
  EXPECT_TRUE(s.holds);
  EXPECT_EQ(s.stats.engine, CheckEngine::SafetyPrefix);
  EXPECT_EQ(s.stats.threads_used, 3u);
  ASSERT_EQ(s.stats.worker_states.size(), 3u);
  ASSERT_EQ(s.stats.worker_steals.size(), 3u);
  // The scan partitions the product: expansions sum to the product size.
  const std::size_t expanded = std::accumulate(s.stats.worker_states.begin(),
                                               s.stats.worker_states.end(),
                                               std::size_t{0});
  EXPECT_EQ(expanded, s.stats.product_states);
}

TEST(RingLeader, PropertiesUnderBothEngines) {
  const Program prog = programs::ring_leader(5);
  for (bool dispatch : {false, true})
    for (unsigned threads : {1u, 4u}) {
      CheckOptions opts;
      opts.class_dispatch = dispatch;
      opts.explore_threads = threads;
      // Chang–Roberts: some leader is elected under weak fairness, and only
      // the maximal id can win.
      EXPECT_TRUE(
          check(prog.system, ltl::parse_formula("F elected"), prog.atoms, opts).holds);
      EXPECT_TRUE(check(prog.system, ltl::parse_formula("G(elected -> maxleader)"),
                        prog.atoms, opts)
                      .holds);
      EXPECT_TRUE(
          check(prog.system, ltl::parse_formula("F maxleader"), prog.atoms, opts).holds);
      // The channels do drain.
      EXPECT_FALSE(
          check(prog.system, ltl::parse_formula("G !quiet"), prog.atoms, opts).holds);
    }
}

}  // namespace
}  // namespace mph::fts
