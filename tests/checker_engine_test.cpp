// The on-the-fly SCC engine, observed through CheckStats and the batch API:
// one engine for every acceptance shape, early exit strictly below the full
// product bound, NBA-fallback traces that replay, and check_all agreement
// with sequential check — sequentially and on a worker pool.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "src/fts/checker.hpp"
#include "src/fts/programs.hpp"
#include "src/ltl/eval.hpp"
#include "src/ltl/patterns.hpp"
#include "src/ltl/to_nba.hpp"

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
  EXPECT_FALSE(s.nba_fallback);  // safety lies in the hierarchy fragment
  EXPECT_GE(s.explore_seconds, 0.0);
  EXPECT_GE(s.search_seconds, 0.0);
}

TEST(EngineSelection, BuchiShapedGoesOnTheFly) {
  Program prog = programs::peterson();
  // ¬(safety) is a guarantee (Inf acceptance) and ¬(response) a persistence
  // (Fin acceptance): on the general route both go through the one
  // on-the-fly SCC search, and a holding spec interns the whole reachable
  // product either way.
  CheckOptions scc;
  scc.force_scc = true;
  auto safety = check(prog.system, parse_formula("G !(c1 & c2)"), prog.atoms, scc);
  EXPECT_EQ(safety.stats.engine, CheckEngine::Scc);
  EXPECT_TRUE(safety.holds);
  auto response = check(prog.system, parse_formula("G(t1 -> F c1)"), prog.atoms, scc);
  EXPECT_EQ(response.stats.engine, CheckEngine::Scc);
  EXPECT_TRUE(response.holds);
  EXPECT_GT(response.stats.product_states, 0u);
  EXPECT_LE(response.stats.product_states, response.stats.product_bound);
}

TEST(EngineSelection, NormalizationRoutesNonSyntacticShapesToShortcuts) {
  Program prog = programs::peterson();
  CheckOptions opt;
  // ◇(t1 ∧ ◇c1) denotes a guarantee but is not written as one: the syntactic
  // classifier alone cannot route it, the ΔΓ-normalizer can.
  auto spec = parse_formula("F(t1 & F c1)");
  auto r = check(prog.system, spec, prog.atoms, opt);
  EXPECT_EQ(r.stats.class_source, ClassSource::Normalized);
  EXPECT_EQ(r.stats.engine, CheckEngine::GuaranteeDual);
  EXPECT_GT(r.stats.normalize_steps, 0u);
  // The verdict agrees with the general engine.
  CheckOptions full;
  full.force_scc = true;
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
  // (pinned by force_scc) must report it without interning the whole
  // state-graph × automaton product.
  Program prog = programs::dining_philosophers(3);
  auto spec = parse_formula("G !deadlock");
  CheckOptions scc;
  scc.force_scc = true;
  auto result = check(prog.system, spec, prog.atoms, scc);
  ASSERT_FALSE(result.holds);
  EXPECT_EQ(result.stats.engine, CheckEngine::Scc);
  EXPECT_LT(result.stats.product_states, result.stats.product_bound);
  EXPECT_TRUE(replay_violates(prog, spec, result));
}

TEST(EarlyExit, NbaFallbackViolationReplays) {
  // Outside the hierarchy fragment: on the general route (the default one
  // normalizes this spec) the tableau NBA drives the same SCC search and its
  // counterexample must still be genuine.
  Program prog = programs::dining_philosophers(2);
  auto spec = parse_formula("(F eat1) U deadlock");
  CheckOptions scc;
  scc.force_scc = true;
  auto result = check(prog.system, spec, prog.atoms, scc);
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
  // force_scc keeps the NBA-fallback spec on the tableau (MPH-V001).
  CheckOptions sequential_options;
  sequential_options.force_scc = true;
  sequential_options.diagnostics = &sequential_engine;
  CheckOptions threaded_options = sequential_options;
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
  capped.budget.with_state_cap(3);  // exploration alone must blow the cap
  auto exhausted = check_all(prog.system, tiny, prog.atoms, capped);
  ASSERT_EQ(exhausted.size(), tiny.size());
  for (const auto& r : exhausted) {
    EXPECT_EQ(r.outcome, Outcome::BudgetStates);
    EXPECT_EQ(r.stats.outcome, Outcome::BudgetStates);
    EXPECT_FALSE(r.holds);
    EXPECT_FALSE(r.counterexample.has_value());
  }
}

/// Field-for-field agreement of two answers for one spec, timings aside.
void expect_same_answer(const CheckResult& a, const CheckResult& b, const std::string& what) {
  EXPECT_EQ(a.holds, b.holds) << what;
  EXPECT_EQ(a.outcome, b.outcome) << what;
  ASSERT_EQ(a.counterexample.has_value(), b.counterexample.has_value()) << what;
  if (a.counterexample) {
    EXPECT_EQ(a.counterexample->prefix, b.counterexample->prefix) << what;
    EXPECT_EQ(a.counterexample->loop, b.counterexample->loop) << what;
  }
  EXPECT_EQ(a.stats.engine, b.stats.engine) << what;
  EXPECT_EQ(a.stats.class_source, b.stats.class_source) << what;
  EXPECT_EQ(a.stats.nba_fallback, b.stats.nba_fallback) << what;
  EXPECT_EQ(a.stats.state_graph_nodes, b.stats.state_graph_nodes) << what;
  EXPECT_EQ(a.stats.automaton_states, b.stats.automaton_states) << what;
  EXPECT_EQ(a.stats.product_states, b.stats.product_states) << what;
}

TEST(ModelContext, ReuseMatchesFreshBatches) {
  Program prog = programs::peterson();
  // A and B overlap in one vocabulary ({c1, t1}) and differ in the rest.
  const std::vector<ltl::Formula> a = mixed_specs();
  const std::vector<ltl::Formula> b = {parse_formula("G(t1 -> F c1)"), parse_formula("G !c2"),
                                       parse_formula("F(t2 & c2)")};
  for (unsigned threads : {1u, 4u}) {
    CheckOptions options;
    options.threads = threads;
    ModelContext model(prog.system, prog.atoms, options.budget);
    EXPECT_FALSE(model.explored());
    const auto reused_a = check(model, a, options);
    EXPECT_TRUE(model.explored());
    const auto reused_b = check(model, b, options);
    const auto fresh_a = check_all(prog.system, a, prog.atoms, options);
    const auto fresh_b = check_all(prog.system, b, prog.atoms, options);
    for (std::size_t i = 0; i < a.size(); ++i)
      expect_same_answer(reused_a[i], fresh_a[i], a[i].to_string());
    for (std::size_t i = 0; i < b.size(); ++i) {
      expect_same_answer(reused_b[i], fresh_b[i], b[i].to_string());
      // The second call explores nothing, and labels only new vocabularies.
      EXPECT_EQ(reused_b[i].stats.explore_seconds, 0.0) << b[i].to_string();
    }
    EXPECT_EQ(reused_b[0].stats.label_seconds, 0.0);  // {c1, t1} was labelled for A
  }
}

TEST(ModelContext, StaticProverBatchNeverExplores) {
  Program prog = programs::peterson();
  const ltl::Formula proved = parse_formula("G !(c1 & c2)");  // holds on peterson
  CheckOptions options;
  options.static_prover = [&](const ltl::Formula& f) -> std::optional<CheckResult> {
    if (f.to_string() != proved.to_string()) return std::nullopt;
    CheckResult r;
    r.holds = true;
    return r;
  };
  ModelContext model(prog.system, prog.atoms);
  const auto settled = check(model, {proved}, options);
  EXPECT_EQ(settled[0].stats.engine, CheckEngine::StaticProof);
  EXPECT_FALSE(model.explored());

  const auto explored = check(model, {parse_formula("G(t1 -> F c1)")}, options);
  EXPECT_TRUE(model.explored());
  EXPECT_NE(explored[0].stats.engine, CheckEngine::StaticProof);
  EXPECT_GT(explored[0].stats.state_graph_nodes, 0u);
  EXPECT_GT(explored[0].stats.explore_seconds, 0.0);  // this call explored
  // Once explored, the context never explores again.
  const auto again = check(model, {parse_formula("G !c1")}, options);
  EXPECT_EQ(again[0].stats.explore_seconds, 0.0);
  EXPECT_EQ(again[0].stats.state_graph_nodes, explored[0].stats.state_graph_nodes);
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

TEST(Budgets, TableauExhaustionIsReported) {
  // The cap admits the state graph but lies below the reachable tableau of
  // ¬spec, so the NBA fallback stops inside the tableau construction.
  Program prog = programs::peterson();
  const ltl::Formula spec = parse_formula("G(t1 -> X X c1)");
  const std::size_t nodes = check(prog.system, spec, prog.atoms).stats.state_graph_nodes;
  const auto tableau =
      ltl::to_nba(ltl::f_not(spec), lang::Alphabet::of_props(spec.atoms()));
  ASSERT_LT(nodes, tableau.state_count());
  CheckOptions options;
  options.force_scc = true;
  options.budget.with_state_cap(nodes);
  analysis::DiagnosticEngine diags;
  options.diagnostics = &diags;
  const auto r = check(prog.system, spec, prog.atoms, options);
  EXPECT_EQ(r.outcome, Outcome::BudgetStates);
  EXPECT_FALSE(r.holds);
  EXPECT_TRUE(r.stats.nba_fallback);
  EXPECT_EQ(r.stats.product_states, 0u);
  bool reported = false;
  for (const auto& d : diags.diagnostics())
    reported = reported || (d.code == "MPH-V004" &&
                            d.message.find("the ¬spec NBA tableau construction") !=
                                std::string::npos);
  EXPECT_TRUE(reported);
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

TEST(Budgets, DeadlineOnlyBudgetKeepsTheDefaultStateCap) {
  // A counter with more reachable states than kDefaultStateCap: a budget
  // that sets only a deadline still stops exploration at the default cap.
  constexpr int kTop = static_cast<int>(kDefaultStateCap) + 1000;
  Fts sys;
  const std::size_t x = sys.add_var("x", 0, kTop, 0);
  sys.add_transition(
      "inc", Fairness::None, [x](const Valuation& v) { return v[x] < kTop; },
      [x](Valuation& v) { v[x] += 1; });
  AtomMap atoms{{"zero", var_equals(sys, "x", 0)}};
  CheckOptions options;
  options.budget.with_deadline_after(std::chrono::hours(1));
  const auto r = check(sys, parse_formula("G F zero"), atoms, options);
  EXPECT_EQ(r.outcome, Outcome::BudgetStates);
  EXPECT_EQ(r.stats.state_graph_nodes, kDefaultStateCap);
  EXPECT_FALSE(r.holds);
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
      parse_formula("F c1"),              // product overruns the cap
      parse_formula("G(t1 -> X X c1)"),   // NBA fallback; tableau overruns the cap
  };
  CheckOptions seq;
  seq.force_scc = true;  // the general route: full products and the NBA tableau
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

TEST(EngineSelection, ForceSccIgnoresClassDispatch) {
  // force_scc pins the general ω-product route: class dispatch, and with it
  // the ΔΓ-normalization rescue, must not run. These specs' ¬spec lies
  // outside the deterministic fragment as written, so the default route
  // rescues them (Normalized class source) and force_scc must not.
  Program prog = programs::peterson();
  for (const char* text : {"F(t1 & X(!t1 & X t1))", "F(t1 & F c1)", "(F c1) U c2"}) {
    const auto spec = parse_formula(text);
    CheckOptions forced;
    forced.force_scc = true;
    const auto pinned = check(prog.system, spec, prog.atoms, forced);
    const auto routed = check(prog.system, spec, prog.atoms);
    EXPECT_EQ(pinned.stats.class_source, ClassSource::None) << text;
    EXPECT_EQ(pinned.stats.normalize_steps, 0u) << text;
    EXPECT_EQ(pinned.stats.engine, CheckEngine::Scc) << text;
    EXPECT_TRUE(pinned.stats.nba_fallback) << text;
    EXPECT_EQ(routed.stats.class_source, ClassSource::Normalized) << text;
    EXPECT_NE(routed.stats.engine, CheckEngine::Scc) << text;
    EXPECT_EQ(pinned.holds, routed.holds) << text;
  }
}

TEST(RingLeader, PropertiesUnderBothEngines) {
  const Program prog = programs::ring_leader(5);
  for (bool force_scc : {false, true}) {
    CheckOptions opts;
    opts.force_scc = force_scc;
    // Chang–Roberts: some leader is elected under weak fairness, and only
    // the maximal id can win.
    EXPECT_TRUE(check(prog.system, parse_formula("F elected"), prog.atoms, opts).holds);
    EXPECT_TRUE(
        check(prog.system, parse_formula("G(elected -> maxleader)"), prog.atoms, opts).holds);
    EXPECT_TRUE(check(prog.system, parse_formula("F maxleader"), prog.atoms, opts).holds);
    // The channels do drain.
    EXPECT_FALSE(check(prog.system, parse_formula("G !quiet"), prog.atoms, opts).holds);
  }
}

// Route pinning: every (model, spec, options) row of a fixed battery renders
// the checker's routing and search outcome — verdict, engine, class source,
// automaton and product sizes, witness shape, and the full diagnostics text
// in emission order — and must match tests/corpus/check_routes.golden line
// for line. Set MPH_REGEN_ROUTES=1 to rewrite the file after an intended
// change.

struct RouteModel {
  const char* name;
  Program (*make)();
  std::vector<const char*> specs;
};

std::vector<RouteModel> route_battery() {
  return {
      {"peterson", [] { return programs::peterson(); },
       {"G !(c1 & c2)", "G !c1", "F c1", "G(t1 -> F c1)", "G F c1", "F(t1 & F c1)",
        "F(t1 & X(!t1 & X t1))", "(F c1) U c2", "c1 W c2", "G(t1 -> X(t1 | c1))",
        "F G !c2", "G(t1 -> X X c1)", "G(t1 -> t1 U c1)", "G(c1 -> X(c1 U !c1))",
        "F(c1 & X c2)", "F(t1 & G c1)"}},
      {"trivial_mutex", [] { return programs::trivial_mutex(); },
       {"G !(c1 & c2)", "G(t1 -> F c1)", "F c1", "F(t1 & F t2)"}},
      {"semaphore-weak-3", [] { return programs::semaphore_mutex(3, Fairness::Weak); },
       {"G !(c1 & c2)", "G(t1 -> F c1)", "G F c1", "F(t1 & X(!t1 & X t1))"}},
      {"semaphore-strong-3", [] { return programs::semaphore_mutex(3, Fairness::Strong); },
       {"G !(c1 & c2)", "G(t1 -> F c1)", "G !c3", "F(t2 & F c2)"}},
      {"producer_consumer-3", [] { return programs::producer_consumer(3); },
       {"G !full", "G(full -> F !full)", "G F empty", "F full", "G(nonempty -> F empty)"}},
      {"dining-3", [] { return programs::dining_philosophers(3); },
       {"G !deadlock", "G !(eat1 & eat2)", "G(hungry1 -> F eat1)", "F eat1",
        "(F eat1) U deadlock"}},
      {"ring-3", [] { return programs::ring_leader(3); },
       {"F elected", "G(elected -> maxleader)", "F G quiet", "G(quiet -> F elected)",
        "F(quiet & F elected)"}},
  };
}

std::string route_row(const std::string& model, const char* spec, const std::string& opts,
                      const CheckResult& r, const analysis::DiagnosticEngine& diags) {
  const CheckStats& s = r.stats;
  std::ostringstream row;
  row << model << '\t' << spec << '\t' << opts << "\tholds=" << r.holds
      << " outcome=" << to_string(s.outcome) << " engine=" << to_string(s.engine)
      << " class=" << to_string(s.class_source) << " nba=" << s.nba_fallback
      << " aut=" << s.automaton_states << " product=" << s.product_states
      << " bound=" << s.product_bound << " normalize=" << s.normalize_steps;
  if (r.counterexample)
    row << " cex=" << r.counterexample->prefix.size() << '/' << r.counterexample->loop.size();
  else
    row << " cex=none";
  for (const auto& d : diags.diagnostics()) {
    row << "\t" << d.code << ' ' << d.subject << ": " << d.message;
    if (!d.witness.empty()) row << " [witness: " << d.witness << ']';
    if (!d.fix_hint.empty()) row << " [fix: " << d.fix_hint << ']';
  }
  return row.str();
}

std::vector<std::string> route_rows() {
  std::vector<std::string> rows;
  for (const RouteModel& m : route_battery()) {
    const Program prog = m.make();
    // A state cap that admits the state graph exactly: exploration completes
    // and a product search or tableau that needs more states runs out.
    const std::size_t nodes =
        check(prog.system, parse_formula(m.specs.front()), prog.atoms).stats.state_graph_nodes;
    std::vector<std::pair<std::string, CheckOptions>> option_sets(5);
    option_sets[0].first = "defaults";
    option_sets[1].first = "force_scc";
    option_sets[1].second.force_scc = true;
    option_sets[2].first = "force_scc+state_cap=nodes";
    option_sets[2].second.force_scc = true;
    option_sets[2].second.budget.with_state_cap(nodes);
    option_sets[3].first = "state_cap=nodes";
    option_sets[3].second.budget.with_state_cap(nodes);
    option_sets[4].first = "normalize_steps=0";
    option_sets[4].second.normalize_steps = 0;
    for (const char* spec : m.specs)
      for (auto& [name, options] : option_sets) {
        analysis::DiagnosticEngine diags;
        options.diagnostics = &diags;
        const CheckResult r = check(prog.system, parse_formula(spec), prog.atoms, options);
        if (r.counterexample) {
          EXPECT_TRUE(replay_violates(prog, parse_formula(spec), r))
              << m.name << ' ' << spec << ' ' << name;
        }
        rows.push_back(route_row(m.name, spec, name, r, diags));
      }
  }
  return rows;
}

TEST(RoutePinning, BatteryMatchesGoldenRows) {
  const std::string path = std::string(MPH_SOURCE_DIR) + "/tests/corpus/check_routes.golden";
  const std::vector<std::string> rows = route_rows();
  if (std::getenv("MPH_REGEN_ROUTES")) {
    std::ofstream out(path);
    for (const auto& row : rows) out << row << '\n';
    GTEST_SKIP() << "rewrote " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing " << path;
  std::vector<std::string> golden;
  for (std::string line; std::getline(in, line);) golden.push_back(line);
  ASSERT_EQ(rows.size(), golden.size());
  for (std::size_t i = 0; i < rows.size(); ++i) EXPECT_EQ(rows[i], golden[i]) << "row " << i;
}

}  // namespace
}  // namespace mph::fts
