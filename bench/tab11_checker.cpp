// Experiment T11 — the on-the-fly checker engine (§4 verification, engine
// telemetry edition):
//   1. the tab10 mutex matrix reproduced through the batch API `check_all`
//      (and cross-checked against sequential `check`);
//   2. early-exit: on seeded violating models the on-the-fly SCC search
//      builds strictly fewer product states than the full state-graph × automaton
//      bound, and the reported counterexample replays to a genuine
//      violation under the independent lasso evaluator;
//   3. batching: `check_all` (one exploration, shared label caches) is
//      timed against repeated `check` on the semaphore mutex family, with
//      and without worker threads;
//   4. the Fin close: a response spec that holds on dining-8, whose ¬spec is
//      co-Büchi, so every cyclic product SCC goes through the good-loop
//      search; product states, search seconds and states/s.
// Results land in BENCH_checker.json (schema validated by
// scripts/validate_bench_checker.py; `ctest -L bench-smoke`).
//
//   tab11_checker [--quick] [--out FILE] [google-benchmark flags]
//
// --quick shrinks the workload and skips the google-benchmark section, for
// the ctest smoke run.
#include <chrono>
#include <fstream>
#include <thread>

#include "bench/bench_util.hpp"
#include "src/analysis/diagnostics.hpp"
#include "src/fts/checker.hpp"
#include "src/fts/programs.hpp"
#include "src/ltl/eval.hpp"
#include "src/ltl/patterns.hpp"

namespace {

using namespace mph;
namespace pat = ltl::patterns;
using fts::programs::Program;

double seconds_of(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - since).count();
}

/// Best-of-`repeats` wall time of f().
template <class F>
double best_seconds(int repeats, F&& f) {
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    f();
    best = std::min(best, seconds_of(t0));
  }
  return best;
}

/// Replays the counterexample as the word of its atom labels and evaluates
/// the spec on it — true iff the trace genuinely violates the spec.
bool replay_violates(const Program& prog, const ltl::Formula& spec,
                     const fts::CheckResult& result) {
  if (result.holds || !result.counterexample) return false;
  const auto& cex = *result.counterexample;
  if (cex.loop.empty()) return false;
  auto atom_names = spec.atoms();
  auto alphabet = lang::Alphabet::of_props(atom_names);
  auto symbol_of = [&](const fts::Valuation& v) {
    lang::Symbol s = 0;
    for (std::size_t i = 0; i < atom_names.size(); ++i)
      if (prog.atoms.at(atom_names[i])(prog.system, v, fts::StateGraph::kNone))
        s |= lang::Symbol{1} << i;
    return s;
  };
  omega::Lasso word;
  for (const auto& v : cex.prefix) word.prefix.push_back(symbol_of(v));
  for (const auto& v : cex.loop) word.loop.push_back(symbol_of(v));
  return !ltl::evaluates(spec, word, alphabet);
}

std::string json_bool(bool b) { return b ? "true" : "false"; }

struct MatrixRow {
  std::string model, spec;
  fts::CheckResult result;
};

struct EarlyExitRow {
  std::string model, spec;
  fts::CheckStats stats;
  bool replayed = false;
};

/// 1. The tab10 verification matrix through check_all, cross-checked
/// against sequential check.
std::vector<MatrixRow> run_matrix() {
  std::vector<MatrixRow> rows;
  auto run = [&](const std::string& name, Program prog, bool expect_mutex,
                 bool expect_access) {
    std::vector<ltl::Formula> specs = {pat::mutual_exclusion("c1", "c2"),
                                       pat::accessibility("t1", "c1")};
    auto results = fts::check_all(prog.system, specs, prog.atoms);
    BENCH_CHECK(results.size() == 2, "check_all returns one result per spec");
    BENCH_CHECK(results[0].holds == expect_mutex, ("mutual exclusion on " + name).c_str());
    BENCH_CHECK(results[1].holds == expect_access, ("accessibility on " + name).c_str());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      auto sequential = fts::check(prog.system, specs[i], prog.atoms);
      BENCH_CHECK(sequential.holds == results[i].holds,
                  ("check_all agrees with check on " + name).c_str());
      rows.push_back({name, specs[i].to_string(), std::move(results[i])});
    }
  };
  run("trivial-mutex", fts::programs::trivial_mutex(), true, false);
  run("peterson", fts::programs::peterson(), true, true);
  run("semaphore-weak", fts::programs::semaphore_mutex(2, fts::Fairness::Weak), true, false);
  run("semaphore-strong", fts::programs::semaphore_mutex(2, fts::Fairness::Strong), true,
      true);
  return rows;
}

/// 2. Early exit on seeded violating models: the on-the-fly SCC search
/// (pinned by force_scc) must stop strictly below the full product bound,
/// with a genuine trace.
std::vector<EarlyExitRow> run_early_exit() {
  std::vector<EarlyExitRow> rows;
  fts::CheckOptions scc;
  scc.force_scc = true;
  auto run = [&](const std::string& model, Program prog, const std::string& spec_text,
                 bool expect_fallback) {
    auto spec = ltl::parse_formula(spec_text);
    auto result = fts::check(prog.system, spec, prog.atoms, scc);
    const auto& s = result.stats;
    BENCH_CHECK(!result.holds, ("seeded violation found on " + model).c_str());
    BENCH_CHECK(s.engine == fts::CheckEngine::Scc, ("SCC search used on " + model).c_str());
    BENCH_CHECK(s.nba_fallback == expect_fallback,
                ("compile route on " + model).c_str());
    BENCH_CHECK(s.product_states < s.product_bound,
                ("early exit built fewer product states than the bound on " + model).c_str());
    bool replayed = replay_violates(prog, spec, result);
    BENCH_CHECK(replayed, ("counterexample replays to a violation on " + model).c_str());
    rows.push_back({model, spec_text, s, replayed});
  };
  run("dining-3", fts::programs::dining_philosophers(3), "G !deadlock", false);
  run("producer-consumer-8", fts::programs::producer_consumer(8), "G !full", false);
  run("dining-2", fts::programs::dining_philosophers(2), "(F eat1) U deadlock", true);
  return rows;
}

struct FinCloseRow {
  std::string model, spec;
  fts::CheckResult result;
  double search_seconds = 0;
};

/// 4. The SCC engine under Fin acceptance on a spec that holds: the whole
/// product is built and each cyclic SCC is closed by the good-loop search.
FinCloseRow run_fin_close(bool quick) {
  FinCloseRow row{"dining-8", "G (eat1 -> F !eat1)", {}, 1e300};
  Program prog = fts::programs::dining_philosophers(8);
  const auto spec = ltl::parse_formula(row.spec);
  for (int r = 0; r < (quick ? 1 : 5); ++r) {
    row.result = fts::check(prog.system, spec, prog.atoms);
    row.search_seconds = std::min(row.search_seconds, row.result.stats.search_seconds);
  }
  const auto& s = row.result.stats;
  BENCH_CHECK(row.result.holds, "the Fin-close spec holds on dining-8");
  BENCH_CHECK(s.engine == fts::CheckEngine::Scc, "the Fin-close spec takes the SCC search");
  BENCH_CHECK(s.product_states <= s.product_bound, "Fin-close product within its bound");
  return row;
}

struct Timing {
  std::string model;
  std::size_t n_specs = 0;
  int repeats = 0;
  unsigned threads = 0;
  double repeated_seconds = 0, batch1_seconds = 0, batchn_seconds = 0;
};

/// 3. Batch vs repeated checking on the semaphore mutex family.
Timing run_timing(bool quick) {
  const std::size_t n = quick ? 2 : 4;
  Program prog = fts::programs::semaphore_mutex(n, fts::Fairness::Strong);
  std::vector<ltl::Formula> specs;
  for (std::size_t i = 1; i <= n; ++i)
    for (std::size_t j = i + 1; j <= n; ++j)
      specs.push_back(pat::mutual_exclusion("c" + std::to_string(i), "c" + std::to_string(j)));
  for (std::size_t i = 1; i <= n; ++i)
    specs.push_back(pat::accessibility("t" + std::to_string(i), "c" + std::to_string(i)));

  Timing t;
  t.model = "semaphore-strong-" + std::to_string(n);
  t.n_specs = specs.size();
  t.repeats = quick ? 1 : 5;
  t.threads = std::max(2u, std::min(4u, std::thread::hardware_concurrency()));

  t.repeated_seconds = best_seconds(t.repeats, [&] {
    for (const auto& spec : specs)
      benchmark::DoNotOptimize(fts::check(prog.system, spec, prog.atoms));
  });
  t.batch1_seconds = best_seconds(t.repeats, [&] {
    benchmark::DoNotOptimize(fts::check_all(prog.system, specs, prog.atoms));
  });
  fts::CheckOptions multi;
  multi.threads = t.threads;
  t.batchn_seconds = best_seconds(t.repeats, [&] {
    benchmark::DoNotOptimize(fts::check_all(prog.system, specs, prog.atoms, multi));
  });

  // Verdicts agree between all three runs (spot-check: batch vs sequential).
  auto batch = fts::check_all(prog.system, specs, prog.atoms, multi);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    BENCH_CHECK(batch[i].holds == fts::check(prog.system, specs[i], prog.atoms).holds,
                "threaded check_all agrees with check");
  }
  if (!quick)
    BENCH_CHECK(t.batch1_seconds < t.repeated_seconds,
                "check_all beats repeated check on the mutex family");
  return t;
}

void write_json(const std::string& path, bool quick, const std::vector<MatrixRow>& matrix,
                const std::vector<EarlyExitRow>& early, const FinCloseRow& fin,
                const Timing& t) {
  std::ofstream out(path);
  BENCH_CHECK(bool(out), ("cannot open " + path).c_str());
  out << "{\n  \"experiment\": \"tab11_checker\",\n  \"quick\": " << json_bool(quick)
      << ",\n  \"matrix\": [\n";
  for (std::size_t i = 0; i < matrix.size(); ++i) {
    const auto& r = matrix[i];
    const auto& s = r.result.stats;
    out << "    {\"model\": \"" << analysis::json_escape(r.model) << "\", \"spec\": \""
        << analysis::json_escape(r.spec) << "\", \"holds\": " << json_bool(r.result.holds)
        << ", \"engine\": \"" << fts::to_string(s.engine)
        << "\", \"nba_fallback\": " << json_bool(s.nba_fallback)
        << ", \"product_states\": " << s.product_states
        << ", \"product_bound\": " << s.product_bound << "}"
        << (i + 1 < matrix.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"early_exit\": [\n";
  for (std::size_t i = 0; i < early.size(); ++i) {
    const auto& r = early[i];
    out << "    {\"model\": \"" << analysis::json_escape(r.model) << "\", \"spec\": \""
        << analysis::json_escape(r.spec)
        << "\", \"engine\": \"" << fts::to_string(r.stats.engine)
        << "\", \"nba_fallback\": " << json_bool(r.stats.nba_fallback)
        << ", \"product_states\": " << r.stats.product_states
        << ", \"product_bound\": " << r.stats.product_bound
        << ", \"replay_violates\": " << json_bool(r.replayed) << "}"
        << (i + 1 < early.size() ? "," : "") << "\n";
  }
  const auto& fs = fin.result.stats;
  out << "  ],\n  \"fin_close\": {\"model\": \"" << analysis::json_escape(fin.model)
      << "\", \"spec\": \"" << analysis::json_escape(fin.spec)
      << "\", \"holds\": " << json_bool(fin.result.holds) << ", \"engine\": \""
      << fts::to_string(fs.engine) << "\", \"nba_fallback\": " << json_bool(fs.nba_fallback)
      << ", \"product_states\": " << fs.product_states
      << ", \"product_bound\": " << fs.product_bound
      << ", \"search_seconds\": " << fin.search_seconds << ", \"states_per_s\": "
      << static_cast<double>(fs.product_states) / std::max(fin.search_seconds, 1e-12)
      << "},\n  \"timing\": {\n"
      << "    \"model\": \"" << analysis::json_escape(t.model) << "\",\n"
      << "    \"specs\": " << t.n_specs << ",\n"
      << "    \"repeats\": " << t.repeats << ",\n"
      << "    \"threads\": " << t.threads << ",\n"
      << "    \"repeated_check_seconds\": " << t.repeated_seconds << ",\n"
      << "    \"check_all_1_seconds\": " << t.batch1_seconds << ",\n"
      << "    \"check_all_n_seconds\": " << t.batchn_seconds << ",\n"
      << "    \"batch_speedup\": " << (t.repeated_seconds / std::max(t.batch1_seconds, 1e-12))
      << "\n  }\n}\n";
}

// Micro-benchmarks for the full runs.
void bench_check_all_semaphore(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Program prog = fts::programs::semaphore_mutex(n, fts::Fairness::Strong);
  std::vector<ltl::Formula> specs;
  for (std::size_t i = 1; i <= n; ++i)
    specs.push_back(pat::accessibility("t" + std::to_string(i), "c" + std::to_string(i)));
  for (auto _ : state)
    benchmark::DoNotOptimize(fts::check_all(prog.system, specs, prog.atoms));
  state.SetLabel("processes=" + std::to_string(n));
}
BENCHMARK(bench_check_all_semaphore)->DenseRange(2, 4);

void bench_repeated_check_semaphore(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Program prog = fts::programs::semaphore_mutex(n, fts::Fairness::Strong);
  std::vector<ltl::Formula> specs;
  for (std::size_t i = 1; i <= n; ++i)
    specs.push_back(pat::accessibility("t" + std::to_string(i), "c" + std::to_string(i)));
  for (auto _ : state)
    for (const auto& spec : specs)
      benchmark::DoNotOptimize(fts::check(prog.system, spec, prog.atoms));
  state.SetLabel("processes=" + std::to_string(n));
}
BENCHMARK(bench_repeated_check_semaphore)->DenseRange(2, 4);

void bench_early_exit_dining(benchmark::State& state) {
  Program prog = fts::programs::dining_philosophers(static_cast<std::size_t>(state.range(0)));
  auto spec = ltl::parse_formula("G !deadlock");
  for (auto _ : state) benchmark::DoNotOptimize(fts::check(prog.system, spec, prog.atoms));
  state.SetLabel("philosophers=" + std::to_string(state.range(0)));
}
BENCHMARK(bench_early_exit_dining)->DenseRange(2, 4);

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_checker.json";
  std::vector<char*> rest{argv[0]};
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      rest.push_back(argv[i]);
    }
  }

  auto matrix = run_matrix();
  auto early = run_early_exit();
  FinCloseRow fin = run_fin_close(quick);
  Timing t = run_timing(quick);
  write_json(out_path, quick, matrix, early, fin, t);
  std::printf(
      "T11: matrix reproduced via check_all; early exit confirmed on %zu models;\n"
      "     Fin close on %s: %zu product states in %.4fs;\n"
      "     repeated %.4fs vs batch %.4fs vs batch×%u %.4fs over %zu specs -> %s\n",
      early.size(), fin.model.c_str(), fin.result.stats.product_states, fin.search_seconds,
      t.repeated_seconds, t.batch1_seconds, t.threads, t.batchn_seconds, t.n_specs,
      out_path.c_str());

  if (quick) return 0;
  int rest_argc = static_cast<int>(rest.size());
  benchmark::Initialize(&rest_argc, rest.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
