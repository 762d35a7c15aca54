// Experiment T15 — what runs on more than one core (docs/PARALLEL.md):
//   1. explore: the work-stealing state-graph exploration on dining-N at
//      1/2/4 threads — the graph (node count) must not depend on the count;
//   2. check_all: one batch of independent specs over dining-N on 1/2/4
//      per-spec worker threads (`CheckOptions::threads`, one shared
//      exploration) — verdicts and product sizes must not depend on the
//      count;
//   3. scan: the class-dispatched dining-N safety spec through the parallel
//      safety-prefix scan, and Chang–Roberts 'F elected' through the
//      guarantee dual behind parallel exploration, at 1/2/4 explore-threads.
// Agreement is asserted in-process; every config's 1-thread vs max-thread
// speedup lands in a "scaling" summary so the validator can gate the
// check_all batch speedup on hosts that actually have the cores. ω-products
// are searched on one thread, so there is no multicore emptiness row.
// Results land in BENCH_parallel.json (schema + speedup gate in
// scripts/validate_bench_parallel.py; `ctest -L bench-smoke`).
//
//   tab15_parallel [--quick] [--out FILE] [google-benchmark flags]
//
// --quick shrinks the models and skips the google-benchmark section, for
// the ctest smoke run.
#include <chrono>
#include <fstream>
#include <functional>
#include <thread>

#include "bench/bench_util.hpp"
#include "src/analysis/diagnostics.hpp"
#include "src/fts/checker.hpp"
#include "src/fts/programs.hpp"

namespace {

using namespace mph;
using fts::programs::Program;

double seconds_of(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - since).count();
}

std::string json_bool(bool b) { return b ? "true" : "false"; }

/// What one run reports: a verdict string ("h"/"v" per spec; "-" for a pure
/// exploration), the states it built, and the engine that decided.
struct Sample {
  std::string verdicts;
  std::size_t states = 0;
  std::string engine;
};

struct Config {
  std::string kind;  // "explore", "check_all" or "scan"
  std::string model, what;
  std::function<Sample(unsigned threads)> run;
};

struct Row {
  std::string kind, model, what, engine, verdicts;
  unsigned threads = 0;
  std::size_t states = 0;
  double seconds = 0;
};

struct Scaling {
  std::string kind, model, what;
  std::size_t states = 0;
  unsigned threads_max = 0;
  double baseline_seconds = 0, parallel_seconds = 0, speedup = 0;
};

Config explore_config(const std::string& name, Program prog) {
  auto shared = std::make_shared<Program>(std::move(prog));
  return {"explore", name, "explore", [shared](unsigned threads) {
            fts::ExploreResult ex = fts::explore(shared->system, Budget(), threads);
            BENCH_CHECK(is_complete(ex.outcome), "exploration completes");
            return Sample{"-", ex.graph.nodes.size(), "explore"};
          }};
}

/// One batch: the pairwise exclusion and the starvation-freedom spec of
/// every philosopher — independent specs for the per-spec worker pool.
Config check_all_config(const std::string& name, Program prog, std::size_t n) {
  std::vector<ltl::Formula> specs;
  for (std::size_t i = 1; i <= n; ++i) {
    const std::string a = std::to_string(i), b = std::to_string(i % n + 1);
    specs.push_back(ltl::parse_formula("G !(eat" + a + " & eat" + b + ")"));
    specs.push_back(ltl::parse_formula("G(hungry" + a + " -> F eat" + a + ")"));
  }
  auto shared = std::make_shared<Program>(std::move(prog));
  const std::string what = std::to_string(specs.size()) + " specs";
  return {"check_all", name, what, [shared, specs](unsigned threads) {
            fts::CheckOptions opts;
            opts.threads = threads;
            const auto results = fts::check_all(shared->system, specs, shared->atoms, opts);
            Sample s;
            for (const auto& r : results) {
              BENCH_CHECK(is_complete(r.outcome), "batch check completes");
              s.verdicts += r.holds ? 'h' : 'v';
              s.states += r.stats.product_states;
            }
            s.engine = std::string(to_string(results.front().stats.engine));
            return s;
          }};
}

Config scan_config(const std::string& name, Program prog, const std::string& spec_text) {
  auto shared = std::make_shared<Program>(std::move(prog));
  const ltl::Formula spec = ltl::parse_formula(spec_text);
  return {"scan", name, spec_text, [shared, spec](unsigned threads) {
            fts::CheckOptions opts;
            opts.class_dispatch = true;
            opts.explore_threads = threads;
            const fts::CheckResult r = fts::check(shared->system, spec, shared->atoms, opts);
            BENCH_CHECK(is_complete(r.outcome), "dispatched check completes");
            return Sample{r.holds ? "h" : "v", r.stats.product_states,
                          std::string(to_string(r.stats.engine))};
          }};
}

/// Runs one config at every thread count (best of `repeats` timings) and
/// asserts that what it computed does not depend on the thread count.
void run_config(const Config& cfg, const std::vector<unsigned>& thread_counts, int repeats,
                std::vector<Row>& rows, std::vector<Scaling>& scaling) {
  std::vector<Sample> samples;
  std::vector<double> times;
  for (unsigned threads : thread_counts) {
    double best = 1e300;
    Sample sample;
    for (int r = 0; r < repeats; ++r) {
      auto t0 = std::chrono::steady_clock::now();
      sample = cfg.run(threads);
      best = std::min(best, seconds_of(t0));
    }
    samples.push_back(std::move(sample));
    times.push_back(best);
  }
  for (std::size_t i = 0; i < thread_counts.size(); ++i) {
    const Sample& s = samples[i];
    const std::string where = cfg.kind + " on " + cfg.model;
    BENCH_CHECK(s.verdicts == samples[0].verdicts,
                ("verdicts agree across thread counts: " + where).c_str());
    BENCH_CHECK(s.states == samples[0].states,
                ("state counts agree across thread counts: " + where).c_str());
    rows.push_back({cfg.kind, cfg.model, cfg.what, s.engine, s.verdicts, thread_counts[i],
                    s.states, times[i]});
  }
  scaling.push_back({cfg.kind, cfg.model, cfg.what, samples.back().states,
                     thread_counts.back(), times.front(), times.back(),
                     times.front() / std::max(times.back(), 1e-12)});
}

void write_json(const std::string& path, bool quick, int repeats,
                const std::vector<Row>& rows, const std::vector<Scaling>& scaling) {
  std::ofstream out(path);
  BENCH_CHECK(bool(out), ("cannot open " + path).c_str());
  out << "{\n  \"experiment\": \"tab15_parallel\",\n  \"quick\": " << json_bool(quick)
      << ",\n  \"hardware_threads\": " << std::thread::hardware_concurrency()
      << ",\n  \"repeats\": " << repeats << ",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"kind\": \"" << r.kind << "\", \"model\": \""
        << analysis::json_escape(r.model) << "\", \"what\": \"" << analysis::json_escape(r.what)
        << "\", \"engine\": \"" << analysis::json_escape(r.engine) << "\", \"verdicts\": \""
        << r.verdicts << "\", \"threads\": " << r.threads << ", \"states\": " << r.states
        << ", \"seconds\": " << r.seconds << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"scaling\": [\n";
  for (std::size_t i = 0; i < scaling.size(); ++i) {
    const Scaling& s = scaling[i];
    out << "    {\"kind\": \"" << s.kind << "\", \"model\": \""
        << analysis::json_escape(s.model) << "\", \"what\": \"" << analysis::json_escape(s.what)
        << "\", \"states\": " << s.states << ", \"threads_max\": " << s.threads_max
        << ", \"baseline_seconds\": " << s.baseline_seconds
        << ", \"parallel_seconds\": " << s.parallel_seconds << ", \"speedup\": " << s.speedup
        << "}" << (i + 1 < scaling.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

// Micro-benchmarks: one batch / one exploration per iteration at the thread
// count given by the range argument.
void bench_check_all_dining(benchmark::State& state) {
  const Config cfg = check_all_config("dining-8", fts::programs::dining(8), 8);
  for (auto _ : state) benchmark::DoNotOptimize(cfg.run(static_cast<unsigned>(state.range(0))));
  state.SetLabel("dining-8 batch, threads=" + std::to_string(state.range(0)));
}
BENCHMARK(bench_check_all_dining)->DenseRange(1, 4);

void bench_explore_dining(benchmark::State& state) {
  const Config cfg = explore_config("dining-10", fts::programs::dining(10));
  for (auto _ : state) benchmark::DoNotOptimize(cfg.run(static_cast<unsigned>(state.range(0))));
  state.SetLabel("dining-10 explore, threads=" + std::to_string(state.range(0)));
}
BENCHMARK(bench_explore_dining)->DenseRange(1, 4);

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_parallel.json";
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

  const int repeats = quick ? 1 : 3;
  const std::vector<unsigned> thread_counts =
      quick ? std::vector<unsigned>{1, 2} : std::vector<unsigned>{1, 2, 4};
  std::vector<Config> configs;
  for (std::size_t n : quick ? std::vector<std::size_t>{4, 6}
                             : std::vector<std::size_t>{8, 10, 11}) {
    const std::string name = "dining-" + std::to_string(n);
    configs.push_back(explore_config(name, fts::programs::dining(n)));
    configs.push_back(check_all_config(name, fts::programs::dining(n), n));
    configs.push_back(scan_config(name, fts::programs::dining(n), "G !(eat1 & eat2)"));
  }
  configs.push_back(scan_config(quick ? "ring-6" : "ring-10",
                                fts::programs::ring_leader(quick ? 6 : 10), "F elected"));

  std::vector<Row> rows;
  std::vector<Scaling> scaling;
  for (const Config& cfg : configs) run_config(cfg, thread_counts, repeats, rows, scaling);
  write_json(out_path, quick, repeats, rows, scaling);

  double best = 0;
  for (const Scaling& s : scaling)
    if (s.kind == "check_all") best = std::max(best, s.speedup);
  std::printf("T15: %zu configs × %zu thread counts agree; best check_all speedup %.2fx at "
              "%u threads (%u hardware) -> %s\n",
              configs.size(), thread_counts.size(), best, thread_counts.back(),
              std::thread::hardware_concurrency(), out_path.c_str());

  if (quick) return 0;
  int rest_argc = static_cast<int>(rest.size());
  benchmark::Initialize(&rest_argc, rest.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
