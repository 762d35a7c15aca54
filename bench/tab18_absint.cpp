// Experiment T18 — exploration-free static proofs (docs/ABSINT.md):
//   1. agreement: on every symbolic dining-N / ring-N family, the safety
//      spec 'G alarmlo' is certified by the interval static prover (engine
//      "static", 0 states explored) and re-checked by the ω-product engine
//      and the class-dispatched safety-prefix scan — all three verdicts
//      must be identical (checked in-process, not just in the JSON);
//   2. timing: per model, the static path vs the cheapest exploration path;
//   3. the battery summary sums both sides so the validator can gate the
//      whole-battery speedup of the statically-provable subset.
// Results land in BENCH_absint.json (schema + speedup gate in
// scripts/validate_bench_absint.py; `ctest -L bench-smoke`).
//
//   tab18_absint [--quick] [--out FILE] [google-benchmark flags]
//
// --quick shrinks the families and skips the google-benchmark section, for
// the ctest smoke run.
#include <chrono>
#include <fstream>

#include "bench/bench_util.hpp"
#include "src/analysis/absint.hpp"
#include "src/analysis/diagnostics.hpp"
#include "src/fts/checker.hpp"
#include "src/fts/spec_model.hpp"

namespace {

using namespace mph;

double seconds_of(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - since).count();
}

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

std::string json_bool(bool b) { return b ? "true" : "false"; }

constexpr const char* kSpec = "G alarmlo";

struct Row {
  std::string model, path, engine;
  bool holds = false;
  std::size_t states_explored = 0, product_states = 0;
  double seconds = 0;
};

/// One model through all three paths: the static prover (certification off —
/// timing the exploration-free path is the point), the plain ω-product, and
/// the class-dispatched safety scan. Asserts three-way verdict agreement and
/// that the static path really explored nothing.
void run_model(const std::string& name, const fts::FtsSpec& spec_model, int repeats,
               std::vector<Row>& rows, double& static_total, double& explore_total) {
  const fts::Fts sys = spec_model.build();
  const fts::AtomMap atoms = spec_model.atoms();
  const ltl::Formula spec = ltl::parse_formula(kSpec);

  analysis::StaticProverOptions popts;
  popts.certify = false;
  fts::CheckOptions static_opts;
  static_opts.static_prover = analysis::make_static_prover(spec_model, popts);
  fts::CheckOptions explore_opts;
  explore_opts.force_scc = true;  // plain ω-product
  fts::CheckOptions dispatch_opts;  // default route: safety-prefix scan

  const fts::CheckResult r_static = fts::check(sys, spec, atoms, static_opts);
  const fts::CheckResult r_explore = fts::check(sys, spec, atoms, explore_opts);
  const fts::CheckResult r_dispatch = fts::check(sys, spec, atoms, dispatch_opts);
  BENCH_CHECK(is_complete(r_static.outcome) && is_complete(r_explore.outcome) &&
                  is_complete(r_dispatch.outcome),
              ("all three paths complete on " + name).c_str());
  BENCH_CHECK(r_static.stats.engine == fts::CheckEngine::StaticProof,
              ("static path taken on " + name).c_str());
  BENCH_CHECK(r_static.stats.state_graph_nodes == 0 && r_static.stats.product_states == 0,
              ("static path explored zero states on " + name).c_str());
  BENCH_CHECK(r_static.holds && r_explore.holds && r_dispatch.holds,
              ("all three paths agree that 'G alarmlo' holds on " + name).c_str());

  struct Leg {
    const char* path;
    const fts::CheckOptions* opts;
    const fts::CheckResult* result;
  };
  // The full static-path cost per consultation includes rebuilding the
  // analysis, same as each exploration leg rebuilds its product: every leg
  // times one cold fts::check call.
  const Leg legs[] = {{"static", &static_opts, &r_static},
                      {"explore", &explore_opts, &r_explore},
                      {"dispatch", &dispatch_opts, &r_dispatch}};
  for (const Leg& leg : legs) {
    fts::CheckOptions opts = *leg.opts;
    const double secs = best_seconds(repeats, [&] {
      if (opts.static_prover)
        opts.static_prover = analysis::make_static_prover(spec_model, popts);
      benchmark::DoNotOptimize(fts::check(sys, spec, atoms, opts));
    });
    rows.push_back({name, leg.path, std::string(to_string(leg.result->stats.engine)),
                    leg.result->holds, leg.result->stats.state_graph_nodes,
                    leg.result->stats.product_states, secs});
    if (std::string(leg.path) == "static")
      static_total += secs;
    else if (std::string(leg.path) == "explore")
      explore_total += secs;
  }
}

void write_json(const std::string& path, bool quick, int repeats, std::size_t models,
                const std::vector<Row>& rows, double static_total, double explore_total) {
  std::ofstream out(path);
  BENCH_CHECK(bool(out), ("cannot open " + path).c_str());
  const double speedup = explore_total / std::max(static_total, 1e-12);
  out << "{\n  \"experiment\": \"tab18_absint\",\n  \"quick\": " << json_bool(quick)
      << ",\n  \"repeats\": " << repeats << ",\n  \"spec\": \""
      << analysis::json_escape(kSpec) << "\",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"model\": \"" << analysis::json_escape(r.model) << "\", \"path\": \""
        << r.path << "\", \"engine\": \"" << analysis::json_escape(r.engine)
        << "\", \"holds\": " << json_bool(r.holds)
        << ", \"states_explored\": " << r.states_explored
        << ", \"product_states\": " << r.product_states << ", \"seconds\": " << r.seconds
        << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"battery\": {\"models\": " << models
      << ", \"static_seconds\": " << static_total
      << ", \"explore_seconds\": " << explore_total << ", \"speedup\": " << speedup
      << "}\n}\n";
}

// Micro-benchmarks for the full runs: one check per iteration, static path
// (prover rebuilt per iteration — cold cost) vs the ω-product.
void bench_static_dining(benchmark::State& state) {
  const fts::FtsSpec spec_model =
      fts::symbolic_dining(static_cast<std::size_t>(state.range(0)));
  const fts::Fts sys = spec_model.build();
  const fts::AtomMap atoms = spec_model.atoms();
  const auto spec = ltl::parse_formula(kSpec);
  analysis::StaticProverOptions popts;
  popts.certify = false;
  for (auto _ : state) {
    fts::CheckOptions opts;
    opts.static_prover = analysis::make_static_prover(spec_model, popts);
    benchmark::DoNotOptimize(fts::check(sys, spec, atoms, opts));
  }
  state.SetLabel("dining-" + std::to_string(state.range(0)) + " static");
}
BENCHMARK(bench_static_dining)->Arg(6)->Arg(8)->Arg(10);

void bench_explore_dining(benchmark::State& state) {
  const fts::FtsSpec spec_model =
      fts::symbolic_dining(static_cast<std::size_t>(state.range(0)));
  const fts::Fts sys = spec_model.build();
  const fts::AtomMap atoms = spec_model.atoms();
  const auto spec = ltl::parse_formula(kSpec);
  fts::CheckOptions opts;
  opts.force_scc = true;  // the ω-product
  for (auto _ : state) benchmark::DoNotOptimize(fts::check(sys, spec, atoms, opts));
  state.SetLabel("dining-" + std::to_string(state.range(0)) + " explore");
}
BENCHMARK(bench_explore_dining)->Arg(6)->Arg(8)->Arg(10);

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_absint.json";
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
  std::vector<std::pair<std::string, fts::FtsSpec>> models;
  for (std::size_t n : quick ? std::vector<std::size_t>{3, 4}
                             : std::vector<std::size_t>{6, 8, 10})
    models.emplace_back("dining-" + std::to_string(n), fts::symbolic_dining(n));
  for (std::size_t n : quick ? std::vector<std::size_t>{4} : std::vector<std::size_t>{8, 10})
    models.emplace_back("ring-" + std::to_string(n), fts::symbolic_ring(n));

  std::vector<Row> rows;
  double static_total = 0, explore_total = 0;
  for (const auto& [name, spec_model] : models)
    run_model(name, spec_model, repeats, rows, static_total, explore_total);
  write_json(out_path, quick, repeats, models.size(), rows, static_total, explore_total);

  std::printf("T18: %zu models × 3 paths agree; battery %.3gs explored vs %.3gs static "
              "(%.1fx) -> %s\n",
              models.size(), explore_total, static_total,
              explore_total / std::max(static_total, 1e-12), out_path.c_str());

  if (quick) return 0;
  int rest_argc = static_cast<int>(rest.size());
  benchmark::Initialize(&rest_argc, rest.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
