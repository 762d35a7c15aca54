// Experiment T13 — verdict-aware vacuity with class-driven shortcuts
// (docs/VACUITY.md):
//   1. the seeded trivial-mutex specification comes back vacuous with a
//      named witnessing mutation (MPH-Y001) and an antecedent failure
//      (MPH-Y002), the peterson liveness requirement non-vacuous with a
//      replayable interesting witness (MPH-Y003);
//   2. on a safety-heavy requirement set (pairwise mutual exclusion over
//      the weak-fairness semaphore family) class-aware dispatch routes
//      every original and mutant check to the closed-prefix scan — no
//      fairness marks and no ω-product — and is timed against the same
//      analysis forced onto the full ω-product SCC search. Verdicts must be
//      identical; the full run pays the whole fair product on every holding
//      check.
// Results land in BENCH_vacuity.json (schema validated by
// scripts/validate_bench_vacuity.py; `ctest -L bench-smoke`).
//
//   tab13_vacuity [--quick] [--out FILE] [google-benchmark flags]
//
// --quick shrinks the semaphore family and asserts routing instead of the
// ≥2× speedup (smoke runs share the machine with the rest of the suite).
#include <chrono>
#include <fstream>

#include "bench/bench_util.hpp"
#include "src/analysis/vacuity.hpp"
#include "src/fts/programs.hpp"
#include "src/ltl/patterns.hpp"

namespace {

using namespace mph;
namespace pat = ltl::patterns;
using fts::programs::Program;

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

/// The safety-heavy workload: every pairwise mutual exclusion over the
/// n-process semaphore mutex — all syntactically safety, all holding, so a
/// full-engine run explores each fair product to exhaustion.
std::vector<ltl::Formula> mutex_family(std::size_t n) {
  std::vector<ltl::Formula> specs;
  for (std::size_t i = 1; i <= n; ++i)
    for (std::size_t j = i + 1; j <= n; ++j)
      specs.push_back(pat::mutual_exclusion("c" + std::to_string(i), "c" + std::to_string(j)));
  return specs;
}

struct Run {
  analysis::VacuityResult result;
  double seconds = 0;
};

Run run_vacuity(const Program& prog, const std::vector<ltl::Formula>& specs, bool dispatch,
                int repeats) {
  analysis::VacuityOptions opts;
  opts.check.force_scc = !dispatch;
  Run run;
  run.seconds = best_seconds(repeats, [&] {
    analysis::DiagnosticEngine diag;
    fts::ModelContext model(prog.system, prog.atoms);
    run.result = analysis::analyze_vacuity(model, specs, diag, opts);
  });
  return run;
}

struct ModelReport {
  std::string model;
  std::size_t n_specs = 0;
  Run dispatched, full;
  double speedup = 0;
  bool verdicts_agree = false;
};

ModelReport compare(const std::string& name, const Program& prog,
                    const std::vector<ltl::Formula>& specs, int repeats) {
  ModelReport rep;
  rep.model = name;
  rep.n_specs = specs.size();
  rep.dispatched = run_vacuity(prog, specs, /*dispatch=*/true, repeats);
  rep.full = run_vacuity(prog, specs, /*dispatch=*/false, repeats);
  rep.speedup = rep.full.seconds / std::max(rep.dispatched.seconds, 1e-12);
  rep.verdicts_agree = true;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto& a = rep.dispatched.result.requirements[i];
    const auto& b = rep.full.result.requirements[i];
    if (a.verdict != b.verdict) rep.verdicts_agree = false;
  }
  BENCH_CHECK(rep.verdicts_agree,
              ("dispatch changes no vacuity verdict on " + name).c_str());
  // The point of the dispatch: on this workload nothing the dispatched run
  // checks touches an ω-product engine, while the full run never leaves it.
  BENCH_CHECK(rep.full.result.stats.safety_prefix == 0,
              ("full run stays on the ω-product engines on " + name).c_str());
  return rep;
}

/// The seeded vacuity content checks (the tentpole's acceptance scenario),
/// independent of timing.
void run_seeded_checks() {
  {
    Program prog = fts::programs::trivial_mutex();
    analysis::DiagnosticEngine diag;
    fts::ModelContext model(prog.system, prog.atoms);
    auto vr = analysis::analyze_vacuity(
        model, {ltl::parse_formula("G !(c1 & c2)"), ltl::parse_formula("G(c1 -> O t1)")},
        diag);
    BENCH_CHECK(vr.requirements[0].verdict == analysis::RequirementVacuity::Verdict::Vacuous,
                "seeded trivial-mutex spec is vacuous");
    BENCH_CHECK(diag.has_code("MPH-Y001"), "vacuous pass names a witnessing mutation");
    BENCH_CHECK(vr.requirements[1].antecedent_failure,
                "unreachable antecedent detected without mutation");
    BENCH_CHECK(diag.has_code("MPH-Y002"), "MPH-Y002 reported");
  }
  {
    Program prog = fts::programs::peterson();
    analysis::DiagnosticEngine diag;
    fts::ModelContext model(prog.system, prog.atoms);
    auto vr = analysis::analyze_vacuity(model, {ltl::parse_formula("G(t1 -> F c1)")}, diag);
    BENCH_CHECK(
        vr.requirements[0].verdict == analysis::RequirementVacuity::Verdict::NonVacuous,
        "peterson response requirement is non-vacuous");
    BENCH_CHECK(vr.requirements[0].witness.has_value() && diag.has_code("MPH-Y003"),
                "interesting witness found and reported");
  }
}

void write_stats(std::ofstream& out, const analysis::VacuityStats& s) {
  out << "{\"mutants_checked\": " << s.mutants_checked
      << ", \"safety_prefix\": " << s.safety_prefix
      << ", \"guarantee_dual\": " << s.guarantee_dual
      << ", \"scc\": " << s.scc
      << ", \"static_proof\": " << s.static_proof
      << ", \"constant\": " << s.constant << ", \"unknown\": " << s.unknown << "}";
}

void write_json(const std::string& path, bool quick, const std::vector<ModelReport>& reports) {
  std::ofstream out(path);
  BENCH_CHECK(bool(out), ("cannot open " + path).c_str());
  out << "{\n  \"experiment\": \"tab13_vacuity\",\n  \"quick\": " << json_bool(quick)
      << ",\n  \"models\": [\n";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const auto& r = reports[i];
    out << "    {\"model\": \"" << analysis::json_escape(r.model)
        << "\", \"specs\": " << r.n_specs << ",\n     \"verdicts\": [";
    for (std::size_t j = 0; j < r.dispatched.result.requirements.size(); ++j) {
      const auto& rv = r.dispatched.result.requirements[j];
      out << (j ? ", " : "") << "{\"spec\": \"" << analysis::json_escape(rv.text)
          << "\", \"verdict\": \"" << to_string(rv.verdict) << "\"}";
    }
    out << "],\n     \"dispatch\": {\"seconds\": " << r.dispatched.seconds << ", \"stats\": ";
    write_stats(out, r.dispatched.result.stats);
    out << "},\n     \"full\": {\"seconds\": " << r.full.seconds << ", \"stats\": ";
    write_stats(out, r.full.result.stats);
    out << "},\n     \"speedup\": " << r.speedup
        << ", \"verdicts_agree\": " << json_bool(r.verdicts_agree) << "}"
        << (i + 1 < reports.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

// Micro-benchmarks for the full runs.
void bench_vacuity_dispatch(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Program prog = fts::programs::semaphore_mutex(n, fts::Fairness::Weak);
  const auto specs = mutex_family(n);
  analysis::VacuityOptions opts;
  opts.check.force_scc = state.range(1) == 0;
  for (auto _ : state) {
    analysis::DiagnosticEngine diag;
    fts::ModelContext model(prog.system, prog.atoms);
    benchmark::DoNotOptimize(analysis::analyze_vacuity(model, specs, diag, opts));
  }
  state.SetLabel("processes=" + std::to_string(n) +
                 (opts.check.force_scc ? " full" : " dispatch"));
}
BENCHMARK(bench_vacuity_dispatch)
    ->Args({3, 1})
    ->Args({3, 0})
    ->Args({4, 1})
    ->Args({4, 0});

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_vacuity.json";
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

  run_seeded_checks();

  const std::size_t n = quick ? 3 : 4;
  const int repeats = quick ? 1 : 5;
  Program semaphore = fts::programs::semaphore_mutex(n, fts::Fairness::Weak);
  std::vector<ModelReport> reports;
  reports.push_back(compare("semaphore-weak-" + std::to_string(n), semaphore,
                            mutex_family(n), repeats));
  const auto& heavy = reports.back();
  BENCH_CHECK(heavy.dispatched.result.stats.safety_prefix >= 1,
              "dispatch routes safety mutants to the closed-prefix scan");
  BENCH_CHECK(heavy.dispatched.result.stats.scc == 0,
              "no ω-product checks remain on the safety-heavy workload");
  if (!quick)
    BENCH_CHECK(heavy.speedup >= 2.0,
                "class-aware dispatch is at least 2x faster on the safety-heavy family");

  write_json(out_path, quick, reports);
  std::printf(
      "T13: vacuity verdicts agree with and without dispatch on %zu spec(s);\n"
      "     dispatched %.4fs vs full %.4fs (%.1fx) -> %s\n",
      heavy.n_specs, heavy.dispatched.seconds, heavy.full.seconds, heavy.speedup,
      out_path.c_str());

  if (quick) return 0;
  int rest_argc = static_cast<int>(rest.size());
  benchmark::Initialize(&rest_argc, rest.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
