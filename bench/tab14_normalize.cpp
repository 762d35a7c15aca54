// Experiment T14 — ΔΓ-normalization-driven engine dispatch
// (docs/NORMALIZATION.md):
//   1. exact classification outruns the syntactic rules: `G((p U q) | G p)`
//      is syntactically recurrence but exactly safety, its negation
//      syntactically persistence but exactly guarantee —
//      `ltl::exact_classification` must establish both; and the checker
//      must route the battery's outside-fragment safety/guarantee specs
//      (e.g. `F(t1 & F c1)`) to the SafetyPrefix / GuaranteeDual shortcut
//      engines by compiling their normal forms (`class_source ==
//      normalized`);
//   2. routing census: on the default class-aware route, the run with
//      `normalize_steps = 512` lands strictly more checks on each shortcut
//      engine than the run with normalization disabled
//      (`normalize_steps = 0`), and a raw run (`force_scc`) touches no
//      shortcut at all. Verdicts are identical across all three runs.
// Results land in BENCH_normalize.json (schema validated by
// scripts/validate_bench_normalize.py; `ctest -L bench-smoke`).
//
//   tab14_normalize [--quick] [--out FILE] [google-benchmark flags]
//
// --quick shrinks the semaphore family (smoke runs share the machine with
// the rest of the suite); every correctness assertion runs either way.
#include <chrono>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/analysis/diagnostics.hpp"
#include "src/fts/checker.hpp"
#include "src/fts/programs.hpp"
#include "src/ltl/normalize.hpp"
#include "src/ltl/syntactic.hpp"

namespace {

using namespace mph;
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

/// The battery over an n-process mutex program (atoms t<i>, c<i>). Three
/// strata per pair/process:
///   - in-fragment shortcuts (`G !(ci & cj)`, `F ci`): the syntactic class
///     is visible and the old rewrite fragment compiles them — both
///     dispatched runs route these, normalization never consulted;
///   - normalization rescues (`G(ci | G cj)`, its negation, `F(ti & F ci)`):
///     syntactically safety/guarantee but with nested future operators the
///     old fragment rejects — without a normal form to compile they fall
///     back to the ω-engines, with one they reach the shortcut engines
///     (class_source == normalized);
///   - genuine recurrence (`G(ti -> F ci)`): no shortcut fits in any
///     configuration.
std::vector<ltl::Formula> battery(std::size_t n) {
  std::vector<ltl::Formula> specs;
  for (std::size_t i = 1; i <= n; ++i) {
    for (std::size_t j = i + 1; j <= n; ++j) {
      const std::string ci = "c" + std::to_string(i), cj = "c" + std::to_string(j);
      specs.push_back(ltl::parse_formula("G !(" + ci + " & " + cj + ")"));
      specs.push_back(ltl::parse_formula("G(" + ci + " | G " + cj + ")"));
      specs.push_back(ltl::parse_formula("!(G(" + ci + " | G " + cj + "))"));
    }
    const std::string ti = "t" + std::to_string(i), ci = "c" + std::to_string(i);
    specs.push_back(ltl::parse_formula("F " + ci));
    specs.push_back(ltl::parse_formula("F(" + ti + " & F " + ci + ")"));
    specs.push_back(ltl::parse_formula("G(" + ti + " -> F " + ci + ")"));
  }
  return specs;
}

/// Engine / provenance census over one `check_all` run.
struct Tally {
  std::size_t safety_prefix = 0, guarantee_dual = 0, scc = 0;
  std::size_t src_none = 0, src_syntactic = 0, src_normalized = 0;
  std::size_t normalize_steps = 0;
};

Tally tally_of(const std::vector<fts::CheckResult>& results) {
  Tally t;
  for (const auto& r : results) {
    switch (r.stats.engine) {
      case fts::CheckEngine::SafetyPrefix: ++t.safety_prefix; break;
      case fts::CheckEngine::GuaranteeDual: ++t.guarantee_dual; break;
      case fts::CheckEngine::Scc: ++t.scc; break;
    }
    switch (r.stats.class_source) {
      case fts::ClassSource::None: ++t.src_none; break;
      case fts::ClassSource::Syntactic: ++t.src_syntactic; break;
      case fts::ClassSource::Normalized: ++t.src_normalized; break;
    }
    t.normalize_steps += r.stats.normalize_steps;
  }
  return t;
}

struct Run {
  std::vector<fts::CheckResult> results;
  Tally tally;
  double seconds = 0;
};

/// The three configurations under comparison. Normalized and Syntactic both
/// dispatch on class; they differ only in whether the checker may consult
/// the ΔΓ-normalizer when the syntactic class fits no shortcut.
enum class Mode { Normalized, Syntactic, Raw };

Run run_checks(const Program& prog, const std::vector<ltl::Formula>& specs, Mode mode,
               int repeats) {
  fts::CheckOptions opts;
  opts.force_scc = mode == Mode::Raw;
  opts.normalize_steps = mode == Mode::Normalized ? 512 : 0;
  Run run;
  run.seconds = best_seconds(
      repeats, [&] { run.results = fts::check_all(prog.system, specs, prog.atoms, opts); });
  run.tally = tally_of(run.results);
  for (const auto& r : run.results)
    BENCH_CHECK(r.outcome == Outcome::Complete, "every battery check runs to completion");
  return run;
}

struct ModelReport {
  std::string model;
  std::vector<ltl::Formula> specs;
  Run normalized, syntactic, raw;
  double speedup = 0;  // syntactic-dispatch seconds / normalized-dispatch seconds
  bool verdicts_agree = false;
};

ModelReport compare(const std::string& name, const Program& prog, std::size_t n_processes,
                    int repeats) {
  ModelReport rep;
  rep.model = name;
  rep.specs = battery(n_processes);
  rep.normalized = run_checks(prog, rep.specs, Mode::Normalized, repeats);
  rep.syntactic = run_checks(prog, rep.specs, Mode::Syntactic, repeats);
  rep.raw = run_checks(prog, rep.specs, Mode::Raw, repeats);
  rep.speedup = rep.syntactic.seconds / std::max(rep.normalized.seconds, 1e-12);

  rep.verdicts_agree = true;
  for (std::size_t i = 0; i < rep.specs.size(); ++i) {
    if (rep.normalized.results[i].holds != rep.syntactic.results[i].holds ||
        rep.normalized.results[i].holds != rep.raw.results[i].holds)
      rep.verdicts_agree = false;
  }
  BENCH_CHECK(rep.verdicts_agree,
              ("normalization changes no verdict on " + name).c_str());

  // The claim the experiment pins: normalization strictly widens BOTH
  // shortcut engines' reach — the battery's written-high specs only get
  // there through their normal forms.
  const Tally &tn = rep.normalized.tally, &ts = rep.syntactic.tally, &tr = rep.raw.tally;
  BENCH_CHECK(tn.safety_prefix > ts.safety_prefix,
              ("normalization routes strictly more checks to the closed-prefix scan on " +
               name).c_str());
  BENCH_CHECK(tn.guarantee_dual > ts.guarantee_dual,
              ("normalization routes strictly more checks through the safety dual on " +
               name).c_str());
  BENCH_CHECK(tn.src_normalized > 0 && ts.src_normalized == 0,
              ("only the normalized run reports class_source == normalized on " + name).c_str());
  BENCH_CHECK(tr.safety_prefix == 0 && tr.guarantee_dual == 0 && tr.src_none == rep.specs.size(),
              ("the raw run never leaves the general engines on " + name).c_str());
  // A rescued check is one the syntactic classifier could not place: its
  // engine must be a shortcut and it must have paid at least one rewrite.
  for (const auto& r : rep.normalized.results) {
    if (r.stats.class_source != fts::ClassSource::Normalized) continue;
    BENCH_CHECK(r.stats.engine == fts::CheckEngine::SafetyPrefix ||
                    r.stats.engine == fts::CheckEngine::GuaranteeDual,
                "a normalized class_source lands on a shortcut engine");
    BENCH_CHECK(r.stats.normalize_steps > 0, "a rescued check reports its rewrite steps");
  }
  // The genuine recurrence requirements stay on the ω-product engines in
  // every configuration — normalization never *invents* a shortcut.
  BENCH_CHECK(tn.scc >= n_processes,
              ("the response requirements stay on the general engines on " + name).c_str());
  return rep;
}

/// Classifier-level seeded checks (the tentpole's acceptance shape),
/// independent of the model checker.
void run_seeded_checks() {
  const auto rescue_s = ltl::parse_formula("G((p U q) | G p)");
  const auto rescue_g = ltl::parse_formula("!(G((p U q) | G p))");
  BENCH_CHECK(!ltl::syntactic_classification(rescue_s).is(core::PropertyClass::Safety),
              "the safety rescue shape is written above safety");
  BENCH_CHECK(!ltl::syntactic_classification(rescue_g).is(core::PropertyClass::Guarantee),
              "the guarantee rescue shape is written above guarantee");
  const auto ex_s = ltl::exact_classification(rescue_s);
  const auto ex_g = ltl::exact_classification(rescue_g);
  BENCH_CHECK(ex_s.has_value() && ex_s->value.is(core::PropertyClass::Safety),
              "G((p U q) | G p) is exactly safety");
  BENCH_CHECK(ex_g.has_value() && ex_g->value.is(core::PropertyClass::Guarantee),
              "!(G((p U q) | G p)) is exactly guarantee");
  // Soundness floor: the exact class never contradicts a syntactic claim.
  const auto plain = ltl::parse_formula("G !(p & q)");
  const auto ex_plain = ltl::exact_classification(plain);
  BENCH_CHECK(ex_plain.has_value() && ex_plain->value.is(core::PropertyClass::Safety),
              "a syntactic safety formula classifies exactly as safety");
}

void write_tally(std::ofstream& out, const Tally& t) {
  out << "{\"engines\": {\"safety_prefix\": " << t.safety_prefix
      << ", \"guarantee_dual\": " << t.guarantee_dual << ", \"scc\": " << t.scc
      << "}, \"sources\": {\"none\": " << t.src_none
      << ", \"syntactic\": " << t.src_syntactic << ", \"normalized\": " << t.src_normalized
      << "}, \"normalize_steps\": " << t.normalize_steps << "}";
}

void write_run(std::ofstream& out, const Run& run) {
  out << "{\"seconds\": " << run.seconds << ", \"tally\": ";
  write_tally(out, run.tally);
  out << "}";
}

void write_json(const std::string& path, bool quick, const std::vector<ModelReport>& reports) {
  std::ofstream out(path);
  BENCH_CHECK(bool(out), ("cannot open " + path).c_str());
  out << "{\n  \"experiment\": \"tab14_normalize\",\n  \"quick\": " << json_bool(quick)
      << ",\n  \"models\": [\n";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const auto& r = reports[i];
    std::size_t rescued = 0;
    out << "    {\"model\": \"" << analysis::json_escape(r.model)
        << "\", \"specs\": " << r.specs.size() << ",\n     \"verdicts\": [";
    for (std::size_t j = 0; j < r.specs.size(); ++j) {
      const auto& s = r.normalized.results[j].stats;
      if (s.class_source == fts::ClassSource::Normalized) ++rescued;
      out << (j ? ", " : "") << "{\"spec\": \""
          << analysis::json_escape(r.specs[j].to_string()) << "\", \"holds\": "
          << json_bool(r.normalized.results[j].holds) << ", \"engine\": \""
          << to_string(s.engine) << "\", \"class_source\": \"" << to_string(s.class_source)
          << "\", \"normalize_steps\": " << s.normalize_steps << "}";
    }
    out << "],\n     \"runs\": {\"normalized\": ";
    write_run(out, r.normalized);
    out << ",\n              \"syntactic\": ";
    write_run(out, r.syntactic);
    out << ",\n              \"raw\": ";
    write_run(out, r.raw);
    out << "},\n     \"rescued\": " << rescued << ", \"speedup\": " << r.speedup
        << ", \"verdicts_agree\": " << json_bool(r.verdicts_agree) << "}"
        << (i + 1 < reports.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

// Micro-benchmarks: the checker battery with and without normalization, and
// the normalizer alone on the rescue shape.
void bench_check_battery(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Program prog = fts::programs::semaphore_mutex(n, fts::Fairness::Weak);
  const auto specs = battery(n);
  fts::CheckOptions opts;
  opts.normalize_steps = state.range(1) != 0 ? 512 : 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(fts::check_all(prog.system, specs, prog.atoms, opts));
  state.SetLabel("processes=" + std::to_string(n) +
                 (opts.normalize_steps ? " normalize" : " syntactic-only"));
}
BENCHMARK(bench_check_battery)->Args({3, 1})->Args({3, 0})->Args({4, 1})->Args({4, 0});

void bench_exact_classification(benchmark::State& state) {
  const auto f = ltl::parse_formula("G((p U q) | G p)");
  for (auto _ : state) benchmark::DoNotOptimize(ltl::exact_classification(f));
}
BENCHMARK(bench_exact_classification);

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_normalize.json";
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

  const int repeats = quick ? 1 : 5;
  std::vector<ModelReport> reports;
  reports.push_back(compare("trivial-mutex", fts::programs::trivial_mutex(), 2, repeats));
  reports.push_back(compare("peterson", fts::programs::peterson(), 2, repeats));
  const std::size_t n = quick ? 3 : 4;
  reports.push_back(compare("semaphore-weak-" + std::to_string(n),
                            fts::programs::semaphore_mutex(n, fts::Fairness::Weak), n,
                            repeats));

  write_json(out_path, quick, reports);
  const auto& heavy = reports.back();
  std::printf(
      "T14: normalization rescues %zu/%zu checks to shortcut engines on %s\n"
      "     (safety-prefix %zu->%zu, guarantee-dual %zu->%zu; verdicts agree) -> %s\n",
      heavy.normalized.tally.src_normalized, heavy.specs.size(), heavy.model.c_str(),
      heavy.syntactic.tally.safety_prefix, heavy.normalized.tally.safety_prefix,
      heavy.syntactic.tally.guarantee_dual, heavy.normalized.tally.guarantee_dual,
      out_path.c_str());

  if (quick) return 0;
  int rest_argc = static_cast<int>(rest.size());
  benchmark::Initialize(&rest_argc, rest.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
