// Experiment T17 — Safra-free Büchi inclusion and the NBA-backed exact
// classification path (docs/COMPLEMENT.md):
//   1. inclusion: a battery of LTL entailment queries decided through
//      omega::included (tableau NBA × SCC-decomposed complement, NCSB or
//      rank-based per part) must match the known ground truth in both
//      directions — a green bench is a correctness check of the engine;
//   2. rescue: the MPH-N003 family — formulas the ΔΓ-rewriter refuses —
//      must come back with an *exact* class through the Büchi closure
//      tests (ExactClass::Source::NbaSemantics), the acceptance criterion
//      of the complementation work;
//   3. cost: per-query decision latency and wall time, candidate lassos
//      probed, interned product states and complement macrostates, plus
//      google-benchmark micro
//      sections for complementation (forced-rank vs auto) and inclusion.
// Results land in BENCH_inclusion.json (`ctest -L bench-smoke`).
//
//   tab17_inclusion [--quick] [--out FILE] [google-benchmark flags]
//
// --quick skips the google-benchmark section, for the ctest smoke run.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/analysis/diagnostics.hpp"
#include "src/ltl/ast.hpp"
#include "src/ltl/normalize.hpp"
#include "src/ltl/to_nba.hpp"
#include "src/omega/complement.hpp"
#include "src/omega/inclusion.hpp"

namespace {

using namespace mph;

double micros_of(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() -
                                                   since).count();
}

std::string json_bool(bool b) { return b ? "true" : "false"; }

/// Every query runs under this state cap — the same admission discipline
/// the serve layer and the subsume pass use, so the bench reproduces the
/// engine as deployed.
constexpr std::size_t kInclusionStateCap = 200000;

/// One entailment query with its ground truth, per direction. Every
/// expectation is the true answer: when the complement macrostate space
/// exceeds the cap the engine must answer Unknown, never guess, but no
/// query of the battery does that any more.
struct Query {
  const char* stronger;
  const char* weaker;
  omega::InclusionVerdict forward;  ///< L(stronger) ⊆ L(weaker)?
  omega::InclusionVerdict reverse;  ///< L(weaker) ⊆ L(stronger)?
};

using V = omega::InclusionVerdict;

/// The battery. The last query's left side is drawn from the MPH-N003
/// rescue family, so the inclusion engine and the classification rescue
/// exercise the same tableau automata. Its reverse direction is false (q at
/// once, p never): the rank-based complement of that automaton overruns
/// the cap, but the separating-lasso probe finds ({q})^ω before the
/// complement is built.
constexpr Query kQueries[] = {
    {"G p", "G (p | q)", V::Included, V::NotIncluded},
    {"G (p & q)", "G p", V::Included, V::NotIncluded},
    {"p U q", "F q", V::Included, V::NotIncluded},
    {"G F p", "F p", V::Included, V::NotIncluded},
    {"G p", "F p", V::Included, V::NotIncluded},
    {"G (p & q)", "G (q & p)", V::Included, V::Included},
    {"F (p & X (p U q))", "F q", V::Included, V::NotIncluded},
};

/// Formulas the ΔΓ-rewriter refuses (MPH-N003) whose exact class the Büchi
/// closure tests recover; all are guarantee properties.
constexpr const char* kRescueFamily[] = {
    "F (p & X (p U q))",
    "(p U q) U (X X q)",
    "(p U q) U (q U p)",
    "p U (q & X (q U p))",
};

struct InclusionRow {
  std::string stronger, weaker;
  std::string forward, reverse;  // verdicts as strings
  bool agree = false;
  double forward_us = 0, reverse_us = 0;
  /// Per-query cost, both directions together: candidate lassos the probe
  /// tested, interned product states and complement macrostates (a
  /// direction the probe decides contributes 0 to the last two), and the
  /// wall time of the two tableaux plus both inclusion runs.
  std::size_t lassos_probed = 0;
  std::size_t product_states = 0;
  std::size_t complement_macrostates = 0;
  double wall_ms = 0;
  std::size_t ncsb_parts = 0, rank_parts = 0;
};

struct RescueRow {
  std::string formula;
  std::string cls;     // lowest class name
  std::string source;  // "nba" expected
  bool normalizer_refused = false;
  bool agree = false;
  double us = 0;
};

lang::Alphabet joint_alphabet(const ltl::Formula& a, const ltl::Formula& b) {
  std::set<std::string> atoms;
  for (const auto& p : a.atoms()) atoms.insert(p);
  for (const auto& p : b.atoms()) atoms.insert(p);
  return lang::Alphabet::of_props({atoms.begin(), atoms.end()});
}

void write_json(const std::string& path, bool quick, const std::vector<InclusionRow>& inc,
                const std::vector<RescueRow>& rescue, bool inclusion_agreement,
                std::size_t nba_exact, bool rescue_agreement) {
  std::ofstream out(path);
  BENCH_CHECK(bool(out), ("cannot open " + path).c_str());
  out << "{\n  \"experiment\": \"tab17_inclusion\",\n  \"quick\": " << json_bool(quick)
      << ",\n  \"inclusion\": [\n";
  for (std::size_t i = 0; i < inc.size(); ++i) {
    const InclusionRow& r = inc[i];
    out << "    {\"stronger\": \"" << analysis::json_escape(r.stronger)
        << "\", \"weaker\": \"" << analysis::json_escape(r.weaker)
        << "\", \"forward\": \"" << analysis::json_escape(r.forward)
        << "\", \"reverse\": \"" << analysis::json_escape(r.reverse)
        << "\", \"agree\": " << json_bool(r.agree) << ", \"forward_us\": " << r.forward_us
        << ", \"reverse_us\": " << r.reverse_us
        << ", \"lassos_probed\": " << r.lassos_probed
        << ", \"product_states\": " << r.product_states
        << ", \"complement_macrostates\": " << r.complement_macrostates
        << ", \"wall_ms\": " << r.wall_ms
        << ", \"ncsb_parts\": " << r.ncsb_parts << ", \"rank_parts\": " << r.rank_parts
        << "}" << (i + 1 < inc.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"rescue\": [\n";
  for (std::size_t i = 0; i < rescue.size(); ++i) {
    const RescueRow& r = rescue[i];
    out << "    {\"formula\": \"" << analysis::json_escape(r.formula) << "\", \"class\": \""
        << analysis::json_escape(r.cls) << "\", \"source\": \""
        << analysis::json_escape(r.source)
        << "\", \"normalizer_refused\": " << json_bool(r.normalizer_refused)
        << ", \"agree\": " << json_bool(r.agree) << ", \"us\": " << r.us << "}"
        << (i + 1 < rescue.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"summary\": {\"queries\": " << inc.size()
      << ", \"inclusion_agreement\": " << json_bool(inclusion_agreement)
      << ", \"nba_exact\": " << nba_exact
      << ", \"rescue_agreement\": " << json_bool(rescue_agreement) << "}\n}\n";
}

// Micro-benchmarks for the full runs: complementation with the forced
// rank-based construction vs the shape-dispatching default, and one
// end-to-end inclusion decision.
void bench_complement_auto(benchmark::State& state) {
  const ltl::Formula f = ltl::parse_formula("G F p");
  const lang::Alphabet sigma = lang::Alphabet::of_props({"p"});
  const omega::Nba n = ltl::to_nba(f, sigma);
  for (auto _ : state) {
    const auto r = omega::complement(n);
    benchmark::DoNotOptimize(r.value->state_count());
  }
  state.SetLabel("comp(NBA of G F p), per-part algorithm choice");
}
BENCHMARK(bench_complement_auto);

void bench_complement_rank(benchmark::State& state) {
  const ltl::Formula f = ltl::parse_formula("G F p");
  const lang::Alphabet sigma = lang::Alphabet::of_props({"p"});
  const omega::Nba n = ltl::to_nba(f, sigma);
  omega::ComplementOptions opts;
  opts.algorithm = omega::ComplementAlgorithm::Rank;
  for (auto _ : state) {
    const auto r = omega::complement(n, opts);
    benchmark::DoNotOptimize(r.value->state_count());
  }
  state.SetLabel("comp(NBA of G F p), forced rank-based");
}
BENCHMARK(bench_complement_rank);

void bench_included_entailment(benchmark::State& state) {
  const lang::Alphabet sigma = lang::Alphabet::of_props({"p"});
  const omega::Nba a = ltl::to_nba(ltl::parse_formula("G p"), sigma);
  const omega::Nba b = ltl::to_nba(ltl::parse_formula("F p"), sigma);
  for (auto _ : state) {
    const auto r = omega::included(a, b);
    benchmark::DoNotOptimize(r.verdict);
  }
  state.SetLabel("G p |= F p through the on-the-fly product");
}
BENCHMARK(bench_included_entailment);

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_inclusion.json";
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

  // Part 1: the entailment battery, both directions of every query.
  std::vector<InclusionRow> inclusion;
  bool inclusion_agreement = true;
  for (const Query& q : kQueries) {
    const auto query_start = std::chrono::steady_clock::now();
    const ltl::Formula fs = ltl::parse_formula(q.stronger);
    const ltl::Formula fw = ltl::parse_formula(q.weaker);
    const lang::Alphabet sigma = joint_alphabet(fs, fw);
    const omega::Nba na = ltl::to_nba(fs, sigma);
    const omega::Nba nb = ltl::to_nba(fw, sigma);

    omega::InclusionOptions io;
    io.budget.with_state_cap(kInclusionStateCap);

    InclusionRow row;
    row.stronger = q.stronger;
    row.weaker = q.weaker;
    auto t0 = std::chrono::steady_clock::now();
    const auto fwd = omega::included(na, nb, io);
    row.forward_us = micros_of(t0);
    t0 = std::chrono::steady_clock::now();
    const auto rev = omega::included(nb, na, io);
    row.reverse_us = micros_of(t0);
    row.wall_ms = micros_of(query_start) / 1000.0;
    row.forward = std::string(omega::to_string(fwd.verdict));
    row.reverse = std::string(omega::to_string(rev.verdict));
    row.lassos_probed = fwd.lassos_probed + rev.lassos_probed;
    row.product_states = fwd.product_states + rev.product_states;
    row.complement_macrostates = fwd.complement.macrostates + rev.complement.macrostates;
    row.ncsb_parts = fwd.complement.ncsb_parts + rev.complement.ncsb_parts;
    row.rank_parts = fwd.complement.rank_parts + rev.complement.rank_parts;
    row.agree = fwd.verdict == q.forward && rev.verdict == q.reverse;
    // A NotIncluded answer carries a separating lasso; replay it against the
    // two automata directly.
    for (const auto* r : {&fwd, &rev}) {
      if (r->verdict != omega::InclusionVerdict::NotIncluded) continue;
      BENCH_CHECK(r->counterexample.has_value(), "NotIncluded carries a counterexample");
      const omega::Nba& left = r == &fwd ? na : nb;
      const omega::Nba& right = r == &fwd ? nb : na;
      row.agree = row.agree && left.accepts(*r->counterexample) &&
                  !right.accepts(*r->counterexample);
    }
    inclusion_agreement = inclusion_agreement && row.agree;
    inclusion.push_back(std::move(row));
  }
  BENCH_CHECK(inclusion_agreement, "every inclusion verdict matches the ground truth");

  // Part 2: the MPH-N003 rescue family. Each formula must (a) be refused by
  // the rewrite system alone, and (b) come back exactly classified as a
  // guarantee property via the Büchi closure tests.
  std::vector<RescueRow> rescue;
  std::size_t nba_exact = 0;
  bool rescue_agreement = true;
  for (const char* text : kRescueFamily) {
    const ltl::Formula f = ltl::parse_formula(text);
    RescueRow row;
    row.formula = text;
    const ltl::NormalizeResult nr = ltl::normalize(f);
    row.normalizer_refused = !nr.complete() || !nr.normal;
    const auto t0 = std::chrono::steady_clock::now();
    const auto exact = ltl::exact_classification(f);
    row.us = micros_of(t0);
    if (exact) {
      row.cls = core::to_string(exact->value.lowest());
      row.source =
          exact->source == ltl::ExactClass::Source::NbaSemantics ? "nba" : "normal-form";
      if (row.source == "nba") ++nba_exact;
    }
    row.agree = row.normalizer_refused && exact.has_value() && row.source == "nba" &&
                exact->value.guarantee;
    rescue_agreement = rescue_agreement && row.agree;
    rescue.push_back(std::move(row));
  }
  BENCH_CHECK(rescue_agreement,
              "every MPH-N003 family member is exactly classified via the NBA path");
  BENCH_CHECK(nba_exact >= 1, "at least one formula classified through NbaSemantics");

  write_json(out_path, quick, inclusion, rescue, inclusion_agreement, nba_exact,
             rescue_agreement);

  std::printf("T17: %zu inclusion queries match ground truth; %zu/%zu refused formulas "
              "exactly classified via Büchi closure tests -> %s\n",
              inclusion.size(), nba_exact, rescue.size(), out_path.c_str());

  if (quick) return 0;
  int rest_argc = static_cast<int>(rest.size());
  benchmark::Initialize(&rest_argc, rest.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
