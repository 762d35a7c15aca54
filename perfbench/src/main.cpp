// mph_perfbench — runs one workload of the mph benchmark (README.md here).
//
//   mph_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--corpus-seed N] [--tiny] [--trace-dir DIR]
//   mph_perfbench --reanchor
//
// One run: set the workload up, run one untimed warm-up round, then measure
// rounds of whole cycles of ops until S seconds of op time have passed,
// timing a group of fresh set-ups before each round (setup_s). Every op's
// output is checked against the reference outside the timed region. With
// --trace 0 the last line is the end-to-end metrics; with --trace 1 the run
// alternates untraced and traced rounds, S/2 seconds of each, and the last
// line is the per-layer metrics. Exit code 1 when any op failed, 2 on bad
// arguments.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  Config config;
  double seconds = 10.0;
  bool traced = false;
  bool reanchor = false;
  std::string trace_dir;
};

bool parse_u64(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  if (!text || !*text || *text == '-') return false;
  out = std::strtoull(text, &end, 10);
  return *end == '\0';
}

bool parse_args(int argc, char** argv, Args& args) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    std::uint64_t n = 0;
    if (a == "--reanchor") {
      args.reanchor = true;
    } else if (a == "--tiny") {
      args.config.tiny = true;
    } else if (a == "--workload" && v) {
      args.workload = v;
      ++i;
    } else if (a == "--seed" && parse_u64(v, n)) {
      args.config.seed = n;
      have_seed = true;
      ++i;
    } else if (a == "--corpus-seed" && parse_u64(v, n)) {
      args.config.corpus_seed = n;
      ++i;
    } else if (a == "--seconds" && parse_u64(v, n) && n >= 1 && n <= 600) {
      args.seconds = static_cast<double>(n);
      have_seconds = true;
      ++i;
    } else if (a == "--trace" && v && (std::strcmp(v, "0") == 0 || std::strcmp(v, "1") == 0)) {
      args.traced = v[0] == '1';
      have_trace = true;
      ++i;
    } else if (a == "--trace-dir" && v) {
      args.trace_dir = v;
      ++i;
    } else {
      std::fprintf(stderr, "mph_perfbench: bad argument '%s'\n", a.c_str());
      return false;
    }
  }
  if (args.reanchor) return true;
  if (!have_seed || !have_seconds || !have_trace || args.workload.empty()) {
    std::fprintf(stderr, "mph_perfbench: need --workload, --seed, --seconds and --trace\n");
    return false;
  }
  return true;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "check-holds") return make_check_workload(false);
  if (name == "check-violations") return make_check_workload(true);
  if (name == "spec-analysis") return make_spec_analysis();
  if (name == "serve-mixed") return make_serve_mixed();
  return nullptr;
}

/// Op latencies of one round, in op order.
struct Round {
  std::vector<double> latencies;  ///< seconds per op
  double busy_seconds = 0.0;      ///< summed op latencies
};

/// A measured phase. Every round runs the same ops in the same order, so a
/// phase keeps, per op of a round, its lowest latency over the rounds. The
/// host switches between a fast and a slow state (about 30% apart, often
/// for seconds at a time), and a run's figures over all samples, or medians
/// over rounds, moved with its share of slow time; an op's fastest
/// repetition does not.
struct Phase {
  std::vector<double> fastest;  ///< per op of a round: its lowest latency
  std::size_t rounds = 0;
  double busy_seconds = 0.0;    ///< op time of every round

  void add(const Round& r) {
    if (fastest.empty()) fastest = r.latencies;
    for (std::size_t i = 0; i < fastest.size(); ++i)
      fastest[i] = std::min(fastest[i], r.latencies[i]);
    ++rounds;
    busy_seconds += r.busy_seconds;
  }
  /// Ops of a round over the round's time with every op at its fastest.
  double throughput() const {
    double s = 0.0;
    for (double t : fastest) s += t;
    return s > 0.0 ? static_cast<double>(fastest.size()) / s : 0.0;
  }
  /// The nearest-rank q-quantile of the ops' fastest latencies.
  double latency(double q) const { return percentile(fastest, q); }
};

/// The highest percentile of a ladder with ten or more of `n` ops beyond it.
double tail_quantile(std::size_t n) {
  double q = 0.5;
  for (double candidate : {0.9, 0.95, 0.96, 0.98, 0.99, 0.995, 0.999})
    if (n >= 10 + static_cast<std::size_t>(std::ceil(candidate * static_cast<double>(n))))
      q = candidate;
  return q;
}

/// Tallies over every op the run attempted (warm-up included).
struct Tally {
  std::size_t attempted = 0, failed = 0, answers = 0, decided = 0;
  std::vector<std::string> failures;  ///< the first few, for the log
};

class Runner {
 public:
  Runner(Workload& w, Tally& tally) : w_(w), tally_(tally) {}

  void cycle(Round& round, Trace* trace, Counters* counters) {
    w_.begin_cycle(next_cycle_++);
    for (std::size_t i = 0; i < w_.cycle_length(); ++i) {
      if (trace) trace->set_op(next_op_);
      ++next_op_;
      std::string error;
      const Clock::time_point t0 = Clock::now();
      try {
        Scope op(trace, "op");
        w_.call(i, trace);
      } catch (const std::exception& e) {
        error = std::string("threw: ") + e.what();
      }
      const double latency = seconds_between(t0, Clock::now());
      round.latencies.push_back(latency);
      round.busy_seconds += latency;
      OpCheck check;
      if (error.empty()) {
        try {
          check = w_.verify(i, counters);
        } catch (const std::exception& e) {
          check.failure = std::string("reference check threw: ") + e.what();
        }
      } else {
        check.failure = error;
      }
      ++tally_.attempted;
      tally_.answers += check.answers;
      tally_.decided += check.decided;
      if (!check.failure.empty()) {
        ++tally_.failed;
        if (tally_.failures.size() < 8) tally_.failures.push_back(check.failure);
      }
    }
  }

  /// One round of whole cycles, spanned and counted when `trace` is set.
  Round round(Trace* trace, Counters* counters) {
    Round r;
    r.latencies.reserve(w_.cycle_length() * w_.round_cycles());
    for (std::size_t c = 0; c < w_.round_cycles(); ++c) cycle(r, trace, counters);
    return r;
  }

  /// Rounds until `seconds` of op time and five rounds; `before_round` runs
  /// (untimed) ahead of each round.
  Phase measure(double seconds, const std::function<void()>& before_round) {
    Phase phase;
    while (phase.busy_seconds < seconds || phase.rounds < 5) {
      before_round();
      phase.add(round(nullptr, nullptr));
    }
    return phase;
  }

  /// Pairs of one untraced and one traced round, until each kind has
  /// `seconds` of op time and three rounds. Every other pair runs the traced
  /// round first, so a steady drift of the host falls on both kinds alike.
  std::pair<Phase, Phase> measure_alternating(double seconds, Trace& trace, Counters& counters) {
    Phase plain, traced;
    auto traced_round = [&] {
      w_.start_traced();
      traced.add(round(&trace, &counters));
      w_.stop_traced();
    };
    while (plain.busy_seconds < seconds || traced.busy_seconds < seconds || traced.rounds < 3) {
      const bool traced_first = traced.rounds % 2 == 1;
      if (traced_first) traced_round();
      plain.add(round(nullptr, nullptr));
      if (!traced_first) traced_round();
    }
    return {std::move(plain), std::move(traced)};
  }

 private:
  Workload& w_;
  Tally& tally_;
  std::size_t next_cycle_ = 0;
  std::uint32_t next_op_ = 0;
};

struct Metric {
  std::string name, unit;
  double value;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string quantile_label(double q) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "p%g", q * 100.0);
  return buf;
}

/// Per-layer metrics of a traced phase: span self times per op, counts per
/// call of the layer's function, ratios over their stated bases.
std::vector<Metric> layer_metrics(const Trace& trace, const Counters& c, std::size_t ops,
                                  double overhead) {
  const auto spans = trace.totals(false);
  const auto setup_spans = trace.totals(true);
  auto self = [&](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.self_seconds / static_cast<double>(ops);
  };
  auto dur = [&](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.seconds;
  };
  auto get = [&](const char* name) {
    auto it = c.find(name);
    return it == c.end() ? 0.0 : it->second;
  };
  const double n = static_cast<double>(ops);
  auto parse = setup_spans.find("parse_formula");
  return {
      {"fts.explore.s", "s/op", self("explore")},
      {"fts.explore.nodes", "nodes/op", get("fts.nodes") / n},
      {"fts.explore.nodes_per_s", "1/s", ratio(get("fts.nodes"), dur("explore"))},
      {"fts.label.s", "s/op", self("label")},
      {"fts.compile.s", "s/op", self("compile")},
      {"fts.compile.automaton_states", "states/op", get("fts.automaton_states") / n},
      {"fts.search.s", "s/op", self("search")},
      {"fts.search.product_states", "states/op", get("fts.product_states") / n},
      {"fts.search.product_states_per_s", "1/s",
       ratio(get("fts.product_states"), dur("search"))},
      {"fts.search.product_fill", "ratio",
       ratio(get("fts.product_states"), get("fts.product_bound"))},
      {"fts.check.unattributed_s", "s/op", self("check_all")},
      {"fts.engine.nested_dfs", "checks/op", get("fts.engine.nested-DFS") / n},
      {"fts.engine.scc", "checks/op", get("fts.engine.SCC") / n},
      {"fts.engine.safety_prefix", "checks/op", get("fts.engine.safety-prefix") / n},
      {"fts.engine.guarantee_dual", "checks/op", get("fts.engine.guarantee-dual") / n},
      {"fts.engine.static", "checks/op", get("fts.engine.static") / n},
      {"fts.rss_per_state_bytes", "B/state", get("fts.rss_per_state_bytes")},
      {"ltl.parse.s", "s/setup", parse == setup_spans.end() ? 0.0 : parse->second.seconds},
      {"ltl.normalize.s", "s/op", self("normalize")},
      {"ltl.normalize.steps", "steps/call",
       ratio(get("ltl.normalize.steps"), get("ltl.normalize.calls"))},
      {"ltl.normalize.complete_ratio", "ratio",
       ratio(get("ltl.normalize.complete"), get("ltl.normalize.calls"))},
      {"ltl.exact.s", "s/op", self("exact_classification")},
      {"ltl.exact.exact_ratio", "ratio", ratio(get("ltl.exact.exact"), get("ltl.exact.calls"))},
      {"ltl.exact.nba_source", "ratio", ratio(get("ltl.exact.nba"), get("ltl.exact.exact"))},
      {"ltl.to_nba.s", "s/op", self("to_nba")},
      {"ltl.to_nba.states", "states/call",
       ratio(get("ltl.to_nba.states"), get("ltl.to_nba.calls"))},
      {"omega.included.s", "s/op", self("included")},
      {"omega.included.product_states", "states/call",
       ratio(get("omega.included.product_states"), get("omega.included.calls"))},
      {"omega.included.unknown", "ratio",
       ratio(get("omega.included.unknown"), get("omega.included.calls"))},
      {"omega.complement.macrostates", "states/call",
       ratio(get("omega.complement.macrostates"), get("omega.included.calls"))},
      {"omega.complement.rank_parts", "parts/call",
       ratio(get("omega.complement.rank_parts"), get("omega.included.calls"))},
      {"omega.complement.ncsb_parts", "parts/call",
       ratio(get("omega.complement.ncsb_parts"), get("omega.included.calls"))},
      {"serve.check.p50_ms", "ms", get("serve.check.p50_ms")},
      {"serve.check.tail_ms", "ms", get("serve.check.tail_ms")},
      {"serve.classify.p50_ms", "ms", get("serve.classify.p50_ms")},
      {"serve.classify.tail_ms", "ms", get("serve.classify.tail_ms")},
      {"serve.invalidate.p50_ms", "ms", get("serve.invalidate.p50_ms")},
      {"serve.invalidate.tail_ms", "ms", get("serve.invalidate.tail_ms")},
      {"serve.verdict_cache.hit_ratio", "ratio", get("serve.verdict_cache.hit_ratio")},
      {"serve.formula_cache.hit_ratio", "ratio", get("serve.formula_cache.hit_ratio")},
      {"serve.subsume.hits", "hits/op", get("serve.subsume.hits") / n},
      {"serve.implication_checks", "checks/op", get("serve.implication_checks") / n},
      {"serve.budget_exhaustions", "count/op", get("serve.budget_exhaustions") / n},
      {"serve.json.parse_us", "us/line",
       ratio(get("serve.json.parse_s") * 1e6, get("serve.json.lines"))},
      {"trace.overhead_ratio", "ratio", overhead},
  };
}

void print_span_table(const Trace& trace, std::size_t ops) {
  std::printf("traced phase: %zu ops; per span name: count, total s, self s, self s/op\n", ops);
  for (const auto& [name, t] : trace.totals(false))
    std::printf("  %-22s %9zu %12.6f %12.6f %14.9f\n", name.c_str(), t.count, t.seconds,
                t.self_seconds, t.self_seconds / static_cast<double>(ops));
  for (const auto& [name, t] : trace.totals(true))
    std::printf("  setup %-16s %9zu %12.6f %12.6f\n", name.c_str(), t.count, t.seconds,
                t.self_seconds);
}

void print_result(const Tally& tally, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += tally.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally.attempted);
  out += ", \"failed\": " + std::to_string(tally.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    double v = metrics[i].value;
    if (!std::isfinite(v)) v = 0.0;
    std::snprintf(value, sizeof value, "%.17g", v);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

/// Sets fresh workloads up one after another until their set-up times add
/// up to `group_seconds`, and appends each set-up's time to `times`.
void time_setup_group(const Args& args, double group_seconds, std::vector<double>& times) {
  double total = 0.0;
  while (total < group_seconds) {
    const std::unique_ptr<Workload> w = make_workload(args.workload);
    const Clock::time_point t0 = Clock::now();
    w->setup(args.config, nullptr);
    times.push_back(seconds_between(t0, Clock::now()));
    total += times.back();
  }
}

int run(const Args& args) {
  // The set-up the run uses; a traced run spans its parse calls.
  Trace trace;
  const std::unique_ptr<Workload> w = make_workload(args.workload);
  w->setup(args.config, args.traced ? &trace : nullptr);
  const std::size_t rss_after_setup = current_rss_bytes();

  Tally tally;
  Runner runner(*w, tally);
  (void)runner.round(nullptr, nullptr);  // warm-up

  std::vector<Metric> metrics;
  if (!args.traced) {
    // setup_s: a group of set-ups before every round, so that set-up is
    // timed across the whole run like the ops are; the fastest set-up.
    std::vector<double> setups;
    const Phase p = runner.measure(args.seconds, [&] {
      time_setup_group(args, args.config.tiny ? 0.005 : 0.05, setups);
    });
    const std::size_t n = p.fastest.size();
    const double q = tail_quantile(n);
    std::printf("workload %s seed %llu corpus-seed %llu: %zu rounds of %zu ops, %zu set-ups\n",
                args.workload.c_str(), static_cast<unsigned long long>(args.config.seed),
                static_cast<unsigned long long>(args.config.corpus_seed), p.rounds, n,
                setups.size());
    std::printf("latency_tail_ms is the %s of the %zu ops' fastest latencies (%zu beyond it)\n",
                quantile_label(q).c_str(), n,
                n - static_cast<std::size_t>(std::ceil(q * static_cast<double>(n))));
    metrics = {
        {"setup_s", "s", *std::min_element(setups.begin(), setups.end())},
        {"throughput_ops_s", "1/s", p.throughput()},
        {"latency_p50_ms", "ms", p.latency(0.5) * 1e3},
        {"latency_tail_ms", "ms", p.latency(q) * 1e3},
        {"decided_ratio", "ratio", ratio(tally.decided, tally.answers)},
        {"correct_ratio", "ratio",
         ratio(static_cast<double>(tally.attempted - tally.failed), tally.attempted)},
        {"peak_rss_mb", "MiB", static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0)},
    };
  } else {
    Counters counters;
    const auto [a, b] = runner.measure_alternating(args.seconds / 2, trace, counters);
    w->finish_traced(counters);
    if (counters.count("fts.max_nodes") && counters["fts.max_nodes"] > 0) {
      const double grown = static_cast<double>(peak_rss_bytes()) -
                           static_cast<double>(rss_after_setup);
      counters["fts.rss_per_state_bytes"] = grown / counters["fts.max_nodes"];
    }
    const double thr_a = a.throughput();
    const double thr_b = b.throughput();
    const double overhead = 1.0 - thr_b / thr_a;
    std::printf("workload %s seed %llu: untraced %.3f ops/s, traced %.3f ops/s, tracing "
                "overhead %.4f\n",
                args.workload.c_str(), static_cast<unsigned long long>(args.config.seed),
                thr_a, thr_b, overhead);
    const std::size_t traced_ops = b.rounds * b.fastest.size();
    print_span_table(trace, traced_ops);
    metrics = layer_metrics(trace, counters, traced_ops, overhead);
    for (const auto& [name, value] : counters)
      std::printf("  counter %-36s %.6g\n", name.c_str(), value);
    if (!args.trace_dir.empty()) {
      const std::string path = args.trace_dir + "/" + args.workload + "-seed" +
                               std::to_string(args.config.seed) + ".json";
      if (trace.write_chrome_json(path))
        std::printf("spans written to %s\n", path.c_str());
      else
        std::fprintf(stderr, "mph_perfbench: cannot write %s\n", path.c_str());
    }
  }
  for (const std::string& f : tally.failures) std::printf("FAILED: %s\n", f.c_str());
  print_result(tally, metrics);
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) return 2;
  if (args.reanchor) return perfbench::run_reanchor();
  if (!perfbench::make_workload(args.workload)) {
    std::fprintf(stderr, "mph_perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mph_perfbench: %s\n", e.what());
    return 1;
  }
}
