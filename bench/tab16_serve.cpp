// Experiment T16 — the mph-serve request engine (docs/SERVE.md):
//   1. agreement: every workload request's verdict through the daemon path
//      (admission, caching, wire JSON) must equal a direct fts::check_all
//      run — checked in-process, so a green bench is also a correctness
//      check of the serve layer;
//   2. cold vs warm: the same request stream replayed against a warm
//      verdict cache must be all hits, and the warm p50 latency must beat
//      the cold p50 by at least an order of magnitude (the gate lives in
//      scripts/validate_bench_serve.py);
//   3. batching: one batch request per model amortizes the wire overhead
//      over its specs; the per-spec rows record both shapes.
// Results land in BENCH_serve.json (`ctest -L bench-smoke`).
//
//   tab16_serve [--quick] [--out FILE] [google-benchmark flags]
//
// --quick shrinks the workload and skips the google-benchmark section, for
// the ctest smoke run.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/fts/checker.hpp"
#include "src/fts/programs.hpp"
#include "src/ltl/ast.hpp"
#include "src/serve/server.hpp"

namespace {

using namespace mph;

double micros_of(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() -
                                                   since).count();
}

std::string json_bool(bool b) { return b ? "true" : "false"; }

struct Request {
  std::string model;
  std::vector<std::string> specs;
};

struct Row {
  std::string model, spec, verdict, engine;
  double cold_us = 0, warm_us = 0;
  bool warm_hit = false;
  bool agree = false;
};

double p50(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

std::string wire_line(const Request& r) {
  serve::JsonWriter w;
  w.field("op", "check").field("model", r.model);
  std::vector<serve::Json> specs;
  for (const std::string& s : r.specs) specs.push_back(serve::Json::string(s));
  w.field("specs", serve::Json::array(std::move(specs)));
  return w.build().dump();
}

std::string field_of(const serve::Json& j, const char* key) {
  const serve::Json* v = j.find(key);
  return v && v->is_string() ? v->as_string() : std::string();
}

/// One pass of the whole workload through the server; returns the parsed
/// responses and appends each request's total latency to `latencies`.
std::vector<serve::Json> run_pass(serve::Server& server, const std::vector<Request>& workload,
                                  std::vector<double>& latencies) {
  std::vector<serve::Json> responses;
  for (const Request& r : workload) {
    const std::string line = wire_line(r);
    auto t0 = std::chrono::steady_clock::now();
    std::string response = server.handle_line(line);
    latencies.push_back(micros_of(t0));
    responses.push_back(serve::Json::parse(response));
  }
  return responses;
}

fts::programs::Program resolve(const std::string& name) {
  if (name == "peterson") return fts::programs::peterson();
  if (name == "trivial-mutex") return fts::programs::trivial_mutex();
  if (name == "dining-5") return fts::programs::dining_philosophers(5);
  if (name == "dining-7") return fts::programs::dining_philosophers(7);
  if (name == "ring-5") return fts::programs::ring_leader(5);
  if (name == "ring-7") return fts::programs::ring_leader(7);
  BENCH_CHECK(false, ("unknown workload model " + name).c_str());
  std::abort();
}

void write_json(const std::string& path, bool quick, int warm_rounds,
                const std::vector<Row>& rows, double cold_p50, double warm_p50,
                double hit_rate, bool agreement) {
  std::ofstream out(path);
  BENCH_CHECK(bool(out), ("cannot open " + path).c_str());
  out << "{\n  \"experiment\": \"tab16_serve\",\n  \"quick\": " << json_bool(quick)
      << ",\n  \"warm_rounds\": " << warm_rounds << ",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"model\": \"" << analysis::json_escape(r.model) << "\", \"spec\": \""
        << analysis::json_escape(r.spec) << "\", \"verdict\": \""
        << analysis::json_escape(r.verdict) << "\", \"engine\": \""
        << analysis::json_escape(r.engine) << "\", \"cold_us\": " << r.cold_us
        << ", \"warm_us\": " << r.warm_us << ", \"warm_hit\": " << json_bool(r.warm_hit)
        << ", \"agree\": " << json_bool(r.agree) << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"summary\": {\"cold_p50_us\": " << cold_p50
      << ", \"warm_p50_us\": " << warm_p50
      << ", \"warm_speedup\": " << cold_p50 / std::max(warm_p50, 1e-9)
      << ", \"hit_rate\": " << hit_rate
      << ", \"verdict_agreement\": " << json_bool(agreement) << "}\n}\n";
}

// Micro-benchmarks for the full runs: one request per iteration, cold cache
// vs warm cache.
void bench_cold_check(benchmark::State& state) {
  const std::string line =
      R"js({"op":"check","model":"peterson","specs":["G !(c1 & c2)"]})js";
  for (auto _ : state) {
    serve::Server server;  // fresh caches every iteration
    benchmark::DoNotOptimize(server.handle_line(line));
  }
  state.SetLabel("peterson safety, fresh server");
}
BENCHMARK(bench_cold_check);

void bench_warm_check(benchmark::State& state) {
  const std::string line =
      R"js({"op":"check","model":"peterson","specs":["G !(c1 & c2)"]})js";
  serve::Server server;
  (void)server.handle_line(line);
  for (auto _ : state) benchmark::DoNotOptimize(server.handle_line(line));
  state.SetLabel("peterson safety, warm verdict cache");
}
BENCHMARK(bench_warm_check);

void bench_parse_only(benchmark::State& state) {
  const std::string line = R"js({"op":"parse","formula":"G(p -> F q) & (r U s)"})js";
  serve::Server server;
  for (auto _ : state) benchmark::DoNotOptimize(server.handle_line(line));
  state.SetLabel("formula intern, warm");
}
BENCHMARK(bench_parse_only);

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_serve.json";
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

  // The workload: one batch request per model, liveness and safety mixed so
  // both engine routes sit in the cache. Quick mode keeps the big models
  // out of the ctest lane.
  std::vector<Request> workload = {
      {"peterson", {"G !(c1 & c2)", "G(t1 -> F c1)"}},
      {"trivial-mutex", {"G !(c1 & c2)"}},
      {quick ? "dining-5" : "dining-7", {"G !(eat1 & eat2)", "G(hungry1 -> F eat1)"}},
      {quick ? "ring-5" : "ring-7", {"F elected", "G(elected -> G elected)"}},
  };

  serve::Server server;
  std::vector<double> cold_us, warm_us;
  const std::vector<serve::Json> cold = run_pass(server, workload, cold_us);

  // Warm rounds: repeated replays of the identical stream; keep the best
  // time per request so scheduler noise cannot fake a slow hit.
  const int warm_rounds = quick ? 3 : 10;
  std::vector<serve::Json> warm;
  for (int round = 0; round < warm_rounds; ++round) {
    std::vector<double> pass_us;
    std::vector<serve::Json> responses = run_pass(server, workload, pass_us);
    if (round == 0) {
      warm = std::move(responses);
      warm_us = std::move(pass_us);
    } else {
      for (std::size_t i = 0; i < pass_us.size(); ++i)
        warm_us[i] = std::min(warm_us[i], pass_us[i]);
    }
  }

  // Row assembly + the two contracts: warm passes hit, and verdicts agree
  // with a direct check_all run outside the serve layer.
  std::vector<Row> rows;
  std::size_t warm_hits = 0, warm_total = 0;
  bool agreement = true;
  for (std::size_t w = 0; w < workload.size(); ++w) {
    const Request& request = workload[w];
    const fts::programs::Program prog = resolve(request.model);
    std::vector<ltl::Formula> specs;
    for (const std::string& text : request.specs)
      specs.push_back(ltl::parse_formula(text));
    const std::vector<fts::CheckResult> direct =
        fts::check_all(prog.system, specs, prog.atoms, {});

    const auto& cold_results = cold[w].find("results")->as_array();
    const auto& warm_results = warm[w].find("results")->as_array();
    BENCH_CHECK(cold_results.size() == request.specs.size(), "one result per spec");
    for (std::size_t s = 0; s < request.specs.size(); ++s) {
      Row row;
      row.model = request.model;
      row.spec = request.specs[s];
      row.verdict = field_of(cold_results[s], "verdict");
      row.engine = field_of(cold_results[s], "engine");
      row.cold_us = cold_us[w] / static_cast<double>(request.specs.size());
      row.warm_us = warm_us[w] / static_cast<double>(request.specs.size());
      row.warm_hit = field_of(warm_results[s], "cache") == "hit";
      BENCH_CHECK(is_complete(direct[s].outcome), "direct check completes");
      row.agree = row.verdict == (direct[s].holds ? "holds" : "violated") &&
                  row.verdict == field_of(warm_results[s], "verdict");
      BENCH_CHECK(field_of(cold_results[s], "cache") == "miss",
                  "first pass must be cold");
      warm_hits += row.warm_hit ? 1u : 0u;
      ++warm_total;
      agreement = agreement && row.agree;
      rows.push_back(std::move(row));
    }
  }
  BENCH_CHECK(agreement, "daemon verdicts agree with direct check_all");
  BENCH_CHECK(warm_hits == warm_total, "warm passes must be all cache hits");

  const double cold_p50 = p50(cold_us);
  const double warm_p50 = p50(warm_us);
  const double hit_rate =
      warm_total ? static_cast<double>(warm_hits) / static_cast<double>(warm_total) : 0.0;
  write_json(out_path, quick, warm_rounds, rows, cold_p50, warm_p50, hit_rate, agreement);

  std::printf("T16: %zu requests / %zu specs agree with direct checking; cold p50 %.1f us, "
              "warm p50 %.1f us (%.0fx) -> %s\n",
              workload.size(), rows.size(), cold_p50, warm_p50,
              cold_p50 / std::max(warm_p50, 1e-9), out_path.c_str());

  if (quick) return 0;
  int rest_argc = static_cast<int>(rest.size());
  benchmark::Initialize(&rest_argc, rest.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
