// serve-mixed: one op is one request line through an in-process
// serve::Server::handle_line, from a single closed-loop client (the next
// request goes out when the previous answer is back). Each cycle of the
// seeded stream mixes
//   * check requests, single and batched, on built-in models with repeated
//     (model, spec) pairs, and on inline FtsSpec models;
//   * classify requests on repeated formulas and on formulas new to the
//     server;
//   * writes that evict cache entries: invalidate requests on built-in
//     models, and model deltas (an inline model with one changed variable,
//     a new digest) followed by an invalidate of the previous delta.
// The caches answer most requests; the engines show in the misses. New
// formulas are the renamed skeletons of a fixed corpus, with atom names
// fresh per cycle, so every cycle costs about the same.
//
// The server's caches never evict formulas, so one server for the whole run
// would grow with the number of cycles, and a faster build would report
// more peak memory. A session therefore ends every kSessionCycles cycles
// and the next starts on a fresh Server with cold caches. A round of the
// run is kSessionsPerRound sessions, each with its own stream and spec
// indices drawn from the seed, so that one draw does not set the round's
// cost; every round sends the same streams, so each request meets the same
// cache state in every round.
#include <algorithm>
#include <functional>
#include <map>
#include <string>

#include "bench.hpp"
#include "src/fts/checker.hpp"
#include "src/fts/spec_model.hpp"
#include "src/fuzz/generators.hpp"
#include "src/ltl/normalize.hpp"
#include "src/serve/server.hpp"

namespace perfbench {
namespace {

using namespace mph;
using serve::Json;
using serve::JsonWriter;

/// Cycles per server session (about 10,000 requests).
constexpr std::size_t kSessionCycles = 30;
/// Sessions per round, each from its own draw.
constexpr std::size_t kSessionsPerRound = 4;

struct ModelPool {
  const char* model;
  std::size_t processes;
  std::vector<const char*> specs;  ///< `{a}`/`{b}`: two different indices
};

const std::vector<ModelPool>& model_pools() {
  static const std::vector<const char*> mutex = {
      "G !(c1 & c2)", "G (t{a} -> F c{a})", "G F c{a}", "G !t{b}", "G !(c1 & c2) | F t{a}"};
  static const std::vector<const char*> dining = {
      "G !(eat{a} & eat{b})", "G (hungry{a} -> F eat{a})", "G !deadlock",
      "G F eat{a}",           "G (eat{a} -> F !eat{a})",   "G !(eat{a} & eat{b}) | F eat{b}"};
  static const std::vector<const char*> ring = {"F elected", "G (elected -> maxleader)",
                                                "G quiet", "G (elected -> G elected)",
                                                "F elected | G quiet"};
  static const std::vector<ModelPool> pools = {
      {"peterson", 2, mutex},       {"semaphore-strong", 3, mutex},
      {"semaphore-weak", 3, mutex}, {"trivial-mutex", 2, mutex},
      {"dining-4", 4, dining},      {"dining-5", 5, dining},
      {"ring-4", 0, ring},          {"ring-5", 0, ring},
  };
  return pools;
}

ltl::Formula rename(const ltl::Formula& f, const std::map<std::string, std::string>& to) {
  switch (f.arity()) {
    case 0:
      return f.op() == ltl::Op::Atom ? ltl::f_atom(to.at(f.atom_name())) : f;
    case 1:
      return ltl::f_unary(f.op(), rename(f.child(0), to));
    default:
      return ltl::f_binary(f.op(), rename(f.child(0), to), rename(f.child(1), to));
  }
}

enum class Kind { Check, Classify, Invalidate };

struct Request {
  Kind kind = Kind::Check;
  std::string line;
  Json model;                      ///< check: the model field
  std::vector<std::string> specs;  ///< check: spec texts; classify: the formula
  std::string reference;           ///< classify: a formula of the same class
};

class ServeMixed : public Workload {
 public:
  void setup(const Config& config, Trace* trace) override {
    tiny_ = config.tiny;
    seed_ = config.seed;
    server_ = std::make_unique<serve::Server>();
    Rng rng(config.seed);

    for (std::vector<Pool>& pools : pools_) {
      pools.clear();
      for (const ModelPool& pool : model_pools()) {
        Pool p;
        p.model = pool.model;
        const std::size_t n = std::max<std::size_t>(pool.processes, 2);
        for (const char* spec : pool.specs) {
          const std::size_t a = 1 + rng.below(n);
          const std::size_t b = 1 + (a + rng.below(n - 1)) % n;
          p.specs.push_back(instantiate(spec, a, b));
          Scope parse(trace, "parse_formula");
          (void)ltl::parse_formula(p.specs.back());
        }
        pools.push_back(std::move(p));
      }
    }

    // Light skeletons (5 or 6 nodes): the repeated classify pool, and the
    // corpus new formulas are renamed from.
    Rng corpus(config.corpus_seed);
    const std::vector<std::string> atoms = {"p", "q", "r"};
    auto draw = [&](std::size_t k) {
      return k % 2 ? fuzz::random_ltl_nonnormal(corpus, atoms, 5 + k % 2)
                   : fuzz::random_ltl(corpus, atoms, 5 + k % 2, fuzz::LtlFlavor::FutureOnly);
    };
    for (std::size_t k = 0; k < 40; ++k) {
      const std::string text = draw(k).to_string();
      Scope parse(trace, "parse_formula");
      repeated_.push_back(ltl::parse_formula(text).to_string());
    }
    for (std::size_t k = 0; k < 48; ++k) fresh_.push_back(draw(k));
    delta_base_ = fts::symbolic_dining(config.tiny ? 2 : 3);
  }

  std::size_t cycle_length() const override { return requests_.size(); }
  std::size_t round_cycles() const override { return kSessionCycles * kSessionsPerRound; }

  void begin_cycle(std::size_t cycle) override {
    if (cycle > 0 && cycle % kSessionCycles == 0) {
      if (tracing_) add_stats_delta();
      server_ = std::make_unique<serve::Server>();
      stats_base_ = stats();
    }
    // Session s of every round runs the same stream on a fresh server:
    // cycle k of it draws from (seed, s, k).
    const std::size_t session = cycle / kSessionCycles % kSessionsPerRound;
    const std::size_t k_in_session = cycle % kSessionCycles;
    const std::vector<Pool>& pools = pools_[session];
    Rng rng(seed_ * 0x9e3779b97f4a7c15ULL + session * kSessionCycles + k_in_session + 1);
    const bool tiny = tiny_;
    requests_.clear();
    auto check = [&](Json model, std::vector<std::string> specs) {
      Request r;
      std::vector<Json> items;
      for (const std::string& s : specs) items.push_back(Json::string(s));
      r.line = JsonWriter()
                   .field("op", "check")
                   .field("model", model)
                   .field("specs", Json::array(std::move(items)))
                   .build()
                   .dump();
      r.model = std::move(model);
      r.specs = std::move(specs);
      requests_.push_back(std::move(r));
    };
    auto classify = [&](const std::string& formula, const std::string& reference) {
      Request r;
      r.kind = Kind::Classify;
      r.line = JsonWriter().field("op", "classify").field("formula", formula).build().dump();
      r.specs = {formula};
      r.reference = reference;
      requests_.push_back(std::move(r));
    };
    auto invalidate = [&](const Json& model) {
      Request r;
      r.kind = Kind::Invalidate;
      r.line = JsonWriter().field("op", "invalidate").field("model", model).build().dump();
      requests_.push_back(std::move(r));
    };

    for (int k = 0; k < (tiny ? 24 : 240); ++k) {
      const Pool& p = pools[rng.below(pools.size())];
      check(Json::string(p.model), {p.specs[rng.below(p.specs.size())]});
    }
    for (int k = 0; k < (tiny ? 4 : 20); ++k) {
      const Pool& p = pools[rng.below(pools.size())];
      std::vector<std::string> specs;
      for (int s = 0; s < 4; ++s) specs.push_back(p.specs[rng.below(p.specs.size())]);
      check(Json::string(p.model), std::move(specs));
    }
    for (int k = 0; k < (tiny ? 6 : 60); ++k) {
      const std::string& formula = repeated_[rng.below(repeated_.size())];
      classify(formula, formula);
    }
    const std::size_t fresh = tiny ? 2 : 12;
    const std::string suffix = std::to_string(k_in_session);
    const std::map<std::string, std::string> to = {
        {"p", "p" + suffix}, {"q", "q" + suffix}, {"r", "r" + suffix}};
    // A bijective renaming of the atoms keeps the class, so a fresh formula
    // is checked against its skeleton's class.
    for (std::size_t k = 0; k < fresh; ++k) {
      const ltl::Formula& skeleton = fresh_[(k_in_session * fresh + k) % fresh_.size()];
      classify(rename(skeleton, to).to_string(), skeleton.to_string());
    }
    for (int k = 0; k < (tiny ? 1 : 2); ++k)
      invalidate(Json::string(pools[4 + rng.below(4)].model));  // a dining or ring model
    // Model deltas: the symbolic dining model plus an unread variable whose
    // domain changes per delta, so each delta is a new model digest.
    for (int k = 0; k < (tiny ? 1 : 4); ++k) {
      fts::FtsSpec delta = delta_base_;
      delta.vars.push_back({"pad", 0, static_cast<int>(1 + k_in_session * 4 + k), 0});
      Json model = serve::fts_spec_to_json(delta);
      check(model, {"G alarmlo", "G !(pc0hi & pc1hi)", "G F pc0hi"});
      last_delta_ = std::move(model);
    }
    invalidate(last_delta_);
    for (std::size_t i = requests_.size(); i > 1; --i)
      std::swap(requests_[i - 1], requests_[rng.below(i)]);
    first_op_ = cycle % round_cycles() * requests_.size();  // all cycles are as long
  }

  void call(std::size_t i, Trace* trace) override {
    const Request& r = requests_[i];
    if (!trace) {
      response_ = server_->handle_line(r.line);
      return;
    }
    const Clock::time_point t0 = Clock::now();
    {
      Scope s(trace, "handle_line");
      response_ = server_->handle_line(r.line);
    }
    latencies_[static_cast<int>(r.kind)].push_back(seconds_between(t0, Clock::now()));
  }

  OpCheck verify(std::size_t i, Counters* counters) override {
    // Op i of a cycle sends the same request in every round; a response
    // identical to one that already passed this check passes it again.
    // Traced rounds always parse, for the counters.
    const std::size_t op = first_op_ + i;
    const std::size_t digest = std::hash<std::string>{}(response_);
    if (!counters && op < passed_.size() && passed_[op].digest == digest) return passed_[op].check;
    const OpCheck check = check_response(i, counters);
    if (check.failure.empty()) {
      if (passed_.size() <= op) passed_.resize(op + 1);
      passed_[op] = {digest, check};
    }
    return check;
  }

 private:
  struct Pool {
    std::string model;
    std::vector<std::string> specs;
  };

  OpCheck check_response(std::size_t i, Counters* counters) {
    const Request& r = requests_[i];
    OpCheck check;
    if (counters) {
      const Clock::time_point t0 = Clock::now();
      (void)Json::parse(r.line);
      (*counters)["serve.json.parse_s"] += seconds_between(t0, Clock::now());
      (*counters)["serve.json.lines"] += 1;
    }
    const Json response = Json::parse(response_);
    const Json* ok = response.find("ok");
    if (!ok || !ok->is_bool() || !ok->as_bool()) {
      check.answers = 1;
      check.failure = "ok:false for " + r.line + " -> " + response_;
      return check;
    }
    if (r.kind == Kind::Invalidate) {
      check.answers = check.decided = 1;
      return check;
    }
    if (r.kind == Kind::Classify) {
      check.answers = 1;
      const Json* exact = response.find("exact");
      const Json* cache = response.find("cache");
      const bool miss = cache && cache->is_string() && cache->as_string() == "miss";
      if (counters && miss) {
        const Json* outcome = response.find("outcome");
        const Json* steps = response.find("steps");
        const Json* source = response.find("exact_source");
        (*counters)["ltl.normalize.calls"] += 1;
        (*counters)["ltl.normalize.steps"] += steps && steps->is_number() ? steps->as_number() : 0;
        (*counters)["ltl.normalize.complete"] +=
            outcome && outcome->is_string() && outcome->as_string() == "complete" &&
                    response.find("normal_form")
                ? 1
                : 0;
        (*counters)["ltl.exact.calls"] += 1;
        (*counters)["ltl.exact.exact"] += exact && exact->is_string() ? 1 : 0;
        (*counters)["ltl.exact.nba"] +=
            source && source->is_string() && source->as_string() == "nba" ? 1 : 0;
      }
      const std::string got = exact && exact->is_string() ? exact->as_string() : "";
      const std::string want = reference_class(r.reference);
      if (!got.empty()) check.decided = 1;
      if (got != want)
        check.failure = "classify " + r.specs.front() + ": serve says '" + got +
                        "', exact_classification of " + r.reference + " says '" + want + "'";
      return check;
    }
    const Json* results = response.find("results");
    if (!results || !results->is_array() || results->as_array().size() != r.specs.size()) {
      check.answers = 1;
      check.failure = "check " + r.line + ": wrong number of results";
      return check;
    }
    const std::vector<bool> want = reference_verdicts(r);
    for (std::size_t k = 0; k < r.specs.size(); ++k) {
      const Json& row = results->as_array()[k];
      const Json* verdict = row.find("verdict");
      const std::string v = verdict && verdict->is_string() ? verdict->as_string() : "";
      ++check.answers;
      if (v == "unknown") continue;
      ++check.decided;
      if (v != (want[k] ? "holds" : "violated"))
        check.failure = "check " + r.specs[k] + " on " + r.model.dump() + ": serve says '" + v +
                        "', check_all says " + (want[k] ? "holds" : "violated");
      const Json* cache = row.find("cache");
      if (counters && cache && cache->is_string() && cache->as_string() == "miss") {
        const Json* engine = row.find("engine");
        const Json* product = row.find("product_states");
        const Json* automaton = row.find("automaton_states");
        if (engine && engine->is_string()) (*counters)["fts.engine." + engine->as_string()] += 1;
        (*counters)["fts.product_states"] +=
            product && product->is_number() ? product->as_number() : 0;
        (*counters)["fts.automaton_states"] +=
            automaton && automaton->is_number() ? automaton->as_number() : 0;
      }
    }
    return check;
  }

 public:
  void start_traced() override {
    tracing_ = true;
    stats_base_ = stats();
  }

  void stop_traced() override {
    add_stats_delta();
    tracing_ = false;
  }

  void finish_traced(Counters& counters) override {
    static const char* kNames[] = {"check", "classify", "invalidate"};
    for (int k = 0; k < 3; ++k) {
      const std::vector<double>& lat = latencies_[k];
      double q = 0.5;  // the highest ladder percentile with ten samples beyond it
      for (double candidate : {0.9, 0.99, 0.999})
        if (static_cast<double>(lat.size()) * (1.0 - candidate) >= 10.0) q = candidate;
      const std::string prefix = std::string("serve.") + kNames[k];
      counters[prefix + ".p50_ms"] = percentile(lat, 0.5) * 1e3;
      counters[prefix + ".tail_ms"] = percentile(lat, q) * 1e3;
      std::printf("%s.tail_ms is p%g of %zu requests\n", prefix.c_str(), q * 100, lat.size());
    }
    auto get = [&](const char* name) { return stats_delta_[name]; };
    const double vh = get("verdict.hits"), vm = get("verdict.misses");
    const double fh = get("formula.hits"), fm = get("formula.misses");
    counters["serve.verdict_cache.hit_ratio"] = vh + vm > 0 ? vh / (vh + vm) : 0.0;
    counters["serve.formula_cache.hit_ratio"] = fh + fm > 0 ? fh / (fh + fm) : 0.0;
    counters["serve.subsume.hits"] = get("verdict.subsume_hits");
    counters["serve.implication_checks"] = get("implications.checks");
    counters["serve.budget_exhaustions"] = get("budget_exhaustions");
  }

 private:
  /// Adds the stats counters the current server gained since stats_base_.
  void add_stats_delta() {
    const Json now = stats();
    using Path = std::vector<const char*>;
    auto number = [](const Json& root, const Path& path) {
      const Json* j = &root;
      for (const char* key : path) j = j ? j->find(key) : nullptr;
      return j && j->is_number() ? j->as_number() : 0.0;
    };
    const std::pair<const char*, Path> fields[] = {
        {"verdict.hits", {"caches", "verdict", "hits"}},
        {"verdict.misses", {"caches", "verdict", "misses"}},
        {"verdict.subsume_hits", {"caches", "verdict", "subsume_hits"}},
        {"formula.hits", {"caches", "formula", "hits"}},
        {"formula.misses", {"caches", "formula", "misses"}},
        {"implications.checks", {"caches", "implications", "checks"}},
        {"budget_exhaustions", {"budget_exhaustions"}},
    };
    for (const auto& [name, path] : fields)
      stats_delta_[name] += number(now, path) - number(stats_base_, path);
    stats_base_ = now;
  }

  /// The `stats` op's payload, asked for outside the timed region.
  Json stats() {
    const Json r = Json::parse(server_->handle_line(R"({"op":"stats"})"));
    const Json* s = r.find("stats");
    return s ? *s : r;
  }

  /// Lowest exact class by a direct exact_classification, or "" when
  /// refused; computed once per formula.
  std::string reference_class(const std::string& text) {
    auto it = classes_.find(text);
    if (it != classes_.end()) return it->second;
    ltl::NormalizeOptions options;
    options.budget.with_state_cap(serve_state_cap());
    const auto exact = ltl::exact_classification(ltl::parse_formula(text), options);
    return classes_.emplace(text, exact ? core::to_string(exact->value.lowest()) : "")
        .first->second;
  }

  /// Verdicts of a direct fts::check_all per spec on the same model,
  /// computed once per (model, spec).
  std::vector<bool> reference_verdicts(const Request& r) {
    const std::string model_key = r.model.dump() + "\n";
    std::vector<bool> out;
    std::vector<ltl::Formula> todo;
    std::vector<std::size_t> at;
    for (std::size_t k = 0; k < r.specs.size(); ++k) {
      auto it = verdicts_.find(model_key + r.specs[k]);
      out.push_back(it != verdicts_.end() && it->second);
      if (it == verdicts_.end()) {
        todo.push_back(ltl::parse_formula(r.specs[k]));
        at.push_back(k);
      }
    }
    if (todo.empty()) return out;
    const serve::ResolvedModel model = serve::resolve_model(r.model);
    fts::CheckOptions options;
    options.budget.with_state_cap(serve_state_cap());
    const std::vector<fts::CheckResult> direct =
        fts::check_all(model.system, todo, model.atoms, options);
    for (std::size_t j = 0; j < todo.size(); ++j) {
      if (!is_complete(direct[j].outcome))
        throw std::runtime_error("reference check_all ran out of budget on " + r.specs[at[j]]);
      out[at[j]] = direct[j].holds;
      verdicts_[model_key + r.specs[at[j]]] = direct[j].holds;
    }
    return out;
  }

  bool tiny_ = false;
  std::uint64_t seed_ = 1;
  std::unique_ptr<serve::Server> server_;
  std::vector<Pool> pools_[kSessionsPerRound];  ///< per session of a round
  std::vector<std::string> repeated_;
  std::vector<ltl::Formula> fresh_;
  fts::FtsSpec delta_base_;
  Json last_delta_;
  std::vector<Request> requests_;
  std::string response_;
  std::size_t first_op_ = 0;      ///< index within its round of the cycle's first op
  struct Passed {
    std::size_t digest = 0;  ///< std::hash of the response
    OpCheck check;
  };
  std::vector<Passed> passed_;  ///< per op of a round: its last passing response
  std::vector<double> latencies_[3];
  bool tracing_ = false;
  Json stats_base_;               ///< stats of the current server at the last delta
  std::map<std::string, double> stats_delta_;  ///< stats gained in traced rounds
  std::map<std::string, std::string> classes_;
  std::map<std::string, bool> verdicts_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_mixed() { return std::make_unique<ServeMixed>(); }

std::size_t serve_state_cap() { return serve::ServerConfig{}.max_budget_states; }

}  // namespace perfbench
