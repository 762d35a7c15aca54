#include "src/serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <set>
#include <sstream>
#include <stdexcept>

#include "src/analysis/absint.hpp"
#include "src/analysis/vacuity.hpp"
#include "src/fts/programs.hpp"
#include "src/ltl/normalize.hpp"

namespace mph::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// Latency samples kept per endpoint (a ring of the newest) for the
/// percentile estimates.
constexpr std::size_t kMaxLatencySamples = 65536;

int as_int(const Json& j, const char* what) {
  if (!j.is_number()) throw std::invalid_argument(std::string(what) + " must be a number");
  double d = j.as_number();
  if (std::nearbyint(d) != d || d < -2147483648.0 || d > 2147483647.0)
    throw std::invalid_argument(std::string(what) + " must be an integer");
  return static_cast<int>(d);
}

std::uint64_t as_u64_field(const Json& j, const char* what) {
  auto v = j.as_u64();
  if (!v)
    throw std::invalid_argument(std::string(what) +
                                " must be a non-negative integer");
  return *v;
}

const std::string& as_string_field(const Json& j, const char* what) {
  if (!j.is_string()) throw std::invalid_argument(std::string(what) + " must be a string");
  return j.as_string();
}

Json error_body(std::string_view code, std::string_view message) {
  return JsonWriter().field("code", code).field("message", message).build();
}

Json diagnostics_json(const analysis::DiagnosticEngine& engine) {
  std::vector<Json> items;
  for (const auto& d : engine.diagnostics()) {
    JsonWriter w;
    w.field("code", d.code)
        .field("severity", analysis::to_string(d.severity))
        .field("subject", d.subject)
        .field("message", d.message);
    items.push_back(std::move(w).build());
  }
  return Json::array(std::move(items));
}

/// An inline model built from its parsed spec; `digest` is model_digest(spec).
ResolvedModel resolve_inline(fuzz::FtsSpec spec, std::uint64_t digest) {
  // A braced list evaluates left to right: build() and atoms() read `spec`
  // before it moves into the last member.
  return ResolvedModel{spec.build(), spec.atoms(), digest, "(inline)", std::move(spec)};
}

}  // namespace

void EndpointMetrics::record(double us, std::size_t cap) {
  if (cap == 0) return;
  if (latency_us.size() < cap) {
    latency_us.push_back(us);
  } else {
    if (latency_next >= latency_us.size()) latency_next = 0;  // cap shrank
    latency_us[latency_next] = us;
  }
  latency_next = (latency_next + 1) % cap;
}

double EndpointMetrics::percentile(double q) const {
  if (latency_us.empty()) return 0.0;
  std::vector<double> sorted = latency_us;
  std::sort(sorted.begin(), sorted.end());
  // Nearest rank: the ⌈q·n⌉-th smallest, 1-indexed. The old q·n truncation
  // sat one rank high (p50 of {1, 2} reported 2).
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  std::size_t index = rank <= 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  if (index >= sorted.size()) index = sorted.size() - 1;
  return sorted[index];
}

fuzz::FtsSpec fts_spec_from_json(const Json& model) {
  if (!model.is_object()) throw std::invalid_argument("inline model must be an object");
  fuzz::FtsSpec spec;
  const Json* vars = model.find("vars");
  if (!vars || !vars->is_array() || vars->as_array().empty())
    throw std::invalid_argument("inline model needs a non-empty 'vars' array");
  for (const auto& v : vars->as_array()) {
    const Json* name = v.find("name");
    if (!name) throw std::invalid_argument("model var needs a 'name'");
    fuzz::FtsSpec::Var var;
    var.name = as_string_field(*name, "var name");
    if (const Json* lo = v.find("lo")) var.lo = as_int(*lo, "var lo");
    if (const Json* hi = v.find("hi")) var.hi = as_int(*hi, "var hi");
    if (const Json* init = v.find("init")) var.init = as_int(*init, "var init");
    if (var.hi < var.lo || var.init < var.lo || var.init > var.hi)
      throw std::invalid_argument("model var '" + var.name + "' has an empty domain "
                                  "or an out-of-domain initial value");
    for (const auto& earlier : spec.vars)
      if (earlier.name == var.name)
        throw std::invalid_argument("duplicate model var name '" + var.name +
                                    "' — atom bindings would be ambiguous");
    spec.vars.push_back(std::move(var));
  }
  const Json* transitions = model.find("transitions");
  if (!transitions || !transitions->is_array())
    throw std::invalid_argument("inline model needs a 'transitions' array");
  for (const auto& t : transitions->as_array()) {
    fuzz::FtsSpec::Trans trans;
    if (const Json* name = t.find("name"))
      trans.name = as_string_field(*name, "transition name");
    if (const Json* fair = t.find("fairness")) {
      const std::string& f = as_string_field(*fair, "fairness");
      if (f == "none") trans.fairness = fts::Fairness::None;
      else if (f == "weak") trans.fairness = fts::Fairness::Weak;
      else if (f == "strong") trans.fairness = fts::Fairness::Strong;
      else throw std::invalid_argument("fairness must be none/weak/strong");
    }
    if (const Json* guard = t.find("guard")) {
      for (const auto& g : guard->as_array()) {
        fuzz::FtsSpec::Cmp cmp;
        if (const Json* var = g.find("var"))
          cmp.var = as_u64_field(*var, "guard var index");
        if (const Json* op = g.find("op")) cmp.op = as_int(*op, "guard op");
        if (const Json* rhs = g.find("rhs")) cmp.rhs = as_int(*rhs, "guard rhs");
        if (cmp.var >= spec.vars.size())
          throw std::invalid_argument("guard var index out of range");
        if (cmp.op < 0 || cmp.op > 2)
          throw std::invalid_argument("guard op must be 0 (<=), 1 (>=) or 2 (==)");
        // A guard no domain value can satisfy makes the transition dead by
        // construction — reject it up front as a bad request instead of
        // accepting a model that silently never fires it (the in-domain
        // dead-transition case is a lint finding, MPH-F010, not an error).
        const auto& dom = spec.vars[cmp.var];
        const bool unsatisfiable = (cmp.op == 0 && cmp.rhs < dom.lo) ||
                                   (cmp.op == 1 && cmp.rhs > dom.hi) ||
                                   (cmp.op == 2 && (cmp.rhs < dom.lo || cmp.rhs > dom.hi));
        if (unsatisfiable)
          throw std::invalid_argument(
              "guard on var '" + dom.name + "' is unsatisfiable: op " +
              std::to_string(cmp.op) + " rhs " + std::to_string(cmp.rhs) +
              " admits no value of domain [" + std::to_string(dom.lo) + ", " +
              std::to_string(dom.hi) + "]");
        trans.guard.push_back(cmp);
      }
    }
    if (const Json* effects = t.find("effects")) {
      for (const auto& e : effects->as_array()) {
        fuzz::FtsSpec::Eff eff;
        if (const Json* var = e.find("var"))
          eff.var = as_u64_field(*var, "effect var index");
        if (const Json* src = e.find("src"))
          eff.src = as_u64_field(*src, "effect src index");
        if (const Json* add = e.find("add")) eff.add = as_int(*add, "effect add");
        if (eff.var >= spec.vars.size() || eff.src >= spec.vars.size())
          throw std::invalid_argument("effect var index out of range");
        trans.effects.push_back(eff);
      }
    }
    spec.transitions.push_back(std::move(trans));
  }
  return spec;
}

Json fts_spec_to_json(const fuzz::FtsSpec& spec) {
  std::vector<Json> vars;
  for (const auto& v : spec.vars) {
    vars.push_back(JsonWriter()
                       .field("name", v.name)
                       .field("lo", static_cast<double>(v.lo))
                       .field("hi", static_cast<double>(v.hi))
                       .field("init", static_cast<double>(v.init))
                       .build());
  }
  std::vector<Json> transitions;
  for (const auto& t : spec.transitions) {
    const char* fairness = t.fairness == fts::Fairness::Weak     ? "weak"
                           : t.fairness == fts::Fairness::Strong ? "strong"
                                                                 : "none";
    std::vector<Json> guard;
    for (const auto& g : t.guard)
      guard.push_back(JsonWriter()
                          .field("var", static_cast<std::uint64_t>(g.var))
                          .field("op", static_cast<double>(g.op))
                          .field("rhs", static_cast<double>(g.rhs))
                          .build());
    std::vector<Json> effects;
    for (const auto& e : t.effects)
      effects.push_back(JsonWriter()
                            .field("var", static_cast<std::uint64_t>(e.var))
                            .field("src", static_cast<std::uint64_t>(e.src))
                            .field("add", static_cast<double>(e.add))
                            .build());
    transitions.push_back(JsonWriter()
                              .field("name", t.name)
                              .field("fairness", fairness)
                              .field("guard", Json::array(std::move(guard)))
                              .field("effects", Json::array(std::move(effects)))
                              .build());
  }
  return JsonWriter()
      .field("vars", Json::array(std::move(vars)))
      .field("transitions", Json::array(std::move(transitions)))
      .build();
}

ResolvedModel resolve_model(const Json& model) {
  if (model.is_string()) {
    const std::string& name = model.as_string();
    if (auto program = fts::programs::builtin_model(name))
      return ResolvedModel{std::move(program->system), std::move(program->atoms),
                           builtin_model_digest(name), name, std::nullopt};
    throw std::invalid_argument("unknown model '" + name + "'");
  }
  fuzz::FtsSpec spec = fts_spec_from_json(model);
  const std::uint64_t digest = model_digest(spec);
  return resolve_inline(std::move(spec), digest);
}

Server::Server(ServerConfig config) : config_(std::move(config)) {}

Budget Server::admit(const Json& request) const {
  Budget budget = config_.base_budget;

  std::size_t cap = config_.max_budget_states;
  if (const Json* states = request.find("budget_states"))
    cap = std::min<std::size_t>(cap, as_u64_field(*states, "budget_states"));
  if (budget.has_state_cap()) cap = std::min(cap, budget.state_cap());
  budget.with_state_cap(cap);

  std::optional<std::uint64_t> allowance_ms;
  if (const Json* ms = request.find("budget_ms"))
    allowance_ms = as_u64_field(*ms, "budget_ms");
  if (config_.max_budget_ms > 0)
    allowance_ms = allowance_ms ? std::min(*allowance_ms, config_.max_budget_ms)
                                : config_.max_budget_ms;
  if (allowance_ms) {
    Budget::Clock::time_point when =
        Budget::Clock::now() + std::chrono::milliseconds(*allowance_ms);
    if (budget.deadline() && *budget.deadline() < when) when = *budget.deadline();
    budget.with_deadline(when);
  }
  return budget;
}

fts::CheckOptions Server::check_options(const Json& request, const Budget& budget) const {
  fts::CheckOptions options;
  options.budget = budget;
  if (const Json* threads = request.find("threads"))
    options.threads = static_cast<unsigned>(std::min<std::uint64_t>(
        std::max<std::uint64_t>(as_u64_field(*threads, "threads"), 1),
        config_.max_threads));
  if (const Json* force = request.find("force_scc")) options.force_scc = force->as_bool();
  if (const Json* steps = request.find("normalize_steps"))
    options.normalize_steps = as_u64_field(*steps, "normalize_steps");
  return options;
}

std::string Server::handle_line(const std::string& line) {
  try {
    return handle(Json::parse(line)).dump();
  } catch (const std::invalid_argument& e) {
    // The request never parsed: no id to echo, no op to account it under.
    auto& m = endpoints_["invalid"];
    ++m.count;
    ++m.errors;
    ++requests_;
    return JsonWriter()
        .field("ok", false)
        .field("error", error_body("bad-json", e.what()))
        .build()
        .dump();
  }
}

Json Server::handle(const Json& request) {
  const Clock::time_point started = Clock::now();
  std::string op = "invalid";
  if (const Json* op_field = request.find("op"); op_field && op_field->is_string())
    op = op_field->as_string();

  Json response = dispatch(request);

  // Echo the request id (any JSON value) ahead of the payload.
  if (const Json* id = request.find("id")) {
    std::vector<std::pair<std::string, Json>> members;
    members.emplace_back("id", *id);
    for (const auto& member : response.as_object()) members.push_back(member);
    response = Json::object(std::move(members));
  }

  const bool ok = [&] {
    const Json* flag = response.find("ok");
    return flag && flag->is_bool() && flag->as_bool();
  }();
  auto& metrics = endpoints_[op];
  ++metrics.count;
  if (!ok) ++metrics.errors;
  ++requests_;
  metrics.record(
      std::chrono::duration<double, std::micro>(Clock::now() - started).count(),
      kMaxLatencySamples);
  return response;
}

Json Server::dispatch(const Json& request) {
  const Json* op_field = request.find("op");
  if (!op_field || !op_field->is_string())
    return JsonWriter()
        .field("ok", false)
        .field("error", error_body("bad-request", "request needs a string 'op'"))
        .build();
  const std::string& op = op_field->as_string();
  try {
    if (op == "parse") return handle_parse(request);
    if (op == "classify") return handle_classify(request);
    if (op == "check") return handle_check(request);
    if (op == "vacuity") return handle_vacuity(request);
    if (op == "invalidate") return handle_invalidate(request);
    if (op == "stats")
      return JsonWriter().field("ok", true).field("op", "stats").field(
          "stats", stats_json()).build();
    return JsonWriter()
        .field("ok", false)
        .field("error", error_body("bad-request", "unknown op '" + op + "'"))
        .build();
  } catch (const std::invalid_argument& e) {
    return JsonWriter()
        .field("ok", false)
        .field("op", op)
        .field("error", error_body("bad-request", e.what()))
        .build();
  } catch (const std::exception& e) {
    return JsonWriter()
        .field("ok", false)
        .field("op", op)
        .field("error", error_body("internal", e.what()))
        .build();
  }
}

Json Server::handle_parse(const Json& request) {
  const Json* formula = request.find("formula");
  if (!formula) throw std::invalid_argument("parse needs a 'formula'");
  bool hit = false;
  const std::uint64_t digest =
      formulas_.intern(as_string_field(*formula, "formula"), hit);
  const FormulaArtifacts& art = *formulas_.find(digest);
  std::vector<Json> atoms;
  for (const auto& a : art.atoms) atoms.push_back(Json::string(a));
  return JsonWriter()
      .field("ok", true)
      .field("op", "parse")
      .field("digest", digest_hex(digest))
      .field("canonical", art.canonical)
      .field("atoms", Json::array(std::move(atoms)))
      .field("size", static_cast<std::uint64_t>(art.formula.size()))
      .field("syntactic", core::to_string(art.syntactic.lowest()))
      .field("liveness", art.syntactic.liveness)
      .field("cache", hit ? "hit" : "miss")
      .build();
}

Json Server::handle_classify(const Json& request) {
  const Json* formula = request.find("formula");
  if (!formula) throw std::invalid_argument("classify needs a 'formula'");
  bool interned = false;
  const std::uint64_t digest =
      formulas_.intern(as_string_field(*formula, "formula"), interned);
  FormulaArtifacts& art = *formulas_.find(digest);

  bool hit = art.classified;
  if (!art.classified) {
    const Budget budget = admit(request);
    ltl::NormalizeOptions nopts;
    nopts.budget = budget;
    if (const Json* steps = request.find("normalize_steps"))
      nopts.budget.with_state_cap(std::min<std::size_t>(
          budget.state_cap(), as_u64_field(*steps, "normalize_steps")));
    const ltl::NormalizeResult nr = ltl::normalize(art.formula, nopts);
    art.normalize_outcome = std::string(to_string(nr.outcome));
    art.normalize_steps = nr.steps;
    if (nr.complete()) art.normal_form = nr.form.to_string();
    // On refusal exact_classification falls back to the NBA closure tests
    // (docs/COMPLEMENT.md) — so even a budget-stopped normalization may
    // still yield an exact class.
    if (auto exact = ltl::exact_classification(art.formula, nr, nopts)) {
      art.exact_class = core::to_string(exact->value.lowest());
      art.exact_source = exact->source == ltl::ExactClass::Source::NbaSemantics
                             ? "nba"
                             : "normal-form";
      art.automaton_states = exact->automaton_states;
    }
    // An established class is deterministic content, and so is a genuine
    // refusal with the whole budget still live (atom blow-up, both exact
    // paths out of envelope). A refusal with the deadline already spent may
    // just be the budget biting between legs — only a better-funded retry
    // can tell, so leave that unmemoized.
    if (art.exact_class || (is_complete(nr.outcome) && is_complete(nopts.budget.poll())))
      art.classified = true;
  }

  JsonWriter w;
  w.field("ok", true)
      .field("op", "classify")
      .field("digest", digest_hex(digest))
      .field("canonical", art.canonical)
      .field("syntactic", core::to_string(art.syntactic.lowest()));
  if (art.exact_class)
    w.field("exact", *art.exact_class);
  else
    w.field("exact", Json::null());
  if (art.exact_source) w.field("exact_source", *art.exact_source);
  if (art.normal_form) w.field("normal_form", *art.normal_form);
  w.field("outcome", art.normalize_outcome)
      .field("steps", art.normalize_steps)
      .field("automaton_states", art.automaton_states)
      .field("cache", hit ? "hit" : "miss");
  return std::move(w).build();
}

Json Server::handle_check(const Json& request) {
  const Json* model_field = request.find("model");
  if (!model_field) throw std::invalid_argument("check needs a 'model'");
  const Json* specs_field = request.find("specs");
  if (!specs_field || !specs_field->is_array() || specs_field->as_array().empty())
    throw std::invalid_argument("check needs a non-empty 'specs' array");

  // The verdict cache is keyed by the model's digest, which needs no built
  // model: the system (and an inline model's static prover) is built below,
  // only when some spec misses — an inline one from the spec parsed here.
  const bool named = model_field->is_string();
  std::optional<fuzz::FtsSpec> inline_spec;
  if (!named) inline_spec = fts_spec_from_json(*model_field);
  const std::uint64_t mdigest = named ? builtin_model_digest(model_field->as_string())
                                      : model_digest(*inline_spec);
  const Budget budget = admit(request);
  fts::CheckOptions options = check_options(request, budget);
  const std::uint64_t odigest = options_digest(options);

  const auto& spec_values = specs_field->as_array();
  struct Position {
    std::string text;
    std::uint64_t digest = 0;
    const VerdictEntry* cached = nullptr;
    std::size_t miss_index = 0;  ///< into the check_all batch
    bool dedup = false;          ///< duplicate of an earlier miss in this batch
  };
  std::vector<Position> positions;
  std::vector<ltl::Formula> miss_formulas;
  std::vector<std::string> miss_texts;
  std::map<std::uint64_t, std::size_t> pending;  // spec digest → miss index
  std::uint64_t hits = 0, misses = 0, dedups = 0;

  for (const auto& value : spec_values) {
    Position p;
    p.text = as_string_field(value, "spec");
    bool interned = false;
    p.digest = formulas_.intern(p.text, interned);
    if (auto it = pending.find(p.digest); it != pending.end()) {
      p.dedup = true;
      p.miss_index = it->second;
      ++dedups;
      ++batch_dedups_;
      positions.push_back(std::move(p));
      continue;
    }
    p.cached = verdicts_.find({mdigest, p.digest, odigest});
    if (p.cached) {
      ++hits;
      positions.push_back(std::move(p));
      continue;
    }
    ++misses;
    p.miss_index = miss_formulas.size();
    pending.emplace(p.digest, p.miss_index);
    miss_formulas.push_back(formulas_.find(p.digest)->formula);
    miss_texts.push_back(p.text);
    positions.push_back(std::move(p));
  }

  std::optional<ResolvedModel> model;
  if (!miss_formulas.empty()) {
    model = named ? resolve_model(*model_field)
                  : resolve_inline(std::move(*inline_spec), mdigest);
    // Inline models carry their symbolic description: consult the interval
    // static prover before exploring. Verdicts it certifies report (and
    // cache) engine "static" with 0 product states. The hook does not enter
    // the options digest — it is a pure function of the model, which already
    // keys the verdict cache.
    if (model->spec) options.static_prover = analysis::make_static_prover(*model->spec);
  }

  // The deadline-between-legs gate (docs/SERVE.md, the PR 7 pattern): all
  // specs are parsed and admitted by now; if the deadline has already
  // passed, answer a structured budget-deadline Unknown for every
  // yet-uncomputed spec instead of entering the engines with an expired
  // budget mid-flight.
  analysis::DiagnosticEngine diagnostics;
  std::vector<fts::CheckResult> computed;
  const Outcome gate = miss_formulas.empty() ? Outcome::Complete : budget.poll();
  if (!is_complete(gate)) {
    for (const auto& text : miss_texts) {
      fts::CheckResult r;
      r.holds = false;
      r.outcome = gate;
      r.stats.outcome = gate;
      computed.push_back(std::move(r));
      diagnostics.emit("MPH-V004", "spec '" + text + "'",
                       "request budget expired before the check leg started; "
                       "verdict unknown");
    }
  } else if (!miss_formulas.empty()) {
    options.diagnostics = &diagnostics;
    computed = fts::check_all(model->system, miss_formulas, model->atoms, options);
  }

  // One VerdictEntry per computed result: it renders the miss and dedup
  // rows exactly as a later cache hit renders it, and it is what the cache
  // stores.
  std::vector<VerdictEntry> fresh;
  fresh.reserve(computed.size());
  for (const fts::CheckResult& r : computed) {
    VerdictEntry entry;
    entry.holds = r.holds;
    entry.stats = r.stats;  // stats.outcome == r.outcome
    if (r.counterexample) {
      entry.has_counterexample = true;
      entry.cex_prefix = r.counterexample->prefix.size();
      entry.cex_loop = r.counterexample->loop.size();
    }
    fresh.push_back(entry);
  }

  std::vector<Json> results;
  for (const auto& p : positions) {
    const FormulaArtifacts& art = *formulas_.find(p.digest);
    const VerdictEntry& entry = p.cached ? *p.cached : fresh.at(p.miss_index);
    const Outcome outcome = entry.stats.outcome;
    JsonWriter w;
    w.field("spec", p.text)
        .field("canonical", art.canonical)
        .field("digest", digest_hex(p.digest))
        .field("verdict", !is_complete(outcome) ? "unknown"
                          : entry.holds         ? "holds"
                                                : "violated")
        .field("outcome", to_string(outcome))
        .field("cache", p.cached ? "hit" : p.dedup ? "dedup" : "miss")
        .field("engine", to_string(entry.stats.engine))
        .field("class_source", to_string(entry.stats.class_source))
        .field("product_states", static_cast<std::uint64_t>(entry.stats.product_states))
        .field("automaton_states", static_cast<std::uint64_t>(entry.stats.automaton_states));
    if (entry.has_counterexample)
      w.field("counterexample", JsonWriter()
                                    .field("prefix", entry.cex_prefix)
                                    .field("loop", entry.cex_loop)
                                    .build());
    results.push_back(std::move(w).build());
  }

  // Populate the cache once per unique miss (duplicate positions share the
  // single entry — serve_test pins this) and account exhaustions.
  std::set<std::uint64_t> stored;
  for (const auto& p : positions) {
    if (p.cached) continue;
    if (!stored.insert(p.digest).second) continue;
    const VerdictEntry& entry = fresh.at(p.miss_index);
    if (!is_complete(entry.stats.outcome)) {
      ++budget_exhaustions_;
      continue;
    }
    verdicts_.put({mdigest, p.digest, odigest}, entry);
  }

  return JsonWriter()
      .field("ok", true)
      .field("op", "check")
      .field("model", named ? model_field->as_string() : "(inline)")
      .field("model_digest", digest_hex(mdigest))
      .field("options_digest", digest_hex(odigest))
      .field("results", Json::array(std::move(results)))
      .field("cache", JsonWriter()
                          .field("hits", hits)
                          .field("misses", misses)
                          .field("dedup", dedups)
                          .build())
      .field("diagnostics", diagnostics_json(diagnostics))
      .build();
}

Json Server::handle_vacuity(const Json& request) {
  const Json* model_field = request.find("model");
  if (!model_field) throw std::invalid_argument("vacuity needs a 'model'");
  const Json* specs_field = request.find("specs");
  if (!specs_field || !specs_field->is_array() || specs_field->as_array().empty())
    throw std::invalid_argument("vacuity needs a non-empty 'specs' array");

  ResolvedModel model = resolve_model(*model_field);
  const Budget budget = admit(request);

  std::vector<std::string> texts;
  std::vector<ltl::Formula> requirements;
  for (const auto& value : specs_field->as_array()) {
    bool interned = false;
    const std::uint64_t digest =
        formulas_.intern(as_string_field(value, "spec"), interned);
    texts.push_back(value.as_string());
    requirements.push_back(formulas_.find(digest)->formula);
  }

  analysis::DiagnosticEngine diagnostics;
  std::vector<Json> rows;

  // Same between-legs gate as `check`: parsing is done, so an expired
  // deadline answers structured Unknowns rather than entering the analyzer.
  if (!is_complete(budget.poll())) {
    for (const auto& text : texts) {
      diagnostics.emit("MPH-V004", "requirement '" + text + "'",
                       "request budget expired before the vacuity leg started; "
                       "verdict unknown");
      rows.push_back(JsonWriter()
                         .field("spec", text)
                         .field("verdict", "unknown")
                         .field("outcome", to_string(Outcome::BudgetDeadline))
                         .build());
      ++budget_exhaustions_;
    }
    return JsonWriter()
        .field("ok", true)
        .field("op", "vacuity")
        .field("model", model.label)
        .field("model_digest", digest_hex(model.digest))
        .field("requirements", Json::array(std::move(rows)))
        .field("diagnostics", diagnostics_json(diagnostics))
        .build();
  }

  analysis::VacuityOptions vopts;
  vopts.check = check_options(request, budget);
  fts::ModelContext context(model.system, model.atoms, vopts.check.budget);
  const analysis::VacuityResult vr =
      analysis::analyze_vacuity(context, requirements, diagnostics, vopts);

  for (std::size_t i = 0; i < vr.requirements.size(); ++i) {
    const auto& rv = vr.requirements[i];
    if (rv.verdict == analysis::RequirementVacuity::Verdict::Unknown)
      ++budget_exhaustions_;
    std::uint64_t checked = 0;
    for (const auto& mc : rv.mutants)
      if (mc.engine != "skipped") ++checked;
    JsonWriter w;
    w.field("spec", texts[i])
        .field("verdict", to_string(rv.verdict))
        .field("outcome", to_string(rv.original.outcome))
        .field("holds", rv.original.holds)
        .field("antecedent_failure", rv.antecedent_failure)
        .field("mutants_checked", checked)
        .field("mutants", static_cast<std::uint64_t>(rv.mutants.size()));
    if (rv.witness)
      w.field("witness",
              JsonWriter()
                  .field("prefix", static_cast<std::uint64_t>(rv.witness->prefix.size()))
                  .field("loop", static_cast<std::uint64_t>(rv.witness->loop.size()))
                  .build());
    rows.push_back(std::move(w).build());
  }

  const auto& st = vr.stats;
  return JsonWriter()
      .field("ok", true)
      .field("op", "vacuity")
      .field("model", model.label)
      .field("model_digest", digest_hex(model.digest))
      .field("requirements", Json::array(std::move(rows)))
      .field("stats", JsonWriter()
                          .field("mutants_checked",
                                 static_cast<std::uint64_t>(st.mutants_checked))
                          .field("mutants_skipped",
                                 static_cast<std::uint64_t>(st.mutants_skipped))
                          .field("safety_prefix",
                                 static_cast<std::uint64_t>(st.safety_prefix))
                          .field("guarantee_dual",
                                 static_cast<std::uint64_t>(st.guarantee_dual))
                          .field("scc", static_cast<std::uint64_t>(st.scc))
                          .field("static_proof",
                                 static_cast<std::uint64_t>(st.static_proof))
                          .field("constant", static_cast<std::uint64_t>(st.constant))
                          .field("unknown", static_cast<std::uint64_t>(st.unknown))
                          .build())
      .field("diagnostics", diagnostics_json(diagnostics))
      .build();
}

Json Server::handle_invalidate(const Json& request) {
  std::uint64_t digest = 0;
  if (const Json* hex = request.find("model_digest")) {
    const std::string& text = as_string_field(*hex, "model_digest");
    if (text.size() != 16 || text.find_first_not_of("0123456789abcdef") != std::string::npos)
      throw std::invalid_argument("model_digest must be 16 lowercase hex digits");
    digest = std::stoull(text, nullptr, 16);
  } else if (const Json* model = request.find("model")) {
    digest = model->is_string() ? builtin_model_digest(model->as_string())
                                : model_digest(fts_spec_from_json(*model));
  } else {
    throw std::invalid_argument("invalidate needs a 'model' or 'model_digest'");
  }
  const std::size_t erased = verdicts_.invalidate_model(digest);
  return JsonWriter()
      .field("ok", true)
      .field("op", "invalidate")
      .field("model_digest", digest_hex(digest))
      .field("invalidated", static_cast<std::uint64_t>(erased))
      .build();
}

Json Server::stats_json() const {
  std::vector<std::pair<std::string, Json>> endpoints;
  for (const auto& [op, m] : endpoints_) {
    endpoints.emplace_back(op, JsonWriter()
                                   .field("count", m.count)
                                   .field("errors", m.errors)
                                   .field("p50_us", m.percentile(0.50))
                                   .field("p99_us", m.percentile(0.99))
                                   .build());
  }
  return JsonWriter()
      .field("requests", requests_)
      .field("budget_exhaustions", budget_exhaustions_)
      .field("endpoints", Json::object(std::move(endpoints)))
      .field("caches",
             JsonWriter()
                 .field("formula",
                        JsonWriter()
                            .field("entries",
                                   static_cast<std::uint64_t>(formulas_.size()))
                            .field("hits", formulas_.hits())
                            .field("misses", formulas_.misses())
                            .build())
                 .field("verdict",
                        JsonWriter()
                            .field("entries",
                                   static_cast<std::uint64_t>(verdicts_.size()))
                            .field("hits", verdicts_.hits())
                            .field("misses", verdicts_.misses())
                            .field("dedup", batch_dedups_)
                            .build())
                 .build())
      .build();
}

std::string Server::stats_text() const {
  std::ostringstream out;
  out << "mph-serve stats: " << requests_ << " request(s), " << budget_exhaustions_
      << " budget exhaustion(s)\n";
  for (const auto& [op, m] : endpoints_) {
    out.precision(1);
    out << std::fixed << "  " << op << ": " << m.count << " request(s), " << m.errors
        << " error(s), p50 " << m.percentile(0.50) << " us, p99 " << m.percentile(0.99)
        << " us\n";
  }
  out << "  formula cache: " << formulas_.size() << " entries, " << formulas_.hits()
      << " hits, " << formulas_.misses() << " misses\n"
      << "  verdict cache: " << verdicts_.size() << " entries, " << verdicts_.hits()
      << " hits, " << verdicts_.misses() << " misses, " << batch_dedups_
      << " batch dedup(s)\n";
  return out.str();
}

}  // namespace mph::serve
