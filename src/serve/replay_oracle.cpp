#include "src/serve/replay_oracle.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "src/fuzz/generators.hpp"
#include "src/ltl/normalize.hpp"
#include "src/serve/server.hpp"

namespace mph::serve {

namespace {

using fuzz::CheckOutcome;
using fuzz::FuzzCase;

FuzzCase gen_serve_replay(Rng& rng) {
  FuzzCase c;
  c.oracle = "serve-replay";
  c.system = fuzz::random_fts(rng);
  std::vector<std::string> atoms;
  for (const auto& v : c.system->vars) {
    atoms.push_back(v.name + "hi");
    atoms.push_back(v.name + "lo");
  }
  const std::size_t n_specs = static_cast<std::size_t>(rng.between(1, 3));
  for (std::size_t i = 0; i < n_specs; ++i) {
    for (int tries = 0; tries < 20; ++tries) {
      ltl::Formula f =
          fuzz::random_ltl(rng, atoms, static_cast<std::size_t>(rng.between(3, 6)),
                           fuzz::LtlFlavor::FutureOnly);
      if (f.atoms().empty()) continue;
      c.formulas.push_back(f.to_string());
      break;
    }
  }
  if (c.formulas.empty()) return c;  // check() skips
  // Half the streams repeat a spec inside the batch, exercising the
  // same-batch dedup path on top of the ordinary hit/miss paths.
  if (rng.chance(1, 2)) c.formulas.push_back(c.formulas[0]);
  return c;
}

/// The same clamping Server::admit applies to a request without budget
/// fields — the reference side must run under the identical budget.
Budget admitted_budget(const ServerConfig& config, const Budget& budget) {
  Budget clamped = budget;
  std::size_t cap = config.max_budget_states;
  if (clamped.has_state_cap()) cap = std::min(cap, clamped.state_cap());
  clamped.with_state_cap(cap);
  return clamped;
}

CheckOutcome check_serve_replay(const FuzzCase& c, const Budget& budget) {
  if (!c.system || c.formulas.empty())
    return CheckOutcome::skip("needs a system and at least one spec");

  ServerConfig config;
  config.base_budget = budget;
  Server server(config);

  std::vector<Json> spec_values;
  for (const auto& text : c.formulas) spec_values.push_back(Json::string(text));
  const std::string line = JsonWriter()
                               .field("op", "check")
                               .field("model", fts_spec_to_json(*c.system))
                               .field("specs", Json::array(std::move(spec_values)))
                               .build()
                               .dump();

  Json cold = Json::parse(server.handle_line(line));
  const Json* ok = cold.find("ok");
  if (!ok || !ok->is_bool() || !ok->as_bool()) {
    const Json* error = cold.find("error");
    const Json* message = error ? error->find("message") : nullptr;
    return CheckOutcome::fail("daemon rejected a well-formed check request: " +
                              (message && message->is_string() ? message->as_string()
                                                               : cold.dump()));
  }
  const Json* results = cold.find("results");
  if (!results || !results->is_array() || results->as_array().size() != c.formulas.size())
    return CheckOutcome::fail("daemon returned " +
                              std::to_string(results && results->is_array()
                                                 ? results->as_array().size()
                                                 : 0) +
                              " results for " + std::to_string(c.formulas.size()) +
                              " specs");

  // The independent reference: the same batch straight through check_all
  // under the same admitted budget and the same (default) engine options.
  const fts::Fts sys = c.system->build();
  const fts::AtomMap atoms = c.system->atoms();
  std::vector<ltl::Formula> specs;
  for (const auto& text : c.formulas) specs.push_back(ltl::parse_formula(text));
  fts::CheckOptions options;
  options.budget = admitted_budget(config, budget);
  const std::vector<fts::CheckResult> direct = fts::check_all(sys, specs, atoms, options);

  auto has_v004 = [&](const Json& response) {
    const Json* diags = response.find("diagnostics");
    if (!diags || !diags->is_array()) return false;
    for (const auto& d : diags->as_array()) {
      const Json* code = d.find("code");
      if (code && code->is_string() && code->as_string() == "MPH-V004") return true;
    }
    return false;
  };

  for (std::size_t i = 0; i < c.formulas.size(); ++i) {
    const Json& r = results->as_array()[i];
    const Json* outcome = r.find("outcome");
    const Json* verdict = r.find("verdict");
    if (!outcome || !outcome->is_string() || !verdict || !verdict->is_string())
      return CheckOutcome::fail("daemon result " + std::to_string(i) +
                                " is missing outcome/verdict fields");
    const bool daemon_complete = outcome->as_string() == "complete";
    if (!daemon_complete || !is_complete(direct[i].outcome)) {
      // Budget ran out on one side or the other — not a discrepancy, but
      // the daemon must still have answered a structured Unknown with the
      // MPH-V004 diagnostic, never a half-written response.
      if (!daemon_complete) {
        if (verdict->as_string() != "unknown")
          return CheckOutcome::fail("daemon reported a non-complete outcome with verdict '" +
                                    verdict->as_string() + "' instead of 'unknown'");
        if (!has_v004(cold))
          return CheckOutcome::fail(
              "daemon reported a budget-exhausted result without MPH-V004");
      }
      return CheckOutcome::exhausted("check budget exhausted (daemon " +
                                     outcome->as_string() + ", direct " +
                                     std::string(to_string(direct[i].outcome)) + ")");
    }
    const std::string expected = direct[i].holds ? "holds" : "violated";
    if (verdict->as_string() != expected)
      return CheckOutcome::fail("daemon and check_all disagree on '" + c.formulas[i] +
                                "': daemon " + verdict->as_string() + ", direct " +
                                expected);
    const bool daemon_cex = r.find("counterexample") != nullptr;
    if (daemon_cex != direct[i].counterexample.has_value())
      return CheckOutcome::fail("daemon and check_all disagree on counterexample "
                                "presence for '" +
                                c.formulas[i] + "'");
  }

  // Warm replay of the byte-identical request: every position must now be
  // served from the verdict cache (hit, or same-batch dedup) with the very
  // verdict the cold pass computed.
  Json warm = Json::parse(server.handle_line(line));
  const Json* warm_ok = warm.find("ok");
  if (!warm_ok || !warm_ok->is_bool() || !warm_ok->as_bool())
    return CheckOutcome::fail("daemon rejected the warm replay of a served request");
  const auto& warm_results = warm.find("results")->as_array();
  for (std::size_t i = 0; i < c.formulas.size(); ++i) {
    const Json& cold_r = results->as_array()[i];
    const Json& warm_r = warm_results[i];
    if (warm_r.find("verdict")->as_string() != cold_r.find("verdict")->as_string())
      return CheckOutcome::fail("warm-cache verdict differs from cold verdict for '" +
                                c.formulas[i] + "'");
    const std::string& source = warm_r.find("cache")->as_string();
    if (source != "hit")
      return CheckOutcome::fail("warm replay served position " + std::to_string(i) +
                                " from '" + source + "', expected 'hit'");
  }

  // Classify agreement: the daemon's memoized exact classification against
  // a fresh ltl::exact_classification under the same admitted budget.
  const std::string classify_line = JsonWriter()
                                        .field("op", "classify")
                                        .field("formula", c.formulas[0])
                                        .build()
                                        .dump();
  Json classified = Json::parse(server.handle_line(classify_line));
  if (const Json* cok = classified.find("ok"); cok && cok->as_bool()) {
    ltl::NormalizeOptions nopts;
    nopts.budget = admitted_budget(config, budget);
    const ltl::NormalizeResult nr = ltl::normalize(specs[0], nopts);
    const bool daemon_complete =
        classified.find("outcome")->as_string() == "complete";
    if (!daemon_complete || !is_complete(nr.outcome))
      return CheckOutcome::exhausted("classify budget exhausted");
    const auto exact = ltl::exact_classification(specs[0], nr, nopts);
    // If the shared deadline expired anywhere between the daemon's classify
    // and this point, either side's "refusal" may be the budget biting
    // rather than a deterministic answer. Deadlines are monotonic, so one
    // poll here covers both directions of the race.
    if (!is_complete(nopts.budget.poll()))
      return CheckOutcome::exhausted("classify budget expired mid-comparison");
    const Json* daemon_exact = classified.find("exact");
    const bool daemon_has = daemon_exact && daemon_exact->is_string();
    if (daemon_has != exact.has_value())
      return CheckOutcome::fail(
          std::string("daemon and exact_classification disagree on classifiability "
                      "of '") +
          c.formulas[0] + "' (daemon " + (daemon_has ? "classified" : "refused") +
          ", direct " + (exact ? "classified" : "refused") + ")");
    if (exact && daemon_exact->as_string() != core::to_string(exact->value.lowest()))
      return CheckOutcome::fail("daemon classify reports '" + daemon_exact->as_string() +
                                "', exact_classification reports '" +
                                core::to_string(exact->value.lowest()) + "' for '" +
                                c.formulas[0] + "'");
  }

  return CheckOutcome::pass();
}

}  // namespace

fuzz::Oracle serve_replay_oracle() {
  return {"serve-replay",
          "mph-serve request engine (wire path, caches, admission) vs in-process "
          "check_all and exact_classification",
          gen_serve_replay, check_serve_replay};
}

void register_serve_oracle() { fuzz::register_oracle(serve_replay_oracle()); }

}  // namespace mph::serve
