// The mph-serve request engine in process (docs/SERVE.md): content digests,
// the formula/verdict caches, batch dedup, admission clamping, the
// deadline-between-legs Unknown path, and the wire JSON layer.
#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/core/classify.hpp"
#include "src/ltl/normalize.hpp"
#include "src/serve/cache.hpp"
#include "src/serve/json.hpp"
#include "src/serve/replay_oracle.hpp"
#include "src/serve/server.hpp"
#include "src/support/rng.hpp"

namespace mph::serve {
namespace {

Json req(const std::string& line) { return Json::parse(line); }

const Json* result0(const Json& response) {
  const Json* results = response.find("results");
  if (!results || !results->is_array() || results->as_array().empty()) return nullptr;
  return &results->as_array()[0];
}

std::string field(const Json& j, const char* key) {
  const Json* v = j.find(key);
  return v && v->is_string() ? v->as_string() : std::string();
}

// ---------------------------------------------------------------- digests

TEST(ServeDigest, CanonicalizationSharesDigest) {
  FormulaCache cache;
  bool hit = false;
  const auto a = cache.intern("G  (p ->  F q)", hit);
  EXPECT_FALSE(hit);
  const auto b = cache.intern("G(p -> F q)", hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(a, b);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(digest_hex(a).size(), 16u);
}

TEST(ServeDigest, RepeatedTextKeepsHitAndMissCounts) {
  FormulaCache cache;
  bool hit = false;
  const auto a = cache.intern("G  (p ->  F q)", hit);
  EXPECT_FALSE(hit);
  // The same text again, and again after a variant: each is a hit on the
  // one entry, whether or not the text was memoized.
  EXPECT_EQ(cache.intern("G  (p ->  F q)", hit), a);
  EXPECT_TRUE(hit);
  EXPECT_EQ(cache.intern("G(p -> F q)", hit), a);
  EXPECT_TRUE(hit);
  EXPECT_EQ(cache.intern("G(p -> F q)", hit), a);
  EXPECT_TRUE(hit);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 1u);
  // Malformed text throws every time; nothing about it is remembered.
  EXPECT_THROW(cache.intern("G (p", hit), std::invalid_argument);
  EXPECT_THROW(cache.intern("G (p", hit), std::invalid_argument);
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(ServeDigest, SpellingsOfOneFormulaKeepTheTextMemoBounded) {
  // A client sending one formula under ever new whitespace and parentheses
  // leaves one entry, and a memo no larger than its per-entry allowance.
  FormulaCache cache;
  bool hit = false;
  const auto a = cache.intern("G (p -> F q)", hit);
  for (int i = 1; i <= 200; ++i) {
    const std::string text = std::string(i % 7, ' ') + std::string(i, '(') + "G (p -> F q)" +
                             std::string(i, ')');
    EXPECT_EQ(cache.intern(text, hit), a);
    EXPECT_TRUE(hit);
    EXPECT_LE(cache.memoized_texts(), 2 * FormulaCache::kTextsPerEntry);
  }
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.hits(), 200u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(ServeDigest, DistinctFormulasDistinctDigests) {
  FormulaCache cache;
  bool hit = false;
  EXPECT_NE(cache.intern("G p", hit), cache.intern("F p", hit));
}

TEST(ServeDigest, ModelDigestIsContentAddressed) {
  fuzz::FtsSpec spec;
  spec.vars.push_back({"x", 0, 1, 0});
  fuzz::FtsSpec::Trans t;
  t.name = "t1";
  t.fairness = fts::Fairness::Weak;
  t.effects.push_back({0, 0, 1});
  spec.transitions.push_back(t);

  const auto base = model_digest(spec);
  EXPECT_EQ(base, model_digest(spec)) << "digest must be deterministic";

  fuzz::FtsSpec delta = spec;
  delta.vars[0].init = 1;
  EXPECT_NE(base, model_digest(delta)) << "a model delta must change the digest";
  EXPECT_NE(builtin_model_digest("peterson"), builtin_model_digest("dining-3"));
}

TEST(ServeDigest, OptionsDigestKeysEngineRoutes) {
  fts::CheckOptions base;
  fts::CheckOptions scc = base;
  scc.force_scc = true;
  fts::CheckOptions par = base;
  par.explore_threads = 2;  // a no-op: it selects no engine route
  fts::CheckOptions dispatch = base;
  dispatch.class_dispatch = true;  // ignored: class dispatch is always on
  fts::CheckOptions steps = base;
  steps.normalize_steps = 0;
  EXPECT_NE(options_digest(base), options_digest(scc));
  EXPECT_EQ(options_digest(base), options_digest(par));
  EXPECT_EQ(options_digest(base), options_digest(dispatch));
  EXPECT_NE(options_digest(base), options_digest(steps));
  EXPECT_NE(options_digest(scc), options_digest(par));
}

// ------------------------------------------------------------- wire JSON

TEST(ServeJson, RoundTripsControlCharacters) {
  // The dump side goes through analysis::json_escape; the parse side
  // rejects raw control characters and understands the escapes. A string
  // holding every ASCII control character must survive the round trip.
  std::string hostile;
  for (char c = 1; c < 0x20; ++c) hostile.push_back(c);
  hostile += "plain \"quoted\" \\backslash\\";
  const Json doc = Json::object({{"s", Json::string(hostile)}});
  const Json back = Json::parse(doc.dump());
  EXPECT_EQ(back.find("s")->as_string(), hostile);
}

TEST(ServeJson, RejectsRawControlAndTrailingGarbage) {
  EXPECT_THROW(Json::parse("{\"s\": \"a\nb\"}"), std::invalid_argument);
  EXPECT_THROW(Json::parse("{} trailing"), std::invalid_argument);
  EXPECT_THROW(Json::parse(""), std::invalid_argument);
}

TEST(ServeJson, NumbersKeepExactIntegerView) {
  EXPECT_EQ(Json::parse("7").as_u64(), std::uint64_t{7});
  EXPECT_FALSE(Json::parse("3.5").as_u64().has_value());
  EXPECT_FALSE(Json::parse("1e9").as_u64().has_value()) << "exponent form is not exact";
  EXPECT_FALSE(Json::parse("-1").as_u64().has_value());
}

// --------------------------------------------------------------- caching

TEST(ServeServer, WarmHitAgreesWithColdVerdict) {
  Server server;
  const std::string line =
      R"js({"op":"check","model":"peterson","specs":["G !(c1 & c2)"]})js";
  const Json cold = req(server.handle_line(line));
  const Json warm = req(server.handle_line(line));
  ASSERT_TRUE(result0(cold) && result0(warm));
  EXPECT_EQ(field(*result0(cold), "cache"), "miss");
  EXPECT_EQ(field(*result0(warm), "cache"), "hit");
  EXPECT_EQ(field(*result0(cold), "verdict"), "holds");
  EXPECT_EQ(field(*result0(warm), "verdict"), field(*result0(cold), "verdict"));
  EXPECT_EQ(server.verdict_cache().size(), 1u);
}

TEST(ServeServer, EngineOptionVariantsAreKeyedSeparately) {
  Server server;
  const Json plain = req(server.handle_line(
      R"js({"op":"check","model":"peterson","specs":["G !(c1 & c2)"]})js"));
  const Json scc = req(server.handle_line(
      R"js({"op":"check","model":"peterson","specs":["G !(c1 & c2)"],"force_scc":true})js"));
  const Json par = req(server.handle_line(
      R"js({"op":"check","model":"peterson","specs":["G !(c1 & c2)"],"explore_threads":2})js"));
  EXPECT_EQ(field(*result0(scc), "cache"), "miss")
      << "force_scc must not be served from the default route's entry";
  // explore_threads is not a request key: ignored like any other unknown
  // key, so the request is the plain one and hits its entry.
  EXPECT_EQ(field(*result0(par), "cache"), "hit")
      << "explore_threads must be served from the default route's entry";
  // Two distinct cache keys, one verdict.
  EXPECT_EQ(server.verdict_cache().size(), 2u);
  EXPECT_EQ(field(*result0(plain), "verdict"), "holds");
  EXPECT_EQ(field(*result0(scc), "verdict"), "holds");
  EXPECT_EQ(field(*result0(par), "verdict"), "holds");
  EXPECT_NE(field(plain, "options_digest"), field(scc, "options_digest"));
  EXPECT_EQ(field(plain, "options_digest"), field(par, "options_digest"));
}

TEST(ServeServer, DuplicateSpecsInOneBatchShareOneComputation) {
  Server server;
  const Json response = req(server.handle_line(
      R"js({"op":"check","model":"peterson",)js"
      R"js("specs":["G !(c1 & c2)","G  !(c1  &  c2)","G(t1 -> F c1)"]})js"));
  const auto& results = response.find("results")->as_array();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(field(results[0], "cache"), "miss");
  EXPECT_EQ(field(results[1], "cache"), "dedup")
      << "a different spelling of the same canonical spec must fold into the "
         "batch's single computation";
  EXPECT_EQ(field(results[2], "cache"), "miss");
  EXPECT_EQ(field(results[0], "digest"), field(results[1], "digest"));
  EXPECT_EQ(server.batch_dedups(), 1u);
  // One entry per unique (model, spec, opts) key — the duplicate did not
  // produce a second entry.
  EXPECT_EQ(server.verdict_cache().size(), 2u);
}

// ------------------------------------------------- implied specs compute

// The server once answered a spec from a cached one whose language included
// or was included in it ("subsume sharing"). That path is gone; the tests
// below keep their names and pin that each former donor → transfer pair is
// now a verdict-cache miss like any other distinct spec: the model checker
// computes the second spec, with the verdict a direct check gives, and a
// repeat is a hit.
void expect_implied_spec_computes(const char* first, const char* second) {
  const ResolvedModel peterson = resolve_model(Json::string("peterson"));
  auto check = [](Server& server, const char* spec) {
    return req(server.handle_line(R"js({"op":"check","model":"peterson","specs":[)js" +
                                  Json::string(spec).dump() + "]}"));
  };
  Server server;
  EXPECT_EQ(field(*result0(check(server, first)), "cache"), "miss");
  const fts::CheckResult direct =
      fts::check_all(peterson.system, {ltl::parse_formula(second)}, peterson.atoms).at(0);
  ASSERT_TRUE(is_complete(direct.outcome));
  const Json computed = check(server, second);
  const Json* r = result0(computed);
  ASSERT_TRUE(r);
  EXPECT_EQ(field(*r, "cache"), "miss");
  EXPECT_EQ(field(*r, "verdict"), direct.holds ? "holds" : "violated");
  EXPECT_EQ(r->find("via"), nullptr);
  const Json* counts = computed.find("cache");
  ASSERT_TRUE(counts);
  EXPECT_EQ(counts->find("misses")->as_u64(), 1u);
  EXPECT_EQ(counts->find("subsume"), nullptr);
  const Json repeated = check(server, second);
  EXPECT_EQ(field(*result0(repeated), "cache"), "hit");
  EXPECT_EQ(field(*result0(repeated), "verdict"), field(*r, "verdict"));
  EXPECT_EQ(server.verdict_cache().size(), 2u);
}

TEST(ServeServer, SubsumeSharingTransfersHoldingDonor) {
  // L(G φ) ⊆ L(F φ): the holding donor no longer answers the weaker spec.
  expect_implied_spec_computes("G !(c1 & c2)", "F !(c1 & c2)");
}

TEST(ServeServer, SubsumeSharingTransfersViolation) {
  // L(G (c1 & c2)) ⊆ L(G c1): the violated donor no longer answers the
  // stronger spec.
  expect_implied_spec_computes("G c1", "G (c1 & c2)");
}

TEST(ServeServer, SubsumeSharingDisabledByConfig) {
  // There is no switch left: sharing is off for every server, so a
  // disjunctive weakening of a cached spec computes too.
  expect_implied_spec_computes("G !(c1 & c2)", "G !(c1 & c2) | F t1");
}

TEST(ServeServer, ClassifyReportsNbaExactSource) {
  // A rescue-family member: the ΔΓ-rewriter refuses it, the Büchi closure
  // tests (docs/COMPLEMENT.md) still establish the exact class.
  Server server;
  const Json response = req(server.handle_line(
      R"js({"op":"classify","formula":"F (p & X (p U q))"})js"));
  ASSERT_TRUE(response.find("ok")->as_bool());
  EXPECT_EQ(field(response, "exact"), "guarantee");
  EXPECT_EQ(field(response, "exact_source"), "nba");
  const Json warm = req(server.handle_line(
      R"js({"op":"classify","formula":"F (p & X (p U q))"})js"));
  EXPECT_EQ(field(warm, "cache"), "hit") << "an NBA-established class is memoized";
  EXPECT_EQ(field(warm, "exact_source"), "nba");
}

TEST(ServeServer, ClassifyMatchesDirectExactClassification) {
  // One case per path: a compiled normal form, the NBA closure tests, a
  // refusal and a budget-stopped rewrite (normalize_steps 3; 0 = none).
  const std::pair<const char*, std::size_t> cases[] = {
      {"F(p & G q)", 0},
      {"G F p -> G F q", 0},
      {"F (p & X (p U q))", 0},
      {"G F(q W (false W p))", 0},
      {"F(p & (q U p)) & G F(p R q)", 3},
  };
  Server server;
  for (const auto& [text, steps] : cases) {
    SCOPED_TRACE(text);
    std::string line = std::string(R"js({"op":"classify","formula":")js") + text + '"';
    if (steps) line += ",\"normalize_steps\":" + std::to_string(steps);
    const Json response = req(server.handle_line(line + "}"));
    ASSERT_TRUE(response.find("ok")->as_bool()) << response.dump();

    const ltl::Formula f = ltl::parse_formula(text);
    ltl::NormalizeOptions nopts;
    nopts.budget.with_state_cap(steps ? steps : ServerConfig{}.max_budget_states);
    const ltl::NormalizeResult nr = ltl::normalize(f, nopts);
    const auto exact = ltl::exact_classification(f, nr, nopts);

    if (exact) {
      EXPECT_EQ(field(response, "exact"), core::to_string(exact->value.lowest()));
      EXPECT_EQ(field(response, "exact_source"),
                exact->source == ltl::ExactClass::Source::NbaSemantics ? "nba"
                                                                       : "normal-form");
    } else {
      EXPECT_TRUE(response.find("exact")->is_null());
      EXPECT_EQ(response.find("exact_source"), nullptr);
    }
    EXPECT_EQ(field(response, "normal_form"), nr.complete() ? nr.form.to_string() : "");
    EXPECT_EQ(field(response, "outcome"), to_string(nr.outcome));
    EXPECT_EQ(response.find("steps")->as_u64(), nr.steps);
    EXPECT_EQ(response.find("automaton_states")->as_u64(),
              exact ? exact->automaton_states : 0u);
  }
}

TEST(ServeServer, ClassifyWithoutExactClassIsStillOk) {
  // exact_classification refuses this formula (its normal form's acceptance
  // overflows the recurrence test's DNF cap): the request is valid, so the
  // answer is ok with the syntactic class and no exact one — not a
  // bad-request blaming the client.
  Server server;
  const Json response = req(server.handle_line(
      R"js({"op":"classify","formula":"G F(q W (false W p))"})js"));
  ASSERT_TRUE(response.find("ok")->as_bool()) << response.dump();
  ASSERT_NE(response.find("exact"), nullptr);
  EXPECT_TRUE(response.find("exact")->is_null()) << response.dump();
  EXPECT_EQ(field(response, "syntactic"), "reactivity");
  EXPECT_EQ(response.dump().find("acceptance.cpp"), std::string::npos);
}

TEST(ServeServer, ModelDeltaInvalidatesOnlyItsOwnDigest) {
  Server server;
  const std::string base =
      R"js({"op":"check","model":{"vars":[{"name":"x","lo":0,"hi":1,"init":0}],)js"
      R"js("transitions":[{"name":"t1","fairness":"weak",)js"
      R"js("effects":[{"var":0,"src":0,"add":1}]}]},"specs":["F xhi"]})js";
  const std::string delta =
      R"js({"op":"check","model":{"vars":[{"name":"x","lo":0,"hi":1,"init":1}],)js"
      R"js("transitions":[{"name":"t1","fairness":"weak",)js"
      R"js("effects":[{"var":0,"src":0,"add":1}]}]},"specs":["F xhi"]})js";
  const Json cold = req(server.handle_line(base));
  const Json changed = req(server.handle_line(delta));
  const Json warm = req(server.handle_line(base));
  EXPECT_NE(field(cold, "model_digest"), field(changed, "model_digest"));
  EXPECT_EQ(field(*result0(changed), "cache"), "miss")
      << "the delta's digest has no cached entries";
  EXPECT_EQ(field(*result0(warm), "cache"), "hit")
      << "the untouched model's entry must survive the delta";
  // Explicit invalidation drops exactly the named model's entries.
  const Json inv = req(server.handle_line(
      R"js({"op":"invalidate","model_digest":")js" + field(cold, "model_digest") +
      R"js("})js"));
  EXPECT_EQ(inv.find("invalidated")->as_u64(), std::uint64_t{1});
  const Json recompute = req(server.handle_line(base));
  EXPECT_EQ(field(*result0(recompute), "cache"), "miss");
  const Json other = req(server.handle_line(delta));
  EXPECT_EQ(field(*result0(other), "cache"), "hit")
      << "invalidation must not touch other models";
}

TEST(ServeServer, InlineModelBoxSafetyProvesStatically) {
  // An inline FtsSpec carries its symbolic description into the server, so a
  // box-safety spec resolves through the interval static prover: engine
  // "static", zero product states, and the verdict caches like any other.
  Server server;
  const std::string line =
      R"js({"op":"check","model":{"vars":[{"name":"x","lo":0,"hi":3,"init":0},)js"
      R"js({"name":"alarm","lo":0,"hi":1,"init":0}],)js"
      R"js("transitions":[{"name":"inc","fairness":"weak",)js"
      R"js("guard":[{"var":0,"op":0,"rhs":1}],)js"
      R"js("effects":[{"var":0,"src":0,"add":1}]}]},"specs":["G alarmlo"]})js";
  const Json cold = req(server.handle_line(line));
  ASSERT_TRUE(cold.find("ok")->as_bool());
  const Json* r = result0(cold);
  ASSERT_TRUE(r);
  EXPECT_EQ(field(*r, "verdict"), "holds");
  EXPECT_EQ(field(*r, "cache"), "miss");
  EXPECT_EQ(field(*r, "engine"), "static") << "box safety must not explore";
  EXPECT_EQ(r->find("product_states")->as_u64(), std::uint64_t{0});
  const Json warm = req(server.handle_line(line));
  EXPECT_EQ(field(*result0(warm), "cache"), "hit");
  EXPECT_EQ(field(*result0(warm), "engine"), "static");
}

TEST(ServeServer, UnsatisfiableGuardIsAStructuredBadRequest) {
  // A guard no value of the variable's domain can satisfy is a malformed
  // model, not a checkable one: the request must fail with a structured
  // bad-request naming the variable, and the server must keep serving.
  Server server;
  const Json response = req(server.handle_line(
      R"js({"op":"check","model":{"vars":[{"name":"x","lo":0,"hi":1,"init":0}],)js"
      R"js("transitions":[{"name":"t1","fairness":"weak",)js"
      R"js("guard":[{"var":0,"op":2,"rhs":5}],)js"
      R"js("effects":[{"var":0,"src":0,"add":1}]}]},"specs":["F xhi"]})js"));
  ASSERT_FALSE(response.find("ok")->as_bool());
  const Json* error = response.find("error");
  ASSERT_TRUE(error);
  EXPECT_EQ(field(*error, "code"), "bad-request");
  EXPECT_NE(field(*error, "message").find("unsatisfiable"), std::string::npos);
  EXPECT_NE(field(*error, "message").find("'x'"), std::string::npos);
  // An in-domain guard on the same wire works fine afterwards.
  const Json retry = req(server.handle_line(
      R"js({"op":"check","model":{"vars":[{"name":"x","lo":0,"hi":1,"init":0}],)js"
      R"js("transitions":[{"name":"t1","fairness":"weak",)js"
      R"js("guard":[{"var":0,"op":0,"rhs":1}],)js"
      R"js("effects":[{"var":0,"src":0,"add":1}]}]},"specs":["F xhi"]})js"));
  ASSERT_TRUE(retry.find("ok")->as_bool());
  EXPECT_EQ(field(*result0(retry), "verdict"), "holds");
}

// ------------------------------------------------- budgets and admission

TEST(ServeServer, ExpiredDeadlineYieldsStructuredUnknown) {
  Server server;
  const Json response = req(server.handle_line(
      R"js({"op":"check","model":"peterson","specs":["G(t1 -> F c1)"],"budget_ms":0})js"));
  ASSERT_TRUE(response.find("ok")->as_bool());
  const Json* r = result0(response);
  ASSERT_TRUE(r);
  EXPECT_EQ(field(*r, "verdict"), "unknown");
  EXPECT_EQ(field(*r, "outcome"), "budget-deadline");
  bool v004 = false;
  for (const auto& d : response.find("diagnostics")->as_array())
    v004 = v004 || field(d, "code") == "MPH-V004";
  EXPECT_TRUE(v004) << "the between-legs gate must emit MPH-V004";
  EXPECT_EQ(server.verdict_cache().size(), 0u) << "exhaustion must never be cached";
  EXPECT_EQ(server.budget_exhaustions(), 1u);

  // The same spec without the dead budget computes normally.
  const Json retry = req(server.handle_line(
      R"js({"op":"check","model":"peterson","specs":["G(t1 -> F c1)"]})js"));
  EXPECT_EQ(field(*result0(retry), "cache"), "miss");
  EXPECT_EQ(field(*result0(retry), "verdict"), "holds");
}

TEST(ServeServer, RequestBudgetsAreClampedToServerCeilings) {
  ServerConfig config;
  config.max_budget_states = 3;  // below peterson's 15 reachable states
  Server server(config);
  const Json response = req(server.handle_line(
      R"js({"op":"check","model":"peterson","specs":["G(t1 -> F c1)"],)js"
      R"js("budget_states":1000000})js"));
  const Json* r = result0(response);
  ASSERT_TRUE(r);
  EXPECT_EQ(field(*r, "verdict"), "unknown")
      << "a request may only lower the server's state ceiling";
  EXPECT_EQ(field(*r, "outcome"), "budget-states");
}

TEST(ServeServer, BaseBudgetDeadlineCombinesWithRequestDeadline) {
  ServerConfig config;
  config.base_budget.with_deadline(Budget::Clock::now());  // already expired
  Server server(config);
  const Json response = req(server.handle_line(
      R"js({"op":"check","model":"peterson","specs":["G !(c1 & c2)"],)js"
      R"js("budget_ms":60000})js"));
  const Json* r = result0(response);
  ASSERT_TRUE(r);
  EXPECT_EQ(field(*r, "outcome"), "budget-deadline")
      << "the earlier of base and request deadlines must win";
}

// ----------------------------------------------------- protocol behavior

TEST(ServeServer, MalformedRequestsAreStructuredErrors) {
  Server server;
  const Json bad_json = req(server.handle_line("{nope"));
  EXPECT_FALSE(bad_json.find("ok")->as_bool());
  EXPECT_EQ(field(*bad_json.find("error"), "code"), "bad-json");

  const Json bad_op = req(server.handle_line(R"js({"op":"frobnicate"})js"));
  EXPECT_EQ(field(*bad_op.find("error"), "code"), "bad-request");

  const Json bad_model = req(server.handle_line(
      R"js({"op":"check","model":{"vars":[{"name":"x","lo":1,"hi":0,"init":0}],)js"
      R"js("transitions":[]},"specs":["G p"]})js"));
  EXPECT_EQ(field(*bad_model.find("error"), "code"), "bad-request")
      << "an empty variable domain must be rejected at validation";

  const Json bad_budget = req(server.handle_line(
      R"js({"op":"check","model":"peterson","specs":["G p"],"budget_ms":"soon"})js"));
  EXPECT_EQ(field(*bad_budget.find("error"), "code"), "bad-request");

  // Duplicate variable names would make atom bindings ambiguous (two vars
  // both answering "x" / "xhi"): rejected at validation, never half-built.
  const Json dup_var = req(server.handle_line(
      R"js({"op":"check","model":{"vars":[{"name":"x","lo":0,"hi":1,"init":0},)js"
      R"js({"name":"x","lo":0,"hi":2,"init":0}],)js"
      R"js("transitions":[]},"specs":["G p"]})js"));
  EXPECT_EQ(field(*dup_var.find("error"), "code"), "bad-request");
  EXPECT_NE(field(*dup_var.find("error"), "message").find("duplicate"),
            std::string::npos);

  // The server survives all of the above.
  const Json ok = req(server.handle_line(R"js({"op":"parse","formula":"G p"})js"));
  EXPECT_TRUE(ok.find("ok")->as_bool());
}

TEST(ServeServer, BuiltinModelNamesHaveOneSpelling) {
  // Each built-in model has exactly one name, so it has exactly one builtin
  // digest: a family parameter with a leading zero is an unknown model.
  Server server;
  const Json canonical = req(server.handle_line(
      R"js({"op":"check","model":"dining-3","specs":["G !(eat1 & eat2)"]})js"));
  EXPECT_TRUE(canonical.find("ok")->as_bool());
  for (const char* name : {"dining-03", "ring-03", "dining-003", "dining-", "dining-3x"}) {
    const Json refused = req(server.handle_line(
        std::string(R"js({"op":"check","model":")js") + name +
        R"js(","specs":["G !(eat1 & eat2)"]})js"));
    EXPECT_FALSE(refused.find("ok")->as_bool()) << name;
    EXPECT_EQ(field(*refused.find("error"), "code"), "bad-request") << name;
    EXPECT_THROW(resolve_model(Json::string(name)), std::invalid_argument) << name;
  }
}

TEST(ServeServer, IdEchoesBackFirst) {
  Server server;
  const Json response =
      req(server.handle_line(R"js({"op":"parse","id":41,"formula":"G p"})js"));
  ASSERT_FALSE(response.as_object().empty());
  EXPECT_EQ(response.as_object()[0].first, "id");
  EXPECT_EQ(response.find("id")->as_u64(), std::uint64_t{41});
}

TEST(ServeServer, StatsCountEndpointsAndCaches) {
  Server server;
  (void)server.handle_line(R"js({"op":"parse","formula":"G p"})js");
  (void)server.handle_line(
      R"js({"op":"check","model":"peterson","specs":["G !(c1 & c2)"]})js");
  (void)server.handle_line(
      R"js({"op":"check","model":"peterson","specs":["G !(c1 & c2)"]})js");
  (void)server.handle_line("garbage");
  const Json stats = *req(server.handle_line(R"js({"op":"stats"})js")).find("stats");
  EXPECT_EQ(stats.find("requests")->as_u64(), std::uint64_t{4});
  const Json& endpoints = *stats.find("endpoints");
  EXPECT_EQ(endpoints.find("parse")->find("count")->as_u64(), std::uint64_t{1});
  EXPECT_EQ(endpoints.find("check")->find("count")->as_u64(), std::uint64_t{2});
  EXPECT_EQ(endpoints.find("invalid")->find("errors")->as_u64(), std::uint64_t{1});
  const Json& verdict = *stats.find("caches")->find("verdict");
  EXPECT_EQ(verdict.find("hits")->as_u64(), std::uint64_t{1});
  EXPECT_EQ(verdict.find("misses")->as_u64(), std::uint64_t{1});
  EXPECT_NE(server.stats_text().find("verdict cache"), std::string::npos);
}

TEST(ServeMetrics, PercentilesAreOrderStatistics) {
  EndpointMetrics m;
  EXPECT_EQ(m.percentile(0.5), 0.0);
  for (double v : {5.0, 1.0, 9.0, 3.0, 7.0}) m.latency_us.push_back(v);
  EXPECT_EQ(m.percentile(0.0), 1.0);
  EXPECT_EQ(m.percentile(0.5), 5.0);  // sorted[2]
  EXPECT_EQ(m.percentile(0.99), 9.0);
}

TEST(ServeMetrics, NearestRankNeverRoundsUpARank) {
  // The regression this sweep fixed: q·n truncation sat one rank high, so
  // p50 of {1, 2} reported 2. Nearest rank is the ⌈q·n⌉-th smallest.
  EndpointMetrics m;
  m.latency_us = {2.0, 1.0};
  EXPECT_EQ(m.percentile(0.5), 1.0);
  EXPECT_EQ(m.percentile(0.51), 2.0);
  EXPECT_EQ(m.percentile(1.0), 2.0);
  m.latency_us = {4.0};
  EXPECT_EQ(m.percentile(0.5), 4.0);
  EXPECT_EQ(m.percentile(0.0), 4.0);
}

TEST(ServeMetrics, LatencyRingKeepsNewestSamples) {
  EndpointMetrics m;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) m.record(v, 3);
  ASSERT_EQ(m.latency_us.size(), 3u) << "the ring must stay bounded at cap";
  EXPECT_EQ(m.percentile(0.0), 3.0) << "the oldest surviving sample is 3";
  EXPECT_EQ(m.percentile(1.0), 5.0);
  // Another wrap replaces 3 (the oldest) next.
  m.record(6.0, 3);
  EXPECT_EQ(m.percentile(0.0), 4.0);
  m.record(7.0, 0);
  EXPECT_EQ(m.latency_us.size(), 3u) << "cap 0 records nothing";
}

// ------------------------------------------------------------- the oracle

TEST(ServeReplay, OracleAgreesOnSeededStreams) {
  const fuzz::Oracle oracle = serve_replay_oracle();
  Rng rng(20260808);
  int checked = 0;
  for (int i = 0; i < 10; ++i) {
    const fuzz::FuzzCase c = oracle.generate(rng);
    const fuzz::CheckOutcome outcome = oracle.check(c, Budget());
    EXPECT_NE(outcome.kind, fuzz::CheckOutcome::Kind::Fail) << outcome.message;
    if (outcome.kind == fuzz::CheckOutcome::Kind::Pass) ++checked;
  }
  EXPECT_GT(checked, 0) << "the seeded streams must exercise the pass path";
}

}  // namespace
}  // namespace mph::serve
