// Every diagnostic code in the registry, demonstrated: for each code a
// crafted bad input that fires exactly it (asserted via has_code), plus
// clean inputs that produce zero diagnostics — the linter must not cry wolf
// on well-formed models, automata or specifications.
#include <gtest/gtest.h>

#include "src/analysis/automaton_lint.hpp"
#include "src/analysis/fts_lint.hpp"
#include "src/analysis/passes.hpp"
#include "src/analysis/spec_lint.hpp"
#include "src/core/paper_checks.hpp"
#include "src/fts/checker.hpp"
#include "src/fts/programs.hpp"
#include "src/ltl/ast.hpp"
#include "src/ltl/syntactic.hpp"

namespace mph {
namespace {

using analysis::DiagnosticEngine;
using analysis::Severity;
using omega::Acceptance;

lang::Alphabet ab() { return lang::Alphabet::plain({"a", "b"}); }

// ---------------------------------------------------------------- engine --

TEST(Diagnostics, RegistryIsCompleteAndQueryable) {
  auto codes = analysis::code_registry();
  EXPECT_GE(codes.size(), 25u);
  for (const auto& info : codes) {
    const auto* found = analysis::find_code(info.code);
    ASSERT_NE(found, nullptr) << info.code;
    EXPECT_EQ(found->code, info.code);
  }
  EXPECT_EQ(analysis::find_code("MPH-X999"), nullptr);
}

TEST(Diagnostics, EmitCountsAndRenders) {
  DiagnosticEngine e;
  auto& d = e.emit("MPH-A004", "toy", "the automaton accepts no word at all");
  d.witness = "w";
  e.emit("MPH-A001", "toy", "1 state(s) unreachable");
  EXPECT_TRUE(e.has_errors());
  EXPECT_EQ(e.count(Severity::Error), 1u);
  EXPECT_EQ(e.count(Severity::Warning), 1u);
  EXPECT_EQ(e.count_code("MPH-A004"), 1u);
  EXPECT_TRUE(e.has_code("MPH-A001"));
  EXPECT_FALSE(e.has_code("MPH-A002"));
  auto text = e.to_text();
  EXPECT_NE(text.find("error MPH-A004 [toy]"), std::string::npos);
  EXPECT_NE(text.find("witness: w"), std::string::npos);
  EXPECT_NE(text.find("1 error(s), 1 warning(s)"), std::string::npos);
}

TEST(Diagnostics, JsonIsEscapedAndStructured) {
  DiagnosticEngine e;
  e.emit("MPH-F006", "model \"m\"", "line1\nline2");
  auto json = e.to_json();
  EXPECT_NE(json.find("\"code\": \"MPH-F006\""), std::string::npos);
  EXPECT_NE(json.find("model \\\"m\\\""), std::string::npos);
  EXPECT_NE(json.find("line1\\nline2"), std::string::npos);
  EXPECT_EQ(json.find("fix_hint"), std::string::npos);  // empty fields omitted
}

TEST(Diagnostics, JsonEscapeCoversEveryControlCharacter) {
  // Regression net for the wire layer (docs/SERVE.md): mph-serve responses
  // and `--json` reports are parsed by strict JSON parsers that reject raw
  // control characters, so every one of the 32 ASCII controls must leave
  // json_escape in escaped form — the common ones as their short escapes,
  // the rest as \u00XX.
  std::string all;
  for (int c = 0; c < 0x20; ++c) all.push_back(static_cast<char>(c));
  const std::string out = analysis::json_escape(all);
  for (char c : out)
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u)
        << "raw control character survived escaping";
  EXPECT_NE(out.find("\\n"), std::string::npos);
  EXPECT_NE(out.find("\\r"), std::string::npos);
  EXPECT_NE(out.find("\\t"), std::string::npos);
  EXPECT_NE(out.find("\\u0000"), std::string::npos);
  EXPECT_NE(out.find("\\u001f"), std::string::npos);
  // Quotes and backslashes double; plain text and 8-bit bytes pass through.
  EXPECT_EQ(analysis::json_escape("say \"hi\\\""), "say \\\"hi\\\\\\\"");
  EXPECT_EQ(analysis::json_escape("plain text"), "plain text");
}

TEST(Diagnostics, JsonWithEmbeddedControlsStaysOneLine) {
  // A counterexample trace smuggled into a witness used to be able to break
  // line-delimited consumers; the rendered document must stay one line with
  // no raw controls regardless of diagnostic content.
  DiagnosticEngine e;
  auto& d = e.emit("MPH-F006", "m\ro\nd\tel", "msg\x01with\x1f controls");
  d.witness = "s0 \n-> s1";
  const std::string json = e.to_json();
  EXPECT_EQ(json.find('\n'), std::string::npos);
  EXPECT_EQ(json.find('\r'), std::string::npos);
  EXPECT_NE(json.find("m\\ro\\nd\\tel"), std::string::npos);
  EXPECT_NE(json.find("msg\\u0001with\\u001f controls"), std::string::npos);
  EXPECT_NE(json.find("s0 \\n-> s1"), std::string::npos);
}

TEST(Diagnostics, EmitRejectsUnknownCode) {
  DiagnosticEngine e;
  EXPECT_THROW(e.emit("MPH-Z001", "s", "m"), std::invalid_argument);
}

TEST(Passes, RegistryDispatchesBySubjectKind) {
  auto passes = analysis::registered_passes();
  EXPECT_GE(passes.size(), 7u);
  omega::DetOmega m(ab(), 1, 0, Acceptance::buchi(0));
  m.add_mark(0, 0);
  DiagnosticEngine e;
  analysis::run_passes(analysis::Subject::of(m, "toy"), e);
  EXPECT_EQ(e.count(Severity::Error), 0u);
  EXPECT_TRUE(e.has_code("MPH-A005"));  // single universal state
}

// ------------------------------------------------- deterministic automata --

TEST(AutomatonLint, CleanDetOmegaHasNoFindings) {
  // Inf(0) with the mark on a reachable state on a cycle: L = (a+b)^ω = Σ^ω?
  // No — keep it non-universal: mark only the a-loop state.
  omega::DetOmega m(ab(), 2, 0, Acceptance::buchi(0));
  m.set_transition(0, 0, 0);
  m.set_transition(0, 1, 1);
  m.set_transition(1, 0, 0);
  m.set_transition(1, 1, 1);
  m.add_mark(0, 0);
  DiagnosticEngine e;
  analysis::lint_automaton(m, "clean", e);
  EXPECT_EQ(e.diagnostics().size(), 0u) << e.to_text();
}

TEST(AutomatonLint, A001UnreachableStates) {
  omega::DetOmega m(ab(), 2, 0, Acceptance::buchi(0));
  m.add_mark(0, 0);  // state 1 keeps its initial self-loops, unreachable
  DiagnosticEngine e;
  analysis::lint_det_structure(m, "toy", e);
  EXPECT_TRUE(e.has_code("MPH-A001")) << e.to_text();
}

TEST(AutomatonLint, A002NonMinimalDeadRegion) {
  // 0 is accepting on its a-loop; b leads into a two-state dead chain.
  omega::DetOmega m(ab(), 3, 0, Acceptance::buchi(0));
  m.set_transition(0, 0, 0);
  m.set_transition(0, 1, 1);
  m.set_transition(1, 0, 2);
  m.set_transition(1, 1, 2);
  m.set_transition(2, 0, 2);
  m.set_transition(2, 1, 2);
  m.add_mark(0, 0);
  DiagnosticEngine e;
  analysis::lint_det_language(m, "toy", e);
  EXPECT_TRUE(e.has_code("MPH-A002")) << e.to_text();
  EXPECT_FALSE(e.has_code("MPH-A004"));
}

TEST(AutomatonLint, A002NotEmittedForSingleTrap) {
  omega::DetOmega m(ab(), 2, 0, Acceptance::buchi(0));
  m.set_transition(0, 0, 0);
  m.set_transition(0, 1, 1);  // single dead sink: idiomatic, not a finding
  m.add_mark(0, 0);
  DiagnosticEngine e;
  analysis::lint_det_language(m, "toy", e);
  EXPECT_FALSE(e.has_code("MPH-A002")) << e.to_text();
}

TEST(AutomatonLint, A003MarkOnUnreachableState) {
  omega::DetOmega m(ab(), 2, 0, Acceptance::buchi(0));
  m.add_mark(0, 0);
  m.add_mark(1, 0);  // unreachable and marked
  DiagnosticEngine e;
  analysis::lint_det_structure(m, "toy", e);
  EXPECT_TRUE(e.has_code("MPH-A003")) << e.to_text();
}

TEST(AutomatonLint, A004EmptyLanguage) {
  omega::DetOmega m(ab(), 1, 0, Acceptance::buchi(0));  // mark 0 never placed
  DiagnosticEngine e;
  analysis::lint_det_language(m, "toy", e);
  EXPECT_TRUE(e.has_code("MPH-A004")) << e.to_text();
}

TEST(AutomatonLint, A005UniversalLanguage) {
  omega::DetOmega m(ab(), 1, 0, Acceptance::buchi(0));
  m.add_mark(0, 0);
  DiagnosticEngine e;
  analysis::lint_det_language(m, "toy", e);
  EXPECT_TRUE(e.has_code("MPH-A005")) << e.to_text();
}

TEST(AutomatonLint, A006AcceptanceMentionsUnplacedMark) {
  omega::DetOmega m(ab(), 1, 0,
                    Acceptance::disj(Acceptance::inf(0), Acceptance::inf(1)));
  m.add_mark(0, 0);  // mark 1 placed nowhere
  DiagnosticEngine e;
  analysis::lint_det_structure(m, "toy", e);
  EXPECT_TRUE(e.has_code("MPH-A006")) << e.to_text();
}

TEST(AutomatonLint, A007WeakAutomaton) {
  // Two uniformly-accepting SCCs, one rejecting sink; acceptance mentions
  // two marks though per-SCC constancy makes the condition overpowered.
  auto abc = lang::Alphabet::plain({"a", "b", "c"});
  omega::DetOmega m(abc, 3, 0,
                    Acceptance::disj(Acceptance::inf(0), Acceptance::inf(1)));
  m.set_transition(0, 0, 0);
  m.set_transition(0, 1, 1);
  m.set_transition(0, 2, 2);
  m.set_transition(1, 0, 1);
  m.set_transition(1, 1, 1);
  m.set_transition(1, 2, 2);
  m.set_transition(2, 0, 2);
  m.set_transition(2, 1, 2);
  m.set_transition(2, 2, 2);
  m.add_mark(0, 0);
  m.add_mark(1, 1);
  DiagnosticEngine e;
  analysis::lint_det_scc(m, "toy", e);
  EXPECT_TRUE(e.has_code("MPH-A007")) << e.to_text();
}

TEST(AutomatonLint, A011AcceptanceShapeDowngrade) {
  // Last-symbol tracker with Rabin acceptance Inf(0) ∧ Fin(1): the language
  // is "finitely many b" = ◇□a — persistence, recognizable co-Büchi.
  omega::DetOmega m(ab(), 2, 0,
                    Acceptance::conj(Acceptance::inf(0), Acceptance::fin(1)));
  m.set_transition(0, 0, 0);
  m.set_transition(0, 1, 1);
  m.set_transition(1, 0, 0);
  m.set_transition(1, 1, 1);
  m.add_mark(0, 0);
  m.add_mark(1, 1);
  DiagnosticEngine e;
  analysis::lint_det_scc(m, "toy", e);
  EXPECT_TRUE(e.has_code("MPH-A011")) << e.to_text();
}

// ------------------------------------------------------------------- NBA --

TEST(AutomatonLint, CleanNbaHasNoFindings) {
  omega::Nba n(ab());
  auto q0 = n.add_state();
  n.add_initial(q0);
  n.set_accepting(q0);
  n.add_edge(q0, 0, q0);
  n.add_edge(q0, 1, q0);
  DiagnosticEngine e;
  analysis::lint_automaton(n, "clean", e);
  EXPECT_EQ(e.diagnostics().size(), 0u) << e.to_text();
}

TEST(AutomatonLint, A008NbaWithoutInitialState) {
  omega::Nba n(ab());
  n.add_state();
  DiagnosticEngine e;
  analysis::lint_automaton(n, "toy", e);
  EXPECT_TRUE(e.has_code("MPH-A008"));
  EXPECT_TRUE(e.has_errors());
}

TEST(AutomatonLint, A009DuplicateEdges) {
  omega::Nba n(ab());
  auto q0 = n.add_state();
  n.add_initial(q0);
  n.set_accepting(q0);
  n.add_edge(q0, 0, q0);
  n.add_edge(q0, 0, q0);  // duplicate
  n.add_edge(q0, 1, q0);
  DiagnosticEngine e;
  analysis::lint_automaton(n, "toy", e);
  EXPECT_TRUE(e.has_code("MPH-A009")) << e.to_text();
}

TEST(AutomatonLint, A010NonTotalNba) {
  omega::Nba n(ab());
  auto q0 = n.add_state();
  n.add_initial(q0);
  n.set_accepting(q0);
  n.add_edge(q0, 0, q0);  // no edge on b
  DiagnosticEngine e;
  analysis::lint_automaton(n, "toy", e);
  EXPECT_TRUE(e.has_code("MPH-A010")) << e.to_text();
}

TEST(AutomatonLint, NbaEmptyAndDeadRegion) {
  omega::Nba n(ab());
  auto q0 = n.add_state();
  auto q1 = n.add_state();
  n.add_initial(q0);
  n.add_edge(q0, 0, q1);
  n.add_edge(q1, 0, q1);  // no accepting state anywhere
  DiagnosticEngine e;
  analysis::lint_automaton(n, "toy", e);
  EXPECT_TRUE(e.has_code("MPH-A004"));

  // Dead region ≥ 2: accepting loop plus a two-state dead tail.
  omega::Nba n2(ab());
  auto p0 = n2.add_state();
  auto p1 = n2.add_state();
  auto p2 = n2.add_state();
  n2.add_initial(p0);
  n2.set_accepting(p0);
  n2.add_edge(p0, 0, p0);
  n2.add_edge(p0, 1, p1);
  n2.add_edge(p1, 0, p2);
  n2.add_edge(p1, 1, p2);
  n2.add_edge(p2, 0, p2);
  n2.add_edge(p2, 1, p2);
  DiagnosticEngine e2;
  analysis::lint_automaton(n2, "toy", e2);
  EXPECT_TRUE(e2.has_code("MPH-A002")) << e2.to_text();
}

// ------------------------------------------------------------------- DFA --

TEST(AutomatonLint, CleanDfaHasNoFindings) {
  lang::Dfa d(ab(), 2, 0);
  d.set_transition(0, 0, 1);
  d.set_transition(0, 1, 0);
  d.set_transition(1, 0, 0);
  d.set_transition(1, 1, 1);
  d.set_accepting(1);
  DiagnosticEngine e;
  analysis::lint_automaton(d, "clean", e);
  EXPECT_EQ(e.diagnostics().size(), 0u) << e.to_text();
}

TEST(AutomatonLint, DfaEmptyUniversalUnreachableTrap) {
  lang::Dfa empty(ab(), 1, 0);  // no accepting state
  DiagnosticEngine e1;
  analysis::lint_automaton(empty, "toy", e1);
  EXPECT_TRUE(e1.has_code("MPH-A004"));

  lang::Dfa universal(ab(), 2, 0);  // state 1 unreachable; 0 accepts all
  universal.set_accepting(0);
  DiagnosticEngine e2;
  analysis::lint_automaton(universal, "toy", e2);
  EXPECT_TRUE(e2.has_code("MPH-A005"));
  EXPECT_TRUE(e2.has_code("MPH-A001"));

  lang::Dfa trap(ab(), 3, 0);  // two-state reject-trap chain after b
  trap.set_accepting(0);
  trap.set_transition(0, 0, 0);
  trap.set_transition(0, 1, 1);
  trap.set_transition(1, 0, 2);
  trap.set_transition(1, 1, 2);
  trap.set_transition(2, 0, 2);
  trap.set_transition(2, 1, 2);
  DiagnosticEngine e3;
  analysis::lint_automaton(trap, "toy", e3);
  EXPECT_TRUE(e3.has_code("MPH-A012")) << e3.to_text();
}

// ------------------------------------------------------------------- FTS --

TEST(FtsLint, CleanModelHasNoFindings) {
  auto prog = fts::programs::peterson();
  DiagnosticEngine e;
  analysis::lint_fts(prog.system, "peterson", e);
  EXPECT_EQ(e.diagnostics().size(), 0u) << e.to_text();
}

TEST(FtsLint, F001TrivialSystem) {
  fts::Fts no_vars;
  DiagnosticEngine e1;
  analysis::lint_fts(no_vars, "toy", e1);
  EXPECT_TRUE(e1.has_code("MPH-F001"));

  fts::Fts no_transitions;
  no_transitions.add_var("x", 0, 1, 0);
  DiagnosticEngine e2;
  analysis::lint_fts(no_transitions, "toy", e2);
  EXPECT_TRUE(e2.has_code("MPH-F001"));
}

TEST(FtsLint, F002F005DeadTransitionWithVacuousFairness) {
  fts::Fts sys;
  auto x = sys.add_var("x", 0, 1, 0);
  sys.add_transition("flip", fts::Fairness::None,
                     [](const fts::Valuation&) { return true; },
                     [x](fts::Valuation& v) { v[x] = 1 - v[x]; });
  sys.add_transition("never", fts::Fairness::Weak,
                     [x](const fts::Valuation& v) { return v[x] == 5; },  // out of domain
                     [](fts::Valuation&) {});
  DiagnosticEngine e;
  analysis::lint_fts(sys, "toy", e);
  EXPECT_TRUE(e.has_code("MPH-F002")) << e.to_text();
  EXPECT_TRUE(e.has_code("MPH-F005")) << e.to_text();
}

TEST(FtsLint, F003ConstantVariable) {
  fts::Fts sys;
  auto x = sys.add_var("x", 0, 1, 0);
  sys.add_var("frozen", 0, 3, 2);  // read by the guard, never assigned
  auto frozen = sys.var_index("frozen");
  sys.add_transition("flip", fts::Fairness::None,
                     [frozen](const fts::Valuation& v) { return v[frozen] == 2; },
                     [x](fts::Valuation& v) { v[x] = 1 - v[x]; });
  DiagnosticEngine e;
  analysis::lint_fts(sys, "toy", e);
  EXPECT_TRUE(e.has_code("MPH-F003")) << e.to_text();
  EXPECT_FALSE(e.has_code("MPH-F004")) << e.to_text();  // it IS read
}

TEST(FtsLint, F004WriteOnlyVariable) {
  fts::Fts sys;
  auto x = sys.add_var("x", 0, 1, 0);
  auto log = sys.add_var("log", 0, 1, 0);  // written, never read
  sys.add_transition("flip", fts::Fairness::None,
                     [](const fts::Valuation&) { return true; },
                     [x, log](fts::Valuation& v) {
                       v[x] = 1 - v[x];
                       v[log] = 1;
                     });
  DiagnosticEngine e;
  analysis::lint_fts(sys, "toy", e);
  EXPECT_TRUE(e.has_code("MPH-F004")) << e.to_text();
  EXPECT_FALSE(e.has_code("MPH-F003")) << e.to_text();  // it changes value
}

TEST(FtsLint, F006Deadlock) {
  fts::Fts sys;
  auto x = sys.add_var("x", 0, 2, 0);
  sys.add_transition("step", fts::Fairness::None,
                     [x](const fts::Valuation& v) { return v[x] < 2; },
                     [x](fts::Valuation& v) { v[x] += 1; });
  DiagnosticEngine e;
  analysis::lint_fts(sys, "toy", e);
  EXPECT_TRUE(e.has_code("MPH-F006")) << e.to_text();
  EXPECT_NE(e.to_text().find("x=2"), std::string::npos);  // witness valuation
}

TEST(FtsLint, F007ExplorationBudgetExceeded) {
  auto prog = fts::programs::peterson();
  DiagnosticEngine e;
  analysis::FtsLintOptions opts;
  opts.max_states = 2;
  analysis::lint_fts(prog.system, "peterson", e, opts);
  EXPECT_TRUE(e.has_code("MPH-F007")) << e.to_text();
}

// ------------------------------------------------------------------ spec --

std::vector<ltl::Formula> parse_all(const std::vector<std::string>& texts) {
  std::vector<ltl::Formula> out;
  for (const auto& t : texts) out.push_back(ltl::parse_formula(t));
  return out;
}

TEST(SpecLint, CleanSpecificationHasNoFindings) {
  DiagnosticEngine e;
  analysis::SpecLintOptions opts;
  opts.checklist = false;
  auto r = analysis::lint_spec(parse_all({"G !(c1 & c2)", "G(t1 -> F c1)"}), e, opts);
  EXPECT_EQ(e.diagnostics().size(), 0u) << e.to_text();
  EXPECT_TRUE(r.semantic_ran);
  ASSERT_TRUE(r.model.has_value());  // the conjunction is satisfiable
}

TEST(SpecLint, S001UnsatisfiableRequirement) {
  DiagnosticEngine e;
  analysis::SpecLintOptions opts;
  opts.checklist = false;
  analysis::lint_spec(parse_all({"G p & F !p"}), e, opts);
  EXPECT_TRUE(e.has_code("MPH-S001")) << e.to_text();
  EXPECT_TRUE(e.has_errors());
}

TEST(SpecLint, S002Tautology) {
  DiagnosticEngine e;
  analysis::SpecLintOptions opts;
  opts.checklist = false;
  analysis::lint_spec(parse_all({"G p | F !p"}), e, opts);
  EXPECT_TRUE(e.has_code("MPH-S002")) << e.to_text();
}

TEST(SpecLint, S003RedundantRequirement) {
  DiagnosticEngine e;
  analysis::SpecLintOptions opts;
  opts.checklist = false;
  analysis::lint_spec(parse_all({"G(p & q)", "G p"}), e, opts);
  EXPECT_TRUE(e.has_code("MPH-S003")) << e.to_text();
}

TEST(SpecLint, S004SyntacticSemanticDowngrade) {
  DiagnosticEngine e;
  analysis::SpecLintOptions opts;
  opts.checklist = false;
  auto r = analysis::lint_spec(parse_all({"G F p & F G p"}), e, opts);
  EXPECT_TRUE(e.has_code("MPH-S004")) << e.to_text();
  ASSERT_TRUE(r.items[0].semantic.has_value());
  EXPECT_EQ(r.items[0].semantic->lowest(), core::PropertyClass::Persistence);
}

TEST(SpecLint, S005ContradictoryConjunction) {
  DiagnosticEngine e;
  analysis::SpecLintOptions opts;
  opts.checklist = false;
  auto r = analysis::lint_spec(parse_all({"G p", "F !p"}), e, opts);
  EXPECT_TRUE(e.has_code("MPH-S005")) << e.to_text();
  EXPECT_FALSE(e.has_code("MPH-S001"));  // each requirement alone is fine
  EXPECT_FALSE(r.model.has_value());
}

TEST(SpecLint, S006AllSafetyTrapAndS007Checklist) {
  DiagnosticEngine e;
  auto r = analysis::lint_spec(parse_all({"G !(c1 & c2)", "G(c1 -> O t1)"}), e);
  EXPECT_TRUE(e.has_code("MPH-S006")) << e.to_text();
  EXPECT_EQ(e.count_code("MPH-S007"), 5u) << e.to_text();  // all but safety missing
  ASSERT_TRUE(r.model.has_value());  // the do-nothing system — trap, not bug
}

TEST(SpecLint, S008OutsideFragment) {
  DiagnosticEngine e;
  analysis::SpecLintOptions opts;
  opts.checklist = false;
  auto r = analysis::lint_spec(parse_all({"F(p & X(!p & X p))"}), e, opts);
  EXPECT_TRUE(e.has_code("MPH-S008")) << e.to_text();
  EXPECT_FALSE(r.items[0].semantic.has_value());
  EXPECT_EQ(r.items[0].best().lowest(), core::PropertyClass::Guarantee);
}

TEST(SpecLint, S009StructuralDuplicate) {
  DiagnosticEngine e;
  analysis::SpecLintOptions opts;
  opts.checklist = false;
  analysis::lint_spec(parse_all({"G p", "G p"}), e, opts);
  EXPECT_TRUE(e.has_code("MPH-S009")) << e.to_text();
}

TEST(SpecLint, S010TooManyAtomsSkipsSemantic) {
  DiagnosticEngine e;
  analysis::SpecLintOptions opts;
  opts.checklist = false;
  opts.max_atoms = 1;
  auto r = analysis::lint_spec(parse_all({"G(p -> F q)"}), e, opts);
  EXPECT_TRUE(e.has_code("MPH-S010")) << e.to_text();
  EXPECT_FALSE(r.semantic_ran);
  EXPECT_FALSE(r.items[0].semantic.has_value());
}

TEST(SpecLint, TextFrontEndParsesAndLints) {
  DiagnosticEngine e;
  auto r = analysis::lint_spec_texts({"G !(c1 & c2)", "G(t1 -> F c1)"}, e);
  EXPECT_FALSE(e.has_code("MPH-S006"));
  EXPECT_EQ(r.items.size(), 2u);
  EXPECT_THROW(analysis::lint_spec_texts({"G ("}, e), std::invalid_argument);
}

// ------------------------------------------------ checker / paper wiring --

TEST(CheckerDiagnostics, V002AndV003OnViolation) {
  auto prog = fts::programs::trivial_mutex();
  DiagnosticEngine e;
  fts::CheckOptions options;
  options.diagnostics = &e;
  auto result = fts::check(prog.system, ltl::parse_formula("G(t1 -> F c1)"), prog.atoms, options);
  EXPECT_FALSE(result.holds);
  EXPECT_TRUE(e.has_code("MPH-V002")) << e.to_text();  // product-size note
  EXPECT_TRUE(e.has_code("MPH-V003")) << e.to_text();  // violation warning
  EXPECT_FALSE(e.has_code("MPH-V001"));  // hierarchy fragment: no fallback
}

TEST(CheckerDiagnostics, V001TableauFallback) {
  auto prog = fts::programs::peterson();
  DiagnosticEngine e;
  fts::CheckOptions options;
  options.diagnostics = &e;
  auto result =
      fts::check(prog.system, ltl::parse_formula("F(t1 & X(!t1 & X t1))"), prog.atoms, options);
  EXPECT_TRUE(e.has_code("MPH-V001")) << e.to_text();
  (void)result;
}

TEST(PaperCheckDiagnostics, P001MultiPairUnsoundness) {
  omega::DetOmega m(ab(), 2, 0, Acceptance::t());
  m.set_transition(0, 0, 1);
  m.set_transition(0, 1, 1);
  m.set_transition(1, 0, 0);
  m.set_transition(1, 1, 0);
  std::vector<omega::StreettPair> two_pairs{{{0}, {}}, {{1}, {}}};
  DiagnosticEngine e;
  core::paper::literal_safety_check(m, two_pairs, &e);
  EXPECT_TRUE(e.has_code("MPH-P001")) << e.to_text();

  DiagnosticEngine e1;
  core::paper::literal_safety_check(m, {{{0}, {}}}, &e1);
  EXPECT_FALSE(e1.has_code("MPH-P001"));  // single pair: the paper is right

  DiagnosticEngine e2;
  core::paper::literal_guarantee_check(m, two_pairs, &e2);
  EXPECT_TRUE(e2.has_code("MPH-P001"));
}

// -------------------------------------------------------- normalize-lint --

TEST(NormalizeLint, N001ExactClassWithWitness) {
  std::vector<ltl::Formula> spec{ltl::parse_formula("G(p -> F q)")};
  DiagnosticEngine e;
  auto r = analysis::lint_normalize(spec, e);
  EXPECT_TRUE(e.has_code("MPH-N001")) << e.to_text();
  ASSERT_EQ(r.exact_count, 1u);
  ASSERT_TRUE(r.items[0].exact.has_value());
  EXPECT_TRUE(r.items[0].exact->recurrence);
  EXPECT_TRUE(r.items[0].normal_form.has_value());
}

TEST(NormalizeLint, N002CoarserSyntacticClassSuggestsRewrite) {
  // F(p ∧ Fq) is exactly guarantee, but no syntactic rule shows it.
  std::vector<ltl::Formula> spec{ltl::parse_formula("F(p & F q)")};
  DiagnosticEngine e;
  auto r = analysis::lint_normalize(spec, e);
  ASSERT_EQ(r.exact_count, 1u);
  EXPECT_TRUE(r.items[0].exact->guarantee);
  if (!ltl::syntactic_classification(spec[0]).guarantee) {
    EXPECT_TRUE(e.has_code("MPH-N002")) << e.to_text();
  }
}

TEST(NormalizeLint, N003BudgetStopNeverMisreports) {
  std::vector<ltl::Formula> spec{ltl::parse_formula("F(p & (q U p)) & G F(p R q)")};
  DiagnosticEngine e;
  analysis::NormalizeLintOptions opt;
  opt.normalize.budget = Budget().with_state_cap(3);
  auto r = analysis::lint_normalize(spec, e, opt);
  EXPECT_TRUE(e.has_code("MPH-N003")) << e.to_text();
  EXPECT_FALSE(e.has_code("MPH-N001"));
  EXPECT_EQ(r.budget_count, 1u);
  EXPECT_FALSE(r.items[0].exact.has_value());
}

TEST(NormalizeLint, RegistryRunsNormalizePassOnSpecSubjects) {
  std::vector<ltl::Formula> spec{ltl::parse_formula("F(p & F q)")};
  DiagnosticEngine e;
  analysis::run_passes(analysis::Subject::of(spec, "spec"), e);
  EXPECT_TRUE(e.has_code("MPH-N001")) << e.to_text();
}

}  // namespace
}  // namespace mph
