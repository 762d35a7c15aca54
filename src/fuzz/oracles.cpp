#include "src/fuzz/oracles.hpp"

#include <algorithm>
#include <functional>
#include <map>

#include "src/analysis/absint.hpp"
#include "src/analysis/vacuity.hpp"
#include "src/core/classify.hpp"
#include "src/core/operator_forms.hpp"
#include "src/fts/checker.hpp"
#include "src/fuzz/generators.hpp"
#include "src/fuzz/reference_determinize.hpp"
#include "src/fuzz/reference_graph.hpp"
#include "src/lang/dfa_ops.hpp"
#include "src/lang/random_lang.hpp"
#include "src/ltl/eval.hpp"
#include "src/ltl/hierarchy.hpp"
#include "src/ltl/normalize.hpp"
#include "src/ltl/semantic.hpp"
#include "src/ltl/to_nba.hpp"
#include "src/omega/counter_free.hpp"
#include "src/omega/emptiness.hpp"
#include "src/omega/graph.hpp"
#include "src/omega/inclusion.hpp"
#include "src/omega/operators.hpp"
#include "src/support/check.hpp"

namespace mph::fuzz {
namespace {

using lang::Dfa;
using omega::DetOmega;
using omega::Lasso;

/// Poll point between law groups: engaged with a Budget outcome when the
/// iteration's deadline/cancellation fired.
std::optional<CheckOutcome> budget_gate(const Budget& budget) {
  if (Outcome o = budget.poll(); !is_complete(o))
    return CheckOutcome::exhausted(std::string(to_string(o)));
  return std::nullopt;
}

/// State cap for the checker runs, the reference product and the subset
/// constructions, unless the iteration budget carries a cap of its own.
constexpr std::size_t kFtsOracleStates = 20000;

/// The iteration budget, capped at kFtsOracleStates unless it has a cap.
Budget oracle_budget(Budget budget) {
  if (!budget.has_state_cap()) budget.with_state_cap(kFtsOracleStates);
  return budget;
}

/// Cap on transition-monoid enumeration inside an oracle iteration: the
/// monoid can reach |Q|^|Q| elements, far past any useful iteration budget.
constexpr std::size_t kOracleMonoidCap = 512;

// ------------------------------------------------------------------------
// dfa-product-laws: boolean algebra of DFA languages, decided three ways —
// the product construction, the decision procedures built on it, and plain
// per-word acceptance — must all agree. Includes the ≥64-symbol alphabets
// that overflowed the old fixed-size product row buffer. A second leg
// checks the subset construction lang::determinize cell for cell against
// the naive reference_determinize, on an ε-NFA grown from the case's NBA
// and on the Pref skeleton of the case formula's tableau.

FuzzCase gen_product_laws(Rng& rng) {
  FuzzCase c;
  c.oracle = "dfa-product-laws";
  c.alphabet = random_alphabet(rng);
  for (int i = 0; i < 2; ++i)
    c.dfas.push_back(
        lang::random_dfa(rng, *c.alphabet, static_cast<std::size_t>(rng.between(2, 5))));
  c.nbas.push_back(random_nba(rng, *c.alphabet, static_cast<std::size_t>(rng.between(1, 5))));
  c.formulas.push_back(
      random_ltl(rng, {"p", "q"}, static_cast<std::size_t>(rng.between(2, 6)),
                 LtlFlavor::FutureOnly)
          .to_string());
  return c;
}

/// The NBA's states and edges read as an NFA (accepting as marked), plus a
/// fresh initial state with ε-edges to the NBA's initial states and ε-edges
/// sprinkled between states. The ε Rng is fixed, so a replayed case grows
/// the same NFA.
lang::Nfa epsilon_nfa(const omega::Nba& n) {
  lang::Nfa out(n.alphabet());
  for (omega::State q = 1; q < n.state_count(); ++q) out.add_state();
  for (omega::State q = 0; q < n.state_count(); ++q) {
    out.set_accepting(q, n.accepting(q));
    for (auto [s, t] : n.edges(q)) out.add_edge(q, s, t);
  }
  Rng eps(0xe95);
  for (omega::State q = 0; q < n.state_count(); ++q)
    while (eps.chance(1, 3))
      out.add_epsilon(q, static_cast<lang::State>(eps.below(n.state_count())));
  const lang::State fresh = out.add_state();
  out.set_initial(fresh);
  for (omega::State q : n.initial_states()) out.add_epsilon(fresh, q);
  return out;
}

/// lang::determinize against `want`, the reference result under the same
/// budget: the same outcome, and the same DFA cell for cell when both
/// complete. A deadline or cancellation on either side ends the check.
std::optional<CheckOutcome> same_subsets(const lang::Nfa& n, const Budget& budget,
                                         const Budgeted<Dfa>& want, const std::string& what) {
  const Budgeted<Dfa> got = lang::determinize(n, budget);
  const Outcome o = worst(want.outcome, got.outcome);
  if (o == Outcome::BudgetDeadline || o == Outcome::Cancelled)
    return CheckOutcome::exhausted(std::string(to_string(o)));
  if (want.outcome != got.outcome)
    return CheckOutcome::fail("determinize of " + what + " ended " +
                              std::string(to_string(got.outcome)) + ", reference " +
                              std::string(to_string(want.outcome)));
  if (want.complete())
    if (auto diff = dfa_mismatch(*want.value, *got.value))
      return CheckOutcome::fail("determinize of " + what + ": " + *diff);
  return std::nullopt;
}

/// The subset construction of `n` against the reference, under the
/// iteration budget and again under a state cap drawn from `caps`.
std::optional<CheckOutcome> subsets_agree(const lang::Nfa& n, const Budget& budget, Rng& caps,
                                          const std::string& what) {
  const Budgeted<Dfa> want = reference_determinize(n, budget);
  if (auto r = same_subsets(n, budget, want, what)) return r;
  if (!want.complete()) return CheckOutcome::exhausted(std::string(to_string(want.outcome)));
  Budget capped = budget;
  capped.with_state_cap(static_cast<std::size_t>(caps.below(want.value->state_count() + 1)));
  return same_subsets(n, capped, reference_determinize(n, capped),
                      what + " under a state cap of " + std::to_string(capped.state_cap()));
}

CheckOutcome check_product_laws(const FuzzCase& c, const Budget& budget) {
  if (c.dfas.size() < 2) return CheckOutcome::skip("needs two DFAs");
  const Dfa& a = c.dfas[0];
  const Dfa& b = c.dfas[1];
  using namespace lang;
  if (!equivalent(complement(complement(a)), a))
    return CheckOutcome::fail("double complement changed the language");
  if (!equivalent(complement(intersection(a, b)),
                  union_of(complement(a), complement(b))))
    return CheckOutcome::fail("de Morgan: ¬(A∩B) ≠ ¬A∪¬B");
  if (!equivalent(difference(a, b), intersection(a, complement(b))))
    return CheckOutcome::fail("difference(A,B) ≠ A∩¬B");
  if (!subset(intersection(a, b), a))
    return CheckOutcome::fail("A∩B ⊄ A");
  if (!subset(b, union_of(a, b)))
    return CheckOutcome::fail("B ⊄ A∪B");
  if (auto gate = budget_gate(budget)) return *gate;
  const Dfa min_a = minimize(a);
  if (!equivalent(min_a, a))
    return CheckOutcome::fail("minimize changed the language");
  if (min_a.state_count() > a.state_count())
    return CheckOutcome::fail("minimize grew the automaton");
  // Per-word cross-check against the boolean combination of memberships.
  // The sampling Rng is fixed, so a replayed case samples the same words.
  if (auto gate = budget_gate(budget)) return *gate;
  Rng words(0xda7a);
  const Dfa inter = intersection(a, b);
  const Dfa uni = union_of(a, b);
  const Dfa diff = difference(a, b);
  for (int i = 0; i < 24; ++i) {
    const Word w = random_word(words, a.alphabet(), words.below(5));
    const bool in_a = a.accepts(w), in_b = b.accepts(w);
    if (inter.accepts(w) != (in_a && in_b))
      return CheckOutcome::fail("intersection disagrees with memberships on a sampled word");
    if (uni.accepts(w) != (in_a || in_b))
      return CheckOutcome::fail("union disagrees with memberships on a sampled word");
    if (diff.accepts(w) != (in_a && !in_b))
      return CheckOutcome::fail("difference disagrees with memberships on a sampled word");
  }
  // Subset-construction leg. Cases stored before it carry no NBA/formula.
  Rng caps(0xca95);
  if (!c.nbas.empty()) {
    if (auto gate = budget_gate(budget)) return *gate;
    const lang::Nfa nfa = epsilon_nfa(c.nbas[0]);
    if (auto r = subsets_agree(nfa, oracle_budget(budget), caps, "the ε-NFA")) return *r;
  }
  if (!c.formulas.empty()) {
    if (auto gate = budget_gate(budget)) return *gate;
    const ltl::Formula f = ltl::parse_formula(c.formulas[0]);
    std::vector<std::string> atoms = f.atoms();
    if (atoms.empty()) atoms.emplace_back("p");
    const Budgeted<omega::Nba> nba =
        ltl::to_nba(f, lang::Alphabet::of_props(atoms), oracle_budget(budget));
    if (!nba.complete()) return CheckOutcome::exhausted(std::string(to_string(nba.outcome)));
    if (nba.value->state_count() > 0)
      if (auto r = subsets_agree(omega::pref_skeleton(*nba.value), oracle_budget(budget), caps,
                                 "the Pref skeleton of '" + c.formulas[0] + "'"))
        return *r;
  }
  return CheckOutcome::pass();
}

// ------------------------------------------------------------------------
// operator-duality: the §2 operators A/E/R/P checked against (i) their
// duality and closure laws via omega::equivalent, and (ii) a naive
// prefix-scanning semantics evaluated on every enumerated lasso.

FuzzCase gen_operator_duality(Rng& rng) {
  FuzzCase c;
  c.oracle = "operator-duality";
  c.alphabet = lang::Alphabet::plain({"a", "b"});
  for (int i = 0; i < 2; ++i)
    c.dfas.push_back(
        lang::random_dfa(rng, *c.alphabet, static_cast<std::size_t>(rng.between(2, 4))));
  return c;
}

/// Acceptance bit of every non-empty prefix of `l` under `phi`, up to and
/// including one full recurrence of a (loop-position, state) pair; prefixes
/// from `cycle_begin` on repeat forever.
struct PrefixProfile {
  std::vector<bool> acc;  // acc[k] = (prefix of length k+1) ∈ Φ
  std::size_t cycle_begin = 0;
};

PrefixProfile prefix_profile(const Dfa& phi, const Lasso& l) {
  PrefixProfile out;
  std::map<std::pair<std::size_t, lang::State>, std::size_t> seen;
  lang::State q = phi.initial();
  for (std::size_t k = 0;; ++k) {
    q = phi.next(q, l.at(k));
    out.acc.push_back(phi.accepting(q));
    if (k + 1 >= l.prefix.size()) {
      const std::size_t lp = (k + 1 - l.prefix.size()) % l.loop.size();
      auto [it, inserted] = seen.try_emplace({lp, q}, k);
      if (!inserted) {
        out.cycle_begin = it->second + 1;
        return out;
      }
    }
  }
}

CheckOutcome check_operator_duality(const FuzzCase& c, const Budget& budget) {
  if (c.dfas.size() < 2) return CheckOutcome::skip("needs two DFAs");
  const Dfa& phi = c.dfas[0];
  const Dfa& psi = c.dfas[1];
  using omega::op_a;
  using omega::op_e;
  using omega::op_p;
  using omega::op_r;
  // Duality: ¬A(Φ) = E(¬Φ) and ¬R(Φ) = P(¬Φ).
  if (!omega::equivalent(omega::complement(op_a(phi)), op_e(lang::complement(phi))))
    return CheckOutcome::fail("¬A(Φ) ≠ E(¬Φ)");
  if (!omega::equivalent(omega::complement(op_r(phi)), op_p(lang::complement(phi))))
    return CheckOutcome::fail("¬R(Φ) ≠ P(¬Φ)");
  if (auto gate = budget_gate(budget)) return *gate;
  // Closure laws (Table in §2): A distributes over ∩, E over ∪, R over ∪,
  // P over ∩.
  if (!omega::equivalent(omega::intersection(op_a(phi), op_a(psi)),
                         op_a(lang::intersection(phi, psi))))
    return CheckOutcome::fail("A(Φ∩Ψ) ≠ A(Φ)∩A(Ψ)");
  if (!omega::equivalent(omega::union_of(op_e(phi), op_e(psi)),
                         op_e(lang::union_of(phi, psi))))
    return CheckOutcome::fail("E(Φ∪Ψ) ≠ E(Φ)∪E(Ψ)");
  if (!omega::equivalent(omega::union_of(op_r(phi), op_r(psi)),
                         op_r(lang::union_of(phi, psi))))
    return CheckOutcome::fail("R(Φ∪Ψ) ≠ R(Φ)∪R(Ψ)");
  if (!omega::equivalent(omega::intersection(op_p(phi), op_p(psi)),
                         op_p(lang::intersection(phi, psi))))
    return CheckOutcome::fail("P(Φ∩Ψ) ≠ P(Φ)∩P(Ψ)");
  // A(Φ) is safety, so its safety closure is itself.
  if (!omega::equivalent(omega::safety_closure(op_a(phi)), op_a(phi)))
    return CheckOutcome::fail("cl(A(Φ)) ≠ A(Φ)");
  // Naive semantics on every small lasso: A = every non-empty prefix in Φ,
  // E = some, R = infinitely many (some recurring), P = all but finitely
  // many (every recurring).
  if (auto gate = budget_gate(budget)) return *gate;
  const DetOmega ma = op_a(phi), me = op_e(phi), mr = op_r(phi), mp = op_p(phi);
  for (const Lasso& l : omega::enumerate_lassos(phi.alphabet(), 2, 2)) {
    if (auto gate = budget_gate(budget)) return *gate;
    const PrefixProfile pr = prefix_profile(phi, l);
    bool all = true, some = false, rec_some = false, rec_all = true;
    for (std::size_t k = 0; k < pr.acc.size(); ++k) {
      all = all && pr.acc[k];
      some = some || pr.acc[k];
      if (k >= pr.cycle_begin) {
        rec_some = rec_some || pr.acc[k];
        rec_all = rec_all && pr.acc[k];
      }
    }
    const std::string suffix = " disagrees with prefix-scan semantics on " +
                               l.to_string(phi.alphabet());
    if (ma.accepts(l) != all) return CheckOutcome::fail("A(Φ)" + suffix);
    if (me.accepts(l) != some) return CheckOutcome::fail("E(Φ)" + suffix);
    if (mr.accepts(l) != rec_some) return CheckOutcome::fail("R(Φ)" + suffix);
    if (mp.accepts(l) != rec_all) return CheckOutcome::fail("P(Φ)" + suffix);
  }
  return CheckOutcome::pass();
}

// ------------------------------------------------------------------------
// classify-vs-forms: the §5.1 decision procedures against complement
// duality, the safety-closure characterization, and the constructive
// operator-form extraction (which independently rebuilds the language).

FuzzCase gen_classify(Rng& rng) {
  FuzzCase c;
  c.oracle = "classify-vs-forms";
  c.alphabet = lang::Alphabet::plain({"a", "b"});
  c.automata.push_back(random_det_omega(
      rng, *c.alphabet, static_cast<std::size_t>(rng.between(2, 4)),
      static_cast<omega::Mark>(rng.between(1, 3))));
  // A formula leg for the exact-classification cross-check: ΔΓ-normalization
  // against the same §5.1 procedures on an independently compiled automaton.
  static const std::vector<std::string> props{"p", "q"};
  c.formulas.push_back(random_ltl_nonnormal(rng, props, 7).to_string());
  return c;
}

CheckOutcome check_classify(const FuzzCase& c, const Budget& budget) {
  if (c.automata.empty()) return CheckOutcome::skip("needs an automaton");
  const DetOmega& m = c.automata[0];
  // Tri-state counter-freedom: an automaton and its complement share a
  // transition monoid, so the verdicts must agree — including the
  // budget-exhausted one. The oracle-internal monoid cap keeps the
  // |Q|^|Q|-element worst case from hanging an iteration; hitting it is a
  // Budget outcome, not a discrepancy.
  Budget monoid = budget;
  if (monoid.state_cap() > kOracleMonoidCap) monoid.with_state_cap(kOracleMonoidCap);
  const auto cf = omega::counter_freedom(m, monoid);
  const auto cf_dual = omega::counter_freedom(omega::complement(m), monoid);
  if (cf != cf_dual) {
    // The monoid cap is deterministic (both legs share the transition
    // monoid), but a wall-clock deadline can expire *between* the two
    // calls, leaving one leg Unknown while the other completed — a budget
    // artifact, not a semantic disagreement. The gate reports it as such.
    if (auto gate = budget_gate(budget)) return *gate;
    return CheckOutcome::fail("counter-freedom verdict changed under complement");
  }
  if (cf == omega::CounterFreedom::Unknown)
    return CheckOutcome::exhausted("transition monoid exceeded the iteration budget");
  if (auto gate = budget_gate(budget)) return *gate;
  const auto cls = core::classify(m);
  const auto dual = core::classify(omega::complement(m));
  if (cls.safety != dual.guarantee || cls.guarantee != dual.safety)
    return CheckOutcome::fail("safety/guarantee duality broken under complement");
  if (cls.recurrence != dual.persistence || cls.persistence != dual.recurrence)
    return CheckOutcome::fail("recurrence/persistence duality broken under complement");
  if (cls.obligation != (cls.recurrence && cls.persistence))
    return CheckOutcome::fail("obligation ≠ recurrence ∧ persistence");
  if (cls.obligation != dual.obligation)
    return CheckOutcome::fail("obligation not closed under complement");
  if (auto gate = budget_gate(budget)) return *gate;
  const DetOmega closure = omega::safety_closure(m);
  if (!omega::contains(closure, m))
    return CheckOutcome::fail("Π ⊄ cl(Π)");
  if (omega::equivalent(closure, m) != cls.safety)
    return CheckOutcome::fail("safety ≠ (Π = cl(Π))");
  if (omega::is_liveness(m) != cls.liveness)
    return CheckOutcome::fail("liveness flag disagrees with is_liveness");
  // Form extraction: succeeds exactly on class members, and the extracted
  // kernel rebuilds the language through the matching operator.
  struct FormCheck {
    const char* name;
    bool in_class;
    Dfa (*extract)(const DetOmega&);
    DetOmega (*rebuild)(const Dfa&);
  };
  const FormCheck forms[] = {
      {"safety", cls.safety, core::safety_form, omega::op_a},
      {"guarantee", cls.guarantee, core::guarantee_form, omega::op_e},
      {"recurrence", cls.recurrence, core::recurrence_form, omega::op_r},
      {"persistence", cls.persistence, core::persistence_form, omega::op_p},
  };
  for (const auto& fc : forms) {
    if (auto gate = budget_gate(budget)) return *gate;
    bool extracted = false;
    try {
      const Dfa kernel = fc.extract(m);
      extracted = true;
      if (!omega::equivalent(fc.rebuild(kernel), m))
        return CheckOutcome::fail(std::string(fc.name) +
                                  "_form kernel does not rebuild the language");
    } catch (const std::invalid_argument&) {
    }
    if (extracted != fc.in_class)
      return CheckOutcome::fail(std::string(fc.name) + "_form " +
                                (extracted ? "succeeded outside" : "failed inside") +
                                " the class classify() reports");
  }
  // Exact classification via ΔΓ-normalization against the same §5.1
  // procedures run on an automaton compiled through an independent route
  // (the PR-1 rewriter, or the Büchi tableau's safety/guarantee tests).
  if (!c.formulas.empty()) {
    if (auto gate = budget_gate(budget)) return *gate;
    const ltl::Formula f = ltl::parse_formula(c.formulas[0]);
    ltl::NormalizeOptions nopt;
    nopt.budget = budget;
    std::optional<ltl::ExactClass> exact;
    if (!f.atoms().empty()) exact = ltl::exact_classification(f, nopt);
    if (exact) {
      const lang::Alphabet sigma = ltl::alphabet_of(f);
      try {
        const auto ref = core::classify(ltl::compile(f, sigma));
        if (ref.safety != exact->value.safety ||
            ref.guarantee != exact->value.guarantee ||
            ref.recurrence != exact->value.recurrence ||
            ref.persistence != exact->value.persistence)
          return CheckOutcome::fail("exact classification of '" + c.formulas[0] +
                                    "' disagrees with the reference compiler");
      } catch (const std::invalid_argument&) {
        if (ltl::nba_is_safety(f, sigma) != exact->value.safety ||
            ltl::nba_is_guarantee(f, sigma) != exact->value.guarantee)
          return CheckOutcome::fail("exact classification of '" + c.formulas[0] +
                                    "' disagrees with the tableau safety/guarantee tests");
      }
    }
  }
  return CheckOutcome::pass();
}

// ------------------------------------------------------------------------
// ltl-eval-vs-automaton: the direct lasso evaluator against the compiled
// deterministic automaton, plus negation consistency.

FuzzCase gen_ltl_eval(Rng& rng) {
  FuzzCase c;
  c.oracle = "ltl-eval-vs-automaton";
  const auto n_props = static_cast<std::size_t>(rng.between(1, 2));
  static const std::vector<std::string> props{"p", "q"};
  c.alphabet = lang::Alphabet::of_props({props.begin(), props.begin() + n_props});
  const std::vector<std::string> atoms{props.begin(), props.begin() + n_props};
  // Rejection-sample a formula the hierarchy compiler accepts; most random
  // formulas are compilable, so a handful of tries nearly always suffices.
  for (int tries = 0; tries < 30; ++tries) {
    ltl::Formula f =
        random_ltl(rng, atoms, static_cast<std::size_t>(rng.between(3, 7)));
    try {
      (void)ltl::compile(f, *c.alphabet);
    } catch (const std::invalid_argument&) {
      continue;
    }
    c.formulas.push_back(f.to_string());
    break;
  }
  for (int i = 0; i < 8; ++i)
    c.lassos.push_back(random_lasso(rng, *c.alphabet, 3, 3));
  return c;
}

CheckOutcome check_ltl_eval(const FuzzCase& c, const Budget& budget) {
  if (c.formulas.empty()) return CheckOutcome::skip("no compilable formula found");
  const ltl::Formula f = ltl::parse_formula(c.formulas[0]);
  std::optional<DetOmega> m;
  try {
    m = ltl::compile(f, *c.alphabet);
  } catch (const std::invalid_argument&) {
    // Shrinking can hoist a subformula outside the hierarchy fragment.
    return CheckOutcome::skip("formula not compilable");
  }
  const ltl::Formula nf = ltl::f_not(f);
  if (auto gate = budget_gate(budget)) return *gate;
  for (const Lasso& l : c.lassos) {
    const bool direct = ltl::evaluates(f, l, *c.alphabet);
    if (direct != m->accepts(l))
      return CheckOutcome::fail("evaluates('" + c.formulas[0] +
                                "') disagrees with the compiled automaton on " +
                                l.to_string(*c.alphabet));
    if (ltl::evaluates(nf, l, *c.alphabet) == direct)
      return CheckOutcome::fail("evaluates gives the same verdict for '" + c.formulas[0] +
                                "' and its negation on " + l.to_string(*c.alphabet));
  }
  return CheckOutcome::pass();
}

// ------------------------------------------------------------------------
// fts-engines: the checker, on its default route and under force_scc,
// against an independent reference on the same system and spec, with
// counterexamples replayed under the independent lasso evaluator. The reference shares none
// of the checker's exploration or search: it builds the state graph with its
// own naive explorer (checked node-for-node against fts::explore first),
// derives the fairness marks straight from the Fts API, materializes the
// whole reachable (node × ¬spec) product as a MarkedGraph, and asks the
// offline good-loop search in src/omega.

FuzzCase gen_fts_engines(Rng& rng) {
  FuzzCase c;
  c.oracle = "fts-engines";
  c.system = random_fts(rng);
  std::vector<std::string> atoms;
  for (const auto& v : c.system->vars) {
    atoms.push_back(v.name + "hi");
    atoms.push_back(v.name + "lo");
  }
  // The checker requires at least one atom in the spec.
  for (int tries = 0; tries < 20; ++tries) {
    ltl::Formula f = random_ltl(rng, atoms, static_cast<std::size_t>(rng.between(3, 6)),
                                LtlFlavor::FutureOnly);
    if (f.atoms().empty()) continue;
    c.formulas.push_back(f.to_string());
    break;
  }
  return c;
}

/// The naive reference graph of sys, after checking fts::explore against it
/// node-for-node. `ref` stays empty when either side ran out of budget; a
/// failure names the first difference.
std::optional<CheckOutcome> explore_against_reference(const fts::Fts& sys,
                                                      const Budget& budget,
                                                      std::optional<ReferenceGraph>& ref) {
  ref = reference_explore(sys, budget);
  if (!ref) return std::nullopt;
  const fts::ExploreResult ex = fts::explore(sys, budget);
  if (!is_complete(ex.outcome)) {
    ref.reset();
    return std::nullopt;
  }
  if (auto why = graph_mismatch(sys, *ref, ex.graph))
    return CheckOutcome::fail("explore and the reference explorer disagree: " + *why);
  return std::nullopt;
}

/// Whether every fair computation of `sys` satisfies `spec`, decided on the
/// reference graph by the materialized product and omega::find_good_loop;
/// nullopt when there is no graph, the budget ran out, or the product needs
/// more than 64 marks.
std::optional<bool> reference_holds(const fts::Fts& sys,
                                    const std::optional<ReferenceGraph>& graph,
                                    const ltl::Formula& spec, const fts::AtomMap& atoms,
                                    const Budget& budget) {
  using omega::Acceptance;
  using omega::MarkSet;
  if (!graph) return std::nullopt;
  const std::vector<ReferenceGraph::Node>& nodes = graph->nodes;

  // Fairness per transition: weak — Inf("disabled or just taken"); strong —
  // Inf(taken) ∨ Fin(enabled).
  std::vector<MarkSet> fair(nodes.size(), 0);
  Acceptance acc = Acceptance::t();
  omega::Mark marks = 0;
  for (std::size_t t = 0; t < sys.transition_count(); ++t) {
    const fts::Fairness kind = sys.transition_fairness(t);
    if (kind == fts::Fairness::None) continue;
    if (marks >= 62) return std::nullopt;
    const omega::Mark taken = marks++;
    const omega::Mark enabled = kind == fts::Fairness::Strong ? marks++ : taken;
    acc = Acceptance::conj(std::move(acc),
                           kind == fts::Fairness::Weak
                               ? Acceptance::inf(taken)
                               : Acceptance::disj(Acceptance::inf(taken),
                                                  Acceptance::fin(enabled)));
    for (std::size_t n = 0; n < nodes.size(); ++n) {
      const bool is_taken = nodes[n].last_taken == static_cast<int>(t);
      const bool is_enabled = sys.enabled(t, nodes[n].valuation);
      if (kind == fts::Fairness::Weak && (is_taken || !is_enabled))
        fair[n] |= omega::mark_bit(taken);
      if (kind == fts::Fairness::Strong) {
        if (is_taken) fair[n] |= omega::mark_bit(taken);
        if (is_enabled) fair[n] |= omega::mark_bit(enabled);
      }
    }
  }

  const auto names = spec.atoms();
  const lang::Alphabet sigma = lang::Alphabet::of_props(names);
  std::vector<lang::Symbol> label(nodes.size(), 0);
  for (std::size_t n = 0; n < nodes.size(); ++n)
    for (std::size_t i = 0; i < names.size(); ++i)
      if (atoms.at(names[i])(sys, nodes[n].valuation, nodes[n].last_taken))
        label[n] |= lang::Symbol{1} << i;

  // ¬spec: deterministic when it lies in the hierarchy fragment, else the
  // NBA tableau.
  std::vector<omega::State> initial;
  std::function<std::vector<omega::State>(omega::State, lang::Symbol)> step;
  std::function<MarkSet(omega::State)> neg_marks;
  Acceptance neg_acc = Acceptance::buchi(0);
  std::optional<omega::DetOmega> det;
  std::optional<omega::Nba> nba;
  try {
    det = ltl::compile(ltl::f_not(spec), sigma);
    initial = {det->initial()};
    step = [&](omega::State q, lang::Symbol s) { return std::vector{det->next(q, s)}; };
    neg_marks = [&](omega::State q) { return det->marks(q); };
    neg_acc = det->acceptance();
  } catch (const std::invalid_argument&) {
    auto built = ltl::to_nba(ltl::f_not(spec), sigma, budget);
    if (!built.complete()) return std::nullopt;
    nba = std::move(*built.value);
    initial = nba->initial_states();
    step = [&](omega::State q, lang::Symbol s) {
      std::vector<omega::State> out;
      for (auto [sym, t] : nba->edges(q))
        if (sym == s) out.push_back(t);
      return out;
    };
    neg_marks = [&](omega::State q) { return nba->accepting(q) ? MarkSet{1} : MarkSet{0}; };
  }
  if (marks > 0 && (neg_acc.mentioned_marks() >> (64 - marks)) != 0) return std::nullopt;

  // The whole reachable product, in BFS order, behind a virtual root.
  omega::MarkedGraph g;
  std::map<std::pair<std::size_t, omega::State>, omega::State> id;
  std::vector<std::pair<std::size_t, omega::State>> pairs;
  auto intern = [&](std::size_t n, omega::State q) {
    auto [it, fresh] = id.emplace(std::pair{n, q}, static_cast<omega::State>(pairs.size()));
    if (fresh) pairs.push_back({n, q});
    return it->second;
  };
  g.succ.emplace_back();
  g.marks.push_back(0);
  for (omega::State q0 : initial) g.succ[0].push_back(intern(0, q0) + 1);
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    if (!is_complete(budget.admit(p))) return std::nullopt;
    const auto [n, q] = pairs[p];
    std::vector<omega::State> succ;
    for (omega::State q2 : step(q, label[n]))
      for (auto [target, t] : nodes[n].edges) {
        (void)t;
        succ.push_back(intern(target, q2) + 1);
      }
    std::sort(succ.begin(), succ.end());
    succ.erase(std::unique(succ.begin(), succ.end()), succ.end());
    g.succ.push_back(std::move(succ));
    g.marks.push_back(fair[n] | (neg_marks(q) << marks));
  }
  return !omega::find_good_loop(g, Acceptance::conj(acc, neg_acc.shift(marks))).has_value();
}

/// Replays a failing check's counterexample under ltl::evaluates: the lasso
/// of atom valuations must falsify the spec. An error message, or nullopt.
std::optional<std::string> replay_failure(const fts::Fts& sys, const fts::AtomMap& atoms,
                                          const ltl::Formula& spec,
                                          const fts::CheckResult& r) {
  if (r.holds) return std::nullopt;
  MPH_ASSERT(r.counterexample.has_value());
  const auto atom_names = spec.atoms();
  const lang::Alphabet sigma = lang::Alphabet::of_props(atom_names);
  auto to_symbol = [&](const fts::Valuation& v) {
    lang::Symbol s = 0;
    for (std::size_t i = 0; i < atom_names.size(); ++i)
      if (atoms.at(atom_names[i])(sys, v, fts::StateGraph::kNone))
        s |= lang::Symbol{1} << i;
    return s;
  };
  Lasso l;
  for (const auto& v : r.counterexample->prefix) l.prefix.push_back(to_symbol(v));
  for (const auto& v : r.counterexample->loop) l.loop.push_back(to_symbol(v));
  if (l.loop.empty() || ltl::evaluates(spec, l, sigma))
    return "counterexample for '" + spec.to_string() +
           "' does not falsify the spec under the lasso evaluator";
  return std::nullopt;
}

std::string verdict_of(bool holds) { return holds ? "holds" : "violated"; }

CheckOutcome check_fts_engines(const FuzzCase& c, const Budget& budget) {
  if (!c.system || c.formulas.empty()) return CheckOutcome::skip("needs a system and a spec");
  const fts::Fts sys = c.system->build();
  const fts::AtomMap atoms = c.system->atoms();
  const ltl::Formula spec = ltl::parse_formula(c.formulas[0]);
  fts::CheckOptions options;
  options.budget = oracle_budget(budget);
  const auto batch = fts::check_all(sys, {spec}, atoms, options)[0];
  const auto single = fts::check(sys, spec, atoms, options);
  fts::CheckOptions scc_options = options;
  scc_options.force_scc = true;
  const auto scc = fts::check(sys, spec, atoms, scc_options);
  std::optional<ReferenceGraph> graph;
  if (auto failed = explore_against_reference(sys, options.budget, graph)) return *failed;
  const auto reference = reference_holds(sys, graph, spec, atoms, options.budget);
  // Outcomes come first: under a deadline one side can complete while the
  // other runs out, so differing verdicts with a non-Complete outcome are
  // budget exhaustion, not a discrepancy.
  const Outcome agg = worst(worst(batch.outcome, single.outcome), scc.outcome);
  if (!is_complete(agg) || !reference)
    return CheckOutcome::exhausted(
        "engine budget exhausted (" +
        std::string(to_string(reference ? agg : worst(agg, Outcome::BudgetStates))) + ")");
  if (batch.holds != *reference)
    return CheckOutcome::fail("checker and materialized reference disagree on '" +
                              c.formulas[0] + "' (" + verdict_of(batch.holds) + " vs " +
                              verdict_of(*reference) + ")");
  if (scc.holds != *reference)
    return CheckOutcome::fail("force_scc ω-product route and materialized reference disagree "
                              "on '" + c.formulas[0] + "' (" + verdict_of(scc.holds) + " vs " +
                              verdict_of(*reference) + ")");
  if (single.holds != batch.holds)
    return CheckOutcome::fail("check and check_all disagree on '" + c.formulas[0] + "'");
  for (const auto* r : {&batch, &single, &scc})
    if (auto why = replay_failure(sys, atoms, spec, *r)) return CheckOutcome::fail(*why);
  return CheckOutcome::pass();
}

// ------------------------------------------------------------------------
// vacuity-antecedent: the MPH-Y002 fast path (one reachable-state labeling,
// no product) against the model checker, three ways. For a □(p→q) with a
// propositional p, "p is exercised" must equal "G ¬p is violated" on both
// the default route's safety-prefix engine and the full ω-product pinned by
// force_scc — every
// reachable state lies on a fair computation (transition fairness is
// machine-closed), so state labeling and fair-computation checking agree.
// When p is unreachable, the requirement itself must hold and analyze_vacuity
// must report it vacuous via the antecedent shortcut.

FuzzCase gen_vacuity_antecedent(Rng& rng) {
  FuzzCase c;
  c.oracle = "vacuity-antecedent";
  c.system = random_fts(rng);
  std::vector<std::string> atoms;
  for (const auto& v : c.system->vars) {
    atoms.push_back(v.name + "hi");
    atoms.push_back(v.name + "lo");
  }
  // Antecedent: a random propositional combination of 1–2 (possibly negated)
  // atom literals. Roughly half the draws are unreachable in practice, so
  // both branches of the oracle get exercised.
  auto literal = [&] {
    ltl::Formula a = ltl::f_atom(atoms[static_cast<std::size_t>(
        rng.below(static_cast<std::uint64_t>(atoms.size())))]);
    return rng.below(2) ? ltl::f_not(a) : a;
  };
  ltl::Formula p = literal();
  if (rng.below(2))
    p = rng.below(2) ? ltl::f_and(p, literal()) : ltl::f_or(p, literal());
  // Consequent: any future-only formula; the lasso evaluator and both
  // engines handle it, and its content is irrelevant to the antecedent path.
  const ltl::Formula q =
      random_ltl(rng, atoms, static_cast<std::size_t>(rng.between(2, 5)),
                 LtlFlavor::FutureOnly);
  c.formulas.push_back(ltl::f_always(ltl::f_implies(p, q)).to_string());
  return c;
}

CheckOutcome check_vacuity_antecedent(const FuzzCase& c, const Budget& budget) {
  if (!c.system || c.formulas.empty()) return CheckOutcome::skip("needs a system and a spec");
  const fts::Fts sys = c.system->build();
  const fts::AtomMap atoms = c.system->atoms();
  const ltl::Formula f = ltl::parse_formula(c.formulas[0]);
  fts::CheckOptions base;
  base.budget = oracle_budget(budget);

  // Path 1: the fast path itself — one exploration, pointwise labeling.
  const auto fast = analysis::antecedent_exercised(sys, f, atoms, budget);
  if (!fast) return CheckOutcome::skip("shrunk out of the □(p→q) shape");
  if (!fast->complete())
    return CheckOutcome::exhausted("exploration budget exhausted (" +
                                   std::string(to_string(fast->outcome)) + ")");
  const bool exercised = *fast->value;

  // Paths 2 and 3: model-check G ¬p on the default route and under
  // force_scc. ¬p is propositional, so G ¬p is syntactically safety: the
  // default route takes the closed-prefix scan, force_scc the full
  // ω-product.
  const ltl::Formula never_p = ltl::f_always(ltl::f_not(f.child(0).child(0)));
  fts::CheckOptions full = base;
  full.force_scc = true;
  const auto r_prefix = fts::check_all(sys, {never_p}, atoms, base)[0];
  const auto r_omega = fts::check_all(sys, {never_p}, atoms, full)[0];
  if (!is_complete(r_prefix.outcome) || !is_complete(r_omega.outcome))
    return CheckOutcome::exhausted(
        "engine budget exhausted (" +
        std::string(to_string(worst(r_prefix.outcome, r_omega.outcome))) + ")");
  if (r_prefix.stats.engine != fts::CheckEngine::SafetyPrefix)
    return CheckOutcome::fail("the default route did not take 'G !p' to the "
                              "closed-prefix engine");
  if (r_prefix.holds != r_omega.holds)
    return CheckOutcome::fail("safety-prefix and ω-product engines disagree on '" +
                              never_p.to_string() + "'");
  if (r_prefix.holds == exercised)
    return CheckOutcome::fail("antecedent labeling says '" + f.child(0).child(0).to_string() +
                              "' is " + (exercised ? "exercised" : "unreachable") +
                              " but the engines say 'G !p' " +
                              (r_prefix.holds ? "holds" : "is violated"));
  if (auto gate = budget_gate(budget)) return *gate;

  // An unreachable antecedent makes the requirement itself hold, and the
  // full analyzer must classify it vacuous through the shortcut (MPH-Y002).
  if (!exercised) {
    analysis::DiagnosticEngine diag;
    analysis::VacuityOptions vopts;
    vopts.check = base;
    const auto vr = analysis::analyze_vacuity(sys, {f}, atoms, diag, vopts);
    const auto& rv = vr.requirements[0];
    if (!is_complete(rv.original.outcome))
      return CheckOutcome::exhausted("vacuity check budget exhausted (" +
                                     std::string(to_string(rv.original.outcome)) + ")");
    // The original check can complete and the deadline expire during the
    // mutant batch: the analyzer then answers Unknown (MPH-Y005) instead of
    // Vacuous. That is exhaustion, not a missing MPH-Y002.
    if (rv.verdict == analysis::RequirementVacuity::Verdict::Unknown)
      return CheckOutcome::exhausted("vacuity verdict budget exhausted");
    if (!rv.original.holds)
      return CheckOutcome::fail("'" + c.formulas[0] +
                                "' with an unreachable antecedent does not hold");
    if (rv.verdict != analysis::RequirementVacuity::Verdict::Vacuous ||
        !rv.antecedent_failure || !diag.has_code("MPH-Y002"))
      return CheckOutcome::fail("unreachable antecedent not reported as MPH-Y002 "
                                "vacuity for '" + c.formulas[0] + "'");
  }
  return CheckOutcome::pass();
}

// ------------------------------------------------------------------------
// normalize-agreement: ΔΓ-normalization is language-preserving. A completed
// normal form must agree with the original formula three ways — the direct
// lasso evaluator on sampled words, the compiled deterministic automaton,
// and the model checker's verdict on a random fair transition system (the
// force_scc ω-product vs the default class-aware route with normalization,
// plus checking the normal form itself through the force_scc route).

FuzzCase gen_normalize_agreement(Rng& rng) {
  FuzzCase c;
  c.oracle = "normalize-agreement";
  c.system = random_fts(rng);
  std::vector<std::string> atoms;
  for (const auto& v : c.system->vars) {
    atoms.push_back(v.name + "hi");
    atoms.push_back(v.name + "lo");
  }
  for (int tries = 0; tries < 20; ++tries) {
    ltl::Formula f = random_ltl_nonnormal(rng, atoms, 8);
    if (f.atoms().empty()) continue;
    c.formulas.push_back(f.to_string());
    break;
  }
  return c;
}

CheckOutcome check_normalize_agreement(const FuzzCase& c, const Budget& budget) {
  if (!c.system || c.formulas.empty()) return CheckOutcome::skip("needs a system and a spec");
  const ltl::Formula spec = ltl::parse_formula(c.formulas[0]);
  ltl::NormalizeOptions nopt;
  nopt.budget = budget;
  const ltl::NormalizeResult nr = ltl::normalize(spec, nopt);
  if (!is_complete(nr.outcome))
    return CheckOutcome::exhausted("normalization budget exhausted (" +
                                   std::string(to_string(nr.outcome)) + ")");
  if (!nr.normal) return CheckOutcome::skip("outside the normalization envelope");
  const ltl::Formula norm = nr.form;
  // Leg 1: lasso evaluation. The sampling Rng is fixed so replays resample
  // the same words (the dfa-product-laws idiom).
  const lang::Alphabet sigma = lang::Alphabet::of_props(spec.atoms());
  Rng words(0x5eed);
  for (int i = 0; i < 16; ++i) {
    const Lasso l = random_lasso(words, sigma, 3, 3);
    if (ltl::evaluates(spec, l, sigma) != ltl::evaluates(norm, l, sigma))
      return CheckOutcome::fail("normal form of '" + c.formulas[0] +
                                "' disagrees with the lasso evaluator on " +
                                l.to_string(sigma));
  }
  if (auto gate = budget_gate(budget)) return *gate;
  // Leg 2: the compiled deterministic automaton of the normal form accepts
  // exactly the lassos the original formula evaluates true on.
  const auto m = ltl::compile_hierarchy_form(norm, sigma);
  if (!m)
    return CheckOutcome::fail("completed normal form of '" + c.formulas[0] +
                              "' is not compilable as a hierarchy form");
  for (int i = 0; i < 16; ++i) {
    const Lasso l = random_lasso(words, sigma, 3, 3);
    if (m->accepts(l) != ltl::evaluates(spec, l, sigma))
      return CheckOutcome::fail("compiled normal form of '" + c.formulas[0] +
                                "' disagrees with the lasso evaluator on " +
                                l.to_string(sigma));
  }
  if (auto gate = budget_gate(budget)) return *gate;
  // Leg 3: model-checking verdicts. The force_scc ω-product on the original,
  // the default class-aware route with normalization on the original, and
  // force_scc on the normal form itself must all agree.
  const fts::Fts sys = c.system->build();
  const fts::AtomMap atoms = c.system->atoms();
  fts::CheckOptions dispatched;
  dispatched.budget = oracle_budget(budget);
  dispatched.normalize_steps = 512;
  fts::CheckOptions raw = dispatched;
  raw.force_scc = true;
  const auto r_raw = fts::check_all(sys, {spec}, atoms, raw)[0];
  const auto r_disp = fts::check_all(sys, {spec}, atoms, dispatched)[0];
  if (!is_complete(r_raw.outcome) || !is_complete(r_disp.outcome))
    return CheckOutcome::exhausted(
        "engine budget exhausted (" +
        std::string(to_string(worst(r_raw.outcome, r_disp.outcome))) + ")");
  if (r_raw.holds != r_disp.holds)
    return CheckOutcome::fail("class dispatch with normalization changes the verdict of '" +
                              c.formulas[0] + "'");
  // The checker requires specs to mention an atom; a normal form that
  // constant-folded below that loses this leg only.
  if (!norm.atoms().empty()) {
    const auto r_norm = fts::check_all(sys, {norm}, atoms, raw)[0];
    if (!is_complete(r_norm.outcome))
      return CheckOutcome::exhausted("engine budget exhausted (" +
                                     std::string(to_string(r_norm.outcome)) + ")");
    if (r_raw.holds != r_norm.holds)
      return CheckOutcome::fail("the normal form of '" + c.formulas[0] +
                                "' model-checks differently from the original");
  }
  return CheckOutcome::pass();
}

// ------------------------------------------------------------------------
// lasso-roundtrip: print → parse is the identity on well-formed lassos, and
// parse_lasso rejects the malformed variants (trailing garbage, second
// group, empty loop, missing parens) with std::invalid_argument.

FuzzCase gen_lasso_roundtrip(Rng& rng) {
  FuzzCase c;
  c.oracle = "lasso-roundtrip";
  static const std::vector<std::string> letters{"a", "b", "c", "d"};
  const auto k = static_cast<std::size_t>(rng.between(2, 4));
  c.alphabet = lang::Alphabet::plain({letters.begin(), letters.begin() + k});
  for (int i = 0; i < 4; ++i) c.lassos.push_back(random_lasso(rng, *c.alphabet, 4, 4));
  return c;
}

CheckOutcome check_lasso_roundtrip(const FuzzCase& c, const Budget& budget) {
  if (!c.alphabet || c.lassos.empty()) return CheckOutcome::skip("needs lassos");
  if (auto gate = budget_gate(budget)) return *gate;
  auto spell = [&](const lang::Word& w) {
    std::string out;
    for (auto s : w) out += c.alphabet->name(s);
    return out;
  };
  auto rejects = [&](const std::string& text) {
    try {
      (void)omega::parse_lasso(text, *c.alphabet);
      return false;
    } catch (const std::invalid_argument&) {
      return true;
    }
  };
  for (const Lasso& l : c.lassos) {
    const std::string text = spell(l.prefix) + "(" + spell(l.loop) + ")";
    const Lasso back = omega::parse_lasso(text, *c.alphabet);
    if (!back.same_word(l))
      return CheckOutcome::fail("parse('" + text + "') denotes a different word");
    if (!rejects(text + "a"))
      return CheckOutcome::fail("trailing letter accepted: '" + text + "a'");
    if (!rejects(text + "(a)"))
      return CheckOutcome::fail("second loop group accepted: '" + text + "(a)'");
    if (!rejects(spell(l.prefix) + "(" + "(" + spell(l.loop) + ")"))
      return CheckOutcome::fail("doubled '(' accepted");
    if (!rejects(spell(l.prefix) + spell(l.loop)))
      return CheckOutcome::fail("lasso without a loop group accepted");
    if (!rejects(spell(l.prefix) + "()"))
      return CheckOutcome::fail("empty loop '()' accepted");
  }
  if (!rejects("")) return CheckOutcome::fail("empty lasso text accepted");
  return CheckOutcome::pass();
}

// ------------------------------------------------------------------------
// nba-inclusion: Safra-free Büchi complementation and language inclusion
// (docs/COMPLEMENT.md) against per-lasso membership. comp(A) must disagree
// with A on every enumerated lasso; NCSB and rank-based complements of a
// semi-deterministic input must denote the same language; included(A,B)
// must not answer Included when the sweep finds a separating lasso, and a
// NotIncluded counterexample must actually separate. Budget exhaustion in
// any leg is a skip, never a verdict.

FuzzCase gen_nba_inclusion(Rng& rng) {
  FuzzCase c;
  c.oracle = "nba-inclusion";
  c.alphabet = lang::Alphabet::plain({"a", "b"});
  for (int i = 0; i < 2; ++i)
    c.nbas.push_back(random_nba(rng, *c.alphabet,
                                static_cast<std::size_t>(rng.between(2, 4))));
  return c;
}

/// Cap on complement macrostates inside an oracle iteration: the rank-based
/// construction is 2^O(n log n), and a handful of 4-state draws materialize
/// minutes of macrostates under an unlimited budget. Hitting the cap is a
/// Budget outcome, not a discrepancy — the kOracleMonoidCap idiom.
constexpr std::size_t kOracleComplementCap = 40000;

CheckOutcome check_nba_inclusion(const FuzzCase& c, const Budget& budget) {
  if (c.nbas.size() < 2) return CheckOutcome::skip("needs two NBAs");
  const omega::Nba& a = c.nbas[0];
  const omega::Nba& b = c.nbas[1];
  Budget capped = budget;
  if (capped.state_cap() > kOracleComplementCap)
    capped.with_state_cap(kOracleComplementCap);
  const auto lassos = omega::enumerate_lassos(a.alphabet(), 2, 2);
  // Leg 1: the materialized complement flips membership on every lasso;
  // leg 2: on semi-deterministic inputs, NCSB and rank-based agree.
  for (const omega::Nba* n : {&a, &b}) {
    omega::ComplementOptions copts;
    copts.budget = capped;
    const auto comp = omega::complement(*n, copts);
    if (!comp.complete())
      return CheckOutcome::exhausted("complement budget exhausted (" +
                                     std::string(to_string(comp.outcome)) + ")");
    for (const Lasso& l : lassos)
      if (comp.value->accepts(l) == n->accepts(l))
        return CheckOutcome::fail("complement and input agree on " +
                                  l.to_string(a.alphabet()));
    if (auto gate = budget_gate(budget)) return *gate;
    if (omega::is_semi_deterministic(*n)) {
      omega::ComplementOptions ncsb = copts;
      ncsb.algorithm = omega::ComplementAlgorithm::Ncsb;
      omega::ComplementOptions rank = copts;
      rank.algorithm = omega::ComplementAlgorithm::Rank;
      const auto c_ncsb = omega::complement(*n, ncsb);
      const auto c_rank = omega::complement(*n, rank);
      if (!c_ncsb.complete() || !c_rank.complete())
        return CheckOutcome::exhausted("forced-algorithm complement budget exhausted");
      for (const Lasso& l : lassos)
        if (c_ncsb.value->accepts(l) != c_rank.value->accepts(l))
          return CheckOutcome::fail("NCSB and rank-based complements disagree on " +
                                    l.to_string(a.alphabet()));
    }
    if (auto gate = budget_gate(budget)) return *gate;
  }
  // Leg 3: inclusion in both directions vs the lasso sweep, with
  // counterexample validation.
  omega::InclusionOptions io;
  io.budget = capped;
  const std::pair<const omega::Nba*, const omega::Nba*> directions[] = {{&a, &b}, {&b, &a}};
  for (const auto& [x, y] : directions) {
    const auto r = omega::included(*x, *y, io);
    if (r.verdict == omega::InclusionVerdict::Unknown)
      return CheckOutcome::exhausted("inclusion budget exhausted (" +
                                     std::string(to_string(r.outcome)) + ")");
    std::optional<Lasso> separating;
    for (const Lasso& l : lassos)
      if (x->accepts(l) && !y->accepts(l)) {
        separating = l;
        break;
      }
    if (r.verdict == omega::InclusionVerdict::Included && separating)
      return CheckOutcome::fail("included() says ⊆ but " +
                                separating->to_string(a.alphabet()) +
                                " is in L(A) ∖ L(B)");
    if (r.verdict == omega::InclusionVerdict::NotIncluded) {
      if (!r.counterexample)
        return CheckOutcome::fail("NotIncluded without a counterexample");
      if (!x->accepts(*r.counterexample) || y->accepts(*r.counterexample))
        return CheckOutcome::fail("inclusion counterexample " +
                                  r.counterexample->to_string(a.alphabet()) +
                                  " does not separate the languages");
    }
    if (auto gate = budget_gate(budget)) return *gate;
  }
  // Leg 4: reflexivity — L(A) ⊆ L(A) can refuse, never answer no.
  for (const omega::Nba* n : {&a, &b})
    if (omega::included(*n, *n, io).verdict == omega::InclusionVerdict::NotIncluded)
      return CheckOutcome::fail("included(A, A) answered NotIncluded");
  return CheckOutcome::pass();
}

// ------------------------------------------------------------------------
// absint-soundness: the interval abstract interpreter (docs/ABSINT.md) vs
// concrete exploration. Every reachable valuation must sit inside the box
// invariant, abstractly dead transitions (MPH-F010) must never be enabled
// in any reachable state, and any spec the static prover certifies must
// agree with the ω-product engine and take the exploration-free path when
// installed through CheckOptions::static_prover.

FuzzCase gen_absint_soundness(Rng& rng) {
  FuzzCase c;
  c.oracle = "absint-soundness";
  // 1-in-4 draws use a symbolic scaling family — the systems the static
  // proof path benchmarks on, with guaranteed wraps (dining's put_down) and
  // a guaranteed dead transition (the alarm latch's escalate). The rest are
  // generic random systems.
  if (rng.below(4) == 0)
    c.system = rng.below(2) ? fts::symbolic_dining(2 + static_cast<std::size_t>(rng.below(2)))
                            : fts::symbolic_ring(2 + static_cast<std::size_t>(rng.below(3)));
  else
    c.system = random_fts(rng);
  std::vector<std::string> atoms;
  for (const auto& v : c.system->vars) {
    atoms.push_back(v.name + "hi");
    atoms.push_back(v.name + "lo");
  }
  // Half the specs are □(literal ∨ literal) — the shape the prover can
  // certify; the other half arbitrary future-only LTL, which it must either
  // prove consistently or refuse.
  if (rng.below(2) == 0) {
    auto literal = [&] {
      std::string a = atoms[static_cast<std::size_t>(
          rng.below(static_cast<std::uint64_t>(atoms.size())))];
      return rng.below(2) ? "!" + a : a;
    };
    std::string body = literal();
    if (rng.below(2)) body = body + " | " + literal();
    c.formulas.push_back("G (" + body + ")");
  } else {
    for (int tries = 0; tries < 20; ++tries) {
      ltl::Formula f = random_ltl(rng, atoms, static_cast<std::size_t>(rng.between(3, 6)),
                                  LtlFlavor::FutureOnly);
      if (f.atoms().empty()) continue;
      c.formulas.push_back(f.to_string());
      break;
    }
  }
  return c;
}

CheckOutcome check_absint_soundness(const FuzzCase& c, const Budget& budget) {
  if (!c.system) return CheckOutcome::skip("needs a system");
  const analysis::AbsintResult ar = analysis::analyze_intervals(*c.system);
  const fts::Fts sys = c.system->build();
  Budget capped = budget;
  if (!capped.has_state_cap() || capped.state_cap() > 20000) capped.with_state_cap(20000);
  const fts::ExploreResult ex = fts::explore(sys, capped);
  if (!is_complete(ex.outcome))
    return CheckOutcome::exhausted("exploration budget exhausted (" +
                                   std::string(to_string(ex.outcome)) + ")");
  // Leg 1: the box invariant contains every reachable valuation.
  for (std::size_t n = 0; n < ex.graph.size(); ++n)
    for (std::size_t v = 0; v < ar.invariants.size(); ++v)
      if (!ar.invariants[v].inv.contains(ex.graph.value(n, v)))
        return CheckOutcome::fail(
            "reachable valuation escapes the box invariant: " + ar.invariants[v].name +
            "=" + std::to_string(ex.graph.value(n, v)) + " outside [" +
            std::to_string(ar.invariants[v].inv.lo) + ", " +
            std::to_string(ar.invariants[v].inv.hi) + "]");
  if (auto gate = budget_gate(budget)) return *gate;
  // Leg 2: MPH-F010 transitions are never enabled in any reachable state.
  for (std::size_t t = 0; t < ar.transitions.size(); ++t) {
    if (!ar.transitions[t].dead) continue;
    for (std::size_t n = 0; n < ex.graph.size(); ++n)
      if (t < sys.transition_count() && ex.graph.enabled(n, t))
        return CheckOutcome::fail("transition '" + ar.transitions[t].name +
                                  "' is abstractly dead (MPH-F010) but concretely "
                                  "enabled in a reachable state");
  }
  if (auto gate = budget_gate(budget)) return *gate;
  // Leg 3: certified specs agree with the ω-product engine, and through
  // CheckOptions::static_prover the batch takes the exploration-free path.
  if (c.formulas.empty()) return CheckOutcome::pass();
  const fts::AtomMap atoms = c.system->atoms();
  const ltl::Formula spec = ltl::parse_formula(c.formulas[0]);
  const auto prover = analysis::make_static_prover(*c.system);
  const auto proved = prover(spec);
  if (!proved) return CheckOutcome::pass();  // refusal is always sound
  if (!proved->holds)
    return CheckOutcome::fail("static prover returned a non-holds certificate for '" +
                              c.formulas[0] + "'");
  fts::CheckOptions otf;
  otf.budget = oracle_budget(budget);
  const auto r_otf = fts::check_all(sys, {spec}, atoms, otf)[0];
  if (!is_complete(r_otf.outcome))
    return CheckOutcome::exhausted("engine budget exhausted (" +
                                   std::string(to_string(r_otf.outcome)) + ")");
  if (!r_otf.holds)
    return CheckOutcome::fail("static prover certified '" + c.formulas[0] +
                              "' but the ω-product engine refutes it");
  fts::CheckOptions sp = otf;
  sp.static_prover = prover;
  const auto r_sp = fts::check_all(sys, {spec}, atoms, sp)[0];
  if (r_sp.stats.engine != fts::CheckEngine::StaticProof || !r_sp.holds ||
      r_sp.stats.state_graph_nodes != 0 || r_sp.stats.product_states != 0)
    return CheckOutcome::fail("CheckOptions::static_prover did not take the "
                              "exploration-free path on '" + c.formulas[0] + "'");
  return CheckOutcome::pass();
}

}  // namespace

namespace {

std::vector<Oracle>& mutable_registry() {
  static std::vector<Oracle> registry{
      {"dfa-product-laws",
       "boolean algebra of DFA languages: product laws, minimize, and per-word membership",
       gen_product_laws, check_product_laws},
      {"operator-duality",
       "§2 operators A/E/R/P: duality and closure laws vs naive prefix-scan lasso semantics",
       gen_operator_duality, check_operator_duality},
      {"classify-vs-forms",
       "§5.1 classification vs complement duality, safety closure, and form extraction",
       gen_classify, check_classify},
      {"ltl-eval-vs-automaton",
       "direct LTL lasso evaluation vs the compiled deterministic automaton",
       gen_ltl_eval, check_ltl_eval},
      {"fts-engines",
       "explore vs a naive reference explorer node-for-node, then the model checker "
       "(default route and force_scc) vs a materialized product decided by "
       "omega::find_good_loop, with counterexample replay",
       gen_fts_engines, check_fts_engines},
      {"vacuity-antecedent",
       "MPH-Y002 antecedent labeling vs safety-prefix and ω-product checks of G ¬p",
       gen_vacuity_antecedent, check_vacuity_antecedent},
      {"normalize-agreement",
       "ΔΓ-normalization vs lasso evaluation, compiled automata, and checker verdicts",
       gen_normalize_agreement, check_normalize_agreement},
      {"lasso-roundtrip",
       "lasso printing/parsing round-trip and rejection of malformed inputs",
       gen_lasso_roundtrip, check_lasso_roundtrip},
      {"nba-inclusion",
       "Büchi complementation (NCSB vs rank) and language inclusion vs per-lasso membership",
       gen_nba_inclusion, check_nba_inclusion},
      {"absint-soundness",
       "interval abstract interpretation vs exploration: box containment, dead "
       "transitions, and static-prover agreement",
       gen_absint_soundness, check_absint_soundness},
  };
  return registry;
}

}  // namespace

const std::vector<Oracle>& oracle_registry() { return mutable_registry(); }

void register_oracle(Oracle oracle) {
  auto& registry = mutable_registry();
  for (auto& existing : registry) {
    if (existing.name == oracle.name) {
      existing = std::move(oracle);
      return;
    }
  }
  registry.push_back(std::move(oracle));
}

const Oracle* find_oracle(std::string_view name) {
  for (const auto& o : oracle_registry())
    if (o.name == name) return &o;
  return nullptr;
}

}  // namespace mph::fuzz
