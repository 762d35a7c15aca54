// spec-analysis: one op is one formula query, with no transition system
// involved. Two query kinds:
//   * classify — ltl::normalize then ltl::exact_classification (what the
//     serve `classify` op runs), on future-LTL formulas from
//     fuzz::random_ltl and fuzz::random_ltl_nonnormal over 3 atoms;
//   * entail — tableau NBAs of both sides (ltl::to_nba), then
//     omega::included under the 200k state cap serve admits: the tab17
//     battery in both directions plus random pairs.
//
// Formula costs are heavy-tailed (one 9-node formula can cost 2000 times
// the median), so the inputs cannot change with --seed without moving
// throughput by more than any bound worth having: 300 formulas drawn per
// seed cost from 0.36 s to 1.44 s, and even renaming the atoms of a fixed
// corpus per seed spread throughput over 17% between seeds (5% between
// runs of one seed). The formulas therefore come from --corpus-seed and
// --seed only sets the op order.
#include <algorithm>
#include <set>
#include <string>

#include "bench.hpp"
#include "src/fuzz/generators.hpp"
#include "src/ltl/eval.hpp"
#include "src/ltl/normalize.hpp"
#include "src/ltl/syntactic.hpp"
#include "src/ltl/to_nba.hpp"
#include "src/omega/inclusion.hpp"

namespace perfbench {
namespace {

using namespace mph;
using V = omega::InclusionVerdict;

/// The tab17 entailment battery with the true answer per direction. Deciding
/// the reverse of the last query (`F q` is not included: q at once, p never)
/// overruns the cap today, so Unknown is accepted there as well.
struct BatteryQuery {
  const char* stronger;
  const char* weaker;
  V forward, reverse;
  bool reverse_may_overrun = false;
};
constexpr BatteryQuery kBattery[] = {
    {"G p", "G (p | q)", V::Included, V::NotIncluded},
    {"G (p & q)", "G p", V::Included, V::NotIncluded},
    {"p U q", "F q", V::Included, V::NotIncluded},
    {"G F p", "F p", V::Included, V::NotIncluded},
    {"G p", "F p", V::Included, V::NotIncluded},
    {"G (p & q)", "G (q & p)", V::Included, V::Included},
    {"F (p & X (p U q))", "F q", V::Included, V::NotIncluded, true},
};

bool temporal(ltl::Op op) {
  return op >= ltl::Op::Next;
}

std::size_t temporal_ops(const ltl::Formula& f) {
  std::size_t n = temporal(f.op()) ? 1 : 0;
  for (std::size_t i = 0; i < f.arity(); ++i) n += temporal_ops(f.child(i));
  return n;
}

lang::Alphabet joint_alphabet(const ltl::Formula& a, const ltl::Formula& b) {
  std::set<std::string> atoms;
  for (const auto& p : a.atoms()) atoms.insert(p);
  for (const auto& p : b.atoms()) atoms.insert(p);
  if (atoms.empty()) atoms.insert("p");
  return lang::Alphabet::of_props({atoms.begin(), atoms.end()});
}

class SpecAnalysis : public Workload {
 public:
  void setup(const Config& config, Trace* trace) override {
    const std::vector<std::string> atoms = {"p", "q", "r"};
    // Generated formulas are printed and parsed back, so the inputs reach
    // mph as text, the way users give them.
    auto parsed = [&](const ltl::Formula& f) {
      Scope parse(trace, "parse_formula");
      return ltl::parse_formula(f.to_string());
    };

    Rng corpus(config.corpus_seed);
    const std::size_t classify = config.tiny ? 12 : 240;
    for (std::size_t k = 0; k < classify; ++k) {
      const std::size_t nodes = 5 + k % 4;
      const ltl::Formula f = k % 2 ? fuzz::random_ltl_nonnormal(corpus, atoms, nodes)
                                   : fuzz::random_ltl(corpus, atoms, nodes,
                                                      fuzz::LtlFlavor::FutureOnly);
      Query q;
      q.a = parsed(f);
      queries_.push_back(std::move(q));
    }
    for (const BatteryQuery& b : kBattery) {
      Scope parse(trace, "parse_formula");
      const ltl::Formula s = ltl::parse_formula(b.stronger);
      const ltl::Formula w = ltl::parse_formula(b.weaker);
      queries_.push_back(entail(s, w, b.forward));
      queries_.push_back(entail(w, s, b.reverse, b.reverse_may_overrun));
    }
    // Random pairs. The complemented right side keeps at most one temporal
    // operator, which keeps its tableau small: right sides of up to 4 states
    // stayed under ~40 ms per query, where 5- to 8-state ones such as
    // `F X r` reach 39 s.
    const std::size_t pairs = config.tiny ? 4 : 40;
    for (std::size_t k = 0; k < pairs;) {
      const ltl::Formula a =
          fuzz::random_ltl(corpus, atoms, 4 + k % 2, fuzz::LtlFlavor::FutureOnly);
      const ltl::Formula b = fuzz::random_ltl(corpus, atoms, 3, fuzz::LtlFlavor::FutureOnly);
      if (temporal_ops(b) > 1) continue;
      queries_.push_back(entail(parsed(a), parsed(b), std::nullopt));
      ++k;
    }
    Rng order(config.seed);
    for (std::size_t i = queries_.size(); i > 1; --i)
      std::swap(queries_[i - 1], queries_[order.below(i)]);
  }

  std::size_t cycle_length() const override { return queries_.size(); }

  void call(std::size_t i, Trace* trace) override {
    const Query& q = queries_[i];
    if (!q.entailment) {
      ltl::NormalizeOptions options;
      options.budget.with_state_cap(serve_state_cap());
      {
        Scope s(trace, "normalize");
        normalized_ = ltl::normalize(q.a, options);
      }
      Scope s(trace, "exact_classification");
      exact_ = ltl::exact_classification(q.a, options);
      return;
    }
    {
      Scope s(trace, "to_nba");
      nba_a_ = ltl::to_nba(q.a, q.alphabet);
    }
    {
      Scope s(trace, "to_nba");
      nba_b_ = ltl::to_nba(q.b, q.alphabet);
    }
    omega::InclusionOptions options;
    options.budget.with_state_cap(serve_state_cap());
    Scope s(trace, "included");
    inclusion_ = omega::included(*nba_a_, *nba_b_, options);
  }

  OpCheck verify(std::size_t i, Counters* counters) override {
    const Query& q = queries_[i];
    OpCheck check;
    check.answers = 1;
    if (!q.entailment) {
      if (counters) {
        (*counters)["ltl.normalize.calls"] += 1;
        (*counters)["ltl.normalize.steps"] += static_cast<double>(normalized_->steps);
        (*counters)["ltl.normalize.complete"] += normalized_->complete() ? 1 : 0;
        (*counters)["ltl.exact.calls"] += 1;
        (*counters)["ltl.exact.exact"] += exact_ ? 1 : 0;
        (*counters)["ltl.exact.nba"] +=
            exact_ && exact_->source == ltl::ExactClass::Source::NbaSemantics ? 1 : 0;
      }
      if (!exact_) return check;
      check.decided = 1;
      check.failure = class_failure(q.a, exact_->value);
      return check;
    }
    const omega::InclusionResult& r = inclusion_;
    if (counters) {
      (*counters)["ltl.to_nba.calls"] += 2;
      (*counters)["ltl.to_nba.states"] +=
          static_cast<double>(nba_a_->state_count() + nba_b_->state_count());
      (*counters)["omega.included.calls"] += 1;
      (*counters)["omega.included.unknown"] += r.verdict == V::Unknown ? 1 : 0;
      (*counters)["omega.included.product_states"] += static_cast<double>(r.product_states);
      (*counters)["omega.complement.macrostates"] += static_cast<double>(r.complement.macrostates);
      (*counters)["omega.complement.rank_parts"] += static_cast<double>(r.complement.rank_parts);
      (*counters)["omega.complement.ncsb_parts"] += static_cast<double>(r.complement.ncsb_parts);
    }
    check.decided = r.verdict == V::Unknown ? 0 : 1;
    const std::string pair = q.a.to_string() + " |= " + q.b.to_string();
    if (q.expected && r.verdict != *q.expected && !(q.may_overrun && r.verdict == V::Unknown)) {
      check.failure = pair + ": " + std::string(omega::to_string(r.verdict)) +
                      ", the true answer is " + std::string(omega::to_string(*q.expected));
    } else if (r.verdict == V::NotIncluded) {
      // The separating lasso must be in L(a) and not in L(b), on the
      // automata and under the independent lasso evaluator.
      if (!r.counterexample || !nba_a_->accepts(*r.counterexample) ||
          nba_b_->accepts(*r.counterexample) ||
          !ltl::evaluates(q.a, *r.counterexample, q.alphabet) ||
          ltl::evaluates(q.b, *r.counterexample, q.alphabet))
        check.failure = pair + ": the not-included counterexample does not separate the two";
    }
    return check;
  }

 private:
  struct Query {
    bool entailment = false;
    ltl::Formula a = ltl::f_true(), b = ltl::f_true();
    lang::Alphabet alphabet = lang::Alphabet::of_props({"p"});
    std::optional<V> expected;  ///< ground truth (battery only)
    bool may_overrun = false;   ///< Unknown is accepted besides `expected`
  };

  static Query entail(ltl::Formula a, ltl::Formula b, std::optional<V> expected,
                      bool may_overrun = false) {
    Query q;
    q.entailment = true;
    q.alphabet = joint_alphabet(a, b);
    q.a = std::move(a);
    q.b = std::move(b);
    q.expected = expected;
    q.may_overrun = may_overrun;
    return q;
  }

  /// The exact class must contain every class the syntactic rules claim,
  /// and respect the hierarchy's own inclusions.
  static std::string class_failure(const ltl::Formula& f, const core::Classification& exact) {
    const core::Classification syn = ltl::syntactic_classification(f);
    const std::string where = f.to_string() + ": exact class " + exact.describe();
    if ((syn.safety && !exact.safety) || (syn.guarantee && !exact.guarantee) ||
        (syn.obligation && !exact.obligation) || (syn.recurrence && !exact.recurrence) ||
        (syn.persistence && !exact.persistence))
      return where + " misses the syntactic claim " + syn.describe();
    if (exact.obligation != (exact.recurrence && exact.persistence) ||
        ((exact.safety || exact.guarantee) && !exact.obligation))
      return where + " breaks the hierarchy's inclusions";
    return {};
  }

  std::vector<Query> queries_;
  std::optional<ltl::NormalizeResult> normalized_;
  std::optional<ltl::ExactClass> exact_;
  std::optional<omega::Nba> nba_a_, nba_b_;
  omega::InclusionResult inclusion_;
};

}  // namespace

std::unique_ptr<Workload> make_spec_analysis() { return std::make_unique<SpecAnalysis>(); }

}  // namespace perfbench
