#include "src/analysis/coverage.hpp"

#include <set>

#include "src/support/check.hpp"

namespace mph::analysis {

namespace {

/// `src` with transition `removed` disabled (guard forced false). The clone
/// delegates guards/effects to `src`, so it must not outlive it; variable
/// and transition indices line up, keeping every AtomFn valid.
fts::Fts without_transition(const fts::Fts& src, std::size_t removed) {
  fts::Fts v;
  for (std::size_t i = 0; i < src.var_count(); ++i)
    v.add_var(src.var_name(i), src.var_lo(i), src.var_hi(i), src.initial_valuation()[i]);
  for (std::size_t t = 0; t < src.transition_count(); ++t) {
    if (t == removed)
      v.add_transition(
          src.transition_name(t), src.transition_fairness(t),
          [](const fts::Valuation&) { return false; }, [](fts::Valuation&) {});
    else
      v.add_transition(
          src.transition_name(t), src.transition_fairness(t),
          [&src, t](const fts::Valuation& val) { return src.enabled(t, val); },
          [&src, t](fts::Valuation& val) { val = src.apply(t, val); });
  }
  return v;
}

}  // namespace

CoverageResult analyze_coverage(const fts::Fts& system, const std::vector<ltl::Formula>& specs,
                                const fts::AtomMap& atoms, DiagnosticEngine& out,
                                const CoverageOptions& options) {
  CoverageResult result;
  fts::CheckOptions co = options.check;
  co.diagnostics = nullptr;
  Budget budget = co.budget;
  if (!budget.has_state_cap()) budget.with_state_cap(fts::kDefaultStateCap);

  const auto base = fts::check_all(system, specs, atoms, co);
  for (const auto& r : base)
    if (!is_complete(r.outcome)) result.outcome = worst(result.outcome, r.outcome);

  fts::ExploreResult ex = fts::explore(system, budget);
  result.outcome = worst(result.outcome, ex.outcome);
  if (!is_complete(result.outcome)) {
    out.emit("MPH-Y005", "transition coverage",
             "the base check or exploration exhausted its budget (" +
                 std::string(to_string(result.outcome)) + "); coverage not analyzed")
        .fix_hint = "raise the budget (state cap / deadline)";
    return result;
  }

  // A transition is reachable iff it is taken on some edge (stutter edges
  // carry StateGraph::kStutter and do not count).
  std::set<std::size_t> reachable;
  for (std::size_t n = 0; n < ex.graph.size(); ++n)
    for (const fts::StateGraph::Edge& e : ex.graph.edges(n))
      if (e.transition != fts::StateGraph::kStutter) reachable.insert(e.transition);

  for (std::size_t t = 0; t < system.transition_count(); ++t) {
    TransitionCoverage tc;
    tc.transition = t;
    tc.name = system.transition_name(t);
    tc.reachable = reachable.contains(t);
    if (!tc.reachable) {
      // Never-enabled transitions are MPH-F002's finding, not coverage's.
      result.transitions.push_back(std::move(tc));
      continue;
    }
    ++result.reachable;
    const fts::Fts variant = without_transition(system, t);
    const auto res = fts::check_all(variant, specs, atoms, co);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (!is_complete(res[i].outcome)) {
        tc.unknown = true;
        continue;
      }
      if (res[i].holds != base[i].holds) tc.covered = true;
    }
    if (tc.covered) {
      ++result.covered;
      tc.unknown = false;  // a flipped verdict settles coverage regardless
    } else if (tc.unknown) {
      ++result.unknown;
      out.emit("MPH-Y005", "transition '" + tc.name + "'",
               "a variant check exhausted its budget; coverage of the transition "
               "is unknown, not uncovered")
          .fix_hint = "raise the budget (state cap / deadline)";
    } else {
      auto& d = out.emit(
          "MPH-Y004", "transition '" + tc.name + "'",
          "removing the transition changes no requirement's verdict: the "
          "specification does not cover it");
      d.fix_hint = "add a requirement observing this transition's effect (a response "
                   "or precedence property naming what it changes)";
    }
    result.transitions.push_back(std::move(tc));
  }
  result.percent_covered =
      result.reachable == 0 ? 100.0 : 100.0 * static_cast<double>(result.covered) /
                                          static_cast<double>(result.reachable);
  return result;
}

}  // namespace mph::analysis
