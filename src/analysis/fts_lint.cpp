#include "src/analysis/fts_lint.hpp"

#include <algorithm>
#include <sstream>

namespace mph::analysis {

namespace {

/// Reachable states probed per variable by the MPH-F004 read-dependence
/// analysis; keeps lint linear on big graphs.
constexpr std::size_t kMaxProbeStates = 256;

std::string valuation_text(const fts::Fts& sys, const fts::Valuation& v) {
  std::ostringstream out;
  for (std::size_t i = 0; i < v.size(); ++i)
    out << (i ? " " : "") << sys.var_name(i) << "=" << v[i];
  return out.str();
}

/// Semantic read-dependence of any guard or effect on variable v, probed by
/// flipping v to alternative domain values in reachable states. Exceptions
/// from counterfactual valuations (e.g. an effect driven out of domain)
/// count as a dependence — conservative, so MPH-F004 never fires wrongly.
bool variable_read(const fts::Fts& sys, const fts::StateGraph& sg, std::size_t v) {
  const int lo = sys.var_lo(v), hi = sys.var_hi(v);
  if (lo == hi) return false;  // single-valued: nothing can depend on it
  const std::size_t n_probe = std::min(sg.size(), kMaxProbeStates);
  for (std::size_t n = 0; n < n_probe; ++n) {
    const fts::Valuation s = sg.valuation(n);
    for (int d = lo; d <= hi; ++d) {
      if (d == s[v]) continue;
      fts::Valuation s2 = s;
      s2[v] = d;
      for (std::size_t t = 0; t < sys.transition_count(); ++t) {
        try {
          const bool e1 = sys.enabled(t, s);
          const bool e2 = sys.enabled(t, s2);
          if (e1 != e2) return true;
          if (!e1) continue;
          fts::Valuation o1 = sys.apply(t, s);
          fts::Valuation o2 = sys.apply(t, s2);
          for (std::size_t i = 0; i < o1.size(); ++i) {
            if (i == v) continue;
            if (o1[i] != o2[i]) return true;
          }
          // v itself: a write whose result differs under the flip (x := x+1)
          // is a read; "unchanged" (write-through) is not.
          const bool wrote = o1[v] != s[v] || o2[v] != s2[v];
          if (wrote && o1[v] != o2[v]) return true;
        } catch (const std::exception&) {
          return true;
        }
      }
    }
  }
  return false;
}

}  // namespace

void lint_fts(const fts::Fts& sys, std::string_view subject, DiagnosticEngine& out,
              const FtsLintOptions& options) {
  if (sys.var_count() == 0 || sys.transition_count() == 0) {
    auto& d = out.emit("MPH-F001", subject,
                       sys.var_count() == 0 ? "the system declares no variables"
                                            : "the system declares no transitions; every "
                                              "computation is the stuttering of the initial "
                                              "state");
    d.fix_hint = "a transition system without both variables and transitions models nothing";
    if (sys.var_count() == 0) return;
  }

  fts::StateGraph sg;
  try {
    fts::ExploreResult ex =
        fts::explore(sys, Budget().with_state_cap(options.max_states));
    if (!is_complete(ex.outcome)) {
      auto& d = out.emit("MPH-F007", subject,
                         "state-graph exploration failed; semantic lint is incomplete");
      d.witness = "budget exhausted (" + std::string(to_string(ex.outcome)) + ") after " +
                  std::to_string(ex.graph.size()) + " state(s)";
      d.fix_hint = "raise the exploration limit or shrink variable domains";
      return;
    }
    sg = std::move(ex.graph);
  } catch (const std::invalid_argument& e) {
    auto& d = out.emit("MPH-F007", subject,
                       "state-graph exploration failed; semantic lint is incomplete");
    d.witness = e.what();
    d.fix_hint = "raise the exploration limit or shrink variable domains";
    return;
  }

  // Per-transition enabledness over the reachable graph.
  std::vector<bool> ever_enabled(sys.transition_count(), false);
  for (std::size_t n = 0; n < sg.size(); ++n)
    for (std::size_t t = 0; t < sys.transition_count(); ++t)
      if (sg.enabled(n, t)) ever_enabled[t] = true;
  for (std::size_t t = 0; t < sys.transition_count(); ++t) {
    if (ever_enabled[t]) continue;
    {
      auto& d = out.emit("MPH-F002", subject,
                         "transition '" + sys.transition_name(t) +
                             "' is never enabled in any reachable state (dead code)");
      d.location = "transition '" + sys.transition_name(t) + "'";
      d.fix_hint = "the guard is unsatisfiable over the reachable valuations";
    }
    if (sys.transition_fairness(t) != fts::Fairness::None) {
      auto& d = out.emit("MPH-F005", subject,
                         std::string(sys.transition_fairness(t) == fts::Fairness::Weak
                                         ? "weak"
                                         : "strong") +
                             " fairness on never-enabled transition '" +
                             sys.transition_name(t) + "' is vacuous");
      d.location = "transition '" + sys.transition_name(t) + "'";
      d.fix_hint = "fairness over dead code constrains nothing; drop it or fix the guard";
    }
  }

  // Constant variables.
  for (std::size_t v = 0; v < sys.var_count(); ++v) {
    bool constant = true;
    const int init = sys.initial_valuation()[v];
    for (std::size_t n = 0; n < sg.size(); ++n)
      if (sg.value(n, v) != init) {
        constant = false;
        break;
      }
    if (constant) {
      auto& d = out.emit("MPH-F003", subject,
                         "variable '" + sys.var_name(v) + "' never changes value (stays " +
                             std::to_string(init) + ")");
      d.location = "variable '" + sys.var_name(v) + "'";
      d.fix_hint = "no reachable transition assigns it; either assign it or make it a constant";
    }
  }

  // Unread variables (semantic probe).
  for (std::size_t v = 0; v < sys.var_count(); ++v) {
    if (!variable_read(sys, sg, v)) {
      auto& d = out.emit("MPH-F004", subject,
                         "no guard or effect depends on variable '" + sys.var_name(v) +
                             "' (write-only state)");
      d.location = "variable '" + sys.var_name(v) + "'";
      d.fix_hint = "the variable influences no behaviour; delete it or use it in a guard";
    }
  }

  // Deadlocks (stutter-only states).
  std::size_t n_deadlocked = 0;
  std::string first_witness;
  for (std::size_t n = 0; n < sg.size(); ++n)
    if (sg.stutters(n)) {
      if (n_deadlocked == 0) first_witness = valuation_text(sys, sg.valuation(n));
      ++n_deadlocked;
    }
  if (n_deadlocked > 0) {
    auto& d = out.emit("MPH-F006", subject,
                       std::to_string(n_deadlocked) +
                           " reachable state(s) enable no transition (the computation "
                           "stutters forever)");
    d.witness = first_witness;
    d.fix_hint = "if termination is intended this is fine; otherwise add an exit transition";
  }
}

}  // namespace mph::analysis
