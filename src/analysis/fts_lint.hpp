// FTS lint: well-formedness and dead-code findings over fair transition
// systems, computed on the explored state graph (domains are finite, so
// "static" analysis here is exact semantic analysis of the finite model).
//
//   MPH-F001  trivial system (no variables or no transitions)
//   MPH-F002  transition never enabled in any reachable state (dead code)
//   MPH-F003  variable never changes value (constant)
//   MPH-F004  variable never read: no guard or effect output depends on it
//             (decided by counterfactual probing over the finite domain)
//   MPH-F005  weak/strong fairness declared on a never-enabled transition
//             (the requirement is vacuous — the §4 fairness formulae hold
//             trivially)
//   MPH-F006  deadlock: a reachable state whose only step is the stutter
//             self-loop
//   MPH-F007  exploration exceeded max_states; lint incomplete
//
// Note: an unsatisfiable *initial condition* is unrepresentable in this IR —
// Fts::add_var validates the initial value against the domain at
// construction time, which is where that lint lives.
#pragma once

#include <cstddef>
#include <string_view>

#include "src/analysis/diagnostics.hpp"
#include "src/fts/fts.hpp"

namespace mph::analysis {

struct FtsLintOptions {
  std::size_t max_states = 200000;
};

void lint_fts(const fts::Fts& system, std::string_view subject, DiagnosticEngine& out,
              const FtsLintOptions& options = {});

}  // namespace mph::analysis
