// Transition mutation coverage (docs/VACUITY.md): the model-side complement
// of vacuity. A requirement list that never notices a transition's removal
// does not constrain that transition — removing it (forcing its guard false)
// and re-checking every requirement must flip some verdict, or the
// transition is *uncovered* (MPH-Y004). Aggregate percentages quantify how
// much of the model's reachable behavior the specification actually pins
// down.
//
// Cost model: one base exploration (the caller's fts::ModelContext, shared
// with whatever else ran on it) plus one per reachable transition, each
// variant on a context of its own.
#pragma once

#include <string>
#include <vector>

#include "src/analysis/diagnostics.hpp"
#include "src/fts/checker.hpp"

namespace mph::analysis {

struct CoverageOptions {
  /// Engine options for the base and per-variant checks; diagnostics are
  /// ignored (only MPH-Y findings are reported).
  fts::CheckOptions check;
};

struct TransitionCoverage {
  std::size_t transition = 0;
  std::string name;
  bool reachable = false;  ///< taken on some edge of the reachable state graph
  bool covered = false;    ///< removal flips some requirement's verdict
  bool unknown = false;    ///< some variant check exhausted its budget
};

struct CoverageResult {
  std::vector<TransitionCoverage> transitions;
  std::size_t reachable = 0;
  std::size_t covered = 0;
  std::size_t unknown = 0;
  /// covered / reachable, in percent; 100 when nothing is reachable.
  double percent_covered = 100.0;
  /// Outcome of the shared phases (base check + exploration); anything but
  /// Complete aborts the analysis with MPH-Y005.
  Outcome outcome = Outcome::Complete;
};

/// Checks `specs` on the context's model, then re-checks them against one
/// variant of the model per reachable transition of the context's graph
/// (that transition's guard forced false), and reports MPH-Y004 for every
/// uncovered one, MPH-Y005 where the budget ran out.
CoverageResult analyze_coverage(fts::ModelContext& model, const std::vector<ltl::Formula>& specs,
                                DiagnosticEngine& out, const CoverageOptions& options = {});

}  // namespace mph::analysis
