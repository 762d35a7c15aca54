// The multicore closed-prefix scan behind the SafetyPrefix engine
// (docs/PARALLEL.md). Internal to the checker — `CheckOptions::
// explore_threads > 1` routes class-dispatched safety specs into it from
// checker.cpp; the result comes back as a state-graph node path so product
// ids never escape.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "src/fts/checker_detail.hpp"
#include "src/fts/fts.hpp"
#include "src/lang/alphabet.hpp"
#include "src/support/budget.hpp"

namespace mph::fts::detail {

/// Result of a closed-prefix reachability scan (the sequential one in
/// checker.cpp or the parallel one below); the worker vectors are filled by
/// the parallel scan only.
struct ScanResult {
  Outcome outcome = Outcome::Complete;
  std::size_t product_states = 0;
  /// State-graph node path root..bad of a run driving det(spec) into a dead
  /// state; nullopt when no reachable prefix is bad (or the budget ran out
  /// first — consult `outcome`).
  std::optional<std::vector<std::size_t>> bad_path;
  std::vector<std::size_t> worker_states;  ///< product states expanded per worker
  std::vector<std::size_t> worker_steals;  ///< frontier items stolen per worker
};

/// BFS over node × det(spec) pairs on `threads` workers with a work-stealing
/// frontier, hunting a reachable dead automaton state. Budget-governed: the
/// state cap is enforced at every intern (the reported count clamps to
/// cap + 1, matching the sequential scan's stop point) and the deadline /
/// cancellation is polled per worker.
ScanResult parallel_safety_scan(const StateGraph& sg,
                                        const std::vector<lang::Symbol>& labels,
                                        const omega::DetOmega& m,
                                        const std::vector<bool>& live, const Budget& budget,
                                        unsigned threads);

}  // namespace mph::fts::detail
