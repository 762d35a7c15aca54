// The fuzzing loop: drives each selected oracle for a number of iterations
// with per-iteration seeds derived from (oracle, seed, iteration) — so any
// single failure replays from its seed alone — shrinks failures to minimal
// reproducers, and renders a text or JSON report. Discrepancies surface
// through DiagnosticEngine under the MPH-X codes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/analysis/diagnostics.hpp"
#include "src/fuzz/oracles.hpp"
#include "src/fuzz/shrink.hpp"

namespace mph::fuzz {

struct FuzzOptions {
  std::uint64_t seed = 1;
  std::uint64_t iters = 100;
  /// Oracle names to run; empty = the full registry.
  std::vector<std::string> oracles;
  bool shrink = true;
  /// Stop fuzzing an oracle after this many failures (each is shrunk, which
  /// re-runs the check many times).
  std::size_t max_failures = 3;
  /// Per-iteration budget (0 = unlimited): a wall-clock allowance in
  /// milliseconds and a state/node cap threaded into the budget-aware
  /// engines under test. A pathological input then exhausts its own
  /// iteration — recorded as MPH-X004 — instead of hanging the campaign.
  /// Each shrink candidate gets a fresh deadline of the same length.
  std::uint64_t iter_budget_ms = 0;
  std::size_t iter_budget_states = 0;
};

struct FuzzFailure {
  std::uint64_t iteration = 0;
  std::string message;
  std::string case_text;  ///< shrunk reproducer, mph-fuzz-case v1 format
  std::size_t original_size = 0;
  std::size_t shrunk_size = 0;
  ShrinkStats shrink_stats;
};

struct OracleReport {
  std::string name;
  std::uint64_t iters = 0;
  std::uint64_t passed = 0;
  std::uint64_t skipped = 0;
  /// Iterations abandoned because their budget ran out (or the oracle threw
  /// mid-check). Counted separately from failures: exhaustion is not a
  /// discrepancy and does not affect the exit code.
  std::uint64_t budget_exhausted = 0;
  std::vector<FuzzFailure> failures;
  double seconds = 0.0;
};

struct FuzzReport {
  std::uint64_t seed = 0;
  std::uint64_t iters = 0;
  std::vector<OracleReport> oracles;

  std::size_t total_failures() const;
  std::string to_text() const;
  std::string to_json() const;
};

/// Per-iteration deterministic seed: a failure replays from (oracle, seed,
/// iteration) without re-running the preceding iterations.
std::uint64_t iteration_seed(std::string_view oracle, std::uint64_t seed, std::uint64_t iter);

/// Runs the loop. Throws std::invalid_argument on an unknown oracle name.
FuzzReport run_fuzz(const FuzzOptions& options,
                    analysis::DiagnosticEngine* diagnostics = nullptr);

/// Re-checks a stored case against its oracle (corpus replay). Pass, Skip,
/// and Budget all count as a clean replay; a throw other than
/// BudgetExhausted comes back as Fail, as in run_fuzz. The replay runs under
/// `budget` (default: unlimited — oracle-internal caps still apply).
CheckOutcome replay(const FuzzCase& c, const Budget& budget = {});

}  // namespace mph::fuzz
