// The oracle registry: each oracle pairs a generator of random inputs with
// a differential cross-check of two or more independent implementations
// (operator laws vs enumerated lassos, classify() vs form extraction, the
// LTL lasso evaluator vs compiled automata, the checker vs a materialized
// product decided offline, parser round-trips). A check never decides truth
// on its own — it only compares answers that must agree.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/fuzz/fuzz_case.hpp"
#include "src/support/budget.hpp"
#include "src/support/rng.hpp"

namespace mph::fuzz {

struct CheckOutcome {
  /// Budget: the iteration's budget ran out mid-check. Not a discrepancy —
  /// the runner records it (MPH-X004) and moves on; replay treats it as a
  /// clean exit.
  enum class Kind { Pass, Skip, Fail, Budget };
  Kind kind = Kind::Pass;
  std::string message;  // failure description, or why the case was skipped

  static CheckOutcome pass() { return {Kind::Pass, {}}; }
  static CheckOutcome skip(std::string why) { return {Kind::Skip, std::move(why)}; }
  static CheckOutcome fail(std::string what) { return {Kind::Fail, std::move(what)}; }
  static CheckOutcome exhausted(std::string why) { return {Kind::Budget, std::move(why)}; }
};

struct Oracle {
  std::string name;
  std::string description;
  std::function<FuzzCase(Rng&)> generate;
  /// Differential check under a per-iteration budget. Oracles poll the
  /// budget between law groups and thread it into the budget-aware engines;
  /// exhaustion comes back as Kind::Budget, never as a throw.
  std::function<CheckOutcome(const FuzzCase&, const Budget&)> check;
};

/// All oracles, in a fixed documented order (built-ins first, then
/// registered extensions in registration order).
const std::vector<Oracle>& oracle_registry();

/// Registers an extension oracle from a higher layer that mph_fuzz cannot
/// link against (e.g. the serve-replay oracle, whose check drives the
/// mph_serve request engine). Replaces an existing oracle of the same name,
/// appends otherwise. Call before the first fuzzing run — registration is
/// not synchronized against concurrent registry readers.
void register_oracle(Oracle oracle);

/// Lookup by name; nullptr if unknown.
const Oracle* find_oracle(std::string_view name);

}  // namespace mph::fuzz
