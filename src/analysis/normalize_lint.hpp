// The MPH-N pass family: exact hierarchy classification of a property list
// via ΔΓ-normalization (src/ltl/normalize.hpp), reported as diagnostics.
//
//   MPH-N001  note     exact class established; the normal form is attached
//                      as the witness
//   MPH-N002  warning  the syntactic classification is strictly coarser
//                      than the exact class — the requirement is written in
//                      a higher class than it denotes, and the attached
//                      normal form is a ready-made rewrite into the lower
//                      class (sharper than MPH-S004: no alphabet-size limit
//                      on the comparison, and a rewrite is always supplied)
//   MPH-N003  warning  the normalization budget or node ceiling was hit —
//                      the class is reported unknown, never guessed
//   MPH-N004  note     normalization refused, but the Safra-free Büchi
//                      closure tests (core::classify_nba, docs/COMPLEMENT.md)
//                      still established the exact class
//
// The pass also aggregates a spec-suite summary (per-class counts of exact
// classes, refusals, budget stops) that mph-lint renders as a table.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "src/analysis/diagnostics.hpp"
#include "src/core/classify.hpp"
#include "src/ltl/ast.hpp"
#include "src/ltl/normalize.hpp"

namespace mph::analysis {

struct NormalizeLintOptions {
  /// Budget / ceilings for the rewrite itself (see ltl::NormalizeOptions).
  ltl::NormalizeOptions normalize;
};

struct NormalizeLintResult {
  struct Item {
    std::string text;                          ///< requirement as written
    core::Classification syntactic;            ///< sound syntactic claims
    std::optional<core::Classification> exact; ///< engaged iff some exact
                                               ///< path succeeded
    /// Which exact path produced `exact` (meaningful only when engaged):
    /// compiled normal form (MPH-N001) or NBA closure tests (MPH-N004).
    ltl::ExactClass::Source exact_source = ltl::ExactClass::Source::NormalForm;
    std::optional<std::string> normal_form;    ///< hierarchy normal form text
    Outcome outcome = Outcome::Complete;       ///< how normalization ended
    std::size_t steps = 0;                     ///< rule applications spent

    /// Exact when available, else the syntactic claims.
    const core::Classification& best() const { return exact ? *exact : syntactic; }
  };

  std::vector<Item> items;
  std::size_t exact_count = 0;    ///< items with an exact class (either path)
  std::size_t nba_count = 0;      ///< of those, established via NBA (MPH-N004)
  std::size_t refused_count = 0;  ///< both paths refused (sound refusal)
  std::size_t budget_count = 0;   ///< budget/ceiling stops (MPH-N003)
};

/// Runs the MPH-N family over a property list. Also reachable through the
/// pass registry as "normalize" on Spec subjects.
NormalizeLintResult lint_normalize(const std::vector<ltl::Formula>& requirements,
                                   DiagnosticEngine& out,
                                   const NormalizeLintOptions& options = {});

}  // namespace mph::analysis
