// Subsumption lint: pairwise language inclusion between requirements via
// the Safra-free Büchi pipeline (tableau NBAs + omega::included,
// docs/COMPLEMENT.md). Where MPH-S003 asks whether the *conjunction* of the
// other requirements implies one (and needs the deterministic hierarchy
// fragment), this pass decides single-requirement implications for any
// future formula the tableau accepts, and reports:
//
//   MPH-S011  warning  requirement implied by one other requirement alone
//                      (redundant — deleting it changes nothing)
//   MPH-S012  warning  two requirements denote the same language
//   MPH-S013  note     some pair was undecided within the inclusion budget
//                      (the pass is partial, never wrong)
//
// Every verdict is budget-governed: an exhausted budget yields Unknown and
// an MPH-S013 note, never a guessed implication.
#pragma once

#include <cstdint>
#include <vector>

#include "src/analysis/diagnostics.hpp"
#include "src/ltl/ast.hpp"
#include "src/support/budget.hpp"

namespace mph::analysis {

/// Three-valued answer to L(stronger) ⊆ L(weaker).
enum class Implication : std::uint8_t {
  Implies,     ///< every computation satisfying `stronger` satisfies `weaker`
  NotImplies,  ///< a counterexample computation exists
  Unknown,     ///< budget exhausted or outside the tableau fragment
};

std::string_view to_string(Implication v);

struct SubsumeOptions {
  /// Governs tableau construction and the inclusion product per direction.
  Budget budget = Budget().with_state_cap(20000);
  /// Joint alphabets beyond 2^max_atoms symbols are refused (Unknown).
  std::size_t max_atoms = 6;
};

/// Does `stronger` imply `weaker` (L(stronger) ⊆ L(weaker))? Builds both
/// tableau NBAs over the union of the two formulas' atoms and decides
/// inclusion by complement-and-intersect. Sound and partial: Unknown on
/// budget exhaustion, oversized alphabets, or past operators.
Implication implies(const ltl::Formula& stronger, const ltl::Formula& weaker,
                    const SubsumeOptions& options = {});

struct SubsumeResult {
  /// An established implication requirements[stronger] ⊨ requirements[weaker].
  struct Pair {
    std::size_t stronger = 0;
    std::size_t weaker = 0;
    bool equivalent = false;  ///< the reverse direction holds too
  };
  std::vector<Pair> pairs;
  std::size_t checked_pairs = 0;  ///< ordered pairs given to the engine
  std::size_t unknown_pairs = 0;  ///< of those, undecided (MPH-S013)
};

/// Runs the MPH-S011/S012/S013 family over a property list. Also reachable
/// through the pass registry as "subsume" on Spec subjects.
SubsumeResult lint_subsume(const std::vector<ltl::Formula>& requirements,
                           DiagnosticEngine& out, const SubsumeOptions& options = {});

}  // namespace mph::analysis
