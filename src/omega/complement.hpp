// Büchi complementation without Safra (docs/COMPLEMENT.md).
//
// The input NBA is decomposed by accepting SCC: a run accepting in A is
// eventually trapped in a single SCC, so L(A) = ∪ᵢ L(Aᵢ) where Aᵢ keeps the
// graph but only the accepting states of SCCᵢ, and comp(A) = ∩ᵢ comp(Aᵢ).
// Each part is complemented with the cheapest algorithm for its shape:
// NCSB (Blahoudek et al.) when the part is semi-deterministic, rank-based
// (Kupferman–Vardi level rankings with a breakpoint O-set) otherwise. The
// intersection is degeneralized with a round-robin counter.
//
// Everything is `mph::Budget`-governed: macrostate interning and ranking
// enumeration admit against the state cap and poll deadlines, and exhaustion
// surfaces as a partial result (`value` disengaged) — the callers refuse
// ("Unknown") rather than guess.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "src/omega/nba.hpp"
#include "src/support/budget.hpp"

namespace mph::omega {

enum class ComplementAlgorithm : std::uint8_t {
  Auto,  ///< per part: NCSB if semi-deterministic, rank-based otherwise
  Ncsb,  ///< force NCSB (REQUIREs every part semi-deterministic)
  Rank,  ///< force rank-based
};

struct ComplementOptions {
  Budget budget;
  ComplementAlgorithm algorithm = ComplementAlgorithm::Auto;
};

struct ComplementStats {
  std::size_t parts = 0;
  std::size_t ncsb_parts = 0;
  std::size_t rank_parts = 0;
  /// Macrostates interned across all parts (lazy: only those the driver
  /// actually expanded).
  std::size_t macrostates = 0;
};

/// True iff every state reachable from an accepting state has at most one
/// successor per symbol (the NCSB applicability condition).
bool is_semi_deterministic(const Nba& n);

/// Lazily expandable complement, one macrostate space per part. comp(A) is
/// the intersection of the parts: a word is in comp(A) iff some run of
/// *every* part space hits its accepting macrostates infinitely often
/// (clients degeneralize with a counter; `complement()` below does exactly
/// that, `included()` folds the counter into its product). Successor
/// computation interns new macrostates on demand under the budget, so
/// driving the engine on the fly explores only what the product reaches.
class ComplementEngine {
 public:
  /// Builds the part skeletons (trim, SCC split, algorithm choice). Cheap —
  /// polynomial in the input; macrostates are only created on demand.
  ComplementEngine(const Nba& input, const ComplementOptions& options);
  ~ComplementEngine();

  ComplementEngine(const ComplementEngine&) = delete;
  ComplementEngine& operator=(const ComplementEngine&) = delete;

  const lang::Alphabet& alphabet() const { return alphabet_; }
  /// Number of parts; 0 iff L(input) = ∅ (then comp = Σ^ω).
  std::size_t part_count() const;
  /// Interns and returns the (unique) initial macrostate of a part.
  std::uint32_t part_initial(std::size_t part);
  /// All outgoing edges of a macrostate, interning targets on demand.
  /// Throws BudgetExhausted when the budget runs out.
  /// Sorted by (symbol, id), duplicate-free.
  const std::vector<std::pair<Symbol, std::uint32_t>>& part_successors(std::size_t part,
                                                                       std::uint32_t id);
  /// The edges of part_successors(part, id) on symbol `s`: a contiguous run
  /// of that list, valid for the engine's lifetime (a successor list is
  /// built once and never rebuilt).
  using Edges = std::span<const std::pair<Symbol, std::uint32_t>>;
  Edges part_successors(std::size_t part, std::uint32_t id, Symbol s);
  bool part_accepting(std::size_t part, std::uint32_t id) const;
  bool part_uses_ncsb(std::size_t part) const;

  ComplementStats stats() const;

 private:
  struct Part;
  lang::Alphabet alphabet_;
  std::vector<std::unique_ptr<Part>> parts_;
  ComplementOptions options_;
  std::size_t work_ = 0;  ///< shared admission counter (macrostates + enumeration)
};

/// Materialized complement: BFS over the degeneralized part product.
/// `value` is engaged iff `outcome` is Complete.
struct ComplementResult {
  std::optional<Nba> value;
  Outcome outcome = Outcome::Complete;
  ComplementStats stats;

  bool complete() const { return is_complete(outcome); }
};

ComplementResult complement(const Nba& n, const ComplementOptions& options = {});

}  // namespace mph::omega
