// Content-addressed caches behind the mph-serve daemon (docs/SERVE.md).
//
// Two maps, keyed by FNV-1a digests of canonical content:
//
//   FormulaCache   formula digest → parse/classification artifacts: the
//                  hash-consed AST, canonical text, atom vocabulary, the
//                  syntactic class, and (memoized on first use) the exact
//                  ΔΓ-normalization result with its compiled normal-form
//                  automaton size.
//   VerdictCache   (model digest, formula digest, engine-options digest) →
//                  verdict + CheckStats + counterexample shape. Only
//                  Complete outcomes are stored: a budget-exhausted Unknown
//                  is a property of the request's budget, not of the
//                  content, and must never be served to a better-funded
//                  caller.
//
// The formula digest is taken over the *canonical* printing
// (ltl::Formula::to_string of the parsed AST), so "G  p" and "G p" share
// one entry. The engine-options digest covers exactly the knobs that select
// the verdict's engine route (force_scc, normalize_steps) — variants are
// keyed separately even though their verdicts must agree, because their
// CheckStats legitimately differ.
//
// Invalidation is structural: a model delta changes the model digest, so
// every untouched (model, spec) pair keeps hitting while the delta's pairs
// miss and recompute. `VerdictCache::invalidate_model` additionally drops
// the superseded digest's entries on request (the `invalidate` op).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/classify.hpp"
#include "src/fts/checker.hpp"
#include "src/fuzz/fuzz_case.hpp"
#include "src/ltl/ast.hpp"
#include "src/serve/digest.hpp"

namespace mph::serve {

/// Digest of a formula's canonical printing.
std::uint64_t formula_digest(const ltl::Formula& f);

/// Canonical line-oriented serialization of an inline model — the content
/// the model digest addresses. Deterministic: fields in declaration order,
/// one token stream, length-unambiguous.
std::string canonical_model_text(const fuzz::FtsSpec& spec);

std::uint64_t model_digest(const fuzz::FtsSpec& spec);

/// Built-in models are addressed by name (their content is baked into the
/// binary, so the name *is* the content address).
std::uint64_t builtin_model_digest(std::string_view name);

/// Digest over the engine-affecting check options (see file comment).
std::uint64_t options_digest(const fts::CheckOptions& options);

struct FormulaArtifacts {
  FormulaArtifacts(ltl::Formula f, std::string canon)
      : formula(std::move(f)), canonical(std::move(canon)) {}

  ltl::Formula formula;  ///< hash-consed parse
  std::string canonical;
  std::vector<std::string> atoms;
  core::Classification syntactic;

  /// ΔΓ-normalization artifacts, filled by the first classify that runs to
  /// completion (exact_classification is deterministic, so memoizing is
  /// sound; budget-stopped attempts are not stored).
  bool classified = false;
  std::optional<std::string> exact_class;  ///< lowest class when established
  std::optional<std::string> exact_source; ///< "normal-form" or "nba"
  std::optional<std::string> normal_form;
  std::string normalize_outcome = "complete";
  std::uint64_t normalize_steps = 0;
  std::uint64_t automaton_states = 0;  ///< det ω-automaton of the normal form
};

class FormulaCache {
 public:
  /// Parses (or re-serves) `text`; returns the digest of the canonical
  /// form. Throws std::invalid_argument on malformed input. `hit` reports
  /// whether the artifacts already existed. The digest of each exact text
  /// is memoized, so a repeated text is neither parsed nor printed again;
  /// the memo holds at most kTextsPerEntry texts per entry (plus one
  /// entry's worth), however many spellings arrive.
  std::uint64_t intern(const std::string& text, bool& hit);

  FormulaArtifacts* find(std::uint64_t digest);
  const FormulaArtifacts* find(std::uint64_t digest) const;

  std::size_t size() const { return entries_.size(); }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  /// Request texts whose digest is memoized.
  std::size_t memoized_texts() const { return by_text_.size(); }

  static constexpr std::size_t kTextsPerEntry = 4;

 private:
  std::unordered_map<std::uint64_t, FormulaArtifacts> entries_;
  std::unordered_map<std::string, std::uint64_t> by_text_;  ///< request text → digest
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

struct VerdictKey {
  std::uint64_t model = 0;
  std::uint64_t spec = 0;
  std::uint64_t opts = 0;

  bool operator==(const VerdictKey&) const = default;
};

struct VerdictKeyHash {
  std::size_t operator()(const VerdictKey& k) const {
    return static_cast<std::size_t>(
        fnv1a64_mix(k.opts, fnv1a64_mix(k.spec, fnv1a64_mix(k.model, kFnvOffset))));
  }
};

struct VerdictEntry {
  bool holds = false;
  fts::CheckStats stats;  ///< outcome is always Complete for stored entries
  bool has_counterexample = false;
  std::uint64_t cex_prefix = 0;
  std::uint64_t cex_loop = 0;
};

class VerdictCache {
 public:
  /// nullptr on miss. Hit/miss counters are bumped by the caller-visible
  /// lookup, not by put().
  const VerdictEntry* find(const VerdictKey& key);

  /// Stores a Complete result; refuses (returns false) on a non-Complete
  /// outcome so exhaustion can never be cached.
  bool put(const VerdictKey& key, const VerdictEntry& entry);

  /// Drops every entry whose model component equals `model`; returns the
  /// number erased.
  std::size_t invalidate_model(std::uint64_t model);

  std::size_t size() const { return entries_.size(); }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  std::unordered_map<VerdictKey, VerdictEntry, VerdictKeyHash> entries_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace mph::serve
