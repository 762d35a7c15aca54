// The pass framework: a uniform, non-owning Subject over the analyzable IRs
// (DetOmega, Nba, Dfa, Fts, LTL property list) and a registry of named
// passes with the diagnostic codes each may emit. Drivers — the mph-lint
// CLI, tests, future CI hooks — enumerate and run passes through this
// registry instead of hard-coding the per-IR entry points; adding a pass
// means adding one registry row (see docs/ANALYSIS.md).
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/analysis/absint.hpp"
#include "src/analysis/diagnostics.hpp"
#include "src/analysis/fts_lint.hpp"
#include "src/analysis/normalize_lint.hpp"
#include "src/analysis/spec_lint.hpp"
#include "src/analysis/subsume.hpp"
#include "src/fts/fts.hpp"
#include "src/lang/dfa.hpp"
#include "src/ltl/ast.hpp"
#include "src/omega/det_omega.hpp"
#include "src/omega/nba.hpp"

namespace mph::analysis {

struct AnalysisOptions {
  FtsLintOptions fts;
  SpecLintOptions spec;
  NormalizeLintOptions normalize;  // the `normalize` pass (MPH-N family)
  SubsumeOptions subsume;  // the `subsume` pass (quadratic in the requirements)
};

/// Non-owning view of one analyzable object; the referenced IR must outlive
/// the Subject.
class Subject {
 public:
  enum class Kind { DetOmega, Nba, Dfa, Fts, Spec, SpecModel };

  static Subject of(const omega::DetOmega& m, std::string name);
  static Subject of(const omega::Nba& n, std::string name);
  static Subject of(const lang::Dfa& d, std::string name);
  static Subject of(const fts::Fts& f, std::string name);
  static Subject of(const std::vector<ltl::Formula>& spec, std::string name);
  /// A *symbolic* system description (guards/effects inspectable), the IR
  /// the interval abstract interpreter analyzes without exploration.
  static Subject of(const fts::FtsSpec& spec, std::string name);

  Kind kind() const { return kind_; }
  const std::string& name() const { return name_; }
  const omega::DetOmega& det_omega() const;
  const omega::Nba& nba() const;
  const lang::Dfa& dfa() const;
  const fts::Fts& fts() const;
  const std::vector<ltl::Formula>& spec() const;
  const fts::FtsSpec& spec_model() const;

 private:
  Subject(Kind kind, std::string name, const void* ptr)
      : kind_(kind), name_(std::move(name)), ptr_(ptr) {}
  Kind kind_;
  std::string name_;
  const void* ptr_;
};

struct Pass {
  std::string_view id;           // e.g. "det-language"
  std::string_view description;  // one line
  Subject::Kind kind;            // the IR the pass applies to
  std::span<const std::string_view> codes;  // diagnostic codes it may emit
  void (*run)(const Subject&, DiagnosticEngine&, const AnalysisOptions&);
};

/// All registered passes, in execution order.
std::span<const Pass> registered_passes();

/// Runs every pass applicable to the subject's kind.
void run_passes(const Subject& subject, DiagnosticEngine& out,
                const AnalysisOptions& options = {});

}  // namespace mph::analysis
