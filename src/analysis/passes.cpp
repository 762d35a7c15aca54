#include "src/analysis/passes.hpp"

#include "src/analysis/automaton_lint.hpp"
#include "src/support/check.hpp"

namespace mph::analysis {

Subject Subject::of(const omega::DetOmega& m, std::string name) {
  return Subject(Kind::DetOmega, std::move(name), &m);
}
Subject Subject::of(const omega::Nba& n, std::string name) {
  return Subject(Kind::Nba, std::move(name), &n);
}
Subject Subject::of(const lang::Dfa& d, std::string name) {
  return Subject(Kind::Dfa, std::move(name), &d);
}
Subject Subject::of(const fts::Fts& f, std::string name) {
  return Subject(Kind::Fts, std::move(name), &f);
}
Subject Subject::of(const std::vector<ltl::Formula>& spec, std::string name) {
  return Subject(Kind::Spec, std::move(name), &spec);
}
Subject Subject::of(const fts::FtsSpec& spec, std::string name) {
  return Subject(Kind::SpecModel, std::move(name), &spec);
}

const omega::DetOmega& Subject::det_omega() const {
  MPH_REQUIRE(kind_ == Kind::DetOmega, "subject is not a DetOmega");
  return *static_cast<const omega::DetOmega*>(ptr_);
}
const omega::Nba& Subject::nba() const {
  MPH_REQUIRE(kind_ == Kind::Nba, "subject is not an Nba");
  return *static_cast<const omega::Nba*>(ptr_);
}
const lang::Dfa& Subject::dfa() const {
  MPH_REQUIRE(kind_ == Kind::Dfa, "subject is not a Dfa");
  return *static_cast<const lang::Dfa*>(ptr_);
}
const fts::Fts& Subject::fts() const {
  MPH_REQUIRE(kind_ == Kind::Fts, "subject is not an Fts");
  return *static_cast<const fts::Fts*>(ptr_);
}
const std::vector<ltl::Formula>& Subject::spec() const {
  MPH_REQUIRE(kind_ == Kind::Spec, "subject is not a specification");
  return *static_cast<const std::vector<ltl::Formula>*>(ptr_);
}
const fts::FtsSpec& Subject::spec_model() const {
  MPH_REQUIRE(kind_ == Kind::SpecModel, "subject is not a symbolic system description");
  return *static_cast<const fts::FtsSpec*>(ptr_);
}

namespace {

constexpr std::string_view kDetStructureCodes[] = {"MPH-A001", "MPH-A003", "MPH-A006"};
constexpr std::string_view kDetLanguageCodes[] = {"MPH-A002", "MPH-A004", "MPH-A005"};
constexpr std::string_view kDetSccCodes[] = {"MPH-A007", "MPH-A011"};
constexpr std::string_view kNbaCodes[] = {"MPH-A001", "MPH-A002", "MPH-A003", "MPH-A004",
                                          "MPH-A008", "MPH-A009", "MPH-A010"};
constexpr std::string_view kDfaCodes[] = {"MPH-A001", "MPH-A004", "MPH-A005", "MPH-A012"};
constexpr std::string_view kFtsCodes[] = {"MPH-F001", "MPH-F002", "MPH-F003", "MPH-F004",
                                          "MPH-F005", "MPH-F006", "MPH-F007"};
constexpr std::string_view kSpecCodes[] = {"MPH-S001", "MPH-S002", "MPH-S003", "MPH-S004",
                                           "MPH-S005", "MPH-S006", "MPH-S007", "MPH-S008",
                                           "MPH-S009", "MPH-S010"};
constexpr std::string_view kNormalizeCodes[] = {"MPH-N001", "MPH-N002", "MPH-N003",
                                                "MPH-N004"};
constexpr std::string_view kSubsumeCodes[] = {"MPH-S011", "MPH-S012", "MPH-S013"};
constexpr std::string_view kAbsintCodes[] = {"MPH-F010", "MPH-F011", "MPH-F012"};

const Pass kPasses[] = {
    {"det-structure", "reachability and mark placement of a deterministic ω-automaton",
     Subject::Kind::DetOmega, kDetStructureCodes,
     [](const Subject& s, DiagnosticEngine& out, const AnalysisOptions&) {
       lint_det_structure(s.det_omega(), s.name(), out);
     }},
    {"det-language", "emptiness, universality and dead regions of a deterministic ω-automaton",
     Subject::Kind::DetOmega, kDetLanguageCodes,
     [](const Subject& s, DiagnosticEngine& out, const AnalysisOptions&) {
       lint_det_language(s.det_omega(), s.name(), out);
     }},
    {"det-scc", "SCC-level acceptance analysis (weakness, class downgrade)",
     Subject::Kind::DetOmega, kDetSccCodes,
     [](const Subject& s, DiagnosticEngine& out, const AnalysisOptions&) {
       lint_det_scc(s.det_omega(), s.name(), out);
     }},
    {"nba-lint", "structural and language checks of a nondeterministic Büchi automaton",
     Subject::Kind::Nba, kNbaCodes,
     [](const Subject& s, DiagnosticEngine& out, const AnalysisOptions&) {
       lint_automaton(s.nba(), s.name(), out);
     }},
    {"dfa-lint", "reachability, emptiness and trap minimality of a DFA", Subject::Kind::Dfa,
     kDfaCodes,
     [](const Subject& s, DiagnosticEngine& out, const AnalysisOptions&) {
       lint_automaton(s.dfa(), s.name(), out);
     }},
    {"fts-lint", "dead transitions, unused variables, vacuous fairness, deadlocks",
     Subject::Kind::Fts, kFtsCodes,
     [](const Subject& s, DiagnosticEngine& out, const AnalysisOptions& opts) {
       lint_fts(s.fts(), s.name(), out, opts.fts);
     }},
    {"spec-lint", "satisfiability, redundancy, class downgrades and the hierarchy checklist",
     Subject::Kind::Spec, kSpecCodes,
     [](const Subject& s, DiagnosticEngine& out, const AnalysisOptions& opts) {
       lint_spec(s.spec(), out, opts.spec);
     }},
    {"normalize", "exact hierarchy classification via ΔΓ-normalization (MPH-N family)",
     Subject::Kind::Spec, kNormalizeCodes,
     [](const Subject& s, DiagnosticEngine& out, const AnalysisOptions& opts) {
       lint_normalize(s.spec(), out, opts.normalize);
     }},
    {"subsume", "pairwise requirement subsumption via Büchi language inclusion",
     Subject::Kind::Spec, kSubsumeCodes,
     [](const Subject& s, DiagnosticEngine& out, const AnalysisOptions& opts) {
       lint_subsume(s.spec(), out, opts.subsume);
     }},
    {"absint", "interval abstract interpretation: invariants, dead transitions, wraps",
     Subject::Kind::SpecModel, kAbsintCodes,
     [](const Subject& s, DiagnosticEngine& out, const AnalysisOptions&) {
       lint_absint(s.spec_model(), out);
     }},
};

}  // namespace

std::span<const Pass> registered_passes() { return kPasses; }

void run_passes(const Subject& subject, DiagnosticEngine& out, const AnalysisOptions& options) {
  for (const auto& pass : kPasses)
    if (pass.kind == subject.kind()) pass.run(subject, out, options);
}

}  // namespace mph::analysis
