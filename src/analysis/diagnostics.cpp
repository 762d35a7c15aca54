#include "src/analysis/diagnostics.hpp"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <sstream>

#include "src/support/check.hpp"

namespace mph::analysis {

std::string_view to_string(Severity s) {
  switch (s) {
    case Severity::Note: return "note";
    case Severity::Warning: return "warning";
    case Severity::Error: return "error";
  }
  MPH_ASSERT(false);
}

namespace {

// The single source of truth for diagnostic codes. Ordered by code; every
// entry is documented in docs/ANALYSIS.md and exercised by analysis_test.
constexpr CodeInfo kRegistry[] = {
    // Automata (DetOmega / Nba / Dfa).
    {"MPH-A001", Severity::Warning, "unreachable states"},
    {"MPH-A002", Severity::Warning, "non-minimal dead region (states with empty residual language)"},
    {"MPH-A003", Severity::Warning, "acceptance mark on an unreachable state"},
    {"MPH-A004", Severity::Error, "language is empty"},
    {"MPH-A005", Severity::Warning, "language is universal"},
    {"MPH-A006", Severity::Warning, "acceptance mentions a mark placed on no reachable state"},
    {"MPH-A007", Severity::Note, "acceptance is constant on every SCC (weak automaton)"},
    {"MPH-A008", Severity::Error, "NBA has no initial state"},
    {"MPH-A009", Severity::Warning, "duplicate NBA edge"},
    {"MPH-A010", Severity::Note, "NBA transition relation is not total"},
    {"MPH-A011", Severity::Note, "acceptance more general than the language (class downgrade)"},
    {"MPH-A012", Severity::Note, "non-minimal reject-trap region in a DFA"},
    // Fair transition systems.
    {"MPH-F001", Severity::Warning, "trivial system (no variables or no transitions)"},
    {"MPH-F002", Severity::Warning, "transition never enabled (dead code)"},
    {"MPH-F003", Severity::Warning, "variable never changes value"},
    {"MPH-F004", Severity::Note, "variable never read"},
    {"MPH-F005", Severity::Warning, "fairness declared on a never-enabled transition"},
    {"MPH-F006", Severity::Note, "deadlock (stutter-only) state reachable"},
    {"MPH-F007", Severity::Warning, "state space exceeds exploration limit (lint incomplete)"},
    // Interval abstract interpretation (src/analysis/absint.hpp, docs/ABSINT.md).
    {"MPH-F010", Severity::Warning, "transition dead under the interval invariant (guard unsatisfiable)"},
    {"MPH-F011", Severity::Note, "variable confined to a strict sub-interval of its declared domain"},
    {"MPH-F012", Severity::Note, "modular effect may wrap under the interval invariant"},

    {"MPH-N001", Severity::Note, "exact hierarchy class established by normalization"},
    {"MPH-N002", Severity::Warning, "syntactic class coarser than exact class (suggested rewrite attached)"},
    {"MPH-N003", Severity::Warning, "normalization blowup (budget exhausted or oversized normal form)"},
    {"MPH-N004", Severity::Note, "exact class established by Büchi closure tests after a normalization refusal"},
    // Paper-literal procedure caveats.
    {"MPH-P001", Severity::Warning, "literal §5.1 procedure is unsound for k ≥ 2 Streett pairs"},
    // Specifications (LTL property lists).
    {"MPH-S001", Severity::Error, "requirement is unsatisfiable"},
    {"MPH-S002", Severity::Warning, "requirement is a tautology"},
    {"MPH-S003", Severity::Warning, "requirement implied by the rest of the specification"},
    {"MPH-S004", Severity::Warning, "written in a higher class than it denotes (class downgrade)"},
    {"MPH-S005", Severity::Error, "requirements are mutually contradictory"},
    {"MPH-S006", Severity::Warning, "all-safety specification (satisfied by a system that does nothing)"},
    {"MPH-S007", Severity::Note, "hierarchy checklist gap: no requirement in this class"},
    {"MPH-S008", Severity::Warning, "requirement outside the supported fragment (lint partial)"},
    {"MPH-S009", Severity::Warning, "duplicate requirement"},
    {"MPH-S010", Severity::Warning, "too many distinct atoms; semantic passes skipped"},
    {"MPH-S011", Severity::Warning, "requirement subsumed by one other requirement (Büchi inclusion)"},
    {"MPH-S012", Severity::Warning, "two requirements denote the same language"},
    {"MPH-S013", Severity::Note, "subsumption pair undecided within the inclusion budget"},
    // Model-checker notes.
    {"MPH-V001", Severity::Note, "specification outside the hierarchy fragment; NBA tableau used"},
    {"MPH-V002", Severity::Note, "model-check product size"},
    {"MPH-V003", Severity::Warning, "specification violated (counterexample found)"},
    {"MPH-V004", Severity::Error, "model-check budget exhausted (verdict unknown)"},
    {"MPH-V005", Severity::Note, "specification proved statically from the interval invariant (no exploration)"},
    // Differential fuzzing (src/fuzz, mph-fuzz).
    {"MPH-X001", Severity::Error, "oracle discrepancy (two implementations disagree, or an oracle threw)"},
    {"MPH-X002", Severity::Note, "counterexample shrunk to a minimal reproducer"},
    {"MPH-X003", Severity::Warning, "oracle skipped an iteration (input outside its fragment)"},
    {"MPH-X004", Severity::Warning, "iteration budget exhausted (abandoned, not a discrepancy)"},
    // Vacuity and coverage (src/analysis/vacuity.hpp, docs/VACUITY.md).
    {"MPH-Y001", Severity::Warning, "requirement holds vacuously (a strengthening mutant still holds)"},
    {"MPH-Y002", Severity::Warning, "antecedent never exercised (unreachable left-hand side)"},
    {"MPH-Y003", Severity::Note, "interesting witness found (the requirement is satisfied non-vacuously)"},
    {"MPH-Y004", Severity::Warning, "uncovered transition (its removal changes no requirement's verdict)"},
    {"MPH-Y005", Severity::Warning, "vacuity/coverage check budget exhausted (verdict unknown)"},
};
static_assert(std::is_sorted(std::begin(kRegistry), std::end(kRegistry),
                             [](const CodeInfo& a, const CodeInfo& b) { return a.code < b.code; }),
              "registry must stay sorted for lower_bound lookup");

}  // namespace

std::span<const CodeInfo> code_registry() { return kRegistry; }

const CodeInfo* find_code(std::string_view code) {
  auto it = std::lower_bound(std::begin(kRegistry), std::end(kRegistry), code,
                             [](const CodeInfo& info, std::string_view c) { return info.code < c; });
  if (it == std::end(kRegistry) || it->code != code) return nullptr;
  return &*it;
}

Diagnostic& DiagnosticEngine::emit(std::string_view code, std::string_view subject,
                                   std::string message) {
  const CodeInfo* info = find_code(code);
  MPH_REQUIRE(info != nullptr, "unregistered diagnostic code: " + std::string(code));
  Diagnostic d;
  d.code = std::string(code);
  d.severity = info->severity;
  d.subject = std::string(subject);
  d.message = std::move(message);
  diags_.push_back(std::move(d));
  return diags_.back();
}

void DiagnosticEngine::merge(const DiagnosticEngine& other) {
  diags_.insert(diags_.end(), other.diags_.begin(), other.diags_.end());
}

std::size_t DiagnosticEngine::count(Severity s) const {
  std::size_t n = 0;
  for (const auto& d : diags_)
    if (d.severity == s) ++n;
  return n;
}

std::size_t DiagnosticEngine::count_code(std::string_view code) const {
  std::size_t n = 0;
  for (const auto& d : diags_)
    if (d.code == code) ++n;
  return n;
}

std::string DiagnosticEngine::to_text() const {
  std::ostringstream out;
  for (const auto& d : diags_) {
    out << to_string(d.severity) << " " << d.code;
    if (!d.subject.empty()) out << " [" << d.subject << "]";
    out << ": " << d.message << "\n";
    if (!d.location.empty()) out << "    at: " << d.location << "\n";
    if (!d.witness.empty()) out << "    witness: " << d.witness << "\n";
    if (!d.fix_hint.empty()) out << "    hint: " << d.fix_hint << "\n";
  }
  out << "summary: " << count(Severity::Error) << " error(s), " << count(Severity::Warning)
      << " warning(s), " << count(Severity::Note) << " note(s)\n";
  return out.str();
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

std::string DiagnosticEngine::to_json() const {
  std::ostringstream out;
  out << "{\"diagnostics\": [";
  bool first = true;
  for (const auto& d : diags_) {
    if (!first) out << ", ";
    first = false;
    out << "{\"code\": \"" << json_escape(d.code) << "\", \"severity\": \""
        << to_string(d.severity) << "\", \"subject\": \"" << json_escape(d.subject)
        << "\", \"message\": \"" << json_escape(d.message) << "\"";
    if (!d.location.empty()) out << ", \"location\": \"" << json_escape(d.location) << "\"";
    if (!d.witness.empty()) out << ", \"witness\": \"" << json_escape(d.witness) << "\"";
    if (!d.fix_hint.empty()) out << ", \"fix_hint\": \"" << json_escape(d.fix_hint) << "\"";
    out << "}";
  }
  out << "], \"counts\": {\"error\": " << count(Severity::Error)
      << ", \"warning\": " << count(Severity::Warning) << ", \"note\": " << count(Severity::Note)
      << "}}";
  return out.str();
}

}  // namespace mph::analysis
