#include "src/analysis/normalize_lint.hpp"

#include "src/ltl/syntactic.hpp"

namespace mph::analysis {
namespace {

using core::Classification;

/// Normal forms larger than this many nodes are still exact but earn the
/// MPH-N003 size advisory alongside MPH-N001.
constexpr std::size_t kBlowupNodes = 256;

std::string subject_of(std::size_t i, const std::string& text) {
  std::string shown = text.size() <= 60 ? text : text.substr(0, 57) + "…";
  return "requirement " + std::to_string(i + 1) + " '" + shown + "'";
}

/// Does the exact classification establish a class the syntactic one missed?
bool sharper(const Classification& syntactic, const Classification& exact) {
  auto more = [](bool syn, bool sem) { return sem && !syn; };
  return more(syntactic.safety, exact.safety) ||
         more(syntactic.guarantee, exact.guarantee) ||
         more(syntactic.obligation, exact.obligation) ||
         more(syntactic.recurrence, exact.recurrence) ||
         more(syntactic.persistence, exact.persistence);
}

}  // namespace

NormalizeLintResult lint_normalize(const std::vector<ltl::Formula>& requirements,
                                   DiagnosticEngine& out,
                                   const NormalizeLintOptions& options) {
  NormalizeLintResult result;
  for (std::size_t i = 0; i < requirements.size(); ++i) {
    const ltl::Formula& f = requirements[i];
    NormalizeLintResult::Item item;
    item.text = f.to_string();
    item.syntactic = ltl::syntactic_classification(f);

    ltl::NormalizeResult nr = ltl::normalize(f, options.normalize);
    item.outcome = nr.outcome;
    item.steps = nr.steps;

    // On refusal exact_classification falls back to the Safra-free NBA
    // closure tests — both exact paths flow through it so alphabet handling
    // (atom union, max_atoms refusal) applies uniformly.
    std::optional<ltl::ExactClass> exact = ltl::exact_classification(f, nr, options.normalize);
    const bool via_nba = exact && exact->source == ltl::ExactClass::Source::NbaSemantics;

    if (!is_complete(nr.outcome)) {
      ++result.budget_count;
      auto& d = out.emit("MPH-N003", subject_of(i, item.text),
                         std::string("normalization stopped (") +
                             std::string(to_string(nr.outcome)) + ") after " +
                             std::to_string(nr.steps) +
                             (via_nba ? " rule applications; class recovered "
                                        "by Büchi closure tests"
                                      : " rule applications; exact class unknown"));
      if (!via_nba)
        d.fix_hint = "raise the normalization budget, or restate the requirement "
                     "closer to hierarchy normal form";
    }

    if (!exact) {
      if (is_complete(nr.outcome)) {
        // Out of envelope (and the NBA tests could not decide either), or
        // too many atoms to compile: a sound refusal.
        ++result.refused_count;
      }
      result.items.push_back(std::move(item));
      continue;
    }

    ++result.exact_count;
    item.exact = exact->value;
    item.exact_source = exact->source;
    if (via_nba) {
      ++result.nba_count;
      out.emit("MPH-N004", subject_of(i, item.text),
               "exact class: " + exact->value.describe() +
                   " (closure tests on the tableau Büchi automata; "
                   "no normal form exists within the rewrite envelope)");
    } else {
      item.normal_form = exact->normal_form.to_string();
      auto& d = out.emit("MPH-N001", subject_of(i, item.text),
                         "exact class: " + exact->value.describe());
      d.witness = *item.normal_form;
    }
    if (sharper(item.syntactic, *item.exact)) {
      auto& d = out.emit(
          "MPH-N002", subject_of(i, item.text),
          "written as " + core::to_string(item.syntactic.lowest()) +
              " but exactly " + core::to_string(item.exact->lowest()) +
              " — the checker would route this through a needlessly general engine");
      if (item.normal_form) d.fix_hint = "rewrite as: " + *item.normal_form;
    }
    if (!via_nba && exact->normal_form.size() > kBlowupNodes) {
      auto& d = out.emit("MPH-N003", subject_of(i, item.text),
                         "normal form has " + std::to_string(exact->normal_form.size()) +
                             " nodes (ceiling " + std::to_string(kBlowupNodes) +
                             " for a quiet rewrite); exact class still reported");
      d.fix_hint = "large normal forms compile to large automata; consider splitting "
                   "the requirement";
    }
    result.items.push_back(std::move(item));
  }
  return result;
}

}  // namespace mph::analysis
