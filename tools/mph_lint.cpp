// mph-lint — the static-diagnostics CLI over the repo's IRs.
//
//   mph-lint 'G !(c1 & c2)' 'G(t1 -> F c1)'     lint a property list
//   mph-lint --spec examples/specs/mutex_faulty.spec
//   mph-lint --model peterson                   lint a built-in FTS model
//   mph-lint --models                           lint every built-in model
//   mph-lint --model peterson --check 'G !(c1 & c2)'
//                                               model-check specs, print engine stats
//   mph-lint --json ...                         machine-readable output
//   mph-lint --list-codes | --list-passes       registry introspection
//
// Exit status: 0 = no error-severity diagnostics, 1 = errors found
// (with --werror, warnings too; with --strict-unknown, unknown verdicts
// too), 2 = usage or parse failure. Unknown verdicts never silently map
// to 0 semantics beyond exit status: they are always visible as MPH-V004 /
// MPH-Y005 diagnostics and "unknown" table cells.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/automaton_lint.hpp"
#include "src/analysis/coverage.hpp"
#include "src/analysis/passes.hpp"
#include "src/analysis/vacuity.hpp"
#include "src/fts/checker.hpp"
#include "src/fts/programs.hpp"
#include "src/ltl/hierarchy.hpp"
#include "src/support/parse_num.hpp"
#include "src/support/table.hpp"

namespace {

using namespace mph;

int usage(std::ostream& out, int code) {
  out << "usage: mph-lint [options] [FORMULA...]\n"
         "  --spec FILE     lint a spec file (one LTL requirement per line, '#' comments)\n"
         "  --model NAME    lint a built-in model (--list-models)\n"
         "  --models        lint every built-in model\n"
         "  --check FORMULA model-check FORMULA against the --model (repeatable);\n"
         "                  prints a table of engine statistics per spec\n"
         "  --threads N     worker threads for --check batches (default 1)\n"
         "  --budget-states N\n"
         "                  state cap per --check construction (default 200000); an\n"
         "                  exhausted check reports outcome budget-states (MPH-V004)\n"
         "  --budget-ms N   wall-clock budget in ms for the --check batch, and one more\n"
         "                  for --vacuity and --coverage together; the model is\n"
         "                  explored once, inside the first of these deadlines, and\n"
         "                  the later passes reuse the exploration\n"
         "  --vacuity       analyze why requirements that hold do hold: polarity-directed\n"
         "                  mutation vacuity against the --model (MPH-Y001/Y002/Y003);\n"
         "                  requirements come from --check, --spec and positional formulas\n"
         "  --coverage      transition mutation coverage of the requirements against the\n"
         "                  --model (MPH-Y004): which transitions the spec actually pins\n"
         "  --absint        interval abstract interpretation of the --model's symbolic\n"
         "                  description (dining-N, ring-N): box invariant plus dead\n"
         "                  transitions (MPH-F010), tightened domains (MPH-F011) and\n"
         "                  wrapping effects (MPH-F012); --check then consults the\n"
         "                  exploration-free static prover first (engine 'static',\n"
         "                  0 states explored; docs/ABSINT.md)\n"
         "  --strict-unknown\n"
         "                  exit 1 when any verdict is unknown (budget exhausted:\n"
         "                  MPH-V004, MPH-Y005) even without error diagnostics\n"
         "  --classify      exact hierarchy classification via ΔΓ-normalization\n"
         "                  (MPH-N001/N002/N003) of the requirements from --check,\n"
         "                  --spec and positional formulas; prints a summary table\n"
         "  --normalize     --classify plus each requirement's hierarchy normal form\n"
         "  --normalize-steps N\n"
         "                  rewrite-step budget for ΔΓ-normalization (default\n"
         "                  unlimited); an exhausted run reports MPH-N003 and an\n"
         "                  unknown exact class\n"
         "  --subsume       pairwise requirement subsumption via Büchi language\n"
         "                  inclusion (MPH-S011/S012/S013) over the requirements from\n"
         "                  --check, --spec and positional formulas; --budget-states\n"
         "                  caps the per-direction inclusion product\n"
         "  --strict-class CLASS\n"
         "                  exit 1 unless every requirement is established in CLASS\n"
         "                  (safety, guarantee, obligation, recurrence, persistence,\n"
         "                  reactivity); refusals and budget stops fail the gate\n"
         "  --automata      additionally lint each requirement's compiled automaton\n"
         "  --json          machine-readable output\n"
         "  --no-checklist  suppress MPH-S007 hierarchy-checklist notes\n"
         "  --quiet         diagnostics only (no classification table)\n"
         "  --werror        exit 1 on warnings as well as errors\n"
         "  --list-codes    print the diagnostic code registry\n"
         "  --list-passes   print the pass registry\n"
         "  --list-models   print the built-in models\n";
  return code;
}

std::vector<std::string> read_spec_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open spec file: " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    auto last = line.find_last_not_of(" \t\r");
    lines.push_back(line.substr(first, last - first + 1));
  }
  return lines;
}

std::optional<core::PropertyClass> parse_class(const std::string& name) {
  using core::PropertyClass;
  static constexpr std::pair<const char*, PropertyClass> kClasses[] = {
      {"safety", PropertyClass::Safety},
      {"guarantee", PropertyClass::Guarantee},
      {"obligation", PropertyClass::Obligation},
      {"recurrence", PropertyClass::Recurrence},
      {"persistence", PropertyClass::Persistence},
      {"reactivity", PropertyClass::Reactivity},
  };
  for (const auto& [n, c] : kClasses)
    if (name == n) return c;
  return std::nullopt;
}

void print_classification_table(const analysis::SpecLintResult& result) {
  TextTable t({"requirement", "syntactic", "semantic", "live?"});
  for (const auto& item : result.items) {
    t.add_row({item.text, core::to_string(item.syntactic.lowest()),
               item.semantic ? core::to_string(item.semantic->lowest()) : "(not compiled)",
               item.semantic ? (item.semantic->liveness ? "yes" : "no") : "-"});
  }
  std::cout << t.to_string() << "\n";
  if (result.model && result.alphabet)
    std::cout << "the specification is satisfiable; a model: "
              << result.model->to_string(*result.alphabet) << "\n\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> formulas;
  std::vector<std::string> spec_files;
  std::vector<std::string> model_names;
  std::vector<std::string> check_formulas;
  unsigned check_threads = 1;
  std::size_t budget_states = 0;
  std::uint64_t budget_ms = 0;
  bool all_models = false, json = false, quiet = false, werror = false;
  bool lint_automata = false;
  bool vacuity = false, coverage = false, strict_unknown = false;
  bool classify_props = false;    // --classify: exact classes via normalization
  bool print_normal = false;      // --normalize: also print the normal forms
  bool subsume = false;           // --subsume: pairwise language inclusion
  std::optional<core::PropertyClass> strict_class;  // --strict-class gate
  bool absint = false;            // --absint: interval analysis + static prover
  analysis::AnalysisOptions options;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "mph-lint: " << flag << " needs an argument\n";
        std::exit(2);
      }
      return argv[++i];
    };
    // Strict numeric flags (src/support/parse_num.hpp): "abc", "1e9x", "-5"
    // and out-of-range values are usage errors (exit 2), never an uncaught
    // std::invalid_argument out of std::stoul and never a wrapped value.
    auto next_num = [&](const char* flag, std::uint64_t max) -> std::uint64_t {
      const std::string text = next(flag);
      if (auto v = parse_u64(text, max)) return *v;
      std::cerr << "mph-lint: " << flag << " needs a base-10 unsigned integer <= " << max
                << ", got '" << text << "'\n";
      std::exit(2);
    };
    if (arg == "--help" || arg == "-h") return usage(std::cout, 0);
    if (arg == "--spec") {
      spec_files.push_back(next("--spec"));
    } else if (arg == "--model") {
      model_names.push_back(next("--model"));
    } else if (arg == "--models") {
      all_models = true;
    } else if (arg == "--check") {
      check_formulas.push_back(next("--check"));
    } else if (arg == "--threads") {
      check_threads = static_cast<unsigned>(next_num("--threads", 1024));
    } else if (arg == "--budget-states") {
      budget_states = next_num("--budget-states", UINT64_MAX);
    } else if (arg == "--budget-ms") {
      budget_ms = next_num("--budget-ms", UINT64_MAX);
    } else if (arg == "--vacuity") {
      vacuity = true;
    } else if (arg == "--coverage") {
      coverage = true;
    } else if (arg == "--absint") {
      absint = true;
    } else if (arg == "--strict-unknown") {
      strict_unknown = true;
    } else if (arg == "--classify") {
      classify_props = true;
    } else if (arg == "--normalize") {
      print_normal = true;
    } else if (arg == "--subsume") {
      subsume = true;
    } else if (arg == "--normalize-steps") {
      options.normalize.normalize.budget =
          Budget().with_state_cap(next_num("--normalize-steps", UINT64_MAX));
    } else if (arg == "--strict-class") {
      std::string cname = next("--strict-class");
      strict_class = parse_class(cname);
      if (!strict_class) {
        std::cerr << "mph-lint: unknown class '" << cname
                  << "' (safety, guarantee, obligation, recurrence, persistence, "
                     "reactivity)\n";
        return 2;
      }
    } else if (arg == "--automata") {
      lint_automata = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--no-checklist") {
      options.spec.checklist = false;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--werror") {
      werror = true;
    } else if (arg == "--list-codes") {
      TextTable t({"code", "severity", "finding"});
      for (const auto& info : analysis::code_registry())
        t.add_row({std::string(info.code), std::string(analysis::to_string(info.severity)),
                   std::string(info.title)});
      std::cout << t.to_string();
      return 0;
    } else if (arg == "--list-passes") {
      TextTable t({"pass", "description"});
      for (const auto& pass : analysis::registered_passes())
        t.add_row({std::string(pass.id), std::string(pass.description)});
      std::cout << t.to_string();
      return 0;
    } else if (arg == "--list-models") {
      for (const auto name : fts::programs::builtin_model_names())
        std::cout << name << "\n";
      std::cout << "dining-N (N=2..12)\nring-N (N=2..10)\n";
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "mph-lint: unknown option " << arg << "\n";
      return usage(std::cerr, 2);
    } else {
      formulas.push_back(arg);
    }
  }
  if (all_models)
    for (const auto name : fts::programs::builtin_model_names())
      model_names.emplace_back(name);
  if (formulas.empty() && spec_files.empty() && model_names.empty())
    return usage(std::cerr, 2);
  if (!check_formulas.empty() && model_names.size() != 1) {
    std::cerr << "mph-lint: --check needs exactly one --model\n";
    return 2;
  }
  if (absint && model_names.size() != 1) {
    std::cerr << "mph-lint: --absint needs exactly one --model\n";
    return 2;
  }
  if ((vacuity || coverage) && model_names.size() != 1) {
    std::cerr << "mph-lint: --vacuity/--coverage need exactly one --model\n";
    return 2;
  }
  if ((vacuity || coverage) && check_formulas.empty() && spec_files.empty() &&
      formulas.empty()) {
    std::cerr << "mph-lint: --vacuity/--coverage need requirements "
                 "(--check, --spec or positional formulas)\n";
    return 2;
  }
  const bool classify_run = classify_props || print_normal || strict_class.has_value();
  if (classify_run && check_formulas.empty() && spec_files.empty() && formulas.empty()) {
    std::cerr << "mph-lint: --classify/--normalize/--strict-class need requirements "
                 "(--check, --spec or positional formulas)\n";
    return 2;
  }
  if (subsume && check_formulas.empty() && spec_files.empty() && formulas.empty()) {
    std::cerr << "mph-lint: --subsume needs requirements "
                 "(--check, --spec or positional formulas)\n";
    return 2;
  }

  analysis::DiagnosticEngine engine;
  bool unknown_seen = false;   // any verdict the budget left undecided
  std::size_t strict_class_failures = 0;  // requirements the --strict-class gate rejects
  std::string extra_json;      // "vacuity"/"coverage" objects spliced into --json
  try {
    // Models first, then spec files, then command-line formulas (one shared
    // engine: subjects keep the findings apart).
    for (const auto& name : model_names) {
      auto model = fts::programs::builtin_model(name);
      if (!model) {
        std::cerr << "mph-lint: unknown model '" << name << "' (see --list-models)\n";
        return 2;
      }
      auto program = std::move(*model);
      std::optional<fts::FtsSpec> sym;  // symbolic description, --absint only
      if (absint) {
        sym = fts::find_symbolic_model(name);
        if (!sym) {
          std::cerr << "mph-lint: model '" << name
                    << "' has no symbolic description (--absint supports the "
                       "dining-N and ring-N families)\n";
          return 2;
        }
        // Analyze and check the *same* system: rebuild it from the symbolic
        // description so the box invariant, the static prover and the
        // exploration engines all talk about identical states and atoms.
        program.system = sym->build();
        program.atoms = sym->atoms();
      }
      analysis::run_passes(analysis::Subject::of(program.system, "model '" + name + "'"),
                           engine, options);

      if (sym) {
        const auto ar = analysis::lint_absint(*sym, engine);
        if (!json && !quiet) {
          TextTable vt({"variable", "domain", "invariant", "tightened"});
          for (const auto& v : ar.invariants)
            vt.add_row({v.name,
                        "[" + std::to_string(v.dom_lo) + ", " + std::to_string(v.dom_hi) +
                            "]",
                        "[" + std::to_string(v.inv.lo) + ", " + std::to_string(v.inv.hi) +
                            "]",
                        v.tightened ? "yes" : "no"});
          TextTable tt({"transition", "verdict", "may wrap"});
          for (const auto& tv : ar.transitions) {
            std::string wraps = "-";
            if (tv.may_wrap) {
              wraps.clear();
              for (const auto& w : tv.wrap_vars) {
                if (!wraps.empty()) wraps += ", ";
                wraps += w;
              }
            }
            tt.add_row({tv.name, tv.dead ? "DEAD" : "live", wraps});
          }
          std::cout << "== interval analysis of model '" << name << "' ==\n"
                    << vt.to_string() << tt.to_string() << "fixpoint in " << ar.iterations
                    << " round(s)" << (ar.widened ? ", widened" : "")
                    << (ar.narrowed ? ", narrowed" : "") << "; " << ar.dead_count()
                    << " dead, " << ar.tightened_count() << " tightened, "
                    << ar.wrap_count() << " wrapping\n\n";
        }
        // `, "absint": {"model": ..., <to_json body>}` — to_json emits a
        // complete object, so splice the model name in after its '{'.
        extra_json += ", \"absint\": {\"model\": \"" + analysis::json_escape(name) +
                      "\", " + analysis::to_json(ar).substr(1);
      }

      // One context per model: --check, --vacuity and --coverage share its
      // exploration. Each pass gets a fresh budget; the context keeps the
      // budget of the first pass that asks for it.
      std::optional<fts::ModelContext> context;
      auto pass_options = [&] {
        fts::CheckOptions copts;
        copts.threads = check_threads;
        if (budget_states > 0) copts.budget.with_state_cap(budget_states);
        if (budget_ms > 0)
          copts.budget.with_deadline_after(std::chrono::milliseconds(budget_ms));
        if (!context) context.emplace(program.system, program.atoms, copts.budget);
        return copts;
      };

      if (!check_formulas.empty()) {
        std::vector<ltl::Formula> specs;
        for (const auto& text : check_formulas) specs.push_back(ltl::parse_formula(text));
        fts::CheckOptions copts = pass_options();
        copts.diagnostics = &engine;
        if (sym) copts.static_prover = analysis::make_static_prover(*sym);
        auto results = fts::check(*context, specs, copts);
        for (const auto& r : results)
          if (!is_complete(r.outcome)) unknown_seen = true;
        if (!json && !quiet) {
          TextTable t({"spec", "verdict", "outcome", "engine", "automaton", "product",
                       "bound", "search s"});
          for (std::size_t i = 0; i < results.size(); ++i) {
            const auto& s = results[i].stats;
            std::ostringstream secs;
            secs.precision(3);
            secs << std::fixed << s.search_seconds;
            const char* verdict = !is_complete(results[i].outcome) ? "unknown"
                                  : results[i].holds               ? "holds"
                                                                   : "VIOLATED";
            t.add_row({check_formulas[i], verdict,
                       std::string(to_string(results[i].outcome)),
                       std::string(to_string(s.engine)) + (s.nba_fallback ? " (NBA)" : ""),
                       std::to_string(s.automaton_states), std::to_string(s.product_states),
                       std::to_string(s.product_bound), secs.str()});
          }
          std::cout << "== check against model '" << name << "' ("
                    << (results.empty() ? 0 : results[0].stats.state_graph_nodes)
                    << " states) ==\n"
                    << t.to_string() << "\n";
        }
      }

      if (vacuity || coverage) {
        // Requirements for the verdict-aware passes: --check formulas, spec
        // file lines, then positional formulas, deduplicated by text.
        std::vector<std::string> req_texts;
        std::set<std::string> seen_reqs;
        auto add_req = [&](const std::string& text) {
          if (seen_reqs.insert(text).second) req_texts.push_back(text);
        };
        for (const auto& text : check_formulas) add_req(text);
        for (const auto& path : spec_files)
          for (const auto& line : read_spec_file(path)) add_req(line);
        for (const auto& text : formulas) add_req(text);
        std::vector<ltl::Formula> reqs;
        for (const auto& text : req_texts) reqs.push_back(ltl::parse_formula(text));

        const fts::CheckOptions copts = pass_options();

        if (vacuity) {
          analysis::VacuityOptions vopts;
          vopts.check = copts;
          const auto vr = analysis::analyze_vacuity(*context, reqs, engine, vopts);
          for (const auto& rv : vr.requirements)
            if (rv.verdict == analysis::RequirementVacuity::Verdict::Unknown)
              unknown_seen = true;
          if (!json && !quiet) {
            TextTable t({"requirement", "verdict", "mutants", "engines", "note"});
            for (const auto& rv : vr.requirements) {
              std::size_t checked = 0;
              std::map<std::string, std::size_t> tally;
              for (const auto& mc : rv.mutants) {
                if (mc.engine != "skipped") ++checked;
                ++tally[mc.engine];
              }
              std::string engines;
              for (const auto& [ename, n] : tally) {
                if (ename == "skipped") continue;
                if (!engines.empty()) engines += ", ";
                engines += std::to_string(n) + " " + ename;
              }
              std::string note;
              if (rv.antecedent_failure)
                note = "antecedent unreachable (MPH-Y002)";
              else if (rv.witness)
                note = "witness: prefix " + std::to_string(rv.witness->prefix.size()) +
                       ", loop " + std::to_string(rv.witness->loop.size());
              else if (rv.verdict == analysis::RequirementVacuity::Verdict::Unknown)
                note = "budget exhausted";
              t.add_row({rv.text, std::string(to_string(rv.verdict)),
                         std::to_string(checked) + "/" + std::to_string(rv.mutants.size()),
                         engines.empty() ? "-" : engines, note});
            }
            const auto& st = vr.stats;
            std::cout << "== vacuity against model '" << name << "' ==\n"
                      << t.to_string() << "mutants: " << st.mutants_checked << " checked, "
                      << st.mutants_skipped << " skipped; engines: safety-prefix "
                      << st.safety_prefix << ", guarantee-dual " << st.guarantee_dual
                      << ", SCC " << st.scc << ", static " << st.static_proof
                      << ", constant " << st.constant << "; unknown " << st.unknown << "\n\n";
            for (const auto& rv : vr.requirements)
              if (rv.witness)
                std::cout << "interesting witness for '" << rv.text << "':\n"
                          << rv.witness->to_string(program.system) << "\n";
          }
          std::ostringstream vj;
          using analysis::json_escape;
          vj << ", \"vacuity\": {\"model\": \"" << json_escape(name)
             << "\", \"requirements\": [";
          for (std::size_t i = 0; i < vr.requirements.size(); ++i) {
            const auto& rv = vr.requirements[i];
            if (i) vj << ", ";
            vj << "{\"text\": \"" << json_escape(rv.text) << "\", \"verdict\": \""
               << to_string(rv.verdict) << "\", \"holds\": "
               << (rv.original.holds ? "true" : "false") << ", \"outcome\": \""
               << to_string(rv.original.outcome) << "\", \"antecedent_failure\": "
               << (rv.antecedent_failure ? "true" : "false") << ", \"mutants\": [";
            for (std::size_t j = 0; j < rv.mutants.size(); ++j) {
              const auto& mc = rv.mutants[j];
              if (j) vj << ", ";
              vj << "{\"occurrence\": \"" << json_escape(mc.occurrence)
                 << "\", \"polarity\": \"" << to_string(mc.polarity)
                 << "\", \"replacement\": \"" << json_escape(mc.replacement)
                 << "\", \"text\": \"" << json_escape(mc.text) << "\", \"engine\": \""
                 << json_escape(mc.engine) << "\", \"outcome\": \""
                 << to_string(mc.outcome) << "\", \"holds\": "
                 << (mc.holds ? "true" : "false") << "}";
            }
            vj << "]";
            if (rv.witness)
              vj << ", \"witness\": {\"prefix\": " << rv.witness->prefix.size()
                 << ", \"loop\": " << rv.witness->loop.size() << "}";
            vj << "}";
          }
          const auto& st = vr.stats;
          vj << "], \"stats\": {\"mutants_checked\": " << st.mutants_checked
             << ", \"mutants_skipped\": " << st.mutants_skipped
             << ", \"safety_prefix\": " << st.safety_prefix
             << ", \"guarantee_dual\": " << st.guarantee_dual
             << ", \"scc\": " << st.scc
             << ", \"static_proof\": " << st.static_proof
             << ", \"constant\": " << st.constant << ", \"unknown\": " << st.unknown
             << "}}";
          extra_json += vj.str();
        }

        if (coverage) {
          analysis::CoverageOptions kopts;
          kopts.check = copts;
          const auto cr = analysis::analyze_coverage(*context, reqs, engine, kopts);
          if (!is_complete(cr.outcome) || cr.unknown > 0) unknown_seen = true;
          std::ostringstream pct;
          pct.precision(1);
          pct << std::fixed << cr.percent_covered;
          if (!json && !quiet) {
            TextTable t({"transition", "reachable", "covered"});
            for (const auto& tc : cr.transitions)
              t.add_row({tc.name, tc.reachable ? "yes" : "no",
                         !tc.reachable ? "-"
                         : tc.covered  ? "yes"
                         : tc.unknown  ? "unknown"
                                       : "NO"});
            std::cout << "== coverage against model '" << name << "' ==\n"
                      << t.to_string() << "coverage: " << cr.covered << " of "
                      << cr.reachable << " reachable transition(s) covered (" << pct.str()
                      << "%)";
            if (cr.unknown > 0) std::cout << ", " << cr.unknown << " unknown";
            std::cout << "\n\n";
          }
          std::ostringstream cj;
          using analysis::json_escape;
          cj << ", \"coverage\": {\"model\": \"" << json_escape(name)
             << "\", \"transitions\": [";
          for (std::size_t i = 0; i < cr.transitions.size(); ++i) {
            const auto& tc = cr.transitions[i];
            if (i) cj << ", ";
            cj << "{\"transition\": " << tc.transition << ", \"name\": \""
               << json_escape(tc.name) << "\", \"reachable\": "
               << (tc.reachable ? "true" : "false") << ", \"covered\": "
               << (tc.covered ? "true" : "false") << ", \"unknown\": "
               << (tc.unknown ? "true" : "false") << "}";
          }
          cj << "], \"reachable\": " << cr.reachable << ", \"covered\": " << cr.covered
             << ", \"unknown\": " << cr.unknown << ", \"percent_covered\": " << pct.str()
             << ", \"outcome\": \"" << to_string(cr.outcome) << "\"}";
          extra_json += cj.str();
        }
      }
    }

    auto lint_formula_list = [&](const std::vector<std::string>& texts,
                                 const std::string& label) {
      auto result = analysis::lint_spec_texts(texts, engine, options.spec);
      if (!json && !quiet) {
        if (!label.empty()) std::cout << "== " << label << " ==\n";
        print_classification_table(result);
      }
      if (lint_automata && result.alphabet) {
        for (std::size_t i = 0; i < texts.size(); ++i) {
          try {
            auto m = ltl::compile(ltl::parse_formula(texts[i]), *result.alphabet);
            analysis::lint_automaton(m, "automaton of '" + texts[i] + "'", engine);
          } catch (const std::invalid_argument&) {
            // MPH-S008 already reported by the spec pass.
          }
        }
      }
    };
    for (const auto& path : spec_files) lint_formula_list(read_spec_file(path), path);
    if (!formulas.empty()) lint_formula_list(formulas, "");

    if (classify_run) {
      // Requirements for the exact-classification pass: --check formulas,
      // spec file lines, then positional formulas, deduplicated by text
      // (same collection order as --vacuity/--coverage).
      std::vector<std::string> req_texts;
      std::set<std::string> seen_reqs;
      auto add_req = [&](const std::string& text) {
        if (seen_reqs.insert(text).second) req_texts.push_back(text);
      };
      for (const auto& text : check_formulas) add_req(text);
      for (const auto& path : spec_files)
        for (const auto& line : read_spec_file(path)) add_req(line);
      for (const auto& text : formulas) add_req(text);
      std::vector<ltl::Formula> reqs;
      for (const auto& text : req_texts) reqs.push_back(ltl::parse_formula(text));

      const auto nr = analysis::lint_normalize(reqs, engine, options.normalize);
      if (!json && !quiet) {
        TextTable t({"requirement", "syntactic", "exact", "via", "outcome", "steps"});
        for (const auto& item : nr.items)
          t.add_row({item.text, core::to_string(item.syntactic.lowest()),
                     item.exact ? core::to_string(item.exact->lowest())
                     : is_complete(item.outcome) ? "(refused)"
                                                 : "unknown",
                     !item.exact ? "-"
                     : item.exact_source == ltl::ExactClass::Source::NbaSemantics
                         ? "nba"
                         : "normal-form",
                     std::string(to_string(item.outcome)), std::to_string(item.steps)});
        std::cout << "== exact classification (ΔΓ-normalization) ==\n"
                  << t.to_string() << "exact " << nr.exact_count << " (" << nr.nba_count
                  << " via NBA closure tests), refused " << nr.refused_count
                  << ", budget-stopped " << nr.budget_count << "\n\n";
        if (print_normal) {
          for (const auto& item : nr.items)
            if (item.normal_form)
              std::cout << "normal form of '" << item.text << "':\n  " << *item.normal_form
                        << "\n";
          std::cout << "\n";
        }
      }
      std::ostringstream nj;
      using analysis::json_escape;
      nj << ", \"classify\": {\"requirements\": [";
      for (std::size_t i = 0; i < nr.items.size(); ++i) {
        const auto& item = nr.items[i];
        if (i) nj << ", ";
        nj << "{\"text\": \"" << json_escape(item.text) << "\", \"syntactic\": \""
           << core::to_string(item.syntactic.lowest()) << "\", \"exact\": ";
        if (item.exact)
          nj << "\"" << core::to_string(item.exact->lowest()) << "\", \"exact_source\": \""
             << (item.exact_source == ltl::ExactClass::Source::NbaSemantics ? "nba"
                                                                            : "normal-form")
             << "\"";
        else
          nj << "null";
        nj << ", \"outcome\": \"" << to_string(item.outcome)
           << "\", \"steps\": " << item.steps;
        if (print_normal && item.normal_form)
          nj << ", \"normal_form\": \"" << json_escape(*item.normal_form) << "\"";
        nj << "}";
      }
      nj << "], \"exact\": " << nr.exact_count << ", \"refused\": " << nr.refused_count
         << ", \"budget\": " << nr.budget_count << "}";
      extra_json += nj.str();

      if (strict_class) {
        // The gate is sound: membership must be *established* (exact class
        // when normalization landed, otherwise the syntactic claims, which
        // under-approximate). Refusals and budget stops therefore fail.
        for (const auto& item : nr.items) {
          if (item.best().is(*strict_class)) continue;
          ++strict_class_failures;
          if (!json)
            std::cerr << "mph-lint: '" << item.text << "' not established in class "
                      << core::to_string(*strict_class) << " ("
                      << (item.exact ? "exact: " + core::to_string(item.exact->lowest())
                                     : "class unknown")
                      << ")\n";
        }
      }
    }

    if (subsume) {
      // Requirements for the subsumption pass: same collection order and
      // dedup as --classify/--vacuity.
      std::vector<std::string> req_texts;
      std::set<std::string> seen_reqs;
      auto add_req = [&](const std::string& text) {
        if (seen_reqs.insert(text).second) req_texts.push_back(text);
      };
      for (const auto& text : check_formulas) add_req(text);
      for (const auto& path : spec_files)
        for (const auto& line : read_spec_file(path)) add_req(line);
      for (const auto& text : formulas) add_req(text);
      std::vector<ltl::Formula> reqs;
      for (const auto& text : req_texts) reqs.push_back(ltl::parse_formula(text));

      analysis::SubsumeOptions subsume;
      if (budget_states > 0) subsume.budget = Budget().with_state_cap(budget_states);
      const auto sr = analysis::lint_subsume(reqs, engine, subsume);
      if (sr.unknown_pairs > 0) unknown_seen = true;
      if (!json && !quiet) {
        TextTable t({"stronger", "weaker", "relation"});
        for (const auto& p : sr.pairs)
          t.add_row({req_texts[p.stronger], req_texts[p.weaker],
                     p.equivalent ? "equivalent" : "implies"});
        std::cout << "== subsumption (Büchi language inclusion) ==\n"
                  << t.to_string() << "checked " << sr.checked_pairs
                  << " direction(s), " << sr.unknown_pairs << " undecided\n\n";
      }
      std::ostringstream sj;
      using analysis::json_escape;
      sj << ", \"subsume\": {\"pairs\": [";
      for (std::size_t i = 0; i < sr.pairs.size(); ++i) {
        const auto& p = sr.pairs[i];
        if (i) sj << ", ";
        sj << "{\"stronger\": \"" << json_escape(req_texts[p.stronger])
           << "\", \"weaker\": \"" << json_escape(req_texts[p.weaker])
           << "\", \"equivalent\": " << (p.equivalent ? "true" : "false") << "}";
      }
      sj << "], \"checked\": " << sr.checked_pairs
         << ", \"unknown\": " << sr.unknown_pairs << "}";
      extra_json += sj.str();
    }
  } catch (const std::invalid_argument& e) {
    std::cerr << "mph-lint: " << e.what() << "\n";
    return 2;
  } catch (const std::runtime_error& e) {
    std::cerr << "mph-lint: " << e.what() << "\n";
    return 2;
  }

  if (json) {
    // Splice the vacuity/coverage objects into the diagnostics document
    // (validated by scripts/validate_lint_report.py).
    std::string doc = engine.to_json();
    if (!extra_json.empty()) {
      doc.pop_back();  // the document's closing '}'
      doc += extra_json + "}";
    }
    std::cout << doc << "\n";
  } else {
    std::cout << engine.to_text();
  }

  if (engine.has_errors()) return 1;
  if (werror && engine.count(analysis::Severity::Warning) > 0) return 1;
  if (strict_unknown && unknown_seen) return 1;
  if (strict_class_failures > 0) return 1;
  return 0;
}
