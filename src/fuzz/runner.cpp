#include "src/fuzz/runner.hpp"

#include <chrono>
#include <sstream>

#include "src/support/check.hpp"
#include "src/support/flat_hash.hpp"

namespace mph::fuzz {
namespace {

double elapsed(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - since).count();
}

/// One check with its throws folded into the outcome: BudgetExhausted is the
/// budget running out (MPH-X004); any other exception is a fault in an engine
/// or the oracle itself, so a failure (MPH-X001), shrunk and replayed like a
/// reported discrepancy.
CheckOutcome run_check(const Oracle& oracle, const FuzzCase& c, const Budget& budget) {
  try {
    return oracle.check(c, budget);
  } catch (const BudgetExhausted& e) {
    return CheckOutcome::exhausted(std::string(to_string(e.outcome())));
  } catch (const std::exception& e) {
    return CheckOutcome::fail(std::string("oracle threw: ") + e.what());
  }
}

/// A candidate "still fails" when its check fails or throws; one that
/// passes, skips or exhausts its budget does not.
bool still_fails(const Oracle& oracle, const FuzzCase& c, const Budget& budget) {
  return run_check(oracle, c, budget).kind == CheckOutcome::Kind::Fail;
}

}  // namespace

std::uint64_t iteration_seed(std::string_view oracle, std::uint64_t seed, std::uint64_t iter) {
  return hash_combine(hash_combine(hash_range(oracle), seed), iter);
}

std::size_t FuzzReport::total_failures() const {
  std::size_t n = 0;
  for (const auto& o : oracles) n += o.failures.size();
  return n;
}

std::string FuzzReport::to_text() const {
  std::ostringstream out;
  out << "mph-fuzz: seed " << seed << ", " << iters << " iteration(s) per oracle\n";
  for (const auto& o : oracles) {
    out << "  " << o.name << ": " << o.passed << " passed";
    if (o.skipped > 0) out << ", " << o.skipped << " skipped";
    if (o.budget_exhausted > 0) out << ", " << o.budget_exhausted << " budget-exhausted";
    if (!o.failures.empty()) out << ", " << o.failures.size() << " FAILED";
    out << "\n";
    for (const auto& f : o.failures) {
      out << "    iteration " << f.iteration << ": " << f.message << "\n";
      out << "    shrunk " << f.original_size << " -> " << f.shrunk_size << " (size units), "
          << f.shrink_stats.attempts << " attempt(s)\n";
      std::istringstream lines(f.case_text);
      std::string line;
      while (std::getline(lines, line)) out << "      | " << line << "\n";
    }
  }
  const auto failures = total_failures();
  out << (failures == 0 ? "all oracles agree" : std::to_string(failures) + " discrepancy(ies)")
      << "\n";
  return out.str();
}

std::string FuzzReport::to_json() const {
  using analysis::json_escape;
  std::ostringstream out;
  out << "{\n  \"tool\": \"mph-fuzz\",\n  \"version\": 1,\n";
  out << "  \"seed\": " << seed << ",\n  \"iters\": " << iters << ",\n";
  out << "  \"oracles\": [\n";
  for (std::size_t i = 0; i < oracles.size(); ++i) {
    const auto& o = oracles[i];
    out << "    {\"name\": \"" << json_escape(o.name) << "\", \"iters\": " << o.iters
        << ", \"passed\": " << o.passed << ", \"skipped\": " << o.skipped
        << ", \"budget_exhausted\": " << o.budget_exhausted
        << ", \"seconds\": " << o.seconds << ", \"failures\": [";
    for (std::size_t j = 0; j < o.failures.size(); ++j) {
      const auto& f = o.failures[j];
      out << (j ? ", " : "") << "{\"iteration\": " << f.iteration << ", \"message\": \""
          << json_escape(f.message) << "\", \"original_size\": " << f.original_size
          << ", \"shrunk_size\": " << f.shrunk_size << ", \"case\": \""
          << json_escape(f.case_text) << "\"}";
    }
    out << "]}" << (i + 1 < oracles.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"total_failures\": " << total_failures() << "\n}\n";
  return out.str();
}

FuzzReport run_fuzz(const FuzzOptions& options, analysis::DiagnosticEngine* diagnostics) {
  std::vector<const Oracle*> selected;
  if (options.oracles.empty()) {
    for (const auto& o : oracle_registry()) selected.push_back(&o);
  } else {
    for (const auto& name : options.oracles) {
      const Oracle* o = find_oracle(name);
      MPH_REQUIRE(o != nullptr, "unknown oracle: " + name);
      selected.push_back(o);
    }
  }

  // Every iteration (and every shrink candidate) gets a fresh budget: the
  // deadline must restart per check, or the first slow input would exhaust
  // everything after it.
  auto make_budget = [&options] {
    Budget b;
    if (options.iter_budget_states > 0) b.with_state_cap(options.iter_budget_states);
    if (options.iter_budget_ms > 0)
      b.with_deadline_after(std::chrono::milliseconds(options.iter_budget_ms));
    return b;
  };

  FuzzReport report;
  report.seed = options.seed;
  report.iters = options.iters;
  for (const Oracle* oracle : selected) {
    OracleReport o;
    o.name = oracle->name;
    const auto started = std::chrono::steady_clock::now();
    for (std::uint64_t it = 0; it < options.iters; ++it) {
      if (o.failures.size() >= options.max_failures) break;
      ++o.iters;
      Rng rng(iteration_seed(oracle->name, options.seed, it));
      FuzzCase c = oracle->generate(rng);
      const CheckOutcome outcome = run_check(*oracle, c, make_budget());
      if (outcome.kind == CheckOutcome::Kind::Pass) {
        ++o.passed;
        continue;
      }
      if (outcome.kind == CheckOutcome::Kind::Skip) {
        ++o.skipped;
        continue;
      }
      if (outcome.kind == CheckOutcome::Kind::Budget) {
        ++o.budget_exhausted;
        if (diagnostics)
          diagnostics
              ->emit("MPH-X004", oracle->name + " iteration " + std::to_string(it),
                     "iteration abandoned: " + outcome.message)
              .fix_hint = "raise --iter-budget-ms / --iter-budget-states, or replay the "
                          "case without a budget";
        continue;
      }
      FuzzFailure f;
      f.iteration = it;
      f.message = outcome.message;
      f.original_size = c.size();
      FuzzCase reduced = options.shrink
                             ? shrink(c, [&](const FuzzCase& cand) {
                                 return still_fails(*oracle, cand, make_budget());
                               }, &f.shrink_stats)
                             : c;
      f.shrunk_size = reduced.size();
      f.case_text = reduced.to_text();
      if (diagnostics) {
        auto& d = diagnostics->emit("MPH-X001", oracle->name + " iteration " +
                                    std::to_string(it), outcome.message);
        d.witness = f.case_text;
        d.fix_hint = "replay with: mph-fuzz --replay <case-file>; reproduce the run with "
                     "--oracle " + oracle->name + " --seed " + std::to_string(options.seed);
        if (options.shrink)
          diagnostics->emit("MPH-X002", oracle->name,
                            "shrunk the failing case from " + std::to_string(f.original_size) +
                                " to " + std::to_string(f.shrunk_size) + " size units in " +
                                std::to_string(f.shrink_stats.attempts) + " attempts");
      }
      o.failures.push_back(std::move(f));
    }
    o.seconds = elapsed(started);
    if (diagnostics && o.skipped > 0)
      diagnostics->emit("MPH-X003", oracle->name,
                        std::to_string(o.skipped) + " of " + std::to_string(o.iters) +
                            " iteration(s) fell outside the oracle's fragment and were skipped");
    report.oracles.push_back(std::move(o));
  }
  return report;
}

CheckOutcome replay(const FuzzCase& c, const Budget& budget) {
  const Oracle* oracle = find_oracle(c.oracle);
  MPH_REQUIRE(oracle != nullptr, "case names unknown oracle: " + c.oracle);
  return run_check(*oracle, c, budget);
}

}  // namespace mph::fuzz
