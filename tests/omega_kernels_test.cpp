// Structure pinning for the Safra-free classification and inclusion path.
//
// Over a fixed formula battery — the tab17 inclusion and rescue formulas
// plus the 40 random formulas of the spec-analysis corpus (seed 1) that the
// ΔΓ-normalizer refuses — each row records, for the formula and for its
// negation:
//   * the ltl::to_nba tableau: state count, initial and accepting sets, and
//     an FNV-1a hash of every edge list;
//   * the subset construction lang::determinize(omega::pref_skeleton(·))
//     and the minimized omega::pref DFA, as state counts plus table hashes;
//   * the state cap boundary of to_nba and determinize (their outcome at
//     one state below the size they reach);
// then the core::classify_nba verdict, and for each tab17 entailment query
// (both directions) the omega::included verdict, lassos probed,
// counterexample, product_states, ComplementStats and cap boundary.
//
// A kernel rewrite that changes any automaton state for state or edge for
// edge, or moves an exhaustion point, shows up as a row diff against
// tests/corpus/omega_kernels.golden. After an intended change, rerun with
// MPH_REGEN_KERNELS=1 to rewrite the rows, and review the diff.
//
// TableauShape checks the tableau's trim invariant — every state reachable
// and live — on the battery plus random formulas, and pins the empty NBA
// an unsatisfiable formula gets.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/classify.hpp"
#include "src/fts/checker.hpp"
#include "src/fts/programs.hpp"
#include "src/fuzz/generators.hpp"
#include "src/lang/dfa_ops.hpp"
#include "src/lang/nfa.hpp"
#include "src/ltl/ast.hpp"
#include "src/ltl/to_nba.hpp"
#include "src/omega/graph.hpp"
#include "src/omega/inclusion.hpp"
#include "src/omega/nba.hpp"
#include "src/support/rng.hpp"

namespace mph {
namespace {

/// The cap serve and the benches run the path under.
constexpr std::size_t kCap = 200000;

/// The tab17 entailment battery (bench/tab17_inclusion.cpp).
constexpr std::pair<const char*, const char*> kQueries[] = {
    {"G p", "G (p | q)"},         {"G (p & q)", "G p"}, {"p U q", "F q"},
    {"G F p", "F p"},             {"G p", "F p"},       {"G (p & q)", "G (q & p)"},
    {"F (p & X (p U q))", "F q"},
};

/// tab17's MPH-N003 rescue family.
constexpr const char* kRescue[] = {
    "F (p & X (p U q))",
    "(p U q) U (X X q)",
    "(p U q) U (q U p)",
    "p U (q & X (q U p))",
};

/// The spec-analysis classify formulas (fuzz::random_ltl and
/// fuzz::random_ltl_nonnormal, corpus seed 1) that ltl::normalize refuses
/// under the 200k cap, in corpus order; the two costly ones are
/// F(G(F q U p) & F F(p W r)) and ((G G q U p) R r) R (p W q).
constexpr const char* kRefused[] = {
    "q & !(F(q R p) W (q U p))",
    "(r -> r) W ((p R r) R r)",
    "F(X(!r -> r) & (p R ((q -> p) & q)))",
    "X((q U G X q) U (q W false))",
    "F(F X(r U r) & F !!(r & p))",
    "F(G(F q U p) & F F(p W r))",
    "(p U !p) R X(r R (r & r))",
    "((r & true -> q) R (q U q)) U X true",
    "F((r & (p R (r R q))) & F F !q)",
    "(q R r) -> (p W G((q U p) W r))",
    "F q W ((q -> q) -> F X r)",
    "X !(false U r) U r",
    "G(q -> ((p | r) U (r & F r)))",
    "!(q -> (r U (p -> r))) W (p R r)",
    "X X((q R r) U X q)",
    "(p U p) R (r & (r U false))",
    "!(((G p R q) U r) -> r & q)",
    "F(X q & F F r)",
    "F((r R r) & (X p W r))",
    "(r U (p & (true R q))) U !(p | X q)",
    "((G G q U p) R r) R (p W q)",
    "!((r & r) W !F(p & p))",
    "G(((q U false) W q) U (G p U (p & q)))",
    "G(X(p R (q U p)) U p)",
    "F(p & F X q)",
    "(p -> r & r) W ((q R true) R (q W r))",
    "((p R (r -> false)) & q) U (q U q)",
    "F(F r & X false)",
    "((false W X r) U (r R p)) U G q",
    "(p R q) R F(p & r)",
    "((!true R q) U (r U G r)) W r",
    "(p & ((r W X r) -> r)) W !q",
    "(r -> (q R p)) W (r U r)",
    "F(((r U G(p & false)) | r) W p)",
    "G((G q -> p) U ((r U (q R p)) U p))",
    "(p W (true U F(X r | q))) -> r",
    "F(p | ((G X q U q) -> q))",
    "G(X G((r -> false) -> q) W q)",
    "(!(true U r) R q) W p",
    "r W (((r -> p) W (r -> X r)) | q)",
};

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
    return buf;
  }
};

std::string list(const std::vector<omega::State>& xs) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) out += (i ? "," : "") + std::to_string(xs[i]);
  return out + "]";
}

std::string nba_summary(const omega::Nba& n) {
  std::vector<omega::State> acc;
  Fnv edges;
  for (omega::State q = 0; q < n.state_count(); ++q) {
    if (n.accepting(q)) acc.push_back(q);
    edges.add(q);
    edges.add(n.edges(q).size());
    for (auto [s, t] : n.edges(q)) {
      edges.add(s);
      edges.add(t);
    }
  }
  return "states=" + std::to_string(n.state_count()) + " init=" + list(n.initial_states()) +
         " acc=" + list(acc) + " edges=" + edges.hex();
}

std::string dfa_summary(const lang::Dfa& d) {
  Fnv table;
  std::size_t acc = 0;
  table.add(d.initial());
  for (lang::State q = 0; q < d.state_count(); ++q) {
    table.add(d.accepting(q));
    acc += d.accepting(q) ? 1 : 0;
    for (lang::Symbol s = 0; s < d.alphabet().size(); ++s) table.add(d.next(q, s));
  }
  return "states=" + std::to_string(d.state_count()) + " acc=" + std::to_string(acc) +
         " table=" + table.hex();
}

std::string outcome_at(std::size_t cap, Outcome o) {
  return "cap[" + std::to_string(cap) + "]=" + std::string(to_string(o));
}

/// Tableau, Pref subset construction and cap boundaries of one formula.
std::string side_row(const ltl::Formula& g, const lang::Alphabet& sigma,
                     std::optional<omega::Nba>& nba) {
  try {
    nba = ltl::to_nba(g, sigma);
  } catch (const std::invalid_argument&) {
    return "tableau=refused";
  }
  const std::size_t n = nba->state_count();
  std::string row = "nba " + nba_summary(*nba);
  if (n > 0) {
    row += " " + outcome_at(n - 1,
                            ltl::to_nba(g, sigma, Budget().with_state_cap(n - 1)).outcome);
    const lang::Nfa skeleton = omega::pref_skeleton(*nba);
    const lang::Dfa det = lang::determinize(skeleton);
    const std::size_t d = det.state_count();
    const Outcome below = lang::determinize(skeleton, Budget().with_state_cap(d - 1)).outcome;
    row += "\tdet " + dfa_summary(det) + " " + outcome_at(d - 1, below);
  }
  row += "\tpref " + dfa_summary(omega::pref(*nba));
  return row;
}


std::vector<std::string> formula_rows(const std::string& text) {
  const ltl::Formula f = ltl::parse_formula(text);
  // The alphabet ltl::exact_classification builds its tableaux over.
  std::vector<std::string> atoms = f.atoms();
  if (atoms.empty()) atoms.emplace_back("p");
  const lang::Alphabet sigma = lang::Alphabet::of_props(atoms);
  std::optional<omega::Nba> pos, neg;
  std::vector<std::string> rows{text + "\t+\t" + side_row(f, sigma, pos),
                                text + "\t-\t" + side_row(ltl::f_not(f), sigma, neg)};
  std::string cls = text + "\tclassify\t";
  if (pos && neg) {
    const core::NbaClassification c =
        core::classify_nba(*pos, *neg, Budget().with_state_cap(kCap));
    cls += "outcome=" + std::string(to_string(c.outcome)) +
           " class=" + (c.value ? c.value->describe() : std::string("none"));
  } else {
    cls += "refused";
  }
  rows.push_back(cls);
  return rows;
}

std::string inclusion_row(const char* left, const char* right) {
  const ltl::Formula fa = ltl::parse_formula(left);
  const ltl::Formula fb = ltl::parse_formula(right);
  // The sorted joint alphabet tab17 and the spec-analysis workload use.
  std::set<std::string> atoms;
  for (const auto& p : fa.atoms()) atoms.insert(p);
  for (const auto& p : fb.atoms()) atoms.insert(p);
  const lang::Alphabet sigma = lang::Alphabet::of_props({atoms.begin(), atoms.end()});
  const omega::Nba a = ltl::to_nba(fa, sigma);
  const omega::Nba b = ltl::to_nba(fb, sigma);
  auto run = [&](std::size_t cap) {
    omega::InclusionOptions o;
    o.budget.with_state_cap(cap);
    return omega::included(a, b, o);
  };
  const omega::InclusionResult r = run(kCap);
  std::string row = std::string(left) + " |= " + right +
                    "\tverdict=" + std::string(omega::to_string(r.verdict)) +
                    " outcome=" + std::string(to_string(r.outcome)) +
                    " probed=" + std::to_string(r.lassos_probed) +
                    " product=" + std::to_string(r.product_states) +
                    " parts=" + std::to_string(r.complement.parts) +
                    " ncsb=" + std::to_string(r.complement.ncsb_parts) +
                    " rank=" + std::to_string(r.complement.rank_parts) +
                    " macrostates=" + std::to_string(r.complement.macrostates) +
                    " cex=" + (r.counterexample ? r.counterexample->to_string(sigma) : "none");
  if (!is_complete(r.outcome)) return row + "\t" + outcome_at(kCap, r.outcome);
  // Smallest cap that completes; the run is deterministic and fails exactly
  // when some admission count reaches the cap, so the outcome is monotone.
  // The lasso probe interns no states, so a query it decides completes at
  // cap 0.
  std::size_t lo = 0, hi = kCap;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (is_complete(run(mid).outcome))
      hi = mid;
    else
      lo = mid + 1;
  }
  row += "\t" + outcome_at(lo, run(lo).outcome);
  if (lo > 0) row += " " + outcome_at(lo - 1, run(lo - 1).outcome);
  return row;
}

/// The battery's formulas, each once, in row order.
std::vector<std::string> battery_formulas() {
  std::vector<std::string> formulas;
  auto add = [&](const std::string& text) {
    for (const auto& f : formulas)
      if (f == text) return;
    formulas.push_back(text);
  };
  for (auto [l, r] : kQueries) {
    add(l);
    add(r);
  }
  for (const char* f : kRescue) add(f);
  for (const char* f : kRefused) add(f);
  return formulas;
}

std::vector<std::string> kernel_rows() {
  std::vector<std::string> rows;
  for (const auto& f : battery_formulas())
    for (auto& row : formula_rows(f)) rows.push_back(std::move(row));
  for (auto [l, r] : kQueries) {
    rows.push_back(inclusion_row(l, r));
    rows.push_back(inclusion_row(r, l));
  }
  return rows;
}

TEST(KernelPinning, BatteryMatchesGoldenRows) {
  const std::string path = std::string(MPH_SOURCE_DIR) + "/tests/corpus/omega_kernels.golden";
  const std::vector<std::string> rows = kernel_rows();
  if (std::getenv("MPH_REGEN_KERNELS")) {
    std::ofstream out(path);
    for (const auto& row : rows) out << row << '\n';
    GTEST_SKIP() << "rewrote " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing " << path;
  std::vector<std::string> golden;
  for (std::string line; std::getline(in, line);) golden.push_back(line);
  ASSERT_EQ(rows.size(), golden.size());
  for (std::size_t i = 0; i < rows.size(); ++i) EXPECT_EQ(rows[i], golden[i]) << "row " << i;
}

/// Whether every state of `n` is reachable and reaches an accepting cycle,
/// by the omega library's own graph helpers; names the first bad state.
std::string trim_violation(const omega::Nba& n) {
  const omega::MarkedGraph g = omega::to_graph(n);
  const std::vector<bool> reach = omega::graph_reachable(g);
  const std::vector<bool> live = omega::live_states(g, omega::Acceptance::buchi(0));
  for (omega::State q = 0; q < n.state_count(); ++q) {
    if (!reach[q]) return "state " + std::to_string(q) + " is unreachable";
    if (!live[q]) return "state " + std::to_string(q) + " reaches no accepting cycle";
  }
  return "";
}

TEST(TableauShape, EveryStateIsReachableAndLive) {
  std::vector<std::string> formulas = battery_formulas();
  Rng rng(18);
  const std::vector<std::string> atoms{"p", "q", "r"};
  for (int i = 0; i < 200; ++i) {
    const auto nodes = static_cast<std::size_t>(rng.between(3, 12));
    formulas.push_back(
        fuzz::random_ltl(rng, atoms, nodes, fuzz::LtlFlavor::FutureOnly).to_string());
  }
  std::size_t built = 0;
  for (const auto& text : formulas) {
    const ltl::Formula f = ltl::parse_formula(text);
    std::vector<std::string> names = f.atoms();
    if (names.empty()) names.emplace_back("p");
    const lang::Alphabet sigma = lang::Alphabet::of_props(names);
    for (const ltl::Formula& g : {f, ltl::f_not(f)}) {
      std::optional<omega::Nba> nba;
      try {
        nba = ltl::to_nba(g, sigma);
      } catch (const std::invalid_argument&) {
        continue;  // closure over the 12-free-subformula cap
      }
      ++built;
      EXPECT_EQ(trim_violation(*nba), "") << g.to_string();
    }
  }
  EXPECT_GT(built, 400u);
}

TEST(TableauShape, UnsatisfiableFormulaGivesTheEmptyNba) {
  const lang::Alphabet sigma = lang::Alphabet::of_props({"p"});
  const omega::Nba any = ltl::to_nba(ltl::parse_formula("F p"), sigma);
  for (const char* text : {"p & !p", "G F p & F G !p"}) {
    const omega::Nba nba = ltl::to_nba(ltl::parse_formula(text), sigma);
    EXPECT_EQ(nba.state_count(), 0u) << text;
    EXPECT_TRUE(nba.initial_states().empty()) << text;
    EXPECT_TRUE(lang::is_empty(omega::pref(nba))) << text;
    EXPECT_TRUE(omega::is_empty(nba)) << text;
    EXPECT_EQ(omega::included(nba, any).verdict, omega::InclusionVerdict::Included) << text;
    EXPECT_EQ(omega::included(any, nba).verdict, omega::InclusionVerdict::NotIncluded) << text;
  }
  // G true — written over an atom, since the checker needs one: its
  // negation's tableau is empty, and the checker proves it on both routes.
  const ltl::Formula valid = ltl::parse_formula("G (c1 | !c1)");
  EXPECT_EQ(ltl::to_nba(ltl::f_not(valid), lang::Alphabet::of_props({"c1"})).state_count(), 0u);
  const fts::programs::Program prog = fts::programs::peterson();
  for (bool force_scc : {false, true}) {
    fts::CheckOptions options;
    options.force_scc = force_scc;
    const fts::CheckResult r = fts::check(prog.system, valid, prog.atoms, options);
    EXPECT_TRUE(r.holds) << "force_scc=" << force_scc;
    EXPECT_TRUE(is_complete(r.outcome)) << "force_scc=" << force_scc;
  }
}

}  // namespace
}  // namespace mph
