#include "src/analysis/automaton_lint.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <deque>
#include <sstream>

#include "src/core/classify.hpp"
#include "src/omega/emptiness.hpp"
#include "src/omega/graph.hpp"

namespace mph::analysis {

namespace {

using omega::Acceptance;
using omega::MarkSet;
using omega::State;

/// "states 0, 3, 5" (capped listing for large regions).
std::string fmt_states(const std::vector<State>& qs, std::size_t cap = 8) {
  std::ostringstream out;
  out << (qs.size() == 1 ? "state " : "states ");
  for (std::size_t i = 0; i < qs.size() && i < cap; ++i) out << (i ? ", " : "") << qs[i];
  if (qs.size() > cap) out << ", … (+" << qs.size() - cap << " more)";
  return out.str();
}

std::string fmt_marks(MarkSet ms) {
  std::ostringstream out;
  out << (std::popcount(ms) == 1 ? "mark " : "marks ");
  bool first = true;
  for (omega::Mark m = 0; m < 64; ++m)
    if (ms & omega::mark_bit(m)) {
      out << (first ? "" : ", ") << m;
      first = false;
    }
  return out.str();
}

/// Whether the acceptance formula contains Inf (resp. Fin) atoms.
void atom_kinds(const Acceptance& acc, bool& has_inf, bool& has_fin) {
  switch (acc.kind()) {
    case Acceptance::Kind::Inf: has_inf = true; return;
    case Acceptance::Kind::Fin: has_fin = true; return;
    case Acceptance::Kind::And:
    case Acceptance::Kind::Or:
      for (const auto& c : acc.children()) atom_kinds(c, has_inf, has_fin);
      return;
    default: return;
  }
}

}  // namespace

void lint_det_structure(const omega::DetOmega& m, std::string_view subject,
                        DiagnosticEngine& out) {
  auto g = omega::to_graph(m);
  auto reach = omega::graph_reachable(g);

  std::vector<State> unreachable, marked_unreachable;
  MarkSet placed_reachable = 0;
  for (State q = 0; q < m.state_count(); ++q) {
    if (!reach[q]) {
      unreachable.push_back(q);
      if (m.marks(q) != 0) marked_unreachable.push_back(q);
    } else {
      placed_reachable |= m.marks(q);
    }
  }
  if (!unreachable.empty()) {
    auto& d = out.emit("MPH-A001", subject,
                       std::to_string(unreachable.size()) +
                           " state(s) unreachable from the initial state");
    d.location = fmt_states(unreachable);
    d.fix_hint = "delete the states or fix the transitions meant to reach them";
  }
  if (!marked_unreachable.empty()) {
    auto& d = out.emit("MPH-A003", subject,
                       "acceptance marks placed on unreachable states never "
                       "influence any run");
    d.location = fmt_states(marked_unreachable);
    d.fix_hint = "move the marks to the reachable copy of the intended states";
  }
  MarkSet unplaced = m.acceptance().mentioned_marks() & ~placed_reachable;
  if (unplaced != 0) {
    auto& d = out.emit("MPH-A006", subject,
                       "acceptance condition mentions " + fmt_marks(unplaced) +
                           " placed on no reachable state (Inf atoms are trivially false, "
                           "Fin atoms trivially true)");
    d.fix_hint = "place the marks or simplify the acceptance condition";
  }
}

void lint_det_language(const omega::DetOmega& m, std::string_view subject,
                       DiagnosticEngine& out) {
  if (omega::is_empty(m)) {
    auto& d = out.emit("MPH-A004", subject, "the automaton accepts no word at all");
    d.fix_hint = "the acceptance condition is unsatisfiable over the reachable structure";
    return;  // every state is dead and the complement is universal; stop here
  }
  if (omega::is_empty(complement(m))) {
    auto& d = out.emit("MPH-A005", subject,
                       "the automaton accepts every word (the property constrains nothing)");
    d.fix_hint = "a universal requirement is usually a specification bug";
  }
  auto g = omega::to_graph(m);
  auto reach = omega::graph_reachable(g);
  auto live = omega::live_states(m);
  std::vector<State> dead;
  for (State q = 0; q < m.state_count(); ++q)
    if (reach[q] && !live[q]) dead.push_back(q);
  // A single dead state is the idiomatic rejecting trap of a complete
  // automaton; flag only regions that could be merged into one.
  if (dead.size() >= 2) {
    auto& d = out.emit("MPH-A002", subject,
                       std::to_string(dead.size()) +
                           " reachable states have an empty residual language; a single "
                           "trap state suffices");
    d.location = fmt_states(dead);
    d.fix_hint = "merge the dead region into one rejecting sink";
  }
}

void lint_det_scc(const omega::DetOmega& m, std::string_view subject, DiagnosticEngine& out) {
  auto g = omega::to_graph(m);
  auto reach = omega::graph_reachable(g);
  const Acceptance& acc = m.acceptance();

  // Weakness (Wagner): acceptance constant on every SCC. Only interesting
  // when the acceptance formula is non-trivially shaped (≥ 2 marks).
  if (std::popcount(acc.mentioned_marks()) >= 2) {
    bool weak = true;
    auto sccs = omega::nontrivial_sccs(g, reach);
    try {
      for (const auto& scc : sccs) {
        std::vector<bool> allowed(g.size(), false);
        for (State q : scc) allowed[q] = true;
        const bool some_loop_accepts = omega::has_good_loop_within(g, allowed, acc);
        const bool some_loop_rejects = omega::has_good_loop_within(g, allowed, acc.negate());
        if (some_loop_accepts && some_loop_rejects) {
          weak = false;
          break;
        }
      }
      if (weak && !sccs.empty()) {
        auto& d = out.emit("MPH-A007", subject,
                           "every loop of each SCC has the same acceptance status (weak "
                           "automaton); the multi-mark acceptance condition is stronger "
                           "than the structure needs");
        d.fix_hint = "an obligation-form (per-SCC) acceptance recognizes the same language";
      }
    } catch (const std::invalid_argument&) {
      // Acceptance too large to analyze per-SCC (DNF blow-up); skip the pass.
    }
  }

  // Class downgrade at the automaton level: a mixed Inf/Fin (Streett/Rabin
  // style) condition on a language that is semantically recurrence or
  // persistence — a deterministic Büchi or co-Büchi automaton recognizes it
  // (Morgenstern–Schneider: detecting the downgrade buys cheaper automata).
  bool has_inf = false, has_fin = false;
  atom_kinds(acc, has_inf, has_fin);
  if (has_inf && has_fin) {
    auto c = core::classify(m);
    if (c.recurrence || c.persistence) {
      auto& d = out.emit("MPH-A011", subject,
                         "acceptance is Streett/Rabin-shaped but the language is "
                         "semantically " +
                             core::to_string(c.lowest()) +
                             "; a deterministic " +
                             (c.recurrence ? "Büchi" : "co-Büchi") +
                             " automaton recognizes it");
      d.fix_hint = "reclassify and rebuild via the κ-automaton construction for the class";
    }
  }
}

void lint_automaton(const omega::DetOmega& m, std::string_view subject, DiagnosticEngine& out) {
  lint_det_structure(m, subject, out);
  lint_det_language(m, subject, out);
  lint_det_scc(m, subject, out);
}

void lint_automaton(const omega::Nba& n, std::string_view subject, DiagnosticEngine& out) {
  if (n.initial_states().empty()) {
    auto& d = out.emit("MPH-A008", subject, "the NBA has no initial state; it accepts nothing");
    d.fix_hint = "call add_initial";
    return;
  }
  const std::size_t sigma = n.alphabet().size();

  // Reachability and structural edge checks.
  const omega::MarkedGraph g = omega::to_graph(n);
  const std::vector<bool> reach = omega::graph_reachable(g);
  std::vector<State> unreachable, marked_unreachable, incomplete, duplicated;
  for (State q = 0; q < n.state_count(); ++q) {
    if (!reach[q]) {
      unreachable.push_back(q);
      if (n.accepting(q)) marked_unreachable.push_back(q);
      continue;
    }
    std::vector<std::pair<lang::Symbol, State>> sorted(n.edges(q).begin(), n.edges(q).end());
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 1; i < sorted.size(); ++i)
      if (sorted[i] == sorted[i - 1]) {
        duplicated.push_back(q);
        break;
      }
    std::vector<bool> has_symbol(sigma, false);
    for (auto [s, t] : sorted) has_symbol[s] = true;
    for (std::size_t s = 0; s < sigma; ++s)
      if (!has_symbol[s]) {
        incomplete.push_back(q);
        break;
      }
  }
  if (!unreachable.empty()) {
    auto& d = out.emit("MPH-A001", subject,
                       std::to_string(unreachable.size()) +
                           " state(s) unreachable from the initial states");
    d.location = fmt_states(unreachable);
  }
  if (!marked_unreachable.empty()) {
    auto& d = out.emit("MPH-A003", subject, "accepting flag set on unreachable states");
    d.location = fmt_states(marked_unreachable);
  }
  if (!duplicated.empty()) {
    auto& d = out.emit("MPH-A009", subject,
                       "duplicate edges (same source, symbol and target) bloat the "
                       "transition relation");
    d.location = fmt_states(duplicated);
    d.fix_hint = "deduplicate edges when constructing the automaton";
  }
  if (!incomplete.empty()) {
    auto& d = out.emit("MPH-A010", subject,
                       std::to_string(incomplete.size()) +
                           " state(s) lack an outgoing edge on some symbol (runs reaching "
                           "them reject implicitly)");
    d.location = fmt_states(incomplete);
  }

  if (omega::is_empty(n)) {
    auto& d = out.emit("MPH-A004", subject, "the NBA accepts no word at all");
    d.fix_hint = "no accepting state lies on a reachable cycle";
    return;
  }
  // Dead region: reachable states from which no accepting cycle is
  // reachable. Mirrors the DetOmega minimality rule (one trap is idiomatic —
  // though an NBA can simply omit the edges instead).
  const std::vector<bool> live = omega::live_states(g, Acceptance::buchi(0));
  std::vector<State> dead;
  for (State q = 0; q < n.state_count(); ++q)
    if (reach[q] && !live[q]) dead.push_back(q);
  if (dead.size() >= 2) {
    auto& d = out.emit("MPH-A002", subject,
                       std::to_string(dead.size()) +
                           " reachable states admit no accepting continuation");
    d.location = fmt_states(dead);
    d.fix_hint = "drop the edges into the dead region (an NBA may be partial)";
  }
}

void lint_automaton(const lang::Dfa& d, std::string_view subject, DiagnosticEngine& out) {
  const std::size_t sigma = d.alphabet().size();
  std::vector<bool> reach(d.state_count(), false);
  std::deque<lang::State> queue{d.initial()};
  reach[d.initial()] = true;
  while (!queue.empty()) {
    lang::State q = queue.front();
    queue.pop_front();
    for (lang::Symbol s = 0; s < sigma; ++s) {
      lang::State t = d.next(q, s);
      if (!reach[t]) {
        reach[t] = true;
        queue.push_back(t);
      }
    }
  }
  std::vector<State> unreachable;
  for (lang::State q = 0; q < d.state_count(); ++q)
    if (!reach[q]) unreachable.push_back(q);
  if (!unreachable.empty()) {
    auto& diag = out.emit("MPH-A001", subject,
                          std::to_string(unreachable.size()) +
                              " state(s) unreachable from the initial state");
    diag.location = fmt_states(unreachable);
  }

  // Live = can still reach an accepting state (backward closure).
  std::vector<std::vector<lang::State>> pred(d.state_count());
  for (lang::State q = 0; q < d.state_count(); ++q)
    for (lang::Symbol s = 0; s < sigma; ++s) pred[d.next(q, s)].push_back(q);
  std::vector<bool> live(d.state_count(), false);
  std::deque<lang::State> bfs;
  for (lang::State q = 0; q < d.state_count(); ++q)
    if (d.accepting(q)) {
      live[q] = true;
      bfs.push_back(q);
    }
  while (!bfs.empty()) {
    lang::State q = bfs.front();
    bfs.pop_front();
    for (lang::State p : pred[q])
      if (!live[p]) {
        live[p] = true;
        bfs.push_back(p);
      }
  }
  if (!live[d.initial()]) {
    out.emit("MPH-A004", subject, "no accepting state is reachable; the language is empty");
    return;
  }
  bool all_reachable_accepting = true;
  std::vector<State> trap;
  for (lang::State q = 0; q < d.state_count(); ++q) {
    if (!reach[q]) continue;
    if (!d.accepting(q)) all_reachable_accepting = false;
    if (!live[q]) trap.push_back(q);
  }
  if (all_reachable_accepting) {
    auto& diag =
        out.emit("MPH-A005", subject, "every reachable state accepts; the language is Σ*");
    diag.fix_hint = "a universal finitary property constrains nothing";
  }
  if (trap.size() >= 2) {
    auto& diag = out.emit("MPH-A012", subject,
                          std::to_string(trap.size()) +
                              " reject-trap states; a minimal complete DFA needs at most one");
    diag.location = fmt_states(trap);
    diag.fix_hint = "merge the trap region into a single sink";
  }
}

}  // namespace mph::analysis
