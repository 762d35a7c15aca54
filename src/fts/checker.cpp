#include "src/fts/checker.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <sstream>
#include <thread>

#include "src/fts/checker_detail.hpp"
#include "src/fts/parallel.hpp"
#include "src/ltl/hierarchy.hpp"
#include "src/ltl/normalize.hpp"
#include "src/ltl/syntactic.hpp"
#include "src/ltl/to_nba.hpp"
#include "src/omega/emptiness.hpp"
#include "src/omega/graph.hpp"
#include "src/omega/nba.hpp"
#include "src/support/check.hpp"
#include "src/support/flat_hash.hpp"

namespace mph::fts {

using omega::Acceptance;
using omega::Mark;
using omega::MarkedGraph;
using omega::MarkSet;

std::string_view to_string(CheckEngine e) {
  switch (e) {
    case CheckEngine::Scc: return "SCC";
    case CheckEngine::SafetyPrefix: return "safety-prefix";
    case CheckEngine::GuaranteeDual: return "guarantee-dual";
    case CheckEngine::StaticProof: return "static";
  }
  MPH_ASSERT(false);
}

std::string_view to_string(ClassSource s) {
  switch (s) {
    case ClassSource::None: return "none";
    case ClassSource::Syntactic: return "syntactic";
    case ClassSource::Normalized: return "normalized";
  }
  MPH_ASSERT(false);
}

std::string Counterexample::to_string(const Fts& system) const {
  std::ostringstream out;
  auto emit = [&](const Valuation& v) {
    out << "  ";
    for (std::size_t i = 0; i < v.size(); ++i)
      out << (i ? " " : "") << system.var_name(i) << "=" << v[i];
    out << "\n";
  };
  out << "prefix:\n";
  for (const auto& v : prefix) emit(v);
  out << "loop (repeats forever):\n";
  for (const auto& v : loop) emit(v);
  return out.str();
}

namespace {

using Clock = std::chrono::steady_clock;

double elapsed(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

using detail::aut_of;
using detail::node_of;
using detail::pack;

/// The compiled ¬spec automaton as a successor table built once per check:
/// the successors of (q, s) are targets[offsets[q·|Σ| + s] ..
/// offsets[q·|Σ| + s + 1]). A DetOmega fills one entry per (state, symbol),
/// or none where the guarantee dual prunes a dead target; the NBA tableau
/// fills a per-symbol CSR. The product search reads spans from it, so an
/// expansion neither calls a closure nor allocates.
struct NegSpecView {
  std::vector<omega::State> initial;
  std::size_t symbols = 0;
  std::vector<std::uint32_t> offsets{0};
  std::vector<omega::State> targets;
  std::vector<MarkSet> marks;  // per automaton state
  Acceptance acceptance = Acceptance::t();

  std::size_t state_count() const { return marks.size(); }
  std::span<const omega::State> step(omega::State q, lang::Symbol s) const {
    const std::size_t row = std::size_t{q} * symbols + s;
    return {targets.data() + offsets[row], targets.data() + offsets[row + 1]};
  }
};

/// det(¬spec) as a view. With `live` (the guarantee dual: det(¬spec) of a
/// guarantee spec recognizes a closed language) the dead states are pruned
/// and the acceptance becomes ⊤ — a run is accepting iff it stays live.
NegSpecView deterministic_view(const omega::DetOmega& m,
                               const std::vector<bool>* live = nullptr) {
  NegSpecView v;
  v.symbols = m.alphabet().size();
  v.offsets.reserve(m.state_count() * v.symbols + 1);
  for (omega::State q = 0; q < m.state_count(); ++q) {
    v.marks.push_back(live ? MarkSet{0} : m.marks(q));
    for (lang::Symbol s = 0; s < v.symbols; ++s) {
      const omega::State t = m.next(q, s);
      if (!live || (*live)[t]) v.targets.push_back(t);
      v.offsets.push_back(static_cast<std::uint32_t>(v.targets.size()));
    }
  }
  if (!live || (*live)[m.initial()]) v.initial = {m.initial()};
  v.acceptance = live ? Acceptance::t() : m.acceptance();
  return v;
}

NegSpecView nba_view(const omega::Nba& n, std::size_t symbols) {
  NegSpecView v;
  v.symbols = symbols;
  v.initial = n.initial_states();
  v.offsets.reserve(n.state_count() * symbols + 1);
  for (omega::State q = 0; q < n.state_count(); ++q) {
    v.marks.push_back(n.accepting(q) ? omega::mark_bit(0) : MarkSet{0});
    for (lang::Symbol s = 0; s < symbols; ++s) {
      for (auto [sym, t] : n.edges(q))
        if (sym == s) v.targets.push_back(t);
      v.offsets.push_back(static_cast<std::uint32_t>(v.targets.size()));
    }
  }
  v.acceptance = Acceptance::buchi(0);
  return v;
}

/// Fairness marks: one per weak transition ("ok": disabled or just taken),
/// two per strong transition (taken / enabled). ¬spec marks are shifted
/// past them. The frame depends only on the system, so a batch computes it
/// once and shares it across specs.
struct FairnessFrame {
  std::vector<std::size_t> weak, strong;
  Mark mark_count = 0;
  Acceptance acceptance = Acceptance::t();  // the fairness conjuncts only
};

FairnessFrame fairness_frame(const Fts& system) {
  FairnessFrame f;
  for (std::size_t t = 0; t < system.transition_count(); ++t) {
    if (system.transition_fairness(t) == Fairness::Weak) f.weak.push_back(t);
    if (system.transition_fairness(t) == Fairness::Strong) f.strong.push_back(t);
  }
  f.mark_count = static_cast<Mark>(f.weak.size() + 2 * f.strong.size());
  for (std::size_t i = 0; i < f.weak.size(); ++i)
    f.acceptance =
        Acceptance::conj(std::move(f.acceptance), Acceptance::inf(static_cast<Mark>(i)));
  for (std::size_t i = 0; i < f.strong.size(); ++i) {
    const Mark taken_mark = static_cast<Mark>(f.weak.size() + 2 * i);
    const Mark enabled_mark = static_cast<Mark>(f.weak.size() + 2 * i + 1);
    f.acceptance = Acceptance::conj(
        std::move(f.acceptance),
        Acceptance::disj(Acceptance::inf(taken_mark), Acceptance::fin(enabled_mark)));
  }
  return f;
}

/// Per-node fairness marks, computed once per state graph.
std::vector<MarkSet> fair_node_marks(const StateGraph& sg, const FairnessFrame& fair) {
  std::vector<MarkSet> out(sg.nodes.size(), 0);
  for (std::size_t n = 0; n < sg.nodes.size(); ++n) {
    MarkSet marks = 0;
    for (std::size_t i = 0; i < fair.weak.size(); ++i) {
      bool ok = !sg.enabled[n][fair.weak[i]] ||
                sg.nodes[n].last_taken == static_cast<int>(fair.weak[i]);
      if (ok) marks |= omega::mark_bit(static_cast<Mark>(i));
    }
    for (std::size_t i = 0; i < fair.strong.size(); ++i) {
      if (sg.nodes[n].last_taken == static_cast<int>(fair.strong[i]))
        marks |= omega::mark_bit(static_cast<Mark>(fair.weak.size() + 2 * i));
      if (sg.enabled[n][fair.strong[i]])
        marks |= omega::mark_bit(static_cast<Mark>(fair.weak.size() + 2 * i + 1));
    }
    out[n] = marks;
  }
  return out;
}

/// Atom labels computed once per state-graph node per vocabulary (the
/// product pairs every automaton state with node n — without the cache every
/// pairing re-evaluates all atoms on n).
std::vector<lang::Symbol> label_nodes(const Fts& system, const StateGraph& sg,
                                      const AtomMap& atoms,
                                      const std::vector<std::string>& atom_names) {
  std::vector<const AtomFn*> fns;
  fns.reserve(atom_names.size());
  for (const auto& name : atom_names) fns.push_back(&atoms.at(name));
  std::vector<lang::Symbol> labels(sg.nodes.size(), 0);
  for (std::size_t n = 0; n < sg.nodes.size(); ++n)
    for (std::size_t i = 0; i < fns.size(); ++i)
      if ((*fns[i])(system, sg.nodes[n].valuation, sg.nodes[n].last_taken))
        labels[n] |= lang::Symbol{1} << i;
  return labels;
}

/// If acc is a pure conjunction of Inf atoms (generalized Büchi), returns
/// the required marks; nullopt when it mentions Fin or a disjunction.
std::optional<MarkSet> inf_conjuncts(const Acceptance& acc) {
  switch (acc.kind()) {
    case Acceptance::Kind::True:
      return MarkSet{0};
    case Acceptance::Kind::Inf:
      return omega::mark_bit(acc.mark());
    case Acceptance::Kind::And: {
      MarkSet req = 0;
      for (const auto& c : acc.children()) {
        auto sub = inf_conjuncts(c);
        if (!sub) return std::nullopt;
        req |= *sub;
      }
      return req;
    }
    default:
      return std::nullopt;
  }
}

/// A violating product lasso as product-state ids: the prefix, then a loop
/// whose last state steps back to loop.front().
struct PidLasso {
  std::vector<std::uint32_t> prefix, loop;
};

/// On-the-fly emptiness over the (state-graph node × ¬spec state) product:
/// one iterative Tarjan DFS, interning product states as it reaches them,
/// with Couvreur's root stack carrying the union of acceptance marks of each
/// partial SCC.
///   - Pure Inf acceptance (generalized Büchi): the search stops as soon as
///     a merge leaves a partial SCC carrying every required mark — a
///     violation is reported before the full product exists.
///   - Acceptance mentioning Fin (strong fairness, Fin-shaped ¬spec): when
///     an SCC closes, omega::find_good_loop decides its sub-graph.
/// Pids are DFS preorder numbers, so the live stack and the root stack are
/// both increasing in pid and no separate index/lowlink table is kept.
class ProductSearch {
 public:
  ProductSearch(const StateGraph& sg, const std::vector<lang::Symbol>& labels,
                const std::vector<MarkSet>& fair_marks, Mark shift, const NegSpecView& neg,
                const Acceptance& acc, const Budget& budget)
      : sg_(sg),
        labels_(labels),
        fair_marks_(fair_marks),
        shift_(shift),
        neg_(neg),
        acc_(acc),
        req_(inf_conjuncts(acc)),
        budget_(budget) {}

  /// Some accepting product lasso, or nullopt when every fair computation
  /// satisfies the spec. Throws BudgetExhausted.
  std::optional<PidLasso> run() {
    for (omega::State q0 : neg_.initial) {
      auto [root, fresh] = intern(0, q0);
      if (!fresh) continue;
      push(root);
      while (!frames_.empty()) {
        poll_budget();
        Frame& f = frames_.back();
        if (f.aut != f.aut_end) {
          const auto& edges = sg_.edges[f.node];
          const std::size_t target = edges[f.edge].first;
          const omega::State q2 = *f.aut;
          if (++f.edge == edges.size()) {
            f.edge = 0;
            ++f.aut;
          }
          auto [t, is_new] = intern(target, q2);
          if (is_new) {
            push(t);
          } else if (!dead_[t]) {
            // Back or cross edge into the live stack: every root above t
            // joins t's partial SCC, which now carries a cycle.
            MarkSet merged = 0;
            while (roots_.back().pid > t) {
              merged |= roots_.back().marks;
              roots_.pop_back();
            }
            Root& top = roots_.back();
            top.marks |= merged;
            top.cyclic = true;
            if (req_ && (top.marks & *req_) == *req_) return partial_scc_lasso(top.pid);
          }
          continue;
        }
        if (roots_.back().pid == f.pid) {
          if (auto lasso = close_scc()) return lasso;
        }
        frames_.pop_back();
      }
    }
    return std::nullopt;
  }

  /// Distinct (node, automaton state) pairs interned so far.
  std::size_t product_states() const { return pids_.size(); }

  std::size_t node_of_pid(std::uint32_t pid) const { return node_of(pids_[pid]); }

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  /// A DFS frame iterates its successors lazily: each ¬spec successor of
  /// the frame's automaton state paired with each state-graph edge.
  struct Frame {
    std::uint32_t pid;
    std::uint32_t node;
    const omega::State* aut;
    const omega::State* aut_end;
    std::uint32_t edge;
  };
  /// A partial SCC on Couvreur's root stack.
  struct Root {
    std::uint32_t pid;  // its first-visited state
    MarkSet marks;      // union of the marks of its states
    bool cyclic;        // some edge closes a cycle inside it
  };

  std::pair<std::uint32_t, bool> intern(std::size_t n, omega::State q) {
    auto [idx, inserted] = pids_.intern(pack(n, q));
    if (inserted) {
      // The pair is already in the interner, but on exhaustion the whole
      // search unwinds immediately, so the extra key is never observed.
      budget_.require(pids_.size() - 1);
      dead_.push_back(0);
    }
    return {static_cast<std::uint32_t>(idx), inserted};
  }

  /// Deadline/cancellation poll amortized over the DFS steps (the state cap
  /// is enforced exactly at every intern; the clock is read every 4096
  /// steps).
  void poll_budget() {
    if ((++steps_ & 0xFFFu) != 0) return;
    if (Outcome o = budget_.poll(); !is_complete(o)) throw BudgetExhausted(o);
  }

  MarkSet marks_of(std::uint32_t pid) const {
    const std::uint64_t key = pids_[pid];
    return fair_marks_[node_of(key)] | (neg_.marks[aut_of(key)] << shift_);
  }

  void push(std::uint32_t pid) {
    const std::size_t n = node_of(pids_[pid]);
    auto succ = neg_.step(aut_of(pids_[pid]), labels_[n]);
    const omega::State* end = sg_.edges[n].empty() ? succ.data() : succ.data() + succ.size();
    frames_.push_back({pid, static_cast<std::uint32_t>(n), succ.data(), end, 0});
    roots_.push_back({pid, marks_of(pid), false});
    live_.push_back(pid);
  }

  /// Calls f(t) for every already-interned successor t of pid.
  template <class F>
  void for_each_interned_succ(std::uint32_t pid, F&& f) const {
    const std::uint64_t key = pids_[pid];
    const std::size_t n = node_of(key);
    for (omega::State q2 : neg_.step(aut_of(key), labels_[n]))
      for (auto [target, t] : sg_.edges[n]) {
        (void)t;
        const std::size_t idx = pids_.find(pack(target, q2));
        if (idx != pids_.npos) f(static_cast<std::uint32_t>(idx));
      }
  }

  /// Position in live_ of the first state of the partial SCC rooted at root.
  std::size_t live_begin(std::uint32_t root) const {
    return static_cast<std::size_t>(std::lower_bound(live_.begin(), live_.end(), root) -
                                    live_.begin());
  }

  /// The top root's frame finished: pop its SCC off the live stack. Under
  /// Fin-containing acceptance the SCC's sub-graph is searched for a good
  /// loop first.
  std::optional<PidLasso> close_scc() {
    const Root root = roots_.back();
    roots_.pop_back();
    const std::size_t begin = live_begin(root.pid);
    if (!req_ && root.cyclic && !acc_.restrict_to(root.marks).is_false()) {
      const std::span<const std::uint32_t> scc(live_.data() + begin, live_.size() - begin);
      if (auto lasso = scc_good_loop_lasso(root.pid, scc)) return lasso;
    }
    for (std::size_t i = begin; i < live_.size(); ++i) dead_[live_[i]] = 1;
    live_.resize(begin);
    return std::nullopt;
  }

  /// Region-local indices (local_[pid]) for a set of pids; reset by
  /// clear_local.
  void index_local(std::span<const std::uint32_t> region) {
    if (local_.size() < pids_.size()) local_.resize(pids_.size(), kNone);
    for (std::uint32_t j = 0; j < region.size(); ++j) local_[region[j]] = j;
  }
  void clear_local(std::span<const std::uint32_t> region) {
    for (std::uint32_t pid : region) local_[pid] = kNone;
  }

  std::optional<PidLasso> scc_good_loop_lasso(std::uint32_t root,
                                              std::span<const std::uint32_t> scc) {
    index_local(scc);
    omega::MarkedGraph sub;
    sub.succ.resize(scc.size());
    sub.marks.resize(scc.size());
    for (std::uint32_t j = 0; j < scc.size(); ++j) {
      sub.marks[j] = marks_of(scc[j]);
      for_each_interned_succ(scc[j], [&](std::uint32_t t) {
        if (local_[t] != kNone) sub.succ[j].push_back(local_[t]);
      });
      std::sort(sub.succ[j].begin(), sub.succ[j].end());
      sub.succ[j].erase(std::unique(sub.succ[j].begin(), sub.succ[j].end()), sub.succ[j].end());
    }
    const auto loop = omega::find_good_loop(sub, acc_);
    std::optional<PidLasso> lasso;
    if (loop) {
      std::vector<char> in_loop(scc.size(), 0);
      MarkSet cover = 0;
      for (omega::State j : *loop) {
        in_loop[j] = 1;
        cover |= sub.marks[j];
      }
      // The loop visits a state for every mark of the good loop set and
      // stays inside it, so it sees exactly the marks find_good_loop
      // accepted.
      lasso = lasso_through(root, scc, in_loop, cover);
    }
    clear_local(scc);
    return lasso;
  }

  /// Early exit: the partial SCC rooted at `root` carries every required
  /// Inf mark.
  PidLasso partial_scc_lasso(std::uint32_t root) {
    const std::size_t begin = live_begin(root);
    const std::span<const std::uint32_t> region(live_.data() + begin, live_.size() - begin);
    index_local(region);
    PidLasso lasso = lasso_through(root, region, std::vector<char>(region.size(), 1), *req_);
    clear_local(region);
    return lasso;
  }

  /// Counterexample tail shared by both exits. `region` is a strongly
  /// connected set of live states containing `root` (indexed in local_),
  /// `in_loop` a strongly connected subset of it (by region-local index).
  /// Prefix: the DFS path to root, then a path inside the region to the
  /// loop set. Loop: a cycle inside the loop set through a state carrying
  /// each mark of `cover`.
  PidLasso lasso_through(std::uint32_t root, std::span<const std::uint32_t> region,
                         const std::vector<char>& in_loop, MarkSet cover) {
    auto in_region = [&](std::uint32_t t) { return local_[t] != kNone; };
    auto looped = [&](std::uint32_t t) { return in_region(t) && in_loop[local_[t]]; };
    // Shortest path from `from` (inclusive) to a state satisfying `goal`
    // (inclusive), through states satisfying `within`; with `step` at least
    // one edge long.
    auto path = [&](std::uint32_t from, auto&& goal, auto&& within, bool step) {
      if (!step && goal(from)) return std::vector<std::uint32_t>{from};
      std::vector<std::uint32_t> parent(region.size(), kNone);
      if (!step) parent[local_[from]] = from;
      std::deque<std::uint32_t> queue{from};
      while (!queue.empty()) {
        const std::uint32_t u = queue.front();
        queue.pop_front();
        std::optional<std::uint32_t> hit;
        for_each_interned_succ(u, [&](std::uint32_t t) {
          if (hit || !within(t) || parent[local_[t]] != kNone) return;
          parent[local_[t]] = u;
          if (goal(t)) hit = t;
          queue.push_back(t);
        });
        if (!hit) continue;
        std::vector<std::uint32_t> rev{*hit};
        for (std::uint32_t c = parent[local_[*hit]]; c != from; c = parent[local_[c]])
          rev.push_back(c);
        rev.push_back(from);
        return std::vector<std::uint32_t>(rev.rbegin(), rev.rend());
      }
      MPH_ASSERT(false);  // region and loop set are strongly connected
    };

    PidLasso lasso;
    const auto root_frame = std::lower_bound(
        frames_.begin(), frames_.end(), root,
        [](const Frame& f, std::uint32_t pid) { return f.pid < pid; });
    MPH_ASSERT(root_frame != frames_.end() && root_frame->pid == root);
    for (auto it = frames_.begin(); it != root_frame; ++it) lasso.prefix.push_back(it->pid);
    const auto entry = path(root, looped, in_region, false);
    lasso.prefix.insert(lasso.prefix.end(), entry.begin(), entry.end() - 1);

    const std::uint32_t anchor = entry.back();
    std::uint32_t cur = anchor;
    MarkSet missing = cover & ~marks_of(anchor);
    lasso.loop.push_back(anchor);
    while (missing) {
      const auto leg = path(
          cur, [&](std::uint32_t t) { return looped(t) && (marks_of(t) & missing); }, looped,
          false);
      for (auto it = leg.begin() + 1; it != leg.end(); ++it) {
        lasso.loop.push_back(*it);
        missing &= ~marks_of(*it);
      }
      cur = leg.back();
    }
    const auto back = path(cur, [&](std::uint32_t t) { return t == anchor; }, looped, true);
    lasso.loop.insert(lasso.loop.end(), back.begin() + 1, back.end() - 1);
    return lasso;
  }

  const StateGraph& sg_;
  const std::vector<lang::Symbol>& labels_;
  const std::vector<MarkSet>& fair_marks_;
  const Mark shift_;
  const NegSpecView& neg_;
  const Acceptance& acc_;
  const std::optional<MarkSet> req_;  // required Inf marks; nullopt under Fin
  const Budget& budget_;
  std::uint64_t steps_ = 0;
  FlatInterner<std::uint64_t, IntHash> pids_;
  std::vector<std::uint8_t> dead_;    // per pid: its SCC has closed
  std::vector<Frame> frames_;         // DFS stack
  std::vector<Root> roots_;           // Couvreur's root stack
  std::vector<std::uint32_t> live_;   // Tarjan stack of states in open SCCs
  std::vector<std::uint32_t> local_;  // per pid: index in the region being searched
};

/// Label cache shared by every spec over the same atom vocabulary.
struct LabelCache {
  lang::Alphabet alphabet;
  std::vector<lang::Symbol> labels;
  double seconds = 0.0;
};

/// Checks one compiled spec against an explored state graph. The caller
/// provides the shared phases (exploration, fairness frame, labels); this
/// runs compilation and the emptiness search and fills the per-spec stats.
/// `diagnostics` overrides options.diagnostics (the batch hands each worker
/// a private engine).
CheckResult check_one(const StateGraph& sg, const FairnessFrame& fair,
                      const std::vector<MarkSet>& fair_marks, const LabelCache& cache,
                      const ltl::Formula& spec, const Budget& budget,
                      const CheckOptions& options, analysis::DiagnosticEngine* diagnostics) {
  const std::string subject = "check '" + spec.to_string() + "'";
  CheckResult result;
  result.stats.state_graph_nodes = sg.nodes.size();
  MPH_ASSERT(sg.nodes.size() < (std::uint64_t{1} << 32));  // product keys pack into 64 bits

  // Budget exhaustion ends the check with an *unknown* verdict: record the
  // outcome, report MPH-V004, and leave holds == false with no witness.
  auto give_up = [&](Outcome o, const std::string& phase) {
    result.outcome = result.stats.outcome = o;
    result.holds = false;
    result.counterexample.reset();
    if (diagnostics) {
      auto& d = diagnostics->emit(
          "MPH-V004", subject,
          "budget exhausted (" + std::string(to_string(o)) + ") during " + phase +
              " after " + std::to_string(result.stats.product_states) +
              " product state(s); verdict unknown");
      d.fix_hint = "raise CheckOptions::budget (state cap / deadline) or simplify "
                   "the model or specification";
    }
  };

  const bool dispatch = options.class_dispatch && !options.force_scc;
  core::Classification syn =
      dispatch ? ltl::syntactic_classification(spec) : core::Classification{};
  result.stats.class_source = dispatch ? ClassSource::Syntactic : ClassSource::None;

  // ΔΓ-normalization rescue (lazy, memoized, budget-capped): a completed
  // hierarchy normal form is an equivalent formula that (a) the syntactic
  // rules classify sharply and (b) always compiles deterministically. It is
  // consulted when the spec as written shows neither shortcut class, and
  // again whenever a compile below falls out of the old rewrite fragment.
  bool norm_tried = false;
  std::optional<ltl::Formula> normal;
  auto get_normal = [&]() -> const std::optional<ltl::Formula>& {
    if (!norm_tried && options.class_dispatch && options.normalize_steps > 0) {
      norm_tried = true;
      ltl::NormalizeOptions nopt;
      nopt.budget = Budget().with_state_cap(options.normalize_steps);
      ltl::NormalizeResult nr = ltl::normalize(spec, nopt);
      result.stats.normalize_steps = nr.steps;
      if (nr.complete()) normal = nr.form;
    }
    return normal;
  };

  ltl::Formula routed = spec;
  if (dispatch && !syn.safety && !syn.guarantee && get_normal()) {
    core::Classification exact = ltl::syntactic_classification(*normal);
    if (exact.safety || exact.guarantee) {
      syn = exact;
      routed = *normal;
      result.stats.class_source = ClassSource::Normalized;
    }
  }

  // Class shortcut 1 — syntactically-safety spec: det(spec) recognizes a
  // closed language, so a run is accepting iff it never enters a
  // residual-empty ("dead") state, and a computation violates the spec iff
  // some finite prefix already drives the automaton dead. Fairness drops out
  // entirely: transition fairness is machine-closed (every finite run of a
  // finite FTS extends to a fair computation — schedule enabled fair
  // transitions round-robin; stutter self-loops exist only where nothing is
  // enabled), so a bad prefix is reachable on a fair computation iff it is
  // reachable at all. Plain BFS over node × automaton pairs decides it.
  if (dispatch && syn.safety) {
    auto t_compile = Clock::now();
    std::shared_ptr<omega::DetOmega> m;
    try {
      m = std::make_shared<omega::DetOmega>(ltl::compile(routed, cache.alphabet));
    } catch (const std::invalid_argument&) {
      // Outside the old rewrite fragment: compile the normal form instead.
      if (get_normal() && !(routed == *normal)) try {
        m = std::make_shared<omega::DetOmega>(ltl::compile(*normal, cache.alphabet));
        result.stats.class_source = ClassSource::Normalized;
      } catch (const std::invalid_argument&) {
      }
      // Otherwise fall through to the ω-engines.
    }
    if (m) {
      result.stats.compile_seconds = elapsed(t_compile);
      result.stats.automaton_states = m->state_count();
      result.stats.product_bound = sg.nodes.size() * m->state_count();
      result.stats.engine = CheckEngine::SafetyPrefix;
      auto t_search = Clock::now();
      const std::vector<bool> live = omega::live_states(*m);
      // Node path root..bad of a run driving det(spec) dead; shared by the
      // sequential BFS and the multicore scan so the verdict tail is one.
      std::optional<std::vector<std::size_t>> bad_path;
      if (options.explore_threads > 1) {
        result.stats.threads_used = options.explore_threads;
        detail::ParallelScanResult scan = detail::parallel_safety_scan(
            sg, cache.labels, *m, live, budget, options.explore_threads);
        result.stats.worker_states = std::move(scan.worker_states);
        result.stats.worker_steals = std::move(scan.worker_steals);
        result.product_states = result.stats.product_states = scan.product_states;
        result.stats.search_seconds = elapsed(t_search);
        if (!is_complete(scan.outcome)) {
          give_up(scan.outcome, "the closed-prefix reachability scan");
          return result;
        }
        bad_path = std::move(scan.bad_path);
      } else {
        FlatInterner<std::uint64_t, IntHash> pids;
        std::vector<std::int64_t> parent;  // per pid: BFS predecessor, -1 at the root
        std::deque<std::uint32_t> queue;
        auto intern = [&](std::size_t n, omega::State q, std::int64_t par) {
          auto [idx, inserted] = pids.intern(pack(n, q));
          if (inserted) {
            budget.require(pids.size() - 1);
            parent.push_back(par);
            queue.push_back(static_cast<std::uint32_t>(idx));
          }
        };
        std::optional<std::uint32_t> bad;
        try {
          intern(0, m->initial(), -1);
          while (!queue.empty()) {
            const std::uint32_t p = queue.front();
            queue.pop_front();
            const std::uint64_t key = pids[p];
            const std::size_t n = node_of(key);
            const omega::State q = aut_of(key);
            if (!live[q]) {
              bad = p;  // dead states are closed under successors; stop here
              break;
            }
            const omega::State q2 = m->next(q, cache.labels[n]);
            for (auto [target, t] : sg.edges[n]) {
              (void)t;
              intern(target, q2, static_cast<std::int64_t>(p));
            }
          }
        } catch (const BudgetExhausted& e) {
          result.product_states = result.stats.product_states = pids.size();
          result.stats.search_seconds = elapsed(t_search);
          give_up(e.outcome(), "the closed-prefix reachability scan");
          return result;
        }
        result.product_states = result.stats.product_states = pids.size();
        result.stats.search_seconds = elapsed(t_search);
        if (bad) {
          std::vector<std::size_t> path_nodes;
          for (std::int64_t p = static_cast<std::int64_t>(*bad); p >= 0; p = parent[p])
            path_nodes.push_back(node_of(pids[static_cast<std::size_t>(p)]));
          std::reverse(path_nodes.begin(), path_nodes.end());
          bad_path = std::move(path_nodes);
        }
      }
      if (diagnostics)
        diagnostics->emit(
            "MPH-V002", subject,
            "product of " + std::to_string(sg.nodes.size()) + " system states × " +
                std::to_string(m->state_count()) + "-state det(spec) automaton scanned " +
                std::to_string(result.stats.product_states) + " of at most " +
                std::to_string(result.stats.product_bound) +
                " states (closed-prefix reachability; no ω-product)");
      if (!bad_path) {
        result.holds = true;
        return result;
      }
      result.holds = false;
      // Witness: the bad prefix, extended by an arbitrary cycle into a full
      // computation (every node has a successor; deadlocks stutter). Any
      // extension of a bad prefix violates a closed property, and by machine
      // closure some *fair* computation shares this prefix.
      const std::vector<std::size_t>& path_nodes = *bad_path;
      Counterexample cex;
      for (std::size_t n : path_nodes) cex.prefix.push_back(sg.nodes[n].valuation);
      std::vector<std::int64_t> seen_at(sg.nodes.size(), -1);
      std::vector<std::size_t> walk{path_nodes.back()};
      seen_at[walk[0]] = 0;
      for (;;) {
        const std::size_t next = sg.edges[walk.back()].front().first;
        if (seen_at[next] >= 0) {
          // Computation: prefix ++ walk[1..] ++ (walk[j..])^ω where j is
          // where the walk re-entered itself.
          for (std::size_t i = 1; i < walk.size(); ++i)
            cex.prefix.push_back(sg.nodes[walk[i]].valuation);
          for (std::size_t i = static_cast<std::size_t>(seen_at[next]); i < walk.size(); ++i)
            cex.loop.push_back(sg.nodes[walk[i]].valuation);
          break;
        }
        seen_at[next] = static_cast<std::int64_t>(walk.size());
        walk.push_back(next);
      }
      result.counterexample = std::move(cex);
      if (diagnostics) {
        auto& d = diagnostics->emit("MPH-V003", subject,
                                    "a computation violates the specification");
        d.witness = "bad prefix of " + std::to_string(result.counterexample->prefix.size()) +
                    " state(s) (closed-prefix scan)";
      }
      return result;
    }
  }

  // Compile ¬spec: for a syntactically-guarantee spec under class dispatch,
  // det(¬spec) recognizes a *closed* language (shortcut 2): restrict it to
  // its live states and acceptance becomes ⊤ — the search degrades to a
  // fairness-only lasso hunt instead of inheriting the Fin-shaped acceptance
  // of the full ¬spec. Otherwise: deterministic route first, NBA tableau as
  // fallback.
  auto t_compile = Clock::now();
  NegSpecView neg;
  bool dual = false;
  if (dispatch && !syn.safety && syn.guarantee) {
    std::optional<omega::DetOmega> m;
    try {
      m = ltl::compile(f_not(routed), cache.alphabet);
    } catch (const std::invalid_argument&) {
      // Outside the old rewrite fragment: negate the normal form instead
      // (the negation of a hierarchy form is still a hierarchy form).
      if (get_normal() && !(routed == *normal)) try {
        m = ltl::compile(f_not(*normal), cache.alphabet);
        result.stats.class_source = ClassSource::Normalized;
      } catch (const std::invalid_argument&) {
      }
    }
    if (m) {
      const std::vector<bool> live = omega::live_states(*m);
      neg = deterministic_view(*m, &live);
      dual = true;
    }
  }
  if (!dual) try {
    neg = deterministic_view(ltl::compile(f_not(spec), cache.alphabet));
  } catch (const std::invalid_argument&) {
    // Second chance: the ΔΓ-normal form (when one was obtained) is an
    // equivalent formula inside the deterministic fragment — negating a
    // hierarchy form stays a hierarchy form, so this compile succeeds and
    // the check keeps a deterministic (and usually smaller) product.
    bool rescued = false;
    if (get_normal()) {
      try {
        neg = deterministic_view(ltl::compile(f_not(*normal), cache.alphabet));
        rescued = true;
        result.stats.class_source = ClassSource::Normalized;
      } catch (const std::invalid_argument&) {
      }
    }
    if (!rescued) {
    result.stats.nba_fallback = true;
    auto nba = ltl::to_nba(f_not(spec), cache.alphabet, budget);
    if (!nba.complete()) {
      result.stats.compile_seconds = elapsed(t_compile);
      give_up(nba.outcome, "the ¬spec NBA tableau construction");
      return result;
    }
    neg = nba_view(*nba.value, cache.alphabet.size());
    if (diagnostics)
      diagnostics
          ->emit("MPH-V001", subject,
                 "¬spec is outside the deterministic hierarchy fragment; using the "
                 "NBA tableau (product acceptance stays Büchi-shaped)")
          .fix_hint = "rewriting the specification into hierarchy form gives a "
                      "deterministic, usually smaller product";
    }
  }
  result.stats.compile_seconds = elapsed(t_compile);
  result.stats.automaton_states = neg.state_count();
  result.stats.product_bound = sg.nodes.size() * neg.state_count();

  Acceptance acc =
      Acceptance::conj(Acceptance(fair.acceptance), neg.acceptance.shift(fair.mark_count));
  MPH_REQUIRE((acc.mentioned_marks() >> 63) == 0, "too many fairness marks");

  // One on-the-fly SCC search decides every ω-product, whatever the
  // acceptance shape and explore_threads (the search itself is sequential).
  result.stats.engine = dual ? CheckEngine::GuaranteeDual : CheckEngine::Scc;
  auto emit_product_note = [&] {
    if (!diagnostics) return;
    diagnostics->emit(
        "MPH-V002", subject,
        "product of " + std::to_string(sg.nodes.size()) + " system states × " +
            std::to_string(neg.state_count()) + "-state ¬spec automaton built " +
            std::to_string(result.stats.product_states) + " of at most " +
            std::to_string(result.stats.product_bound) + " states (on-the-fly SCC search" +
            (dual ? "; guarantee dual, fairness-only acceptance" : "") + ")");
  };

  auto t_search = Clock::now();
  ProductSearch search(sg, cache.labels, fair_marks, fair.mark_count, neg, acc, budget);
  std::optional<PidLasso> lasso;
  try {
    lasso = search.run();
  } catch (const BudgetExhausted& e) {
    result.product_states = result.stats.product_states = search.product_states();
    result.stats.search_seconds = elapsed(t_search);
    emit_product_note();
    give_up(e.outcome(), "the on-the-fly SCC product search");
    return result;
  }
  result.product_states = result.stats.product_states = search.product_states();
  result.stats.search_seconds = elapsed(t_search);
  emit_product_note();
  if (!lasso) {
    result.holds = true;
    return result;
  }
  result.holds = false;
  if (diagnostics) {
    auto& d = diagnostics->emit("MPH-V003", subject,
                                "a fair computation violates the specification");
    d.witness =
        "fair lasso through " + std::to_string(lasso->loop.size()) + " product state(s)";
  }
  auto valuation_of = [&](std::uint32_t p) -> const Valuation& {
    return sg.nodes[search.node_of_pid(p)].valuation;
  };
  Counterexample cex;
  for (std::uint32_t p : lasso->prefix) cex.prefix.push_back(valuation_of(p));
  for (std::uint32_t p : lasso->loop) cex.loop.push_back(valuation_of(p));
  result.counterexample = std::move(cex);
  return result;
}

std::vector<std::string> validated_atoms(const ltl::Formula& spec, const AtomMap& atoms) {
  auto atom_names = spec.atoms();
  MPH_REQUIRE(!atom_names.empty(), "specification must mention at least one atom");
  for (const auto& name : atom_names)
    MPH_REQUIRE(atoms.contains(name), "specification atom not defined: " + name);
  return atom_names;
}

}  // namespace

CheckResult check(const Fts& system, const ltl::Formula& spec, const AtomMap& atoms,
                  std::size_t max_states, analysis::DiagnosticEngine* diagnostics) {
  CheckOptions options;
  options.max_states = max_states;
  options.diagnostics = diagnostics;
  return check(system, spec, atoms, options);
}

CheckResult check(const Fts& system, const ltl::Formula& spec, const AtomMap& atoms,
                  const CheckOptions& options) {
  return std::move(check_all(system, {spec}, atoms, options).front());
}

std::vector<CheckResult> check_all(const Fts& system, const std::vector<ltl::Formula>& specs,
                                   const AtomMap& atoms, const CheckOptions& options) {
  std::vector<CheckResult> results(specs.size());
  if (specs.empty()) return results;

  // Exploration-free proofs first: any spec the static prover certifies is
  // done — stamped StaticProof/Complete with zero states — before a single
  // node is expanded. force_scc pins the general ω-product route, so the
  // hook is skipped there (the fuzz oracles rely on force_scc meaning exactly
  // that).
  std::vector<char> resolved(specs.size(), 0);
  std::size_t n_resolved = 0;
  if (options.static_prover && !options.force_scc) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      validated_atoms(specs[i], atoms);  // same vocabulary contract as the engines
      auto proved = options.static_prover(specs[i]);
      if (!proved) continue;
      CheckResult r = std::move(*proved);
      MPH_REQUIRE(r.holds, "static_prover must only certify specs that hold");
      r.outcome = r.stats.outcome = Outcome::Complete;
      r.stats.engine = CheckEngine::StaticProof;
      r.stats.state_graph_nodes = 0;
      r.product_states = r.stats.product_states = r.stats.product_bound = 0;
      r.counterexample.reset();
      results[i] = std::move(r);
      resolved[i] = 1;
      ++n_resolved;
      if (options.diagnostics)
        options.diagnostics->emit("MPH-V005", specs[i].to_string(),
                                  "proved from the interval invariant; 0 states explored");
    }
    if (n_resolved == specs.size()) return results;
  }

  // Effective budget: options.budget, with the deprecated max_states alias
  // seeding the state cap when the budget itself carries none.
  Budget budget = options.budget;
  if (!budget.has_state_cap()) budget.with_state_cap(options.max_states);

  // Shared phases: one exploration, one fairness frame, one label cache per
  // distinct atom vocabulary.
  auto t_explore = Clock::now();
  ExploreResult ex = explore(system, budget, options.explore_threads);
  const double explore_seconds = elapsed(t_explore);
  if (!is_complete(ex.outcome)) {
    // The shared exploration ran out of budget: every spec in the batch not
    // already proved statically gets the same unknown verdict, before any
    // worker thread starts — so the result (and the single MPH-V004) is
    // identical for threads == 1 and N.
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (resolved[i]) continue;
      auto& r = results[i];
      r.outcome = r.stats.outcome = ex.outcome;
      r.stats.state_graph_nodes = ex.graph.nodes.size();
      r.stats.explore_seconds = explore_seconds;
    }
    if (options.diagnostics) {
      auto& d = options.diagnostics->emit(
          "MPH-V004", "state-graph exploration",
          "budget exhausted (" + std::string(to_string(ex.outcome)) + ") after " +
              std::to_string(ex.graph.nodes.size()) +
              " system state(s); every spec in the batch is unverified");
      d.fix_hint = "raise CheckOptions::budget (state cap / deadline) or shrink "
                   "variable domains";
    }
    return results;
  }
  const StateGraph& sg = ex.graph;
  FairnessFrame fair = fairness_frame(system);
  std::vector<MarkSet> fair_marks = fair_node_marks(sg, fair);

  std::map<std::vector<std::string>, LabelCache> caches;
  std::vector<const LabelCache*> cache_of(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (resolved[i]) continue;
    auto atom_names = validated_atoms(specs[i], atoms);
    auto it = caches.find(atom_names);
    if (it == caches.end()) {
      auto t_label = Clock::now();
      LabelCache cache{lang::Alphabet::of_props(atom_names),
                       label_nodes(system, sg, atoms, atom_names), 0.0};
      cache.seconds = elapsed(t_label);
      it = caches.emplace(std::move(atom_names), std::move(cache)).first;
    }
    cache_of[i] = &it->second;
  }

  auto run_one = [&](std::size_t i, analysis::DiagnosticEngine* engine) {
    CheckResult r = check_one(sg, fair, fair_marks, *cache_of[i], specs[i],
                              budget, options, engine);
    r.stats.explore_seconds = explore_seconds;
    r.stats.label_seconds = cache_of[i]->seconds;
    results[i] = std::move(r);
  };

  std::size_t threads = std::max<unsigned>(options.threads, 1);
  threads = std::min(threads, specs.size());
  if (threads <= 1) {
    for (std::size_t i = 0; i < specs.size(); ++i)
      if (!resolved[i]) run_one(i, options.diagnostics);
    return results;
  }

  // Worker pool over independent specs. Each spec reports into its own
  // engine; merging in spec order afterwards keeps diagnostics deterministic.
  std::vector<analysis::DiagnosticEngine> engines(specs.size());
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  {
    std::vector<std::jthread> pool;
    pool.reserve(threads);
    for (std::size_t w = 0; w < threads; ++w)
      pool.emplace_back([&] {
        for (;;) {
          const std::size_t i = next.fetch_add(1);
          if (i >= specs.size()) return;
          if (resolved[i]) continue;
          try {
            run_one(i, &engines[i]);
          } catch (...) {
            std::lock_guard<std::mutex> lock(error_mutex);
            if (!first_error) first_error = std::current_exception();
          }
        }
      });
  }
  if (first_error) std::rethrow_exception(first_error);
  if (options.diagnostics)
    for (const auto& engine : engines) options.diagnostics->merge(engine);
  return results;
}

}  // namespace mph::fts
