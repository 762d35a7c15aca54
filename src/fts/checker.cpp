#include "src/fts/checker.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <sstream>
#include <thread>

#include "src/ltl/hierarchy.hpp"
#include "src/ltl/normalize.hpp"
#include "src/ltl/syntactic.hpp"
#include "src/ltl/to_nba.hpp"
#include "src/omega/det_omega.hpp"
#include "src/omega/emptiness.hpp"
#include "src/omega/graph.hpp"
#include "src/omega/nba.hpp"
#include "src/support/check.hpp"

namespace mph::fts {

using omega::Acceptance;
using omega::Mark;
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

/// Dense ids for (state-graph node, automaton state) pairs, in the order
/// they are interned, without hashing. Each node owns 2^shift slots, and
/// the pair (n, q) lives in slot (n, q mod 2^shift): head holds the newest
/// pid of each slot, and each pid links to the previous pid of its slot.
/// The shift starts at 0, one chain per node. Whenever the pids outnumber
/// kLoad × the slots in use, and the slots are still fewer than the pids,
/// it grows by one and every pid is relinked, so chains stay short even
/// where a large tableau automaton meets hundreds of its states at a few
/// nodes. Memory is 12 B per pid plus 4 B per slot, and there are at most
/// max(nodes, 2 × pids) slots: there is no node × automaton-state table,
/// which the tableau fallback (up to the state cap) would make unbounded.
class ProductIds {
 public:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  explicit ProductIds(std::size_t nodes) : head_(nodes, kNone) {}

  std::uint32_t find(std::size_t n, omega::State q) const {
    std::uint32_t p = head_[slot(n, q)];
    while (p != kNone && (pids_[p].node != n || pids_[p].aut != q)) p = pids_[p].next;
    return p;
  }
  /// (pid of (n, q), whether it was newly added).
  std::pair<std::uint32_t, bool> intern(std::size_t n, omega::State q) {
    if (const std::uint32_t p = find(n, q); p != kNone) return {p, false};
    const auto p = static_cast<std::uint32_t>(pids_.size());
    pids_.push_back({kNone, static_cast<std::uint32_t>(n), q});
    link(p);
    if (pids_.size() > kLoad * used_ && head_.size() < pids_.size()) grow();
    return {p, true};
  }

  std::size_t size() const { return pids_.size(); }
  std::size_t node(std::uint32_t p) const { return pids_[p].node; }
  omega::State aut(std::uint32_t p) const { return pids_[p].aut; }

 private:
  static constexpr std::size_t kLoad = 2;  // mean pids per used slot before growing

  struct Pid {
    std::uint32_t next;  // the previous pid of the same slot, or kNone
    std::uint32_t node;
    omega::State aut;
  };

  std::size_t slot(std::size_t n, omega::State q) const {
    return (n << shift_) | (q & ((std::size_t{1} << shift_) - 1));
  }
  void link(std::uint32_t p) {
    std::uint32_t& head = head_[slot(pids_[p].node, pids_[p].aut)];
    used_ += head == kNone;
    pids_[p].next = head;
    head = p;
  }
  /// Doubles the slots per node and relinks every pid, oldest first.
  void grow() {
    const std::size_t nodes = head_.size() >> shift_;
    ++shift_;
    head_.assign(nodes << shift_, kNone);
    used_ = 0;
    for (std::uint32_t p = 0; p < pids_.size(); ++p) link(p);
  }

  unsigned shift_ = 0;
  std::size_t used_ = 0;  // slots holding some pid
  std::vector<std::uint32_t> head_;  // per slot
  std::vector<Pid> pids_;
};

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
  std::vector<MarkSet> out(sg.size(), 0);
  for (std::size_t n = 0; n < sg.size(); ++n) {
    MarkSet marks = 0;
    for (std::size_t i = 0; i < fair.weak.size(); ++i) {
      bool ok = !sg.enabled(n, fair.weak[i]) ||
                sg.last_taken(n) == static_cast<int>(fair.weak[i]);
      if (ok) marks |= omega::mark_bit(static_cast<Mark>(i));
    }
    for (std::size_t i = 0; i < fair.strong.size(); ++i) {
      if (sg.last_taken(n) == static_cast<int>(fair.strong[i]))
        marks |= omega::mark_bit(static_cast<Mark>(fair.weak.size() + 2 * i));
      if (sg.enabled(n, fair.strong[i]))
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
  std::vector<lang::Symbol> labels(sg.size(), 0);
  Valuation v;
  for (std::size_t n = 0; n < sg.size(); ++n) {
    sg.valuation_into(n, v);
    for (std::size_t i = 0; i < fns.size(); ++i)
      if ((*fns[i])(system, v, sg.last_taken(n))) labels[n] |= lang::Symbol{1} << i;
  }
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
        budget_(budget),
        pids_(sg.size()) {}

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
          const auto edges = sg_.edges(f.node);
          const std::size_t target = edges[f.edge].target;
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

  std::size_t node_of_pid(std::uint32_t pid) const { return pids_.node(pid); }

 private:
  static constexpr std::uint32_t kNone = ProductIds::kNone;

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
    auto [pid, inserted] = pids_.intern(n, q);
    if (inserted) {
      // The pair already has its id, but on exhaustion the whole search
      // unwinds immediately, so the extra pid is never observed.
      budget_.require(pids_.size() - 1);
      dead_.push_back(0);
    }
    return {pid, inserted};
  }

  /// Deadline/cancellation poll amortized over the DFS steps (the state cap
  /// is enforced exactly at every intern; the clock is read every 4096
  /// steps).
  void poll_budget() {
    if ((++steps_ & 0xFFFu) != 0) return;
    if (Outcome o = budget_.poll(); !is_complete(o)) throw BudgetExhausted(o);
  }

  MarkSet marks_of(std::uint32_t pid) const {
    return fair_marks_[pids_.node(pid)] | (neg_.marks[pids_.aut(pid)] << shift_);
  }

  std::span<const omega::State> aut_succ(std::uint32_t pid) const {
    return neg_.step(pids_.aut(pid), labels_[pids_.node(pid)]);
  }

  void push(std::uint32_t pid) {
    const std::size_t n = pids_.node(pid);
    auto succ = aut_succ(pid);
    const omega::State* end = sg_.edges(n).empty() ? succ.data() : succ.data() + succ.size();
    frames_.push_back({pid, static_cast<std::uint32_t>(n), succ.data(), end, 0});
    roots_.push_back({pid, marks_of(pid), false});
    live_.push_back(pid);
  }

  /// Calls f(t) for every already-interned successor t of pid.
  template <class F>
  void for_each_interned_succ(std::uint32_t pid, F&& f) const {
    const auto edges = sg_.edges(pids_.node(pid));
    for (omega::State q2 : aut_succ(pid))
      for (const StateGraph::Edge& e : edges)
        if (const std::uint32_t t = pids_.find(e.target, q2); t != kNone) f(t);
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
      auto& succ = sub.succ[j];
      succ.reserve(sg_.edges(pids_.node(scc[j])).size() * aut_succ(scc[j]).size());
      for_each_interned_succ(scc[j], [&](std::uint32_t t) {
        if (local_[t] != kNone) succ.push_back(local_[t]);
      });
      std::sort(succ.begin(), succ.end());
      succ.erase(std::unique(succ.begin(), succ.end()), succ.end());
    }
    // The Tarjan search just proved the region one reachable, cyclic SCC,
    // so the kernel starts at its Fin branching.
    const auto loop = omega::find_good_loop_in_scc(sub, acc_);
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
  ProductIds pids_;
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
  std::size_t call = 0;  ///< the check() call on the context that labelled it
};

// ---------------------------------------------------------------------------
// route → search → verdict: how one spec is checked against an explored
// state graph (docs/CHECKER.md, "Routing").

/// How a spec is decided: the engine, the automaton it runs on, and where
/// the class that picked them came from.
struct Route {
  CheckEngine engine = CheckEngine::Scc;
  /// SafetyPrefix: det(spec) and its live (residual-nonempty) states.
  std::optional<omega::DetOmega> det_spec;
  std::vector<bool> live;
  /// GuaranteeDual and Scc: the ¬spec automaton (the dual prunes its dead
  /// states).
  NegSpecView neg;
  ClassSource class_source = ClassSource::None;
  bool nba_fallback = false;
  std::size_t normalize_steps = 0;
  /// How the ¬spec NBA tableau construction ended; when it ran out of
  /// budget the route has no automaton and nothing is searched.
  Outcome tableau = Outcome::Complete;

  std::size_t automaton_states() const {
    return det_spec ? det_spec->state_count() : neg.state_count();
  }
};

/// Picks the engine for `spec` and compiles its automaton. Unless
/// `force_scc` pins the general route, a safety spec (as written, or after
/// normalization) goes to the closed-prefix scan on det(spec), a guarantee
/// spec to the safety dual of det(¬spec); everything else — and a shortcut
/// whose compile fails — goes to the SCC search on det(¬spec), with the NBA
/// tableau as the last resort.
Route route(const ltl::Formula& spec, const lang::Alphabet& alphabet, const Budget& budget,
            const CheckOptions& options) {
  Route r;
  const bool dispatch = !options.force_scc;
  // The ΔΓ-normal form (src/ltl/normalize.hpp): an equivalent formula that
  // the syntactic rules classify sharply and that always compiles
  // deterministically. Computed lazily, at most once, only under dispatch.
  bool normalized = !dispatch || options.normalize_steps == 0;
  std::optional<ltl::Formula> normal;
  auto normal_form = [&]() -> const std::optional<ltl::Formula>& {
    if (!normalized) {
      normalized = true;
      ltl::NormalizeOptions nopt;
      nopt.budget = Budget().with_state_cap(options.normalize_steps);
      ltl::NormalizeResult nr = ltl::normalize(spec, nopt);
      r.normalize_steps = nr.steps;
      if (nr.complete()) normal = nr.form;
    }
    return normal;
  };
  // det(f), else det of the same shape over the normal form (which marks the
  // class source Normalized). A candidate that failed once is not retried.
  std::vector<ltl::Formula> failed;
  auto try_compile = [&](const ltl::Formula& f) -> std::optional<omega::DetOmega> {
    if (std::find(failed.begin(), failed.end(), f) != failed.end()) return std::nullopt;
    std::optional<omega::DetOmega> m;
    try {
      m = ltl::compile_hierarchy_form(ltl::to_hierarchy_form(f), alphabet);
    } catch (const std::invalid_argument&) {
      // A construction can still refuse (e.g. too many acceptance marks).
    }
    if (!m) failed.push_back(f);
    return m;
  };
  auto compile_det = [&](const ltl::Formula& f, bool negated) {
    auto m = try_compile(f);
    if (m || !normal_form()) return m;
    if ((m = try_compile(negated ? f_not(*normal) : *normal)))
      r.class_source = ClassSource::Normalized;
    return m;
  };

  core::Classification cls;
  ltl::Formula routed = spec;
  if (dispatch) {
    r.class_source = ClassSource::Syntactic;
    cls = ltl::syntactic_classification(spec);
    if (!cls.safety && !cls.guarantee && normal_form()) {
      const core::Classification exact = ltl::syntactic_classification(*normal);
      if (exact.safety || exact.guarantee) {
        cls = exact;
        routed = *normal;
        r.class_source = ClassSource::Normalized;
      }
    }
  }

  // Shortcut 1 — safety: det(spec) recognizes a closed language, so a
  // computation violates the spec iff some finite prefix already drives the
  // automaton dead. Fairness drops out: transition fairness is
  // machine-closed (every finite run of a finite FTS extends to a fair
  // computation — schedule enabled fair transitions round-robin; stutter
  // self-loops exist only where nothing is enabled), so a bad prefix is
  // reachable on a fair computation iff it is reachable at all.
  if (cls.safety) {
    if (auto m = compile_det(routed, false)) {
      r.engine = CheckEngine::SafetyPrefix;
      r.live = omega::live_states(*m);
      r.det_spec = std::move(m);
      return r;
    }
  } else if (cls.guarantee) {
    // Shortcut 2 — guarantee: det(¬spec) recognizes a closed language;
    // restricted to its live states its acceptance becomes ⊤ and the search
    // a fairness-only lasso hunt, instead of inheriting the Fin-shaped
    // acceptance of the full ¬spec.
    if (auto m = compile_det(f_not(routed), true)) {
      r.engine = CheckEngine::GuaranteeDual;
      const std::vector<bool> live = omega::live_states(*m);
      r.neg = deterministic_view(*m, &live);
      return r;
    }
  }
  if (auto m = compile_det(f_not(spec), true)) {
    r.neg = deterministic_view(*m);
    return r;
  }
  r.nba_fallback = true;
  auto nba = ltl::to_nba(f_not(spec), alphabet, budget);
  r.tableau = nba.outcome;
  if (nba.complete()) r.neg = nba_view(*nba.value, alphabet.size());
  return r;
}

/// A violation as state-graph nodes: the prefix, then a loop whose last
/// node steps back to loop.front().
struct NodeLasso {
  std::vector<std::size_t> prefix, loop;
};

struct SearchResult {
  Outcome outcome = Outcome::Complete;
  std::size_t product_states = 0;
  std::optional<NodeLasso> violation;
};

/// A bad prefix extended into a full computation by the first-edge walk from
/// its last node until the walk re-enters itself (every node has a
/// successor; deadlocks stutter). Any extension of a bad prefix violates a
/// closed property, and by machine closure some *fair* computation shares
/// this prefix.
NodeLasso extend_bad_prefix(const StateGraph& sg, std::vector<std::size_t> prefix) {
  NodeLasso lasso{std::move(prefix), {}};
  std::vector<std::int64_t> seen_at(sg.size(), -1);
  std::vector<std::size_t> walk{lasso.prefix.back()};
  seen_at[walk[0]] = 0;
  for (;;) {
    const std::size_t next = sg.edges(walk.back()).front().target;
    if (seen_at[next] >= 0) {
      // Computation: prefix ++ walk[1..] ++ (walk[j..])^ω where j is where
      // the walk re-entered itself.
      lasso.prefix.insert(lasso.prefix.end(), walk.begin() + 1, walk.end());
      lasso.loop.assign(walk.begin() + seen_at[next], walk.end());
      return lasso;
    }
    seen_at[next] = static_cast<std::int64_t>(walk.size());
    walk.push_back(next);
  }
}

/// The closed-prefix scan: BFS over node × det(spec) pairs until a dead
/// automaton state is reached. The violation is the BFS path root..bad,
/// extended into a computation.
SearchResult safety_scan(const StateGraph& sg, const std::vector<lang::Symbol>& labels,
                         const omega::DetOmega& m, const std::vector<bool>& live,
                         const Budget& budget) {
  SearchResult res;
  ProductIds pids(sg.size());
  std::vector<std::int64_t> parent;  // per pid: BFS predecessor, -1 at the root
  auto intern = [&](std::size_t n, omega::State q, std::int64_t par) {
    if (pids.intern(n, q).second) {
      budget.require(pids.size() - 1);
      parent.push_back(par);
    }
  };
  std::optional<std::uint32_t> bad;
  try {
    intern(0, m.initial(), -1);
    // Pids are BFS order, so the queue is the pid range not yet expanded.
    for (std::uint32_t p = 0; p < pids.size(); ++p) {
      const std::size_t n = pids.node(p);
      const omega::State q = pids.aut(p);
      if (!live[q]) {
        bad = p;  // dead states are closed under successors; stop here
        break;
      }
      const omega::State q2 = m.next(q, labels[n]);
      for (const StateGraph::Edge& e : sg.edges(n))
        intern(e.target, q2, static_cast<std::int64_t>(p));
    }
  } catch (const BudgetExhausted& e) {
    res.outcome = e.outcome();
  }
  res.product_states = pids.size();
  if (bad) {
    std::vector<std::size_t> path;
    for (std::int64_t p = static_cast<std::int64_t>(*bad); p >= 0; p = parent[p])
      path.push_back(pids.node(static_cast<std::uint32_t>(p)));
    std::reverse(path.begin(), path.end());
    res.violation = extend_bad_prefix(sg, std::move(path));
  }
  return res;
}

/// Runs the route's engine over the state graph: the closed-prefix scan for
/// SafetyPrefix, the on-the-fly SCC search for the rest. Budget exhaustion
/// comes back as the outcome.
SearchResult search(const Route& route, const StateGraph& sg,
                    const std::vector<lang::Symbol>& labels, const FairnessFrame& fair,
                    const std::vector<MarkSet>& fair_marks, const Budget& budget) {
  SearchResult found;
  if (!is_complete(route.tableau)) {
    found.outcome = route.tableau;
    return found;
  }
  if (route.det_spec) return safety_scan(sg, labels, *route.det_spec, route.live, budget);

  // One on-the-fly SCC search decides every ω-product, whatever the
  // acceptance shape.
  const Acceptance acc =
      Acceptance::conj(Acceptance(fair.acceptance), route.neg.acceptance.shift(fair.mark_count));
  MPH_REQUIRE((acc.mentioned_marks() >> 63) == 0, "too many fairness marks");
  ProductSearch product(sg, labels, fair_marks, fair.mark_count, route.neg, acc, budget);
  try {
    if (auto lasso = product.run()) {
      NodeLasso nodes;
      for (std::uint32_t p : lasso->prefix) nodes.prefix.push_back(product.node_of_pid(p));
      for (std::uint32_t p : lasso->loop) nodes.loop.push_back(product.node_of_pid(p));
      found.violation = std::move(nodes);
    }
  } catch (const BudgetExhausted& e) {
    found.outcome = e.outcome();
  }
  found.product_states = product.product_states();
  return found;
}

/// The verdict tail shared by every engine: fills the result and its stats,
/// builds the counterexample, and reports MPH-V001..V004.
CheckResult verdict(const StateGraph& sg, const Route& route, SearchResult found,
                    const ltl::Formula& spec, analysis::DiagnosticEngine* diagnostics) {
  CheckResult result;
  CheckStats& s = result.stats;
  s.state_graph_nodes = sg.size();
  s.automaton_states = route.automaton_states();
  s.product_states = found.product_states;
  s.product_bound = s.state_graph_nodes * s.automaton_states;
  s.nba_fallback = route.nba_fallback;
  s.engine = route.engine;
  s.class_source = route.class_source;
  s.normalize_steps = route.normalize_steps;
  // Budget exhaustion ends the check with an *unknown* verdict: holds ==
  // false with no witness.
  result.outcome = s.outcome = found.outcome;
  const bool complete = is_complete(found.outcome);
  result.holds = complete && !found.violation;
  if (found.violation) {  // only a complete search finds one
    Counterexample cex;
    for (std::size_t n : found.violation->prefix) cex.prefix.push_back(sg.valuation(n));
    for (std::size_t n : found.violation->loop) cex.loop.push_back(sg.valuation(n));
    result.counterexample = std::move(cex);
  }
  if (!diagnostics) return result;

  const std::string subject = "check '" + spec.to_string() + "'";
  const bool scan = route.engine == CheckEngine::SafetyPrefix;
  const bool searched = is_complete(route.tableau);
  if (route.nba_fallback && searched)
    diagnostics
        ->emit("MPH-V001", subject,
               "¬spec is outside the deterministic hierarchy fragment; using the "
               "NBA tableau (product acceptance stays Büchi-shaped)")
        .fix_hint = "rewriting the specification into hierarchy form gives a "
                    "deterministic, usually smaller product";
  // A scan cut short by the budget leaves no product note.
  if (searched && (complete || !scan)) {
    const char* how =
        scan ? "-state det(spec) automaton scanned " : "-state ¬spec automaton built ";
    const char* engine =
        scan ? "closed-prefix reachability; no ω-product"
        : route.engine == CheckEngine::GuaranteeDual
            ? "on-the-fly SCC search; guarantee dual, fairness-only acceptance"
            : "on-the-fly SCC search";
    diagnostics->emit("MPH-V002", subject,
                      "product of " + std::to_string(s.state_graph_nodes) + " system states × " +
                          std::to_string(s.automaton_states) + how +
                          std::to_string(s.product_states) + " of at most " +
                          std::to_string(s.product_bound) + " states (" + engine + ")");
  }
  if (!complete) {
    const char* phase = !searched ? "the ¬spec NBA tableau construction"
                        : scan    ? "the closed-prefix reachability scan"
                                  : "the on-the-fly SCC product search";
    diagnostics
        ->emit("MPH-V004", subject,
               "budget exhausted (" + std::string(to_string(found.outcome)) + ") during " +
                   phase + " after " + std::to_string(s.product_states) +
                   " product state(s); verdict unknown")
        .fix_hint = "raise CheckOptions::budget (state cap / deadline) or simplify "
                    "the model or specification";
  } else if (result.counterexample) {
    diagnostics
        ->emit("MPH-V003", subject,
               scan ? "a computation violates the specification"
                    : "a fair computation violates the specification")
        .witness = scan ? "bad prefix of " + std::to_string(result.counterexample->prefix.size()) +
                              " state(s) (closed-prefix scan)"
                        : "fair lasso through " +
                              std::to_string(result.counterexample->loop.size()) +
                              " product state(s)";
  }
  return result;
}

std::vector<std::string> validated_atoms(const ltl::Formula& spec, const AtomMap& atoms) {
  auto atom_names = spec.atoms();
  MPH_REQUIRE(!atom_names.empty(), "specification must mention at least one atom");
  for (const auto& name : atom_names)
    MPH_REQUIRE(atoms.contains(name), "specification atom not defined: " + name);
  return atom_names;
}

/// The one place a budget without a state cap gets kDefaultStateCap.
Budget capped(Budget budget) {
  if (!budget.has_state_cap()) budget.with_state_cap(kDefaultStateCap);
  return budget;
}

}  // namespace

/// The shared phases of a context: its exploration, and once that is
/// complete the fairness frame, per-node marks and label caches.
struct ModelContext::Shared {
  ExploreResult ex;
  double explore_seconds = 0.0;
  FairnessFrame fair;
  std::vector<MarkSet> fair_marks;
  std::map<std::vector<std::string>, LabelCache> labels;  // per atom vocabulary
  std::size_t calls = 0;  ///< check() calls that reached the graph
};

ModelContext::ModelContext(const Fts& system, const AtomMap& atoms, Budget budget)
    : system_(system), atoms_(atoms), budget_(capped(std::move(budget))) {}

ModelContext::~ModelContext() = default;

const ExploreResult& ModelContext::exploration() {
  if (shared_) return shared_->ex;
  auto shared = std::make_unique<Shared>();
  const auto t_explore = Clock::now();
  shared->ex = explore(system_, budget_);
  shared->explore_seconds = elapsed(t_explore);
  if (is_complete(shared->ex.outcome)) {
    const StateGraph& sg = shared->ex.graph;
    MPH_ASSERT(sg.size() < (std::uint64_t{1} << 32));  // product ids hold nodes as uint32
    shared->fair = fairness_frame(system_);
    shared->fair_marks = fair_node_marks(sg, shared->fair);
  }
  shared_ = std::move(shared);
  return shared_->ex;
}

CheckResult check(const Fts& system, const ltl::Formula& spec, const AtomMap& atoms,
                  const CheckOptions& options) {
  return std::move(check_all(system, {spec}, atoms, options).front());
}

std::vector<CheckResult> check_all(const Fts& system, const std::vector<ltl::Formula>& specs,
                                   const AtomMap& atoms, const CheckOptions& options) {
  ModelContext model(system, atoms, options.budget);
  return check(model, specs, options);
}

std::vector<CheckResult> check(ModelContext& model, const std::vector<ltl::Formula>& specs,
                               const CheckOptions& options) {
  std::vector<CheckResult> results(specs.size());
  if (specs.empty()) return results;
  const AtomMap& atoms = model.atoms();

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
      r.stats.product_states = r.stats.product_bound = 0;
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

  // Shared phases: one exploration, one fairness frame and one label cache
  // per distinct atom vocabulary, each paid by the first call that needs it.
  const bool explores_now = !model.explored();
  const ExploreResult& ex = model.exploration();
  const double explore_seconds = explores_now ? model.shared_->explore_seconds : 0.0;
  if (!is_complete(ex.outcome)) {
    // The shared exploration ran out of budget: every spec in the batch not
    // already proved statically gets the same unknown verdict, before any
    // worker thread starts — so the result (and the single MPH-V004) is
    // identical for threads == 1 and N.
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (resolved[i]) continue;
      auto& r = results[i];
      r.outcome = r.stats.outcome = ex.outcome;
      r.stats.state_graph_nodes = ex.graph.size();
      r.stats.explore_seconds = explore_seconds;
    }
    if (options.diagnostics) {
      auto& d = options.diagnostics->emit(
          "MPH-V004", "state-graph exploration",
          "budget exhausted (" + std::string(to_string(ex.outcome)) + ") after " +
              std::to_string(ex.graph.size()) +
              " system state(s); every spec in the batch is unverified");
      d.fix_hint = "raise CheckOptions::budget (state cap / deadline) or shrink "
                   "variable domains";
    }
    return results;
  }
  ModelContext::Shared& shared = *model.shared_;
  const StateGraph& sg = ex.graph;
  const Budget budget = capped(options.budget);
  const std::size_t call = ++shared.calls;

  std::vector<const LabelCache*> cache_of(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (resolved[i]) continue;
    auto atom_names = validated_atoms(specs[i], atoms);
    auto it = shared.labels.find(atom_names);
    if (it == shared.labels.end()) {
      auto t_label = Clock::now();
      LabelCache cache{lang::Alphabet::of_props(atom_names),
                       label_nodes(model.system(), sg, atoms, atom_names), 0.0, call};
      cache.seconds = elapsed(t_label);
      it = shared.labels.emplace(std::move(atom_names), std::move(cache)).first;
    }
    cache_of[i] = &it->second;
  }

  // Per spec: route (class routing and compilation), search, verdict. Each
  // worker reports into its own diagnostics engine.
  auto run_one = [&](std::size_t i, analysis::DiagnosticEngine* engine) {
    const LabelCache& cache = *cache_of[i];
    const auto t_compile = Clock::now();
    const Route r = route(specs[i], cache.alphabet, budget, options);
    const double compile_seconds = elapsed(t_compile);
    const auto t_search = Clock::now();
    SearchResult found =
        search(r, sg, cache.labels, shared.fair, shared.fair_marks, budget);
    const double search_seconds = elapsed(t_search);
    results[i] = verdict(sg, r, std::move(found), specs[i], engine);
    CheckStats& s = results[i].stats;
    s.explore_seconds = explore_seconds;
    s.label_seconds = cache.call == call ? cache.seconds : 0.0;
    s.compile_seconds = compile_seconds;
    s.search_seconds = search_seconds;
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
