#include "src/fts/fts.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>

#include "src/support/concurrent_interner.hpp"
#include "src/support/flat_hash.hpp"
#include "src/support/work_queue.hpp"

namespace mph::fts {

std::size_t Fts::add_var(std::string name, int lo, int hi, int init) {
  MPH_REQUIRE(lo <= hi, "empty variable domain");
  MPH_REQUIRE(init >= lo && init <= hi, "initial value outside domain");
  MPH_REQUIRE(!var_index_.contains(name), "duplicate variable: " + name);
  var_index_.emplace(name, vars_.size());
  vars_.push_back(Var{std::move(name), lo, hi});
  init_.push_back(init);
  return vars_.size() - 1;
}

std::size_t Fts::add_transition(std::string name, Fairness fairness,
                                std::function<bool(const Valuation&)> guard,
                                std::function<void(Valuation&)> effect) {
  MPH_REQUIRE(guard && effect, "guard and effect must be callable");
  transitions_.push_back(Transition{std::move(name), fairness, std::move(guard),
                                    std::move(effect)});
  return transitions_.size() - 1;
}

const std::string& Fts::var_name(std::size_t v) const {
  MPH_REQUIRE(v < vars_.size(), "variable index out of range");
  return vars_[v].name;
}

int Fts::var_lo(std::size_t v) const {
  MPH_REQUIRE(v < vars_.size(), "variable index out of range");
  return vars_[v].lo;
}

int Fts::var_hi(std::size_t v) const {
  MPH_REQUIRE(v < vars_.size(), "variable index out of range");
  return vars_[v].hi;
}

const std::string& Fts::transition_name(std::size_t t) const {
  MPH_REQUIRE(t < transitions_.size(), "transition index out of range");
  return transitions_[t].name;
}

Fairness Fts::transition_fairness(std::size_t t) const {
  MPH_REQUIRE(t < transitions_.size(), "transition index out of range");
  return transitions_[t].fairness;
}

std::size_t Fts::var_index(std::string_view name) const {
  auto it = var_index_.find(name);
  MPH_REQUIRE(it != var_index_.end(), "unknown variable: " + std::string(name));
  return it->second;
}

bool Fts::enabled(std::size_t t, const Valuation& v) const {
  MPH_REQUIRE(t < transitions_.size(), "transition index out of range");
  return transitions_[t].guard(v);
}

Valuation Fts::apply(std::size_t t, const Valuation& v) const {
  MPH_REQUIRE(t < transitions_.size(), "transition index out of range");
  MPH_REQUIRE(transitions_[t].guard(v), "transition not enabled");
  Valuation out = v;
  transitions_[t].effect(out);
  MPH_REQUIRE(out.size() == vars_.size(), "effect changed the number of variables");
  for (std::size_t i = 0; i < out.size(); ++i)
    MPH_REQUIRE(out[i] >= vars_[i].lo && out[i] <= vars_[i].hi,
                "effect drove " + vars_[i].name + " outside its domain");
  return out;
}

namespace {

/// Hash of a (valuation, last-taken) state-graph key.
struct NodeKeyHash {
  std::uint64_t operator()(const std::pair<Valuation, int>& k) const {
    return hash_combine(hash_range(k.first),
                        static_cast<std::uint64_t>(static_cast<std::int64_t>(k.second)));
  }
};

}  // namespace

ExploreResult explore(const Fts& system, const Budget& budget) {
  ExploreResult res;
  StateGraph& g = res.graph;
  FlatInterner<std::pair<Valuation, int>, NodeKeyHash> index;
  std::deque<std::size_t> queue;
  // Nodes enter the BFS queue exactly once, when first interned. Returns
  // nullopt when the budget refuses the new node; the caller stops exploring
  // immediately, so the interner's dangling key is never observed.
  auto intern = [&](Valuation v, int last) -> std::optional<std::size_t> {
    auto [idx, inserted] = index.intern({std::move(v), last});
    if (inserted) {
      if (Outcome o = budget.admit(g.nodes.size()); !is_complete(o)) {
        res.outcome = o;
        return std::nullopt;
      }
      g.nodes.push_back(StateGraph::Node{index[idx].first, last});
      g.edges.emplace_back();
      g.enabled.emplace_back();
      g.stutters.push_back(false);
      queue.push_back(idx);
    }
    return idx;
  };
  if (!intern(system.initial_valuation(), StateGraph::kNone)) return res;
  while (!queue.empty()) {
    if (Outcome o = budget.poll(); !is_complete(o)) {
      res.outcome = o;
      return res;
    }
    std::size_t n = queue.front();
    queue.pop_front();
    const Valuation v = g.nodes[n].valuation;
    std::vector<bool> en(system.transition_count(), false);
    bool any = false;
    for (std::size_t t = 0; t < system.transition_count(); ++t) {
      en[t] = system.enabled(t, v);
      if (!en[t]) continue;
      any = true;
      std::optional<std::size_t> target = intern(system.apply(t, v), static_cast<int>(t));
      if (!target) return res;
      g.edges[n].push_back({*target, t});
    }
    g.enabled[n] = std::move(en);
    if (!any) {
      // Terminal state: stutter forever.
      g.edges[n].push_back({n, static_cast<std::size_t>(-1)});
      g.stutters[n] = true;
    }
  }
  return res;
}

namespace {

/// One frontier entry of the parallel exploration: the node's id, valuation
/// and discovering transition travel together, so expansion never needs a
/// reverse lookup into the interner.
struct ExploreItem {
  std::uint32_t id = 0;
  Valuation valuation;
  int last = StateGraph::kNone;
};

/// Everything a worker learns expanding one node. Merged single-threaded
/// after the join; ids are renumbered into BFS discovery order afterwards.
struct ExpandedNode {
  std::uint32_t id = 0;
  int last = StateGraph::kNone;
  Valuation valuation;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;  // (target id, transition)
  std::vector<bool> enabled;
  bool stutter = false;
};

/// Transition slot of the stutter self-loop in an ExpandedNode edge record
/// (32-bit stand-in for the StateGraph's size_t(-1)).
constexpr std::uint32_t kStutterEdge = ~std::uint32_t{0};

/// Renumbers a complete parallel exploration into the sequential id order:
/// BFS from node 0 following each node's edges in recorded (transition)
/// order assigns ids exactly as the sequential explorer's FIFO interning
/// does, so the rebuilt StateGraph is identical field-for-field.
StateGraph renumber_bfs(std::vector<ExpandedNode>& recs) {
  constexpr std::uint32_t kUnseen = ~std::uint32_t{0};
  const std::size_t n = recs.size();
  std::vector<ExpandedNode*> by_id(n, nullptr);
  for (ExpandedNode& r : recs) by_id[r.id] = &r;
  std::vector<std::uint32_t> newid(n, kUnseen);
  std::vector<std::uint32_t> order;
  order.reserve(n);
  newid[0] = 0;
  order.push_back(0);
  for (std::size_t i = 0; i < order.size(); ++i)
    for (auto [target, t] : by_id[order[i]]->edges) {
      (void)t;
      if (newid[target] == kUnseen) {
        newid[target] = static_cast<std::uint32_t>(order.size());
        order.push_back(target);
      }
    }
  MPH_ASSERT(order.size() == n);  // a BFS graph is connected from the root
  StateGraph g;
  g.nodes.reserve(n);
  g.edges.reserve(n);
  g.enabled.reserve(n);
  g.stutters.reserve(n);
  for (std::uint32_t old : order) {
    ExpandedNode& r = *by_id[old];
    g.nodes.push_back(StateGraph::Node{std::move(r.valuation), r.last});
    std::vector<std::pair<std::size_t, std::size_t>> edges;
    edges.reserve(r.edges.size());
    for (auto [target, t] : r.edges)
      edges.push_back({newid[target], t == kStutterEdge
                                          ? static_cast<std::size_t>(-1)
                                          : static_cast<std::size_t>(t)});
    g.edges.push_back(std::move(edges));
    g.enabled.push_back(std::move(r.enabled));
    g.stutters.push_back(r.stutter);
  }
  return g;
}

ExploreResult explore_parallel(const Fts& system, const Budget& budget, unsigned threads) {
  ExploreResult res;
  res.stats.threads_used = threads;
  res.stats.worker_nodes.assign(threads, 0);
  res.stats.worker_steals.assign(threads, 0);
  const std::size_t cap = budget.state_cap();
  if (cap == 0) {
    res.outcome = Outcome::BudgetStates;
    return res;
  }

  ConcurrentInterner<std::pair<Valuation, int>, NodeKeyHash> index;
  WorkStealingQueues<ExploreItem> queues(threads);
  std::atomic<Outcome> stop{Outcome::Complete};
  auto request_stop = [&](Outcome o) {
    Outcome expected = Outcome::Complete;
    stop.compare_exchange_strong(expected, o, std::memory_order_acq_rel);
  };
  std::vector<std::vector<ExpandedNode>> recs(threads);
  std::mutex error_mu;
  std::exception_ptr error;

  {
    Valuation v0 = system.initial_valuation();
    auto [id0, fresh] = index.intern({v0, StateGraph::kNone});
    MPH_ASSERT(fresh && id0 == 0);
    queues.push(0, ExploreItem{id0, std::move(v0), StateGraph::kNone});
  }

  auto worker = [&](unsigned w) {
    std::uint64_t steps = 0;
    ExploreItem item;
    try {
      for (;;) {
        if (stop.load(std::memory_order_relaxed) != Outcome::Complete) return;
        if (!queues.pop(w, item)) {
          if (queues.idle()) return;
          std::this_thread::yield();
          continue;
        }
        if ((++steps & 0x3FFu) == 0)
          if (Outcome o = budget.poll(); !is_complete(o)) request_stop(o);
        ExpandedNode rec;
        rec.id = item.id;
        rec.last = item.last;
        rec.valuation = std::move(item.valuation);
        const Valuation& v = rec.valuation;
        rec.enabled.assign(system.transition_count(), false);
        bool any = false;
        for (std::size_t t = 0; t < system.transition_count(); ++t) {
          rec.enabled[t] = system.enabled(t, v);
          if (!rec.enabled[t]) continue;
          any = true;
          Valuation next = system.apply(t, v);
          auto [gid, inserted] = index.intern({next, static_cast<int>(t)});
          if (inserted) {
            if (gid >= cap) {
              // Ids are handed out densely, so the first id at the cap means
              // exactly `cap` nodes 0..cap-1 exist — the sequential count.
              request_stop(Outcome::BudgetStates);
              continue;  // the overflow node is never recorded anywhere
            }
            queues.push(w, ExploreItem{gid, std::move(next), static_cast<int>(t)});
          }
          if (gid < cap) rec.edges.push_back({gid, static_cast<std::uint32_t>(t)});
        }
        if (!any) {
          rec.edges.push_back({rec.id, kStutterEdge});
          rec.stutter = true;
        }
        recs[w].push_back(std::move(rec));
        res.stats.worker_nodes[w]++;
        queues.done();
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mu);
      if (!error) error = std::current_exception();
      request_stop(Outcome::Cancelled);
    }
  };
  {
    std::vector<std::jthread> pool;
    pool.reserve(threads);
    for (unsigned w = 0; w < threads; ++w) pool.emplace_back(worker, w);
  }
  if (error) std::rethrow_exception(error);
  for (unsigned w = 0; w < threads; ++w) res.stats.worker_steals[w] = queues.stolen(w);
  res.outcome = stop.load(std::memory_order_acquire);

  if (is_complete(res.outcome)) {
    std::vector<ExpandedNode> all;
    all.reserve(index.size());
    for (auto& r : recs) {
      std::move(r.begin(), r.end(), std::back_inserter(all));
      r.clear();
    }
    MPH_ASSERT(all.size() == index.size());  // every discovered node expanded
    res.graph = renumber_bfs(all);
    return res;
  }

  // Partial graph: keep the interner's arbitrary ids (the contract promises
  // only node counts here — docs/PARALLEL.md). Unexpanded frontier items
  // still become nodes, so the count matches the sequential stop point.
  const std::size_t n = index.size() > cap ? cap : index.size();
  StateGraph& g = res.graph;
  g.nodes.assign(n, StateGraph::Node{});
  g.edges.assign(n, {});
  g.enabled.assign(n, {});
  g.stutters.assign(n, false);
  for (auto& r : recs)
    for (ExpandedNode& rec : r) {
      g.nodes[rec.id] = StateGraph::Node{std::move(rec.valuation), rec.last};
      auto& edges = g.edges[rec.id];
      edges.reserve(rec.edges.size());
      for (auto [target, t] : rec.edges)
        edges.push_back({target, t == kStutterEdge ? static_cast<std::size_t>(-1)
                                                   : static_cast<std::size_t>(t)});
      g.enabled[rec.id] = std::move(rec.enabled);
      g.stutters[rec.id] = rec.stutter;
    }
  queues.drain([&](ExploreItem& item) {
    g.nodes[item.id] = StateGraph::Node{std::move(item.valuation), item.last};
  });
  return res;
}

}  // namespace

ExploreResult explore(const Fts& system, const Budget& budget, unsigned threads) {
  if (threads <= 1) return explore(system, budget);
  return explore_parallel(system, budget, threads);
}

AtomFn var_equals(const Fts& system, std::string_view var, int value) {
  std::size_t idx = system.var_index(var);
  return [idx, value](const Fts&, const Valuation& v, int) { return v[idx] == value; };
}

AtomFn var_at_least(const Fts& system, std::string_view var, int value) {
  std::size_t idx = system.var_index(var);
  return [idx, value](const Fts&, const Valuation& v, int) { return v[idx] >= value; };
}

AtomFn taken(std::size_t transition) {
  return [transition](const Fts&, const Valuation&, int last) {
    return last == static_cast<int>(transition);
  };
}

AtomFn enabled_atom(std::size_t transition) {
  return [transition](const Fts& sys, const Valuation& v, int) {
    return sys.enabled(transition, v);
  };
}

AtomFn deadlocked() {
  return [](const Fts& sys, const Valuation& v, int) {
    for (std::size_t t = 0; t < sys.transition_count(); ++t)
      if (sys.enabled(t, v)) return false;
    return true;
  };
}

}  // namespace mph::fts
