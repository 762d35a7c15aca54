#include "src/fts/fts.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
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
  step(t, out);
  return out;
}

void Fts::step(std::size_t t, Valuation& v) const {
  transitions_[t].effect(v);
  MPH_REQUIRE(v.size() == vars_.size(), "effect changed the number of variables");
  for (std::size_t i = 0; i < v.size(); ++i)
    MPH_REQUIRE(v[i] >= vars_[i].lo && v[i] <= vars_[i].hi,
                "effect drove " + vars_[i].name + " outside its domain");
}

void StateGraph::valuation_into(std::size_t n, Valuation& out) const {
  out.resize(fields_.size());
  for (std::size_t v = 0; v < fields_.size(); ++v) out[v] = value(n, v);
}

Valuation StateGraph::valuation(std::size_t n) const {
  Valuation out;
  valuation_into(n, out);
  return out;
}

/// Writes StateGraph's packed layout: the field table, node rows, the CSR
/// and the enabled bit rows. Both explorers build through it, so a complete
/// graph has one representation whichever path produced it.
class GraphBuilder {
 public:
  using Row = const std::uint64_t*;

  /// Lays out one bit field per variable of sys, then the last-taken field,
  /// in g, which must be empty.
  GraphBuilder(const Fts& sys, StateGraph& g) : sys_(sys), g_(g) {
    std::uint32_t word = 0, used = 0;
    auto field = [&](std::int64_t lo, std::int64_t hi) {
      // hi − lo in 64 bits: a full int domain spans 2^32 values.
      const auto bits =
          static_cast<std::uint32_t>(std::bit_width(static_cast<std::uint64_t>(hi - lo)));
      StateGraph::Field f;
      f.lo = lo;
      if (bits > 0) {
        if (used + bits > 64) {
          ++word;
          used = 0;
        }
        f.word = word;
        f.shift = used;
        f.mask = (std::uint64_t{1} << bits) - 1;
        used += bits;
      }
      return f;
    };
    for (const Fts::Var& var : sys.vars_) g.fields_.push_back(field(var.lo, var.hi));
    g.last_field_ =
        field(StateGraph::kNone, static_cast<std::int64_t>(sys.transition_count()) - 1);
    g.words_ = word + 1;
    g.enabled_words_ = (sys.transition_count() + 63) / 64;
  }

  std::size_t words() const { return g_.words_; }

  /// Packs v (already domain-checked) and last into row[0..words()).
  void pack(const Valuation& v, int last, std::uint64_t* row) const {
    std::fill(row, row + g_.words_, 0);
    for (std::size_t i = 0; i < v.size(); ++i) put(g_.fields_[i], v[i], row);
    put(g_.last_field_, last, row);
  }

  /// Appends a node with the given row, no edges yet and an all-clear
  /// enabled row; returns its id.
  std::uint32_t add_node(Row row) {
    MPH_ASSERT(g_.size() < StateGraph::kStutter);  // ids fit in an Edge
    const auto id = static_cast<std::uint32_t>(g_.size());
    g_.rows_.insert(g_.rows_.end(), row, row + g_.words_);
    g_.enabled_.resize(g_.enabled_.size() + g_.enabled_words_, 0);
    g_.stutter_.push_back(0);
    return id;
  }
  std::uint32_t add_node(const Valuation& v, int last) {
    scratch_.resize(g_.words_);
    pack(v, last, scratch_.data());
    return add_node(scratch_.data());
  }

  Row row(std::size_t n) const { return g_.rows_.data() + n * g_.words_; }

  /// Marks t enabled at node n.
  void set_enabled(std::size_t n, std::size_t t) {
    g_.enabled_[n * g_.enabled_words_ + (t >> 6)] |= std::uint64_t{1} << (t & 63);
  }
  /// Appends an edge of the node being expanded (the next one to close).
  void add_edge(std::uint32_t target, std::uint32_t transition) {
    g_.edges_.push_back({target, transition});
  }
  /// Closes node n's expansion (nodes close in id order); a node with no
  /// enabled transition gets the stutter self-loop.
  void close(std::size_t n) {
    MPH_ASSERT(g_.offsets_.size() == n + 1);
    const auto en = g_.enabled_.begin() + static_cast<std::ptrdiff_t>(n * g_.enabled_words_);
    if (std::all_of(en, en + static_cast<std::ptrdiff_t>(g_.enabled_words_),
                    [](std::uint64_t w) { return w == 0; })) {
      g_.edges_.push_back({static_cast<std::uint32_t>(n), StateGraph::kStutter});
      g_.stutter_[n] = 1;
    }
    g_.offsets_.push_back(g_.edges_.size());
  }
  /// A stopped exploration: drops the half-expanded node's edges and enabled
  /// bits, and gives every unexpanded node an empty edge list.
  void close_partial() {
    const std::size_t n = g_.offsets_.size() - 1;
    g_.edges_.resize(g_.offsets_.back());
    if (n < g_.size())
      std::fill_n(g_.enabled_.begin() + static_cast<std::ptrdiff_t>(n * g_.enabled_words_),
                  g_.enabled_words_, 0);
    g_.offsets_.resize(g_.size() + 1, g_.edges_.size());
  }

  static ExploreResult sequential(const Fts& sys, const Budget& budget);

  /// The guard of t on v, and t's effect in place without re-evaluating it.
  bool guard(std::size_t t, const Valuation& v) const { return sys_.transitions_[t].guard(v); }
  void step(std::size_t t, Valuation& v) const { sys_.step(t, v); }

 private:
  static void put(const StateGraph::Field& f, int value, std::uint64_t* row) {
    row[f.word] |= static_cast<std::uint64_t>(std::int64_t{value} - f.lo) << f.shift;
  }

  const Fts& sys_;
  StateGraph& g_;
  std::vector<std::uint64_t> scratch_;
};

namespace {

/// Hash of a packed row.
std::uint64_t row_hash(GraphBuilder::Row row, std::size_t words) {
  std::uint64_t h = 0x2545f4914f6cdd1dULL;
  for (std::size_t i = 0; i < words; ++i) h = hash_combine(h, row[i]);
  return h;
}

/// Open-addressing index over the graph's own packed rows: each slot holds
/// a node id + 1 (0 = empty) under 32 bits of the node's hash, so every
/// valuation is stored once — in the graph — and growth re-buckets from the
/// cached hash bits without touching a row. Linear probing, load ≤ 1/2.
class RowIndex {
 public:
  RowIndex() : slots_(kMinSlots, 0) {}

  /// The id of the node with this row, or the result of add() — a fresh
  /// id, or nullopt to refuse it (the index is then left as is).
  template <class Add>
  std::optional<std::uint32_t> intern(const GraphBuilder& b, GraphBuilder::Row row, Add&& add) {
    const auto h32 = static_cast<std::uint32_t>(row_hash(row, b.words()) >> 32);
    std::size_t mask = slots_.size() - 1;
    std::size_t i = h32 & mask;
    for (; slots_[i] != 0; i = (i + 1) & mask) {
      if (static_cast<std::uint32_t>(slots_[i] >> 32) != h32) continue;
      const auto id = static_cast<std::uint32_t>(slots_[i]) - 1;
      if (std::equal(row, row + b.words(), b.row(id))) return id;
    }
    const std::optional<std::uint32_t> id = add();
    if (!id) return id;
    if (2 * (++count_) > slots_.size()) {
      grow();
      mask = slots_.size() - 1;
      for (i = h32 & mask; slots_[i] != 0; i = (i + 1) & mask) {}
    }
    slots_[i] = (std::uint64_t{h32} << 32) | (std::uint64_t{*id} + 1);
    return id;
  }

 private:
  static constexpr std::size_t kMinSlots = 16;

  void grow() {
    std::vector<std::uint64_t> old(slots_.size() * 2, 0);
    old.swap(slots_);
    const std::size_t mask = slots_.size() - 1;
    for (std::uint64_t s : old) {
      if (s == 0) continue;
      std::size_t i = static_cast<std::size_t>(s >> 32) & mask;
      while (slots_[i] != 0) i = (i + 1) & mask;
      slots_[i] = s;
    }
  }

  std::vector<std::uint64_t> slots_;
  std::size_t count_ = 0;
};

}  // namespace

/// BFS in id order — the next node to expand is the next id, so the graph's
/// own node list is the queue. Each enabled guard is evaluated once; two
/// scratch valuations and one scratch row are reused across every node.
ExploreResult GraphBuilder::sequential(const Fts& sys, const Budget& budget) {
  ExploreResult res;
  GraphBuilder b(sys, res.graph);
  RowIndex index;
  std::vector<std::uint64_t> cand(b.words());
  // Interns the row in cand. nullopt when the budget refuses the new node;
  // the caller stops exploring immediately.
  auto intern = [&] {
    return index.intern(b, cand.data(), [&]() -> std::optional<std::uint32_t> {
      if (Outcome o = budget.admit(res.graph.size()); !is_complete(o)) {
        res.outcome = o;
        return std::nullopt;
      }
      return b.add_node(cand.data());
    });
  };
  b.pack(sys.initial_valuation(), StateGraph::kNone, cand.data());
  if (!intern()) return res;
  Valuation cur, next;
  const std::size_t n_transitions = sys.transition_count();
  for (std::size_t n = 0; n < res.graph.size(); ++n) {
    if (Outcome o = budget.poll(); !is_complete(o)) {
      res.outcome = o;
      b.close_partial();
      return res;
    }
    res.graph.valuation_into(n, cur);
    for (std::size_t t = 0; t < n_transitions; ++t) {
      if (!b.guard(t, cur)) continue;
      b.set_enabled(n, t);
      next = cur;
      b.step(t, next);
      b.pack(next, static_cast<int>(t), cand.data());
      const std::optional<std::uint32_t> target = intern();
      if (!target) {
        b.close_partial();
        return res;
      }
      b.add_edge(*target, static_cast<std::uint32_t>(t));
    }
    b.close(n);
  }
  return res;
}

ExploreResult explore(const Fts& system, const Budget& budget) {
  return GraphBuilder::sequential(system, budget);
}

namespace {

/// Hash of a (valuation, last-taken) state-graph key.
struct NodeKeyHash {
  std::uint64_t operator()(const std::pair<Valuation, int>& k) const {
    return hash_combine(hash_range(k.first),
                        static_cast<std::uint64_t>(static_cast<std::int64_t>(k.second)));
  }
};

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
  std::vector<StateGraph::Edge> edges;  // interner ids; no stutter loop
  std::vector<std::uint32_t> enabled;   // transitions enabled here
};

/// Copies a worker record's edges and enabled set into node n, mapping
/// interner ids through id_of, and closes n.
template <class IdOf>
void add_expansion(GraphBuilder& b, std::size_t n, const ExpandedNode& r, IdOf&& id_of) {
  for (std::uint32_t t : r.enabled) b.set_enabled(n, t);
  for (const StateGraph::Edge& e : r.edges) b.add_edge(id_of(e.target), e.transition);
  b.close(n);
}

/// Renumbers a complete parallel exploration into the sequential id order:
/// BFS from node 0 following each node's edges in recorded (transition)
/// order assigns ids exactly as the sequential explorer's FIFO interning
/// does, so the rebuilt StateGraph is identical field-for-field.
void renumber_bfs(std::vector<ExpandedNode>& recs, GraphBuilder& b) {
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
    for (const StateGraph::Edge& e : by_id[order[i]]->edges)
      if (newid[e.target] == kUnseen) {
        newid[e.target] = static_cast<std::uint32_t>(order.size());
        order.push_back(e.target);
      }
  MPH_ASSERT(order.size() == n);  // a BFS graph is connected from the root
  for (std::uint32_t old : order) b.add_node(by_id[old]->valuation, by_id[old]->last);
  for (std::size_t i = 0; i < n; ++i)
    add_expansion(b, i, *by_id[order[i]], [&](std::uint32_t id) { return newid[id]; });
}

ExploreResult explore_parallel(const Fts& system, const Budget& budget, unsigned threads) {
  ExploreResult res;
  GraphBuilder b(system, res.graph);
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
        for (std::size_t t = 0; t < system.transition_count(); ++t) {
          if (!b.guard(t, v)) continue;
          rec.enabled.push_back(static_cast<std::uint32_t>(t));
          Valuation next = v;
          b.step(t, next);
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
          if (gid < cap)
            rec.edges.push_back(
                {static_cast<std::uint32_t>(gid), static_cast<std::uint32_t>(t)});
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

  std::vector<ExpandedNode> all;
  all.reserve(index.size());
  for (auto& r : recs) {
    std::move(r.begin(), r.end(), std::back_inserter(all));
    r.clear();
  }
  if (is_complete(res.outcome)) {
    MPH_ASSERT(all.size() == index.size());  // every discovered node expanded
    renumber_bfs(all, b);
    return res;
  }

  // Partial graph: keep the interner's arbitrary ids (the contract promises
  // only node counts here — docs/PARALLEL.md). Unexpanded frontier items
  // still become nodes, so the count matches the sequential stop point; the
  // expanded ones keep their edges while they form a prefix of the ids.
  const std::size_t n = index.size() > cap ? cap : index.size();
  const std::size_t expanded = all.size();
  queues.drain([&](ExploreItem& item) {
    all.push_back({item.id, item.last, std::move(item.valuation), {}, {}});
  });
  std::vector<const ExpandedNode*> by_id(n, nullptr);
  for (const ExpandedNode& rec : all) by_id[rec.id] = &rec;
  for (const ExpandedNode* rec : by_id) {
    MPH_ASSERT(rec != nullptr);  // every id below the cap was queued
    b.add_node(rec->valuation, rec->last);
  }
  for (std::size_t i = 0; i < n && by_id[i] < all.data() + expanded; ++i)
    add_expansion(b, i, *by_id[i], [](std::uint32_t id) { return id; });
  b.close_partial();
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
