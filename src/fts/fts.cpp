#include "src/fts/fts.hpp"

#include <algorithm>
#include <bit>

#include "src/support/flat_hash.hpp"

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
/// and the enabled bit rows. explore() builds every graph through it.
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

  /// The guard of t on v, and t's effect in place without re-evaluating it.
  bool guard(std::size_t t, const Valuation& v) const { return sys_.transitions_[t].guard(v); }
  void step(std::size_t t, Valuation& v) const { sys_.step(t, v); }

 private:
  static void put(const StateGraph::Field& f, int value, std::uint64_t* row) {
    row[f.word] |= static_cast<std::uint64_t>(std::int64_t{value} - f.lo) << f.shift;
  }

  const Fts& sys_;
  StateGraph& g_;
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
ExploreResult explore(const Fts& sys, const Budget& budget) {
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
