#include "src/ltl/normalize.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/ltl/hierarchy.hpp"
#include "src/ltl/to_nba.hpp"
#include "src/support/check.hpp"

namespace mph::ltl {
namespace {

bool is_op(const Formula& f, Op op) { return f.op() == op; }
bool past(const Formula& f) { return f.is_past_formula(); }

// ---------------------------------------------------------------------------
// Budgeted rewriting context. Every rule application calls step(); every
// constructed candidate that could grow goes through sized(). Exhaustion
// unwinds with BudgetExhausted and is converted to an Outcome at the public
// boundary, like the engines in src/fts.
// ---------------------------------------------------------------------------
struct Ctx {
  const NormalizeOptions& opt;
  std::size_t steps = 0;

  void step() {
    Outcome o = opt.budget.admit(steps);
    if (!is_complete(o)) throw BudgetExhausted(o);
    ++steps;
  }
  Formula sized(Formula f) const {
    if (f.size() > opt.max_form_nodes) throw BudgetExhausted(Outcome::BudgetStates);
    return f;
  }
};

// ---------------------------------------------------------------------------
// Smart constructors: constant folding and neighbour idempotence keep the
// intermediate forms small without a full simplifier pass per rule.
// ---------------------------------------------------------------------------
bool is_true(const Formula& f) { return is_op(f, Op::True); }
bool is_false(const Formula& f) { return is_op(f, Op::False); }

Formula s_not(const Formula& f) {
  if (is_true(f)) return f_false();
  if (is_false(f)) return f_true();
  if (is_op(f, Op::Not)) return f.child(0);
  return f_not(f);
}

Formula s_and(const Formula& a, const Formula& b) {
  if (is_false(a) || is_false(b)) return f_false();
  if (is_true(a)) return b;
  if (is_true(b)) return a;
  if (a == b) return a;
  return f_and(a, b);
}

Formula s_or(const Formula& a, const Formula& b) {
  if (is_true(a) || is_true(b)) return f_true();
  if (is_false(a)) return b;
  if (is_false(b)) return a;
  if (a == b) return a;
  return f_or(a, b);
}

Formula s_eventually(const Formula& f) {
  if (is_true(f) || is_false(f)) return f;
  if (is_op(f, Op::Eventually)) return f;
  return f_eventually(f);
}

Formula s_always(const Formula& f) {
  if (is_true(f) || is_false(f)) return f;
  if (is_op(f, Op::Always)) return f;
  return f_always(f);
}

/// Y^k first — true exactly at position k.
Formula marker(std::size_t k) {
  Formula g = f_first();
  for (std::size_t i = 0; i < k; ++i) g = f_prev(g);
  return g;
}

/// O(Y^k first) — true exactly at positions ≥ k (the anchor guard that keeps
/// S/O-chains in the Σ₂ encodings from matching before the anchor).
Formula at_least(std::size_t k) {
  if (k == 0) return f_true();
  return f_once(marker(k));
}

// ---------------------------------------------------------------------------
// Negation normal form over the future layer. Past subformulas are kernels:
// ¬p for past p stays Not(p) (still a past formula). Implies/Iff with a
// future operand are expanded.
// ---------------------------------------------------------------------------
Formula nnf_of(const Formula& f, bool neg, Ctx* ctx);

Formula nnf_pos(const Formula& f, Ctx* ctx) { return nnf_of(f, false, ctx); }
Formula nnf_neg(const Formula& f, Ctx* ctx) { return nnf_of(f, true, ctx); }

Formula nnf_of(const Formula& f, bool neg, Ctx* ctx) {
  if (ctx != nullptr) ctx->step();
  if (past(f)) return neg ? s_not(f) : f;
  switch (f.op()) {
    case Op::Not:
      return nnf_of(f.child(0), !neg, ctx);
    case Op::And: {
      Formula l = nnf_of(f.child(0), neg, ctx);
      Formula r = nnf_of(f.child(1), neg, ctx);
      return neg ? s_or(l, r) : s_and(l, r);
    }
    case Op::Or: {
      Formula l = nnf_of(f.child(0), neg, ctx);
      Formula r = nnf_of(f.child(1), neg, ctx);
      return neg ? s_and(l, r) : s_or(l, r);
    }
    case Op::Implies: {
      // a → b = ¬a ∨ b;  ¬(a → b) = a ∧ ¬b.
      if (neg) return s_and(nnf_of(f.child(0), false, ctx), nnf_of(f.child(1), true, ctx));
      return s_or(nnf_of(f.child(0), true, ctx), nnf_of(f.child(1), false, ctx));
    }
    case Op::Iff: {
      // a ↔ b  =  (a ∧ b) ∨ (¬a ∧ ¬b);   ¬(a ↔ b) = (a ∧ ¬b) ∨ (¬a ∧ b).
      Formula a = nnf_of(f.child(0), false, ctx);
      Formula na = nnf_of(f.child(0), true, ctx);
      Formula b = nnf_of(f.child(1), neg, ctx);
      Formula nb = nnf_of(f.child(1), !neg, ctx);
      return s_or(s_and(a, b), s_and(na, nb));
    }
    case Op::Next:
      return f_next(nnf_of(f.child(0), neg, ctx));
    case Op::Eventually:
      return neg ? s_always(nnf_neg(f.child(0), ctx)) : s_eventually(nnf_pos(f.child(0), ctx));
    case Op::Always:
      return neg ? s_eventually(nnf_neg(f.child(0), ctx)) : s_always(nnf_pos(f.child(0), ctx));
    case Op::Until: {
      Formula l = nnf_of(f.child(0), neg, ctx);
      Formula r = nnf_of(f.child(1), neg, ctx);
      // ¬(α U β) = ¬α R ¬β.
      return neg ? f_release(l, r) : f_until(l, r);
    }
    case Op::Release: {
      Formula l = nnf_of(f.child(0), neg, ctx);
      Formula r = nnf_of(f.child(1), neg, ctx);
      return neg ? f_until(l, r) : f_release(l, r);
    }
    case Op::WeakUntil: {
      // ¬(α W β) = (¬β) U (¬α ∧ ¬β).
      if (neg) {
        Formula na = nnf_neg(f.child(0), ctx);
        Formula nb = nnf_neg(f.child(1), ctx);
        return f_until(nb, s_and(na, nb));
      }
      return f_weak_until(nnf_pos(f.child(0), ctx), nnf_pos(f.child(1), ctx));
    }
    default:
      // Past operator over a future subformula — outside the normalizable
      // language; keep the subtree as-is (sound: NNF only fails to descend).
      return neg ? s_not(f) : f;
  }
}

// ---------------------------------------------------------------------------
// X-prefix extraction: f = X^k core with core not Next-headed.
// ---------------------------------------------------------------------------
std::pair<std::size_t, Formula> pull_x(const Formula& f) {
  std::size_t k = 0;
  Formula g = f;
  while (is_op(g, Op::Next)) {
    ++k;
    g = g.child(0);
  }
  return {k, g};
}

/// Y^j-pads a past formula: X^k p at anchor m equals Y^{K-k} p at anchor
/// m + K.
Formula pad(const Formula& p, std::size_t j) {
  Formula g = p;
  for (std::size_t i = 0; i < j; ++i) g = f_prev(g);
  return g;
}

// ---------------------------------------------------------------------------
// Hierarchy-form structure: the compile_hierarchy_form fragment, plus the
// position-independent sub-fragment (boolean combinations of □◇p / ◇□p
// only — the same at every position, so they factor out of any temporal
// context).
// ---------------------------------------------------------------------------
bool hierarchy_form(const Formula& f) {
  if (past(f)) return true;
  switch (f.op()) {
    case Op::Not:
      return hierarchy_form(f.child(0));
    case Op::And:
    case Op::Or:
    case Op::Implies:
    case Op::Iff:
      return hierarchy_form(f.child(0)) && hierarchy_form(f.child(1));
    case Op::Always:
      if (past(f.child(0))) return true;
      return is_op(f.child(0), Op::Eventually) && past(f.child(0).child(0));
    case Op::Eventually:
      if (past(f.child(0))) return true;
      return is_op(f.child(0), Op::Always) && past(f.child(0).child(0));
    default:
      return false;
  }
}

bool pos_indep(const Formula& f) {
  if (is_true(f) || is_false(f)) return true;
  switch (f.op()) {
    case Op::Not:
      return pos_indep(f.child(0));
    case Op::And:
    case Op::Or:
      return pos_indep(f.child(0)) && pos_indep(f.child(1));
    case Op::Always:
      return is_op(f.child(0), Op::Eventually) && past(f.child(0).child(0));
    case Op::Eventually:
      return is_op(f.child(0), Op::Always) && past(f.child(0).child(0));
    default:
      return false;
  }
}

/// Negation of a hierarchy form, pushed through to keep atoms positive:
/// ¬□p = ◇¬p, ¬◇p = □¬p, ¬□◇p = ◇□¬p, ¬◇□p = □◇¬p.
Formula neg_form(const Formula& f) {
  if (past(f)) return s_not(f);
  switch (f.op()) {
    case Op::Not:
      return f.child(0);
    case Op::And:
      return s_or(neg_form(f.child(0)), neg_form(f.child(1)));
    case Op::Or:
      return s_and(neg_form(f.child(0)), neg_form(f.child(1)));
    case Op::Always: {
      const Formula& b = f.child(0);
      if (past(b)) return s_eventually(s_not(b));
      // □◇p → ◇□¬p.
      return s_eventually(s_always(s_not(b.child(0))));
    }
    case Op::Eventually: {
      const Formula& b = f.child(0);
      if (past(b)) return s_always(s_not(b));
      return s_always(s_eventually(s_not(b.child(0))));
    }
    default:
      return s_not(f);
  }
}

// ---------------------------------------------------------------------------
// Σ₂ kernel extraction:  ∃m ≥ anchor: K(m) ∧ □d(m)   ≡   ◇□(d ∧ (d S (d∧K)))
// (K, d past; K carries the anchor guard). With d = ⊤ this degenerates to
// ◇ O K ≡ ◇ K, which we emit directly.
// ---------------------------------------------------------------------------
Formula sigma2(const Formula& kernel, const Formula& d) {
  if (is_true(d)) return s_eventually(kernel);
  return s_eventually(s_always(s_and(d, f_since(d, s_and(d, kernel)))));
}

// ---------------------------------------------------------------------------
// Forward declarations of the three cooperating normalizers.
//   norm_event(body, anchor): hierarchy form of ◇body. `anchor` engaged =
//     the scan starts at the absolute position *anchor (initial context;
//     the S/O-chain encodings are sound because a guard pins them above the
//     anchor). Disengaged = position-uniform context: only prefix-robust
//     rules are used.
//   norm_gf(body): hierarchy form of □◇body (always position-independent).
//   norm_i(f, k): hierarchy form of f evaluated at the absolute position k.
// All return nullopt when the formula leaves the supported envelope.
// ---------------------------------------------------------------------------
using OptF = std::optional<Formula>;

OptF norm_event(const Formula& body, std::optional<std::size_t> anchor, Ctx& ctx);
OptF norm_gf(const Formula& body, Ctx& ctx);
OptF norm_i(const Formula& f, std::size_t k, Ctx& ctx);

/// ◇□body — by duality ◇□β = ¬□◇¬β, with a direct kernel for past bodies.
OptF norm_fg(const Formula& body, Ctx& ctx) {
  if (past(body)) return s_eventually(s_always(body));
  OptF n = norm_gf(nnf_neg(body, &ctx), ctx);
  if (!n) return std::nullopt;
  return neg_form(*n);
}

/// □body in a position-uniform context: ¬◇¬body with the uniform rule set.
OptF norm_always_u(const Formula& body, Ctx& ctx) {
  if (past(body)) return s_always(body);
  OptF n = norm_event(nnf_neg(body, &ctx), std::nullopt, ctx);
  if (!n) return std::nullopt;
  return neg_form(*n);
}

/// □body anchored at absolute position k (initial context).
OptF norm_always_i(const Formula& body, std::size_t k, Ctx& ctx) {
  if (past(body)) {
    if (k == 0) return s_always(body);
    return s_always(f_implies(at_least(k), body));
  }
  OptF n = norm_event(nnf_neg(body, &ctx), k, ctx);
  if (!n) return std::nullopt;
  return neg_form(*n);
}

// ---------------------------------------------------------------------------
// DNF over "component atoms" (everything except And/Or), with a size cap.
// ---------------------------------------------------------------------------
void flatten_and(const Formula& f, std::vector<Formula>& out) {
  if (is_op(f, Op::And)) {
    flatten_and(f.child(0), out);
    flatten_and(f.child(1), out);
    return;
  }
  out.push_back(f);
}

constexpr std::size_t kDnfCap = 64;

bool dnf_of(const Formula& f, std::vector<std::vector<Formula>>& out) {
  if (is_op(f, Op::Or)) {
    return dnf_of(f.child(0), out) && dnf_of(f.child(1), out);
  }
  if (is_op(f, Op::And)) {
    std::vector<std::vector<Formula>> left, right;
    if (!dnf_of(f.child(0), left) || !dnf_of(f.child(1), right)) return false;
    if (left.size() * right.size() + out.size() > kDnfCap) return false;
    for (const auto& l : left)
      for (const auto& r : right) {
        std::vector<Formula> term = l;
        term.insert(term.end(), r.begin(), r.end());
        out.push_back(std::move(term));
      }
    return true;
  }
  out.push_back({f});
  return true;
}

// ---------------------------------------------------------------------------
// The existential collection: hierarchy form of ◇(∧ conjuncts) (or, with
// `io` below, □◇). A term is decomposed into
//   * a past residue P (past conjuncts, X-padded to a common depth),
//   * at most one box □d,
//   * until-obligations γUδ with past arguments (◇g contributes ⊤Ug),
//   * position-independent factors.
// ---------------------------------------------------------------------------
struct Obligation {
  Formula hold;  // γ — maintained until the fire position (strictly before)
  Formula fire;  // δ
};

struct TermParts {
  std::vector<std::pair<std::size_t, Formula>> pasts;  // (X-depth, past core)
  std::vector<Formula> boxes;                          // past bodies of □
  std::vector<Obligation> obligations;                 // past-argument U's
  std::vector<Formula> indep;                          // position-independent
  bool ok = true;
};

/// Splits one DNF-term component into TermParts. Components that are still
/// compound (hierarchy forms from inner normalization) were already DNF'd,
/// so everything arriving here is atom-shaped.
void classify_component(const Formula& c, TermParts& parts, Ctx& ctx) {
  auto [k, core] = pull_x(c);
  if (past(core)) {
    parts.pasts.emplace_back(k, core);
    return;
  }
  if (pos_indep(core)) {
    // X^k over a position-independent formula is the formula itself.
    parts.indep.push_back(core);
    return;
  }
  if (is_op(core, Op::Eventually) && past(core.child(0)) && k == 0) {
    parts.obligations.push_back({f_true(), core.child(0)});
    return;
  }
  if (is_op(core, Op::Always) && past(core.child(0)) && k == 0) {
    parts.boxes.push_back(core.child(0));
    return;
  }
  if (is_op(core, Op::Until) && past(core.child(0)) && past(core.child(1)) && k == 0) {
    parts.obligations.push_back({core.child(0), core.child(1)});
    return;
  }
  ctx.step();
  parts.ok = false;
}

/// ◇-encoding of one decomposed term, anchored at `anchor` (initial
/// context). Builds the ordered S-chains over the obligations' fire points
/// and folds the box through sigma2. Obligations are capped at 2 (orderings
/// are enumerated explicitly).
OptF encode_exists(const TermParts& parts, std::size_t anchor, Ctx& ctx) {
  ctx.step();
  if (parts.obligations.size() > 2) return std::nullopt;

  // Re-anchor the past residue at the deepest X-offset.
  std::size_t depth = 0;
  for (const auto& [k, p] : parts.pasts) depth = std::max(depth, k);
  if (!parts.boxes.empty() || !parts.obligations.empty()) {
    // Mixing X-shifted residue with boxes/obligations would need offset
    // chains; keep the envelope simple and bail unless depths are flat.
    if (depth != 0) return std::nullopt;
  }
  Formula residue = f_true();
  for (const auto& [k, p] : parts.pasts) residue = s_and(residue, pad(p, depth - k));

  Formula d = f_true();
  for (const auto& b : parts.boxes) d = s_and(d, b);

  // The anchor guard: every chain bottoms out at a position ≥ anchor+depth.
  Formula bottom_guard = at_least(anchor + depth);
  Formula base = s_and(residue, s_and(d, bottom_guard));

  std::vector<Formula> kernels;
  const auto& obs = parts.obligations;
  if (obs.empty()) {
    kernels.push_back(base);
  } else if (obs.size() == 1) {
    const auto& o = obs[0];
    // Fire at the anchor point itself...
    kernels.push_back(s_and(base, o.fire));
    // ...or strictly later, with γ∧d maintained since the anchor.
    Formula chain = f_since(s_and(o.hold, d), s_and(o.hold, base));
    kernels.push_back(s_and(s_and(d, o.fire), f_prev(chain)));
  } else {
    const auto& a = obs[0];
    const auto& b = obs[1];
    Formula both_hold = s_and(a.hold, b.hold);
    // Both fire at the anchor.
    kernels.push_back(s_and(base, s_and(a.fire, b.fire)));
    // One fires at the anchor, the other later.
    for (int swap = 0; swap < 2; ++swap) {
      const auto& first = swap ? b : a;   // fires at the anchor
      const auto& second = swap ? a : b;  // fires later
      Formula bot = s_and(s_and(first.fire, second.hold), base);
      Formula chain = f_since(s_and(second.hold, d), bot);
      kernels.push_back(s_and(s_and(d, second.fire), f_prev(chain)));
    }
    // Both fire later, simultaneously.
    Formula bot2 = s_and(both_hold, base);
    Formula chain2 = f_since(s_and(both_hold, d), bot2);
    kernels.push_back(s_and(s_and(d, s_and(a.fire, b.fire)), f_prev(chain2)));
    // Both fire later, strictly ordered.
    for (int swap = 0; swap < 2; ++swap) {
      const auto& first = swap ? b : a;
      const auto& second = swap ? a : b;
      Formula bot = s_and(both_hold, base);
      Formula inner = f_since(s_and(both_hold, d), bot);
      Formula mid = s_and(s_and(d, s_and(first.fire, second.hold)), f_prev(inner));
      Formula outer = f_since(s_and(second.hold, d), mid);
      kernels.push_back(s_and(s_and(d, second.fire), f_prev(outer)));
    }
  }

  Formula disj = f_false();
  for (const auto& k : kernels) disj = s_or(disj, k);
  Formula result = ctx.sized(sigma2(disj, d));
  for (const auto& i : parts.indep) result = s_and(result, i);
  return result;
}

/// ◇-encoding of one term in a position-uniform context: only the
/// prefix-robust shapes are expressible.
OptF encode_exists_uniform(const TermParts& parts, Ctx& ctx) {
  ctx.step();
  std::size_t depth = 0;
  for (const auto& [k, p] : parts.pasts) depth = std::max(depth, k);
  Formula residue = f_true();
  for (const auto& [k, p] : parts.pasts) residue = s_and(residue, pad(p, depth - k));

  Formula result = f_true();
  if (parts.boxes.empty() && parts.obligations.empty()) {
    // ◇(P ∧ I) = ◇P ∧ I.
    result = s_eventually(residue);
  } else if (parts.boxes.empty() && parts.obligations.size() == 1 && is_true(residue)) {
    // ◇(γUδ) = ◇δ;  ◇◇g = ◇g.
    result = s_eventually(parts.obligations[0].fire);
  } else if (parts.obligations.empty() && is_true(residue) && depth == 0) {
    // ◇(□d ∧ I) = ◇□d ∧ I.
    Formula d = f_true();
    for (const auto& b : parts.boxes) d = s_and(d, b);
    result = s_eventually(s_always(d));
  } else {
    return std::nullopt;
  }
  for (const auto& i : parts.indep) result = s_and(result, i);
  return ctx.sized(result);
}

/// Expands W and R conjuncts so downstream sees only U/G/F:
///   γ W δ = □γ ∨ γUδ,   γ R δ = □δ ∨ δU(γ∧δ).
Formula expand_wr(const Formula& f, Ctx& ctx) {
  ctx.step();
  auto [k, core] = pull_x(f);
  Formula e = core;
  if (is_op(core, Op::WeakUntil)) {
    e = s_or(s_always(core.child(0)), f_until(core.child(0), core.child(1)));
  } else if (is_op(core, Op::Release)) {
    e = s_or(s_always(core.child(1)),
             f_until(core.child(1), s_and(core.child(0), core.child(1))));
  } else {
    return f;
  }
  for (std::size_t i = 0; i < k; ++i) e = f_next(e);
  return e;
}

/// Normalizes one conjunct of an existential body to a (possibly compound)
/// hierarchy form usable as a DNF component, in a position-uniform way.
/// Conjuncts that are directly collectible (past, X^k past, past-argument
/// U/◇/□) are returned unchanged for classify_component.
OptF uniform_component(const Formula& c, Ctx& ctx) {
  ctx.step();
  auto [k, core] = pull_x(c);
  if (past(core)) return c;
  if (is_op(core, Op::Until) && past(core.child(0)) && past(core.child(1))) return c;
  switch (core.op()) {
    case Op::And:
    case Op::Or: {
      // X distributes over the booleans — push it to the leaves so DNF and
      // classify_component can see through it.
      Formula l = core.child(0);
      Formula r = core.child(1);
      for (std::size_t i = 0; i < k; ++i) {
        l = f_next(l);
        r = f_next(r);
      }
      OptF ln = uniform_component(l, ctx);
      OptF rn = uniform_component(r, ctx);
      if (!ln || !rn) return std::nullopt;
      return core.op() == Op::And ? s_and(*ln, *rn) : s_or(*ln, *rn);
    }
    case Op::Eventually: {
      if (k != 0) return std::nullopt;
      return norm_event(core.child(0), std::nullopt, ctx);
    }
    case Op::Always: {
      if (k != 0) return std::nullopt;
      if (past(core.child(0))) return c;
      return norm_always_u(core.child(0), ctx);
    }
    case Op::Until:
    case Op::WeakUntil:
    case Op::Release: {
      if (k != 0) return std::nullopt;
      Formula e = expand_wr(core, ctx);
      if (!(e == core)) return uniform_component(e, ctx);
      // U with a temporal argument: only the position-independent argument
      // tricks apply uniformly.
      const Formula& a = core.child(0);
      const Formula& b = core.child(1);
      if (pos_indep(b)) return b;  // αUβ ≡ β when β is position-independent
      OptF bn = uniform_component(b, ctx);
      if (bn && pos_indep(a)) {
        // αUβ ≡ β ∨ (α ∧ ◇β) for position-independent α.
        OptF fb = norm_event(b, std::nullopt, ctx);
        if (fb) return s_or(*bn, s_and(a, *fb));
      }
      return std::nullopt;
    }
    default:
      return std::nullopt;
  }
}

/// Hierarchy form of ◇(∧conjs) at `anchor` (engaged: initial context;
/// disengaged: uniform).
OptF collect_exists(const std::vector<Formula>& conjs, std::optional<std::size_t> anchor,
                    Ctx& ctx) {
  ctx.step();
  // Normalize each conjunct to a DNF-able component.
  Formula combined = f_true();
  for (const Formula& c : conjs) {
    Formula e = expand_wr(c, ctx);
    OptF u;
    auto [k, core] = pull_x(e);
    if (past(core) || (k == 0 && is_op(core, Op::Until) && past(core.child(0)) &&
                       past(core.child(1)))) {
      u = e;
    } else if (is_op(core, Op::Always) && past(core.child(0)) && k == 0) {
      u = e;
    } else {
      u = uniform_component(e, ctx);
    }
    if (!u) return std::nullopt;
    combined = ctx.sized(s_and(combined, *u));
  }
  if (is_false(combined)) return f_false();

  std::vector<std::vector<Formula>> terms;
  if (!dnf_of(combined, terms)) return std::nullopt;

  Formula result = f_false();
  for (const auto& term : terms) {
    TermParts parts;
    for (const Formula& comp : term) classify_component(comp, parts, ctx);
    if (!parts.ok) return std::nullopt;
    OptF enc = anchor ? encode_exists(parts, *anchor, ctx) : encode_exists_uniform(parts, ctx);
    if (!enc) return std::nullopt;
    result = ctx.sized(s_or(result, *enc));
  }
  return result;
}

// ---------------------------------------------------------------------------
// ◇body — the existential layer.
// ---------------------------------------------------------------------------
OptF norm_event(const Formula& body, std::optional<std::size_t> anchor, Ctx& ctx) {
  ctx.step();
  if (past(body)) {
    if (!anchor || *anchor == 0) return s_eventually(body);
    return s_eventually(s_and(body, at_least(*anchor)));
  }
  switch (body.op()) {
    case Op::Or: {
      OptF l = norm_event(body.child(0), anchor, ctx);
      OptF r = norm_event(body.child(1), anchor, ctx);
      if (!l || !r) return std::nullopt;
      return s_or(*l, *r);
    }
    case Op::Eventually:
      return norm_event(body.child(0), anchor, ctx);
    case Op::Always:
      // ◇□α — position-independent, the anchor is irrelevant.
      return norm_fg(body.child(0), ctx);
    case Op::Next:
      if (anchor) return norm_event(body.child(0), *anchor + 1, ctx);
      return std::nullopt;
    case Op::Until:
      // ◇(αUβ) = ◇β.
      return norm_event(body.child(1), anchor, ctx);
    case Op::WeakUntil: {
      // ◇(αWβ) = ◇□α ∨ ◇β.
      OptF g = norm_fg(body.child(0), ctx);
      OptF e = norm_event(body.child(1), anchor, ctx);
      if (!g || !e) return std::nullopt;
      return s_or(*g, *e);
    }
    case Op::Release: {
      // ◇(αRβ) = ◇□β ∨ ◇(α∧β).
      OptF g = norm_fg(body.child(1), ctx);
      OptF e = norm_event(s_and(body.child(0), body.child(1)), anchor, ctx);
      if (!g || !e) return std::nullopt;
      return s_or(*g, *e);
    }
    case Op::And: {
      std::vector<Formula> conjs;
      flatten_and(body, conjs);
      return collect_exists(conjs, anchor, ctx);
    }
    default:
      return std::nullopt;
  }
}

// ---------------------------------------------------------------------------
// □◇body — the ν/μ-stabilization layer. Everything here is position-
// independent, so prefix pollution is impossible and every future operator
// reduces:
//   □◇(αUβ) = □◇β                □◇(αWβ) = ◇□α ∨ □◇β
//   □◇(αRβ) = ◇□β ∨ □◇(α∧β)     □◇Xα = □◇α,  □◇◇α = □◇α,  □◇□α = ◇□α
//   □◇(α∨β) distributes; conjunctions go through the i.o. collection.
// ---------------------------------------------------------------------------
OptF collect_io(const std::vector<Formula>& raw, Ctx& ctx) {
  ctx.step();
  // Expand W/R, then split on any ∨ (□◇ distributes over ∨).
  Formula combined = f_true();
  for (const Formula& c : raw) combined = s_and(combined, expand_wr(c, ctx));
  std::vector<std::vector<Formula>> terms;
  if (!dnf_of(combined, terms)) return std::nullopt;
  if (terms.size() > 1) {
    Formula out = f_false();
    for (const auto& term : terms) {
      OptF t = collect_io(term, ctx);
      if (!t) return std::nullopt;
      out = ctx.sized(s_or(out, *t));
    }
    return out;
  }
  if (terms.empty()) return f_false();

  // One conjunction of atoms: peel position-independent liftings.
  //   □◇(α ∧ ◇g) = □◇α ∧ □◇g        □◇(α ∧ □d) = ◇□d ∧ □◇α
  //   □◇(α ∧ I)  = □◇α ∧ I (I position-independent)
  std::vector<std::pair<std::size_t, Formula>> pasts;
  std::vector<Formula> indep;
  std::vector<std::pair<std::size_t, Obligation>> obligations;  // (X-offset, ob)
  for (const Formula& c : terms[0]) {
    auto [k, core] = pull_x(c);
    if (past(core)) {
      pasts.emplace_back(k, core);
      continue;
    }
    if (pos_indep(core)) {
      indep.push_back(core);
      continue;
    }
    switch (core.op()) {
      case Op::Eventually: {
        OptF g = norm_gf(core.child(0), ctx);
        if (!g) return std::nullopt;
        indep.push_back(*g);
        break;
      }
      case Op::Always: {
        OptF g = norm_fg(core.child(0), ctx);
        if (!g) return std::nullopt;
        indep.push_back(*g);
        break;
      }
      case Op::Until: {
        if (!past(core.child(0)) || !past(core.child(1))) return std::nullopt;
        obligations.emplace_back(k, Obligation{core.child(0), core.child(1)});
        break;
      }
      default:
        return std::nullopt;
    }
  }
  if (obligations.size() > 1) return std::nullopt;

  // Re-anchor the past residue.
  std::size_t depth = 0;
  for (const auto& [k, p] : pasts) depth = std::max(depth, k);
  if (!obligations.empty() && depth != 0) return std::nullopt;
  Formula residue = f_true();
  for (const auto& [k, p] : pasts) residue = s_and(residue, pad(p, depth - k));

  Formula result = f_true();
  for (const auto& i : indep) result = s_and(result, i);

  if (obligations.empty()) {
    if (!is_true(residue)) result = s_and(result, s_always(s_eventually(residue)));
    return ctx.sized(result);
  }

  // One U-obligation with past residue P at the same anchor:
  //   □◇(P ∧ γUδ) ≡ (◇□γ ∧ □◇P ∧ □◇δ)
  //               ∨ (□◇¬γ ∧ □◇((P∧δ) ∨ (δ ∧ Y(γ S (γ∧P)))))
  // The first disjunct is the γ-stabilizing branch; in the second, γ fails
  // infinitely often, which pins the S-chains (they cannot reuse a bounded
  // start point forever), making the i.o. witness encoding exact.
  const std::size_t off = obligations[0].first;
  const Obligation& o = obligations[0].second;
  Formula p_at = pad(residue, off);  // residue sits `off` before the U anchor
  Formula stab = s_and(s_eventually(s_always(o.hold)),
                       s_and(is_true(residue) ? f_true() : s_always(s_eventually(residue)),
                             s_always(s_eventually(o.fire))));
  Formula fire_now = s_and(p_at, o.fire);
  Formula fire_later = s_and(o.fire, f_prev(f_since(o.hold, s_and(o.hold, p_at))));
  Formula witness = s_always(s_eventually(s_or(fire_now, fire_later)));
  Formula unstab = s_and(s_always(s_eventually(s_not(o.hold))), witness);
  return ctx.sized(s_and(result, s_or(stab, unstab)));
}

OptF norm_gf(const Formula& body, Ctx& ctx) {
  ctx.step();
  if (past(body)) return s_always(s_eventually(body));
  switch (body.op()) {
    case Op::Or: {
      OptF l = norm_gf(body.child(0), ctx);
      OptF r = norm_gf(body.child(1), ctx);
      if (!l || !r) return std::nullopt;
      return s_or(*l, *r);
    }
    case Op::Next:
    case Op::Eventually:
      return norm_gf(body.child(0), ctx);
    case Op::Always:
      return norm_fg(body.child(0), ctx);
    case Op::Until:
      return norm_gf(body.child(1), ctx);
    case Op::WeakUntil: {
      OptF g = norm_fg(body.child(0), ctx);
      OptF e = norm_gf(body.child(1), ctx);
      if (!g || !e) return std::nullopt;
      return s_or(*g, *e);
    }
    case Op::Release: {
      OptF g = norm_fg(body.child(1), ctx);
      OptF e = norm_gf(s_and(body.child(0), body.child(1)), ctx);
      if (!g || !e) return std::nullopt;
      return s_or(*g, *e);
    }
    case Op::And: {
      std::vector<Formula> conjs;
      flatten_and(body, conjs);
      return collect_io(conjs, ctx);
    }
    default:
      return std::nullopt;
  }
}

// ---------------------------------------------------------------------------
// The initial-context normalizer: f at absolute position k.
// ---------------------------------------------------------------------------
OptF norm_i(const Formula& f, std::size_t k, Ctx& ctx) {
  ctx.step();
  if (past(f)) {
    if (k == 0) return f;
    return s_eventually(s_and(marker(k), f));
  }
  switch (f.op()) {
    case Op::And: {
      OptF l = norm_i(f.child(0), k, ctx);
      OptF r = norm_i(f.child(1), k, ctx);
      if (!l || !r) return std::nullopt;
      return s_and(*l, *r);
    }
    case Op::Or: {
      OptF l = norm_i(f.child(0), k, ctx);
      OptF r = norm_i(f.child(1), k, ctx);
      if (!l || !r) return std::nullopt;
      return s_or(*l, *r);
    }
    case Op::Next:
      return norm_i(f.child(0), k + 1, ctx);
    case Op::Eventually:
      return norm_event(f.child(0), k, ctx);
    case Op::Always:
      return norm_always_i(f.child(0), k, ctx);
    case Op::Until: {
      const Formula& a = f.child(0);
      const Formula& b = f.child(1);
      if (past(a)) {
        // (αUβ)@k: fire at k, or fire at j>k with α on [k, j).
        OptF now = norm_i(b, k, ctx);
        if (!now) return std::nullopt;
        Formula hold = f_weak_prev(f_since(a, s_and(a, marker(k))));
        OptF later = norm_event(s_and(b, hold), k + 1, ctx);
        if (!later) return std::nullopt;
        return s_or(*now, *later);
      }
      // αUβ ≡ β when β is position-independent (β everywhere or nowhere).
      if (pos_indep(b)) return b;
      if (past(b)) {
        // αUβ ≡ □(α ∨ Oβ-from-k) ∧ ◇β   (β past, any α).
        Formula seen = f_once(s_and(b, at_least(k)));
        OptF g = norm_always_i(s_or(a, seen), k, ctx);
        OptF e = norm_event(b, k, ctx);
        if (!g || !e) return std::nullopt;
        return s_and(*g, *e);
      }
      if (pos_indep(a)) {
        OptF now = norm_i(b, k, ctx);
        OptF ev = norm_event(b, k, ctx);
        if (!now || !ev) return std::nullopt;
        return s_or(*now, s_and(a, *ev));
      }
      return std::nullopt;
    }
    case Op::Release: {
      // αRβ = ¬(¬αU¬β).
      Formula dual = f_until(nnf_neg(f.child(0), &ctx), nnf_neg(f.child(1), &ctx));
      OptF n = norm_i(dual, k, ctx);
      if (!n) return std::nullopt;
      return neg_form(*n);
    }
    case Op::WeakUntil: {
      const Formula& a = f.child(0);
      const Formula& b = f.child(1);
      if (past(b)) {
        // αWβ ≡ □(α ∨ Oβ-from-k)   (β past, any α).
        Formula seen = f_once(s_and(b, at_least(k)));
        return norm_always_i(s_or(a, seen), k, ctx);
      }
      OptF g = norm_always_i(a, k, ctx);
      OptF u = norm_i(f_until(a, b), k, ctx);
      if (!g || !u) return std::nullopt;
      return s_or(*g, *u);
    }
    default:
      return std::nullopt;
  }
}

// ---------------------------------------------------------------------------
// Final structural cleanup of the produced form.
// ---------------------------------------------------------------------------
Formula tidy(const Formula& f) {
  switch (f.op()) {
    case Op::Not:
      return s_not(tidy(f.child(0)));
    case Op::And:
      return s_and(tidy(f.child(0)), tidy(f.child(1)));
    case Op::Or:
      return s_or(tidy(f.child(0)), tidy(f.child(1)));
    case Op::Always:
      return s_always(tidy(f.child(0)));
    case Op::Eventually:
      return s_eventually(tidy(f.child(0)));
    default:
      return f;
  }
}

}  // namespace

bool is_hierarchy_form(const Formula& f) { return hierarchy_form(f); }

Formula nnf(const Formula& f) { return nnf_of(f, false, nullptr); }

NormalizeResult normalize(const Formula& f, const NormalizeOptions& options) {
  NormalizeResult out{f, false, Outcome::Complete, 0};
  if (past(f)) {
    out.normal = true;
    return out;
  }
  Ctx ctx{options};
  try {
    Formula stripped = nnf_of(f, false, &ctx);
    ctx.sized(stripped);
    if (hierarchy_form(stripped)) {
      out.form = tidy(stripped);
      out.normal = true;
      out.steps = ctx.steps;
      return out;
    }
    OptF n = norm_i(stripped, 0, ctx);
    out.steps = ctx.steps;
    if (n) {
      Formula t = tidy(*n);
      MPH_ASSERT(hierarchy_form(t));
      out.form = ctx.sized(t);
      out.normal = true;
    } else {
      out.form = stripped;  // sound partial rewrite
      out.normal = hierarchy_form(stripped);
    }
  } catch (const BudgetExhausted& e) {
    out.outcome = e.outcome();
    out.form = f;
    out.normal = false;
    out.steps = ctx.steps;
  }
  return out;
}

namespace {

/// Safra-free fallback for formulas the rewrite system refuses: build the
/// formula/negation tableau NBAs and run the closure-inclusion tests of
/// core::classify_nba. Sound and partial — engages only for safety,
/// guarantee and clopen languages (docs/COMPLEMENT.md).
std::optional<ExactClass> nba_classification(const Formula& f, const Formula& partial_rewrite,
                                             const NormalizeOptions& options) {
  std::vector<std::string> names = f.atoms();
  if (names.empty()) names.emplace_back("p");
  if (names.size() > options.max_atoms) return std::nullopt;
  lang::Alphabet alphabet = lang::Alphabet::of_props(names);
  try {
    Budgeted<omega::Nba> pos = to_nba(f, alphabet, options.budget);
    if (!pos.complete()) return std::nullopt;
    Budgeted<omega::Nba> neg = to_nba(f_not(f), alphabet, options.budget);
    if (!neg.complete()) return std::nullopt;
    core::NbaClassification nc = core::classify_nba(*pos.value, *neg.value, options.budget);
    if (!nc.complete() || !nc.value) return std::nullopt;
    return ExactClass{*nc.value, partial_rewrite, ExactClass::Source::NbaSemantics};
  } catch (const std::invalid_argument&) {
    // Outside the tableau fragment (past operators, closure over the
    // 12-free-subformula cap): stay refused.
    return std::nullopt;
  }
}

}  // namespace

std::optional<ExactClass> exact_classification(const Formula& f,
                                               const NormalizeOptions& options) {
  return exact_classification(f, normalize(f, options), options);
}

std::optional<ExactClass> exact_classification(const Formula& f, const NormalizeResult& r,
                                               const NormalizeOptions& options) {
  // Both refusal shapes — rewrite exhaustion (!complete) and a complete
  // search that found no hierarchy form (!normal) — fall through to the
  // Safra-free NBA path, which has its own budget governance (a spent
  // deadline makes classify_nba bail on its first poll).
  if (!r.complete()) return nba_classification(f, r.form, options);
  std::vector<std::string> names = f.atoms();
  for (const std::string& a : r.form.atoms())
    if (std::find(names.begin(), names.end(), a) == names.end()) names.push_back(a);
  if (names.empty()) names.push_back("p");
  if (names.size() > options.max_atoms) return std::nullopt;
  lang::Alphabet alphabet = lang::Alphabet::of_props(names);
  std::optional<omega::DetOmega> m = compile_hierarchy_form(r.form, alphabet);
  if (!m) return std::nullopt;
  try {
    return ExactClass{core::classify(*m), r.form, ExactClass::Source::NormalForm,
                      m->state_count()};
  } catch (const std::invalid_argument&) {
    // Landweber's recurrence test expands the (negated) acceptance into
    // DNF, and Acceptance::dnf refuses past its clause cap: a normal form
    // whose product acceptance carries many Fin/Inf alternatives (e.g.
    // G F(q W (false W p))) has no exact class here rather than a thrown
    // error.
    return std::nullopt;
  }
}

}  // namespace mph::ltl
