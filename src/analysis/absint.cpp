#include "src/analysis/absint.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>
#include <string_view>

#include "src/fts/proof_rules.hpp"
#include "src/support/check.hpp"

namespace mph::analysis {
namespace {

using fts::FtsSpec;

Interval join(Interval a, Interval b) {
  if (a.is_bottom()) return b;
  if (b.is_bottom()) return a;
  return {std::min(a.lo, b.lo), std::max(a.hi, b.hi)};
}

Interval meet(Interval a, Interval b) { return {std::max(a.lo, b.lo), std::min(a.hi, b.hi)}; }

/// Abstract image of one transition from the box `env`, written into
/// `post`: guard conjuncts are met into a copy of the box (an empty meet
/// means the transition cannot fire from any valuation in `env`; false is
/// returned and `post` is meaningless), then effects apply *sequentially in
/// place*, mirroring Fts::apply — later effects read earlier writes. When
/// `wrap_vars` is given it collects the effect targets that may wrap. The
/// fixpoint calls this once per transition per round, so `post` is a buffer
/// the caller reuses.
bool transfer(const FtsSpec& spec, const std::vector<Interval>& env, const FtsSpec::Trans& t,
              std::vector<Interval>& post, std::vector<std::size_t>* wrap_vars = nullptr) {
  post.assign(env.begin(), env.end());
  for (const auto& c : t.guard) {
    Interval& iv = post[c.var];
    if (c.op == 0) iv.hi = std::min(iv.hi, c.rhs);         // var ≤ rhs
    else if (c.op == 1) iv.lo = std::max(iv.lo, c.rhs);    // var ≥ rhs
    else iv = meet(iv, {c.rhs, c.rhs});                    // var = rhs
    if (iv.is_bottom()) return false;
  }
  for (const auto& e : t.effects) {
    const auto& dom = spec.vars[e.var];
    // 64-bit shift arithmetic: corpus-supplied `add` values may be large.
    const long long lo = static_cast<long long>(post[e.src].lo) + e.add;
    const long long hi = static_cast<long long>(post[e.src].hi) + e.add;
    const long long dlo = dom.lo, dhi = dom.hi;
    const long long span = dhi - dlo + 1;
    Interval img;
    const bool wraps = lo < dlo || hi > dhi;
    if (!wraps) {
      img = {static_cast<int>(lo), static_cast<int>(hi)};
    } else if (hi - lo + 1 >= span) {
      img = {dom.lo, dom.hi};  // the shifted image covers the whole domain
    } else {
      const auto wrap = [&](long long v) {
        long long off = (v - dlo) % span;
        if (off < 0) off += span;
        return static_cast<int>(dlo + off);
      };
      const int wlo = wrap(lo), whi = wrap(hi);
      // A contiguous image stays contiguous unless it straddles the seam.
      img = wlo <= whi ? Interval{wlo, whi} : Interval{dom.lo, dom.hi};
    }
    if (wraps && wrap_vars &&
        std::find(wrap_vars->begin(), wrap_vars->end(), e.var) == wrap_vars->end())
      wrap_vars->push_back(e.var);
    post[e.var] = img;
  }
  return true;
}

void validate(const FtsSpec& spec) {
  for (const auto& v : spec.vars) {
    MPH_REQUIRE(v.lo <= v.hi, "absint: variable '" + v.name + "' has an empty domain");
    MPH_REQUIRE(v.init >= v.lo && v.init <= v.hi,
                "absint: variable '" + v.name + "' starts outside its domain");
  }
  for (const auto& t : spec.transitions) {
    for (const auto& c : t.guard)
      MPH_REQUIRE(c.var < spec.vars.size(), "absint: guard variable out of range");
    for (const auto& e : t.effects)
      MPH_REQUIRE(e.var < spec.vars.size() && e.src < spec.vars.size(),
                  "absint: effect variable out of range");
  }
}

std::vector<Interval> initial_box(const FtsSpec& spec) {
  std::vector<Interval> env;
  env.reserve(spec.vars.size());
  for (const auto& v : spec.vars) env.push_back({v.init, v.init});
  return env;
}

}  // namespace

std::size_t AbsintResult::dead_count() const {
  std::size_t n = 0;
  for (const auto& t : transitions) n += t.dead ? 1 : 0;
  return n;
}

std::size_t AbsintResult::tightened_count() const {
  std::size_t n = 0;
  for (const auto& v : invariants) n += v.tightened ? 1 : 0;
  return n;
}

std::size_t AbsintResult::wrap_count() const {
  std::size_t n = 0;
  for (const auto& t : transitions) n += t.may_wrap ? 1 : 0;
  return n;
}

AbsintResult analyze_intervals(const FtsSpec& spec) {
  validate(spec);
  AbsintResult result;
  std::vector<Interval> env = initial_box(spec);

  // Ascending chaotic iteration. Interval growth over finite domains
  // terminates on its own; the widening threshold bounds the round count
  // independently of domain size by jumping unstable bounds straight to the
  // domain bounds.
  constexpr std::size_t kWidenAfter = 64;
  std::vector<Interval> post;
  bool changed = !spec.transitions.empty();
  while (changed) {
    changed = false;
    ++result.iterations;
    for (const auto& t : spec.transitions) {
      if (!transfer(spec, env, t, post)) continue;
      for (std::size_t v = 0; v < env.size(); ++v) {
        const Interval j = join(env[v], post[v]);
        if (j.lo == env[v].lo && j.hi == env[v].hi) continue;
        if (result.iterations > kWidenAfter) {
          env[v] = {spec.vars[v].lo, spec.vars[v].hi};
          result.widened = true;
        } else {
          env[v] = j;
        }
        changed = true;
      }
    }
  }

  // One descending narrowing pass: recompute init ⊔ ⋃ transfers under the
  // (possibly widened) post-fixpoint and keep the meet — still inductive,
  // possibly strictly tighter.
  if (!spec.vars.empty()) {
    std::vector<Interval> down = initial_box(spec);
    for (const auto& t : spec.transitions) {
      if (!transfer(spec, env, t, post)) continue;
      for (std::size_t v = 0; v < env.size(); ++v) down[v] = join(down[v], post[v]);
    }
    for (std::size_t v = 0; v < env.size(); ++v) {
      const Interval m = meet(down[v], env[v]);
      MPH_ASSERT(!m.is_bottom());
      if (m.lo != env[v].lo || m.hi != env[v].hi) result.narrowed = true;
      env[v] = m;
    }
  }

  for (std::size_t v = 0; v < spec.vars.size(); ++v) {
    const auto& var = spec.vars[v];
    AbsintResult::VarInvariant vi;
    vi.name = var.name;
    vi.dom_lo = var.lo;
    vi.dom_hi = var.hi;
    vi.inv = env[v];
    vi.tightened = env[v].lo > var.lo || env[v].hi < var.hi;
    result.invariants.push_back(std::move(vi));
  }
  std::vector<std::size_t> wrap_vars;
  for (const auto& t : spec.transitions) {
    wrap_vars.clear();
    AbsintResult::TransVerdict tv;
    tv.name = t.name;
    if (!transfer(spec, env, t, post, &wrap_vars)) {
      tv.dead = true;
    } else {
      tv.may_wrap = !wrap_vars.empty();
      for (std::size_t v : wrap_vars) tv.wrap_vars.push_back(spec.vars[v].name);
    }
    result.transitions.push_back(std::move(tv));
  }
  return result;
}

std::string to_json(const AbsintResult& result) {
  std::ostringstream out;
  out << "{\"iterations\": " << result.iterations
      << ", \"widened\": " << (result.widened ? "true" : "false")
      << ", \"narrowed\": " << (result.narrowed ? "true" : "false")
      << ", \"dead_count\": " << result.dead_count()
      << ", \"tightened_count\": " << result.tightened_count()
      << ", \"wrap_count\": " << result.wrap_count() << ", \"invariants\": [";
  for (std::size_t i = 0; i < result.invariants.size(); ++i) {
    const auto& v = result.invariants[i];
    if (i) out << ", ";
    out << "{\"var\": \"" << json_escape(v.name) << "\", \"dom_lo\": " << v.dom_lo
        << ", \"dom_hi\": " << v.dom_hi << ", \"lo\": " << v.inv.lo << ", \"hi\": " << v.inv.hi
        << ", \"tightened\": " << (v.tightened ? "true" : "false") << "}";
  }
  out << "], \"transitions\": [";
  for (std::size_t i = 0; i < result.transitions.size(); ++i) {
    const auto& t = result.transitions[i];
    if (i) out << ", ";
    out << "{\"name\": \"" << json_escape(t.name)
        << "\", \"dead\": " << (t.dead ? "true" : "false")
        << ", \"may_wrap\": " << (t.may_wrap ? "true" : "false") << ", \"wrap_vars\": [";
    for (std::size_t w = 0; w < t.wrap_vars.size(); ++w) {
      if (w) out << ", ";
      out << "\"" << json_escape(t.wrap_vars[w]) << "\"";
    }
    out << "]}";
  }
  out << "]}";
  return out.str();
}

AbsintResult lint_absint(const FtsSpec& spec, DiagnosticEngine& diagnostics) {
  AbsintResult result = analyze_intervals(spec);
  for (const auto& t : result.transitions) {
    if (t.dead) {
      auto& d = diagnostics.emit(
          "MPH-F010", t.name,
          "guard unsatisfiable under the interval invariant; the transition can never fire");
      d.fix_hint = "delete the transition or weaken its guard";
    }
    if (t.may_wrap) {
      std::string vars;
      for (const auto& v : t.wrap_vars) vars += (vars.empty() ? "" : ", ") + v;
      diagnostics.emit("MPH-F012", t.name,
                       "modular effect on " + vars + " may wrap under the interval invariant");
    }
  }
  for (const auto& v : result.invariants) {
    if (!v.tightened) continue;
    auto& d = diagnostics.emit(
        "MPH-F011", v.name,
        "confined to [" + std::to_string(v.inv.lo) + ", " + std::to_string(v.inv.hi) +
            "] of declared domain [" + std::to_string(v.dom_lo) + ", " +
            std::to_string(v.dom_hi) + "]");
    d.fix_hint = "shrink the declared domain or drop unreachable values";
  }
  return result;
}

namespace {

/// Three-valued truth over the box invariant: True/False mean "for every
/// valuation inside the box" (hence for every reachable state); Unknown
/// means the box is too coarse — or the formula mentions an atom the
/// interval domain cannot decide — and the prover must refuse.
enum class Tri { False, True, Unknown };

Tri tri_not(Tri t) {
  if (t == Tri::Unknown) return Tri::Unknown;
  return t == Tri::True ? Tri::False : Tri::True;
}

struct ProverState {
  FtsSpec spec;
  AbsintResult inv;
  StaticProverOptions options;
  bool certify_done = false;
};

/// The interval-decidable vocabulary FtsSpec::atoms() publishes: "<v>hi" /
/// "<v>lo" → (variable index, true for hi). Like atoms(), a later variable
/// of the same name wins.
std::optional<std::pair<std::size_t, bool>> atom_var(const FtsSpec& spec,
                                                     std::string_view name) {
  if (name.size() < 2) return std::nullopt;
  const std::string_view suffix = name.substr(name.size() - 2);
  if (suffix != "hi" && suffix != "lo") return std::nullopt;
  const std::string_view var = name.substr(0, name.size() - 2);
  for (std::size_t v = spec.vars.size(); v-- > 0;)
    if (spec.vars[v].name == var) return std::pair{v, suffix == "hi"};
  return std::nullopt;
}

Tri atom_truth_in_box(const ProverState& st, const std::string& name) {
  const auto atom = atom_var(st.spec, name);
  if (!atom) return Tri::Unknown;
  const auto [var, is_hi] = *atom;
  const auto& vi = st.inv.invariants[var];
  const int bound = is_hi ? vi.dom_hi : vi.dom_lo;
  if (vi.inv.lo == vi.inv.hi && vi.inv.lo == bound) return Tri::True;
  if (!vi.inv.contains(bound)) return Tri::False;
  return Tri::Unknown;
}

Tri atom_truth_at_init(const ProverState& st, const std::string& name) {
  const auto atom = atom_var(st.spec, name);
  if (!atom) return Tri::Unknown;
  const auto [var, is_hi] = *atom;
  const auto& v = st.spec.vars[var];
  return v.init == (is_hi ? v.hi : v.lo) ? Tri::True : Tri::False;
}

/// Kleene evaluation of a state formula, with atoms interpreted either over
/// the whole box (□-style premises) or exactly at the initial valuation.
Tri eval_state(const ProverState& st, const ltl::Formula& f, bool at_init) {
  using ltl::Op;
  switch (f.op()) {
    case Op::True: return Tri::True;
    case Op::False: return Tri::False;
    case Op::Atom:
      return at_init ? atom_truth_at_init(st, f.atom_name())
                     : atom_truth_in_box(st, f.atom_name());
    case Op::Not: return tri_not(eval_state(st, f.child(0), at_init));
    case Op::And: {
      const Tri a = eval_state(st, f.child(0), at_init);
      const Tri b = eval_state(st, f.child(1), at_init);
      if (a == Tri::False || b == Tri::False) return Tri::False;
      if (a == Tri::True && b == Tri::True) return Tri::True;
      return Tri::Unknown;
    }
    case Op::Or: {
      const Tri a = eval_state(st, f.child(0), at_init);
      const Tri b = eval_state(st, f.child(1), at_init);
      if (a == Tri::True || b == Tri::True) return Tri::True;
      if (a == Tri::False && b == Tri::False) return Tri::False;
      return Tri::Unknown;
    }
    case Op::Implies: {
      const Tri a = eval_state(st, f.child(0), at_init);
      const Tri b = eval_state(st, f.child(1), at_init);
      if (a == Tri::False || b == Tri::True) return Tri::True;
      if (a == Tri::True && b == Tri::False) return Tri::False;
      return Tri::Unknown;
    }
    case Op::Iff: {
      const Tri a = eval_state(st, f.child(0), at_init);
      const Tri b = eval_state(st, f.child(1), at_init);
      if (a == Tri::Unknown || b == Tri::Unknown) return Tri::Unknown;
      return a == b ? Tri::True : Tri::False;
    }
    default:
      return Tri::Unknown;  // temporal operator: not a state formula
  }
}

/// Holds-only proof search over the spec shape: □(state-formula) certified
/// through the box, conjunctions split, pure state formulas evaluated
/// exactly at the initial valuation. Anything else refuses.
bool provable(const ProverState& st, const ltl::Formula& f) {
  using ltl::Op;
  switch (f.op()) {
    case Op::And:
      return provable(st, f.child(0)) && provable(st, f.child(1));
    case Op::Always:
      return f.child(0).is_state() && eval_state(st, f.child(0), false) == Tri::True;
    default:
      return f.is_state() && eval_state(st, f, true) == Tri::True;
  }
}

/// Debug/test certification: the box must be concretely inductive. Failure
/// is a soundness bug (throws); budget exhaustion leaves the — still sound
/// by construction — proof standing.
void certify_box(ProverState& st) {
  if (!st.options.certify || st.certify_done) return;
  st.certify_done = true;
  const fts::Fts built = st.spec.build();
  std::vector<Interval> box;
  box.reserve(st.inv.invariants.size());
  for (const auto& vi : st.inv.invariants) box.push_back(vi.inv);
  const fts::Assertion in_box = [box](const fts::Valuation& v) {
    for (std::size_t i = 0; i < box.size(); ++i)
      if (!box[i].contains(v[i])) return false;
    return true;
  };
  const auto rr = fts::verify_invariance(
      built, in_box, Budget().with_state_cap(st.options.certify_max_states));
  if (!is_complete(rr.outcome)) return;
  MPH_REQUIRE(rr.proved,
              "absint: box invariant failed concrete certification (soundness bug): " +
                  rr.failed_premise);
}

}  // namespace

std::function<std::optional<fts::CheckResult>(const ltl::Formula&)> make_static_prover(
    const FtsSpec& spec, const StaticProverOptions& options) {
  auto state = std::make_shared<ProverState>();
  state->spec = spec;
  state->inv = analyze_intervals(spec);
  state->options = options;
  return [state](const ltl::Formula& f) -> std::optional<fts::CheckResult> {
    if (!provable(*state, f)) return std::nullopt;
    certify_box(*state);
    fts::CheckResult r;
    r.holds = true;
    r.outcome = r.stats.outcome = Outcome::Complete;
    r.stats.engine = fts::CheckEngine::StaticProof;
    return r;
  };
}

}  // namespace mph::analysis
