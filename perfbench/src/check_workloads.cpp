// check-holds and check-violations: one op is one fts::check_all batch on a
// built-in model, run once with default CheckOptions and once with
// class_dispatch (two ops). Every spec of a check-holds batch holds and
// every spec of a check-violations batch is violated, per the hand-written
// table below; --seed draws the philosopher/process indices the specs name
// and the op order, so every seed does the same amount of work.
#include <algorithm>
#include <cstdio>
#include <string>

#include "bench.hpp"
#include "src/fts/checker.hpp"
#include "src/ltl/eval.hpp"
#include "src/serve/server.hpp"
#include "src/support/rng.hpp"

namespace perfbench {
namespace {

using namespace mph;

/// One row of the expected-verdict table. `{a}` is a philosopher or process
/// index drawn per batch, `{b}` its right-hand neighbour (dining) or a
/// second, different process (mutex models).
struct Expect {
  const char* spec;
  bool holds;
};

/// `copies` batches of `specs` on `model` per cycle, each with its own draw.
struct BatchTemplate {
  const char* model;
  const char* tiny_model;  ///< the self-test's smaller instance
  int copies;
  std::vector<Expect> specs;
};

/// check-holds: exploration and the whole product are built on every check.
const std::vector<BatchTemplate>& holds_table() {
  static const std::vector<BatchTemplate> t = {
      {"dining-10", "dining-4", 1, {{"G !(eat{a} & eat{b})", true}, {"G (eat{a} -> F !eat{a})", true}}},
      {"dining-8", "dining-3", 2, {{"G !(eat{a} & eat{b})", true}, {"G (eat{a} -> F !eat{a})", true}}},
      {"dining-6", "dining-3", 3, {{"G !(eat{a} & eat{b})", true}, {"G (eat{a} -> F !eat{a})", true}}},
      {"dining-4", "dining-3", 8, {{"G !(eat{a} & eat{b})", true}, {"G (eat{a} -> F !eat{a})", true}}},
      {"ring-10", "ring-4", 1,
       {{"F elected", true}, {"G (elected -> maxleader)", true}, {"G (elected -> G elected)", true}}},
      {"ring-8", "ring-3", 2,
       {{"F elected", true}, {"G (elected -> maxleader)", true}, {"G (elected -> G elected)", true}}},
      {"ring-6", "ring-3", 3,
       {{"F elected", true}, {"G (elected -> maxleader)", true}, {"G (elected -> G elected)", true}}},
      {"semaphore-strong", "semaphore-strong", 15,
       {{"G !(c{a} & c{b})", true}, {"G (t{a} -> F c{a})", true}}},
      {"peterson", "peterson", 15, {{"G !(c1 & c2)", true}, {"G (t{a} -> F c{a})", true}}},
  };
  return t;
}

/// check-violations: the searches can stop early and every check builds a
/// counterexample.
const std::vector<BatchTemplate>& violations_table() {
  static const std::vector<BatchTemplate> t = {
      {"dining-10", "dining-4", 1, {{"G !deadlock", false}, {"G (hungry{a} -> F eat{a})", false}}},
      {"dining-8", "dining-3", 2, {{"G F eat{a}", false}, {"F G !eat{a}", false}}},
      {"dining-6", "dining-3", 3,
       {{"G !deadlock", false}, {"G (hungry{a} -> F eat{a})", false}, {"G F eat{a}", false}}},
      {"dining-4", "dining-3", 8, {{"G !deadlock", false}, {"G F eat{a}", false}}},
      {"ring-10", "ring-4", 1, {{"G quiet", false}, {"G !elected", false}}},
      {"ring-8", "ring-3", 2, {{"F G !quiet", false}, {"G F !quiet", false}}},
      {"ring-6", "ring-3", 3, {{"G quiet", false}, {"G F !quiet", false}}},
      {"semaphore-weak", "semaphore-weak", 9, {{"G (t{a} -> F c{a})", false}}},
      {"trivial-mutex", "trivial-mutex", 6, {{"G (t{a} -> F c{a})", false}}},
      {"semaphore-strong", "semaphore-strong", 9, {{"G F c{a}", false}, {"G !t{a}", false}}},
      {"peterson", "peterson", 9, {{"G F c{a}", false}, {"G !t{a}", false}}},
  };
  return t;
}

/// Process count of a model, for drawing the indices its specs name.
std::size_t process_count(const std::string& model) {
  if (model.rfind("dining-", 0) == 0) return std::stoul(model.substr(7));
  if (model == "semaphore-strong" || model == "semaphore-weak") return 3;
  return 2;  // peterson, trivial-mutex; ring specs name no index
}

/// True iff the counterexample, read as the word of its atom labels,
/// violates the spec under the independent lasso evaluator.
bool replay_violates(const serve::ResolvedModel& model, const ltl::Formula& spec,
                     const fts::Counterexample& cex) {
  if (cex.loop.empty()) return false;
  const std::vector<std::string> names = spec.atoms();
  const lang::Alphabet alphabet = lang::Alphabet::of_props(names);
  auto symbol_of = [&](const fts::Valuation& v) {
    lang::Symbol s = 0;
    for (std::size_t i = 0; i < names.size(); ++i)
      if (model.atoms.at(names[i])(model.system, v, fts::StateGraph::kNone))
        s |= lang::Symbol{1} << i;
    return s;
  };
  omega::Lasso word;
  for (const auto& v : cex.prefix) word.prefix.push_back(symbol_of(v));
  for (const auto& v : cex.loop) word.loop.push_back(symbol_of(v));
  return !ltl::evaluates(spec, word, alphabet);
}

class CheckWorkload : public Workload {
 public:
  explicit CheckWorkload(bool violations) : violations_(violations) {}

  void setup(const Config& config, Trace* trace) override {
    Rng rng(config.seed);
    for (const BatchTemplate& t : violations_ ? violations_table() : holds_table()) {
      const std::string name = config.tiny ? t.tiny_model : t.model;
      if (!models_.count(name))
        models_.emplace(name, serve::resolve_model(serve::Json::string(name)));
      const std::size_t n = process_count(name);
      for (int copy = 0; copy < (config.tiny ? 1 : t.copies); ++copy) {
        const std::size_t a = 1 + rng.below(n);
        std::size_t b = a % n + 1;  // dining: the right-hand neighbour
        if (name.rfind("dining-", 0) != 0 && n > 2) b = 1 + (a + rng.below(n - 1)) % n;
        Batch batch;
        batch.model = &models_.at(name);
        batch.label = name;
        for (const Expect& e : t.specs) {
          batch.texts.push_back(instantiate(e.spec, a, b));
          Scope parse(trace, "parse_formula");
          batch.specs.push_back(ltl::parse_formula(batch.texts.back()));
          batch.expected.push_back(e.holds);
        }
        batches_.push_back(std::move(batch));
      }
    }
    for (std::size_t i = 0; i < batches_.size(); ++i) {
      ops_.push_back({i, false});
      ops_.push_back({i, true});
    }
    for (std::size_t i = ops_.size(); i > 1; --i) std::swap(ops_[i - 1], ops_[rng.below(i)]);
  }

  std::size_t cycle_length() const override { return ops_.size(); }

  void call(std::size_t i, Trace* trace) override {
    const Batch& batch = batches_[ops_[i].batch];
    fts::CheckOptions options;
    options.class_dispatch = ops_[i].dispatch;
    options.threads = 1;
    options.explore_threads = 1;
    if (!trace) {
      results_ = fts::check_all(batch.model->system, batch.specs, batch.model->atoms, options);
      return;
    }
    const std::size_t span = trace->open("check_all");
    results_ = fts::check_all(batch.model->system, batch.specs, batch.model->atoms, options);
    trace->close(span);
    add_phase_spans(*trace, span);
  }

  OpCheck verify(std::size_t i, Counters* counters) override {
    const Batch& batch = batches_[ops_[i].batch];
    OpCheck check;
    if (results_.size() != batch.specs.size()) {
      check.failure = batch.label + ": check_all returned the wrong number of results";
      return check;
    }
    for (std::size_t k = 0; k < results_.size(); ++k) {
      const fts::CheckResult& r = results_[k];
      ++check.answers;
      const std::string where = batch.label + " " + batch.texts[k] +
                                (ops_[i].dispatch ? " (class_dispatch)" : " (defaults)");
      if (!is_complete(r.outcome)) continue;  // undecided, not wrong
      ++check.decided;
      if (r.holds != batch.expected[k]) {
        check.failure = where + ": verdict disagrees with the expected-verdict table";
      } else if (!r.holds && (!r.counterexample ||
                              !replay_violates(*batch.model, batch.specs[k], *r.counterexample))) {
        check.failure = where + ": counterexample does not replay to a violation";
      } else if (r.holds && r.counterexample) {
        check.failure = where + ": holding check carries a counterexample";
      }
      if (counters) {
        const fts::CheckStats& s = r.stats;
        (*counters)["fts.automaton_states"] += static_cast<double>(s.automaton_states);
        (*counters)["fts.product_states"] += static_cast<double>(s.product_states);
        (*counters)["fts.product_bound"] += static_cast<double>(s.product_bound);
        (*counters)["fts.engine." + std::string(fts::to_string(s.engine))] += 1.0;
        (*counters)["fts.checks"] += 1.0;
      }
    }
    if (counters && !results_.empty()) {
      const double nodes = static_cast<double>(results_.front().stats.state_graph_nodes);
      (*counters)["fts.nodes"] += nodes;
      (*counters)["fts.max_nodes"] = std::max((*counters)["fts.max_nodes"], nodes);
    }
    return check;
  }

 private:
  struct Batch {
    const serve::ResolvedModel* model = nullptr;
    std::string label;
    std::vector<std::string> texts;
    std::vector<ltl::Formula> specs;
    std::vector<bool> expected;
  };
  struct Op {
    std::size_t batch;
    bool dispatch;
  };

  /// CheckStats reports phase durations, not bounds: the phases become child
  /// spans of check_all laid end to end from its start, exploration and
  /// labelling once (shared by the batch), then compile and search per spec.
  void add_phase_spans(Trace& trace, std::size_t parent) const {
    Clock::time_point at = trace.spans()[parent].start;
    auto lay = [&](const char* name, double seconds) {
      const Clock::time_point end =
          at + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
      trace.add(name, at, end, parent);
      at = end;
    };
    if (results_.empty()) return;
    lay("explore", results_.front().stats.explore_seconds);
    lay("label", results_.front().stats.label_seconds);
    for (const fts::CheckResult& r : results_) {
      lay("compile", r.stats.compile_seconds);
      lay("search", r.stats.search_seconds);
    }
  }

  bool violations_;
  std::map<std::string, serve::ResolvedModel> models_;
  std::vector<Batch> batches_;
  std::vector<Op> ops_;
  std::vector<fts::CheckResult> results_;
};

}  // namespace

std::unique_ptr<Workload> make_check_workload(bool violations) {
  return std::make_unique<CheckWorkload>(violations);
}

int run_reanchor() {
  const serve::ResolvedModel model = serve::resolve_model(serve::Json::string("dining-12"));
  struct Row {
    const char* spec;
    const char* options;
    bool force_scc, class_dispatch;
  };
  const Row rows[] = {
      {"G !(eat1 & eat2)", "defaults", false, false},
      {"G !(eat1 & eat2)", "force_scc", true, false},
      {"G !(eat1 & eat2)", "class_dispatch", false, true},
      {"G (hungry1 -> F eat1)", "defaults", false, false},
  };
  std::printf("| check (`dining-12`) | engine | outcome | nodes | product states | explore s | "
              "label s | compile s | search s | unattributed s | wall s |\n"
              "|---|---|---|---|---|---|---|---|---|---|---|\n");
  for (const Row& row : rows) {
    fts::CheckOptions options;
    options.budget.with_state_cap(4000000);  // dining-12 has 304,105 states
    options.force_scc = row.force_scc;
    options.class_dispatch = row.class_dispatch;
    const std::vector<ltl::Formula> specs = {ltl::parse_formula(row.spec)};
    const Clock::time_point t0 = Clock::now();
    const std::vector<fts::CheckResult> r =
        fts::check_all(model.system, specs, model.atoms, options);
    const double wall = seconds_between(t0, Clock::now());
    const fts::CheckStats& s = r.front().stats;
    const double phases = s.explore_seconds + s.label_seconds + s.compile_seconds + s.search_seconds;
    std::printf("| `%s`, %s | %s | %s | %zu | %zu | %.3f | %.3f | %.3f | %.3f | %.3f | %.3f |\n",
                row.spec, row.options, std::string(fts::to_string(s.engine)).c_str(),
                std::string(to_string(s.outcome)).c_str(), s.state_graph_nodes, s.product_states, s.explore_seconds, s.label_seconds,
                s.compile_seconds, s.search_seconds, wall - phases, wall);
    std::fflush(stdout);
  }
  return 0;
}

}  // namespace perfbench
