// Shared pieces of the mph benchmark: the workload interface main.cpp
// runs, the in-memory span recorder of traced runs, and the
// counters workloads fill from the telemetry mph already returns.
//
// The benchmark measures every layer from outside: spans wrap calls the
// benchmark itself makes into public mph functions, and per-layer counts
// come from CheckStats, NormalizeResult, InclusionResult, ComplementStats
// and serve responses. Nothing here reaches into src/.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Op id of spans recorded while a workload sets up.
constexpr std::uint32_t kSetupOp = 0xffffffffu;

/// One call into mph: its name, bounds, causing span and the op it served.
struct Span {
  const char* name = "";
  Clock::time_point start, end;
  std::int32_t parent = -1;  ///< index into Trace::spans(), -1 for a root
  std::uint32_t op = kSetupOp;
};

/// Spans of a traced run, kept in memory and written out when it ends.
class Trace {
 public:
  void set_op(std::uint32_t op) { op_ = op; }
  /// Opens a span now, as a child of the innermost open span.
  std::size_t open(const char* name);
  void close(std::size_t id);
  /// A span whose bounds the library reported as a duration (the CheckStats
  /// phase times), placed under `parent`.
  void add(const char* name, Clock::time_point start, Clock::time_point end, std::size_t parent);
  const std::vector<Span>& spans() const { return spans_; }

  /// Per span name: summed duration and self time (duration minus the part
  /// covered by child spans), and the number of spans, over one op id range.
  struct Totals {
    double seconds = 0.0;
    double self_seconds = 0.0;
    std::size_t count = 0;
  };
  std::map<std::string, Totals> totals(bool setup) const;

  /// Writes the spans as Chrome trace-event JSON (chrome://tracing, Perfetto).
  bool write_chrome_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
  std::uint32_t op_ = kSetupOp;
};

/// Scoped span; does nothing when the trace is null (untraced runs).
class Scope {
 public:
  Scope(Trace* trace, const char* name) : trace_(trace), id_(trace ? trace->open(name) : 0) {}
  ~Scope() {
    if (trace_) trace_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Trace* trace_;
  std::size_t id_;
};

/// Named totals a workload accumulates from mph telemetry while traced.
using Counters = std::map<std::string, double>;

/// What one op produced, judged against the reference outside the timing.
struct OpCheck {
  std::size_t answers = 0;  ///< answers the op returned (specs, queries, ...)
  std::size_t decided = 0;  ///< of those, complete (not Unknown/refused)
  std::string failure;      ///< empty when the op agreed with the reference
};

struct Config {
  std::uint64_t seed = 1;
  /// Seed of the formula corpora whose skeletons every --seed renames.
  std::uint64_t corpus_seed = 1;
  bool tiny = false;  ///< self-test size
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the models, generates and parses the inputs, constructs servers.
  /// Calls into mph are spanned when `trace` is set.
  virtual void setup(const Config& config, Trace* trace) = 0;
  /// Ops in one cycle. A run measures whole cycles, so every percentile and
  /// ratio is taken over the same multiset of ops whatever the cycle count.
  virtual std::size_t cycle_length() const = 0;
  /// Untimed hook before each cycle (fresh per-cycle inputs).
  virtual void begin_cycle(std::size_t /*cycle*/) {}
  /// The timed part of op i of the cycle.
  virtual void call(std::size_t i, Trace* trace) = 0;
  /// Checks the outputs of the last call against the reference (untimed);
  /// adds mph telemetry to `counters` when it is set.
  virtual OpCheck verify(std::size_t i, Counters* counters) = 0;
  /// Untimed hooks around each traced round (traced runs alternate untraced
  /// and traced rounds).
  virtual void start_traced() {}
  virtual void stop_traced() {}
  /// Untimed hook after the last traced round: final per-layer values that
  /// are not sums of spans or counters (serve stats).
  virtual void finish_traced(Counters& /*counters*/) {}
  /// Cycles per round. Every round must run the same ops in the same order
  /// (main.cpp keeps each op's fastest latency over the rounds).
  virtual std::size_t round_cycles() const { return 1; }
};

/// The state cap serve admits requests under (the default
/// serve::ServerConfig::max_budget_states); the benchmark's direct calls and
/// reference checks use the same cap.
std::size_t serve_state_cap();

std::unique_ptr<Workload> make_check_workload(bool violations);
std::unique_ptr<Workload> make_spec_analysis();
std::unique_ptr<Workload> make_serve_mixed();

/// The ROADMAP re-anchor split on dining-12 (explore vs search per engine),
/// printed as a table; returns the process exit code.
int run_reanchor();

/// Current and peak resident set of this process, in bytes.
std::size_t current_rss_bytes();
std::size_t peak_rss_bytes();

/// Nearest-rank percentile (the ⌈q·n⌉-th smallest), 0 for no samples.
double percentile(std::vector<double> samples, double q);

/// Replaces the placeholders `{a}` and `{b}` of a spec template by indices.
inline std::string instantiate(std::string text, std::size_t a, std::size_t b) {
  for (auto [key, value] : {std::pair{"{a}", a}, std::pair{"{b}", b}}) {
    for (std::size_t at = text.find(key); at != std::string::npos; at = text.find(key))
      text.replace(at, 3, std::to_string(value));
  }
  return text;
}

}  // namespace perfbench
