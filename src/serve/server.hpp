// The mph-serve request engine (docs/SERVE.md): one long-lived Server
// object owns the content-addressed caches and answers line-delimited JSON
// requests. The daemon (tools/mph_serve.cpp) is a thin transport around
// handle_line — stdin/stdout for tests and CI, a localhost TCP socket for
// real clients — so every piece of protocol behavior is testable in
// process (tests/serve_test.cpp) and fuzzable (the serve-replay oracle).
//
// Request admission: every op runs under an mph::Budget assembled from the
// server ceilings (ServerConfig) and the request's own `budget_states` /
// `budget_ms` fields, request values clamped to the ceilings. `budget_ms:
// 0` is an already-expired deadline — the deterministic way to exercise
// the budget-deadline Unknown path end to end. A deadline that expires
// between the parse/classify leg and the check leg yields a well-formed
// budget-deadline response with MPH-V004 diagnostics, never a half-written
// response (the PR 7 oracle-hardening pattern, applied to the serve path).
//
// Observability: per-endpoint request/error counts and latency percentiles,
// cache hit/miss/dedup counters, and budget-exhaustion counts — all
// exported by the `stats` op and by stats_text() (the daemon's shutdown
// dump).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/fts/checker.hpp"
#include "src/serve/cache.hpp"
#include "src/serve/json.hpp"
#include "src/support/budget.hpp"

namespace mph::serve {

struct ServerConfig {
  /// Ceiling on any request's state cap; requests may only lower it.
  std::size_t max_budget_states = 200000;
  /// Ceiling on any request's wall-clock allowance in ms (0 = no server
  /// deadline; requests may still set their own).
  std::uint64_t max_budget_ms = 0;
  /// Ceiling on `threads` a request may ask for.
  unsigned max_threads = 8;
  /// Additional base budget every admitted request inherits (state cap,
  /// deadline, and stop token all combine by taking the tighter value).
  /// This is how an embedding — the serve-replay oracle, a test — threads
  /// its own iteration budget through the daemon.
  Budget base_budget;
};

/// Per-endpoint observability counters.
struct EndpointMetrics {
  std::uint64_t count = 0;
  std::uint64_t errors = 0;
  std::vector<double> latency_us;  ///< ring of the newest `cap` samples
  std::size_t latency_next = 0;    ///< ring cursor (next slot to overwrite)

  /// Appends a sample; once `cap` samples are held the oldest is overwritten
  /// so the percentiles track recent traffic instead of freezing.
  void record(double us, std::size_t cap);

  /// Nearest-rank percentile: the ⌈q·n⌉-th smallest sample (1-indexed), so
  /// p50 of {1, 2} is 1, not 2. q in [0,1]; 0 when no samples.
  double percentile(double q) const;
};

class Server {
 public:
  explicit Server(ServerConfig config = {});

  /// One request line in, one response line out (no trailing newline).
  /// Never throws: malformed JSON, unknown ops, and internal errors all
  /// come back as {"ok": false, "error": {...}} responses.
  std::string handle_line(const std::string& line);

  /// The parsed-value core of handle_line.
  Json handle(const Json& request);

  /// Text rendering of the stats (the daemon's shutdown / SIGUSR1 dump).
  std::string stats_text() const;
  /// The `stats` op's payload.
  Json stats_json() const;

  const ServerConfig& config() const { return config_; }
  const FormulaCache& formula_cache() const { return formulas_; }
  const VerdictCache& verdict_cache() const { return verdicts_; }
  std::uint64_t requests() const { return requests_; }
  std::uint64_t budget_exhaustions() const { return budget_exhaustions_; }
  std::uint64_t batch_dedups() const { return batch_dedups_; }

 private:
  Json dispatch(const Json& request);
  Json handle_parse(const Json& request);
  Json handle_classify(const Json& request);
  Json handle_check(const Json& request);
  Json handle_vacuity(const Json& request);
  Json handle_invalidate(const Json& request);

  /// Assembles the request budget from config ceilings + request fields;
  /// throws std::invalid_argument on malformed budget fields.
  Budget admit(const Json& request) const;
  /// Engine options from request fields, clamped to config ceilings.
  fts::CheckOptions check_options(const Json& request, const Budget& budget) const;

  ServerConfig config_;
  FormulaCache formulas_;
  VerdictCache verdicts_;
  std::map<std::string, EndpointMetrics, std::less<>> endpoints_;
  std::uint64_t requests_ = 0;
  std::uint64_t budget_exhaustions_ = 0;  ///< results answered "unknown"
  std::uint64_t batch_dedups_ = 0;  ///< duplicate specs folded within one batch
};

/// A resolved `model` request field: built-in name or inline FtsSpec.
struct ResolvedModel {
  fts::Fts system;
  fts::AtomMap atoms;
  std::uint64_t digest = 0;
  std::string label;
  /// The symbolic description when the model came in as an inline FtsSpec —
  /// exactly the object `system` was built from, so `check` can consult the
  /// interval static prover (engine "static", docs/ABSINT.md) soundly.
  std::optional<fts::FtsSpec> spec;
};

/// Resolves a model value — a string naming a built-in
/// (fts::programs::builtin_model: peterson, trivial-mutex, semaphore-weak,
/// semaphore-strong, producer-consumer, dining-N for N=2..12, ring-N for
/// N=2..10) or an inline FtsSpec object. Throws std::invalid_argument on
/// unknown names / malformed objects.
ResolvedModel resolve_model(const Json& model);

/// Inline-model (de)serialization, shared by the server, the serve-replay
/// oracle, tests, and the tab16 load generator.
fuzz::FtsSpec fts_spec_from_json(const Json& model);
Json fts_spec_to_json(const fuzz::FtsSpec& spec);

}  // namespace mph::serve
