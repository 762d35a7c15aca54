// The paper's worked programs (§1, §4): mutual-exclusion algorithms and a
// producer–consumer loop, each packaged with the atom vocabulary its
// specifications use.
//
// Location encoding for mutex processes: 0 = noncritical (N), 1 = trying
// (T/W), 2 = critical (C); atoms "t<i>" and "c<i>" expose the trying and
// critical locations of process i (1-based).
#pragma once

#include <optional>
#include <span>
#include <string_view>

#include "src/fts/fts.hpp"

namespace mph::fts::programs {

struct Program {
  Fts system;
  AtomMap atoms;
};

/// Peterson's two-process mutual exclusion. Entering and exiting the
/// critical section are weakly fair; deciding to compete is not (a process
/// may stay noncritical forever). Satisfies both mutual exclusion and
/// accessibility.
Program peterson();

/// The introduction's defective "implementation": processes may start
/// trying, but nothing ever admits them. Satisfies mutual exclusion,
/// violates accessibility — the canonical underspecification witness.
Program trivial_mutex();

/// Semaphore-based mutual exclusion for `n_processes` (2..4). The acquire
/// transitions carry the given fairness: with Weak the semaphore may starve
/// a process (enabledness flickers), with Strong accessibility holds —
/// the paper's motivation for strong fairness / simple reactivity.
Program semaphore_mutex(std::size_t n_processes, Fairness acquire_fairness);

/// Bounded producer–consumer over a counter in [0, capacity]; producing is
/// unfair (the producer may stop), consuming is weakly fair. Atoms "empty",
/// "full", "nonempty".
Program producer_consumer(int capacity);

/// Dining philosophers for `n` philosophers (2..12), each grabbing the left
/// fork then the right. The naive protocol can deadlock (everyone holds the
/// left fork); atom "deadlock" exposes it, atoms "eat<i>" the eating states.
/// Pick-up and eating transitions are weakly fair.
Program dining_philosophers(std::size_t n);

/// Chang–Roberts leader election on a unidirectional ring of `n` nodes
/// (2..10) with distinct ids 1..n, every node initiating. One-slot channels;
/// a node drops smaller ids, forwards bigger ones (blocking while its
/// outgoing slot is full), and elects itself on seeing its own id. All
/// receives are weakly fair. Atoms: "elected" (some leader chosen),
/// "maxleader" (the leader is node n — the only possible winner), "quiet"
/// (no message in flight). Under weak fairness "F elected" and
/// "G(elected -> maxleader)" both hold.
Program ring_leader(std::size_t n);

/// The fixed built-in model names, in listing order (`mph-lint --models`
/// lints exactly these): peterson, trivial-mutex, semaphore-weak and
/// semaphore-strong (3 processes), producer-consumer (capacity 3), dining-3.
std::span<const std::string_view> builtin_model_names();

/// The one name → Program lookup shared by `mph-lint --model` and serve:
/// a name from builtin_model_names() or a family member dining-N / ring-N,
/// with N written in at most 3 decimal digits and no leading zero (so each
/// model has exactly one name). nullopt for an unknown name; a family
/// parameter outside the family's range throws std::invalid_argument.
std::optional<Program> builtin_model(std::string_view name);

}  // namespace mph::fts::programs
