#include "src/fts/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "src/support/check.hpp"
#include "src/support/concurrent_interner.hpp"
#include "src/support/flat_hash.hpp"
#include "src/support/work_queue.hpp"

namespace mph::fts::detail {
namespace {

constexpr std::int64_t kNoParent = -1;

// ------------------------------------------------------------------------
// Parallel closed-prefix scan (the SafetyPrefix engine, fanned out).

struct ScanItem {
  std::uint32_t pid = 0;
  std::uint32_t node = 0;
  omega::State q = 0;
};

}  // namespace

ScanResult parallel_safety_scan(const StateGraph& sg,
                                        const std::vector<lang::Symbol>& labels,
                                        const omega::DetOmega& m,
                                        const std::vector<bool>& live, const Budget& budget,
                                        unsigned threads) {
  ScanResult res;
  res.worker_states.assign(threads, 0);
  res.worker_steals.assign(threads, 0);
  const std::size_t cap = budget.state_cap();

  ConcurrentInterner<std::uint64_t, IntHash> pids;
  ChunkedAtomicArray<std::uint64_t> keys;    // pid -> packed (node, q)
  ChunkedAtomicArray<std::int64_t> parents;  // pid -> discovering pid (kNoParent at root)
  WorkStealingQueues<ScanItem> queues(threads);
  std::atomic<bool> quit{false};
  std::atomic<Outcome> exhausted{Outcome::Complete};
  std::atomic<std::int64_t> bad{-1};  // first dead pid any worker reached
  std::mutex error_mu;
  std::exception_ptr error;
  auto record_exhausted = [&](Outcome o) {
    Outcome expected = Outcome::Complete;
    exhausted.compare_exchange_strong(expected, o, std::memory_order_acq_rel);
    quit.store(true, std::memory_order_relaxed);
  };

  {
    const std::uint64_t key0 = pack(0, m.initial());
    auto [id0, fresh] = pids.intern(key0, [&](std::uint32_t g) {
      keys.at(g).store(key0, std::memory_order_relaxed);
      parents.at(g).store(kNoParent, std::memory_order_relaxed);
    });
    MPH_ASSERT(fresh);
    if (id0 >= cap)
      record_exhausted(Outcome::BudgetStates);  // cap == 0
    else
      queues.push(0, ScanItem{id0, 0, m.initial()});
  }

  auto worker = [&](unsigned w) {
    std::uint64_t steps = 0;
    ScanItem item;
    try {
      for (;;) {
        if (quit.load(std::memory_order_relaxed)) return;
        if (!queues.pop(w, item)) {
          if (queues.idle()) return;
          std::this_thread::yield();
          continue;
        }
        if ((++steps & 0x3FFu) == 0)
          if (Outcome o = budget.poll(); !is_complete(o)) record_exhausted(o);
        if (!live[item.q]) {
          // Dead automaton states are closed under successors: this prefix
          // already violates the (closed) property. First finder wins.
          std::int64_t expected = -1;
          bad.compare_exchange_strong(expected, static_cast<std::int64_t>(item.pid));
          quit.store(true, std::memory_order_relaxed);
          queues.done();
          return;
        }
        res.worker_states[w]++;
        const omega::State q2 = m.next(item.q, labels[item.node]);
        for (const StateGraph::Edge& e : sg.edges(item.node)) {
          const std::uint64_t key = pack(e.target, q2);
          auto [gid, fresh] = pids.intern(key, [&](std::uint32_t g) {
            keys.at(g).store(key, std::memory_order_relaxed);
            parents.at(g).store(static_cast<std::int64_t>(item.pid),
                                std::memory_order_relaxed);
          });
          if (!fresh) continue;
          if (gid >= cap) {
            record_exhausted(Outcome::BudgetStates);
            break;
          }
          queues.push(w, ScanItem{gid, e.target, q2});
        }
        queues.done();
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mu);
      if (!error) error = std::current_exception();
      quit.store(true, std::memory_order_relaxed);
    }
  };
  {
    std::vector<std::jthread> pool;
    pool.reserve(threads);
    for (unsigned w = 0; w < threads; ++w) pool.emplace_back(worker, w);
  }
  if (error) std::rethrow_exception(error);

  for (unsigned w = 0; w < threads; ++w) res.worker_steals[w] = queues.stolen(w);
  const std::size_t size = pids.size();
  res.outcome = exhausted.load(std::memory_order_acquire);
  if (const std::int64_t b = bad.load(std::memory_order_acquire); b >= 0) {
    // A reachable bad prefix is authoritative evidence even if some other
    // worker ran out of budget in the same instant.
    res.outcome = Outcome::Complete;
    std::vector<std::size_t> path;
    for (std::int64_t p = b; p >= 0; p = parents.at(static_cast<std::size_t>(p))
                                             .load(std::memory_order_relaxed))
      path.push_back(node_of(keys.at(static_cast<std::size_t>(p))
                                 .load(std::memory_order_relaxed)));
    std::reverse(path.begin(), path.end());
    res.bad_path = std::move(path);
  }
  res.product_states =
      res.outcome == Outcome::BudgetStates ? std::min(size, cap + 1) : size;
  return res;
}

}  // namespace mph::fts::detail
