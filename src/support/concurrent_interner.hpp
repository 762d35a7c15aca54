// Concurrent interning for the parallel exploration and safety scan
// (docs/PARALLEL.md): a sharded FlatInterner behind per-shard locks, plus a
// chunked array of atomics used for id-indexed side tables (product keys,
// BFS parents) that grow while other threads read them.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "src/support/check.hpp"
#include "src/support/flat_hash.hpp"

namespace mph {

/// Growable array of atomics with stable addresses: a fixed directory of
/// lazily CAS-allocated fixed-size chunks. Entries are zero-initialized when
/// their chunk appears and readers never block. Used for id-indexed side
/// tables shared between workers — the publishing discipline is the caller's
/// (typically: written under the interner's shard lock before the id
/// escapes, or via fetch_or on the atomic itself).
template <class T>
class ChunkedAtomicArray {
 public:
  ChunkedAtomicArray() : dir_(new std::atomic<std::atomic<T>*>[kDirSize]) {
    for (std::size_t i = 0; i < kDirSize; ++i)
      dir_[i].store(nullptr, std::memory_order_relaxed);
  }
  ~ChunkedAtomicArray() {
    for (std::size_t i = 0; i < kDirSize; ++i)
      delete[] dir_[i].load(std::memory_order_relaxed);
  }
  ChunkedAtomicArray(const ChunkedAtomicArray&) = delete;
  ChunkedAtomicArray& operator=(const ChunkedAtomicArray&) = delete;

  /// The atomic at index i, allocating its chunk on first touch. The CAS
  /// publishes the zero-initialized chunk with release semantics, so a
  /// loser's acquire load observes fully constructed entries.
  std::atomic<T>& at(std::size_t i) {
    MPH_ASSERT(i < kDirSize * kChunkSize);
    std::atomic<std::atomic<T>*>& slot = dir_[i >> kChunkBits];
    std::atomic<T>* chunk = slot.load(std::memory_order_acquire);
    if (chunk == nullptr) {
      auto* fresh = new std::atomic<T>[kChunkSize]();
      if (slot.compare_exchange_strong(chunk, fresh, std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
        chunk = fresh;
      } else {
        delete[] fresh;  // another worker won the race; `chunk` now holds its pointer
      }
    }
    return chunk[i & (kChunkSize - 1)];
  }

 private:
  static constexpr std::size_t kChunkBits = 16;
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkBits;
  static constexpr std::size_t kDirSize = std::size_t{1} << 15;  // 2^31 entries total
  std::unique_ptr<std::atomic<std::atomic<T>*>[]> dir_;
};

/// Maps each distinct key to a dense id, concurrently. A key hashes once;
/// the top bits pick one of 64 shards (each a FlatInterner under its own
/// mutex — FlatInterner probes with the low bits, so shard choice and probe
/// position stay independent) and ids come from one global counter. Ids are
/// dense but assigned in arrival order, which is NOT deterministic across
/// runs — engines that need stable ids renumber after the workers join
/// (fts::explore) or never expose ids at all (the emptiness searches).
///
/// `on_new(id)` runs under the shard lock before the id is returned, so any
/// thread that interns the same key later observes everything on_new wrote.
/// Threads that learn an id through another channel (a work queue, a color
/// flag) must synchronize through that channel as usual.
template <class Key, class Hash>
class ConcurrentInterner {
 public:
  /// Returns (dense id of key, whether it was newly inserted).
  std::pair<std::uint32_t, bool> intern(Key key) {
    return intern(std::move(key), [](std::uint32_t) {});
  }

  template <class OnNew>
  std::pair<std::uint32_t, bool> intern(Key key, OnNew&& on_new) {
    const std::uint64_t h = hash_(key);
    Shard& s = shards_[(h >> 58) & (kShards - 1)];
    std::lock_guard<std::mutex> lock(s.mu);
    auto [local, inserted] = s.table.intern(std::move(key));
    if (!inserted) return {s.ids[local], false};
    const std::uint32_t id = next_.fetch_add(1, std::memory_order_relaxed);
    on_new(id);
    s.ids.push_back(id);
    return {id, true};
  }

  /// Total distinct keys interned: exact once the workers have joined, a
  /// snapshot that may lag in-flight interns while they run.
  std::size_t size() const { return next_.load(std::memory_order_relaxed); }

 private:
  static constexpr std::size_t kShards = 64;

  struct alignas(64) Shard {
    std::mutex mu;
    FlatInterner<Key, Hash> table;
    std::vector<std::uint32_t> ids;  // shard-local index -> global id
  };

  Hash hash_;
  std::array<Shard, kShards> shards_;
  std::atomic<std::uint32_t> next_{0};
};

}  // namespace mph
