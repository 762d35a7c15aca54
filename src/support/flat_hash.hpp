// Open-addressing flat hash interning — the hot-path replacement for the
// ordered std::map indices used wherever a growing set of keys must be
// mapped to dense indices (state-graph exploration, product construction,
// subset constructions). Linear probing over a power-of-two slot table,
// cached 64-bit hashes (compared before the key so growth never rehashes
// and probe misses stay cheap), max load factor 0.7.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/support/check.hpp"

namespace mph {

/// splitmix64 finalizer: a cheap, well-mixed 64-bit hash for integers.
constexpr std::uint64_t hash_mix(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Order-dependent combination of a running hash with one more value.
constexpr std::uint64_t hash_combine(std::uint64_t seed, std::uint64_t v) {
  return hash_mix(seed ^ (v + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2)));
}

/// Hash of an integer range (vectors of valuations, mark lists, ...).
template <class Range>
constexpr std::uint64_t hash_range(const Range& r) {
  std::uint64_t h = 0x2545f4914f6cdd1dULL;
  for (const auto& v : r)
    h = hash_combine(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
  return h;
}

/// Hasher for keys that are already integers.
struct IntHash {
  template <class T>
  constexpr std::uint64_t operator()(T v) const {
    return hash_mix(static_cast<std::uint64_t>(v));
  }
};

/// Hasher for integer ranges.
struct IntRangeHash {
  template <class Range>
  constexpr std::uint64_t operator()(const Range& r) const {
    return hash_range(r);
  }
};

/// Maps each distinct key to a dense index 0, 1, 2, ... in insertion order.
/// `Hash` must return std::uint64_t. Keys are stored contiguously and stay
/// addressable by index for the lifetime of the interner.
template <class Key, class Hash>
class FlatInterner {
 public:
  explicit FlatInterner(Hash hash = Hash{}) : hash_(std::move(hash)) {
    slots_.assign(kMinSlots, kEmpty);
  }

  /// Returns (index of key, whether it was newly inserted).
  std::pair<std::size_t, bool> intern(Key key) {
    if ((keys_.size() + 1) * 10 > slots_.size() * 7) grow();
    const std::uint64_t h = hash_(key);
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(h) & mask;
    while (slots_[i] != kEmpty) {
      const std::uint32_t idx = slots_[i];
      if (hashes_[idx] == h && keys_[idx] == key) return {idx, false};
      i = (i + 1) & mask;
    }
    MPH_ASSERT(keys_.size() < kEmpty);
    const std::uint32_t idx = static_cast<std::uint32_t>(keys_.size());
    slots_[i] = idx;
    keys_.push_back(std::move(key));
    hashes_.push_back(h);
    return {idx, true};
  }

  static constexpr std::size_t npos = ~std::size_t{0};

  /// Index of key, or npos when it was never interned.
  std::size_t find(const Key& key) const {
    const std::uint64_t h = hash_(key);
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(h) & mask;
    while (slots_[i] != kEmpty) {
      const std::uint32_t idx = slots_[i];
      if (hashes_[idx] == h && keys_[idx] == key) return idx;
      i = (i + 1) & mask;
    }
    return npos;
  }

  bool contains(const Key& key) const { return find(key) != npos; }

  std::size_t size() const { return keys_.size(); }
  const Key& operator[](std::size_t i) const { return keys_[i]; }
  const std::vector<Key>& keys() const { return keys_; }

  void reserve(std::size_t n) {
    keys_.reserve(n);
    hashes_.reserve(n);
    std::size_t want = kMinSlots;
    while (n * 10 > want * 7) want <<= 1;
    if (want > slots_.size()) rehash(want);
  }

 private:
  static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};
  static constexpr std::size_t kMinSlots = 16;

  void grow() { rehash(slots_.size() * 2); }

  void rehash(std::size_t n_slots) {
    slots_.assign(n_slots, kEmpty);
    const std::size_t mask = n_slots - 1;
    for (std::uint32_t idx = 0; idx < keys_.size(); ++idx) {
      std::size_t i = static_cast<std::size_t>(hashes_[idx]) & mask;
      while (slots_[i] != kEmpty) i = (i + 1) & mask;
      slots_[i] = idx;
    }
  }

  std::vector<Key> keys_;
  std::vector<std::uint64_t> hashes_;
  std::vector<std::uint32_t> slots_;  // key index, or kEmpty
  Hash hash_;
};

}  // namespace mph
