// Flat open-addressing tables for the training kernels.
//
// FlatOrdinalTable maps 64-bit keys to dense first-seen ordinals (the
// first distinct key inserted gets 0, the next 1, ...). It is the one
// hash table under preprocessing's dedup index, the clusterer's dense
// value view and saturation's distinct counts: Fibonacci hashing, linear
// probing at load <= 1/2. Reset empties it in O(1) by bumping a
// generation stamp, so a table reused across positions, nodes and calls
// allocates nothing once it has grown to the largest key set seen.
//
// DedupIndex layers a per-slot chain over it: distinct items that share
// one 64-bit key (a hash collision) still get compared item by item.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace bytebrain {

/// uint64 key -> first-seen uint32 ordinal. `Stamp` is the generation
/// counter's type; narrower stamps wrap sooner (the tests use one to
/// reach the wrap). Not thread-safe; callers keep one per thread.
template <typename Stamp = uint32_t>
class FlatOrdinalTable {
 public:
  FlatOrdinalTable() { Reset(0); }

  /// Empties the table and sizes it for `expected_keys` keys; inserting
  /// more grows it (ordinals are kept across growth).
  void Reset(size_t expected_keys) {
    size_ = 0;
    NextGeneration();
    Resize(CapacityFor(expected_keys));
  }

  /// Returns the key's ordinal and whether this call inserted it.
  std::pair<uint32_t, bool> Insert(uint64_t key) {
    return InsertImpl</*kMayGrow=*/true>(key);
  }

  /// Insert for a table Reset for at least as many keys as it will get:
  /// no growth check, which the tightest loop (distinct counting) feels.
  std::pair<uint32_t, bool> InsertPresized(uint64_t key) {
    return InsertImpl</*kMayGrow=*/false>(key);
  }

  /// Number of distinct keys inserted since the last Reset.
  size_t size() const { return size_; }
  /// Slots in use by the current key set (a power of two, >= 2 * size()).
  size_t capacity() const { return capacity_; }

 private:
  static constexpr size_t kMinCapacity = 16;

  static size_t CapacityFor(size_t keys) {
    return std::max(kMinCapacity, std::bit_ceil(2 * keys));
  }

  // Fibonacci hashing: ordinal-encoded tokens are small consecutive
  // integers, so the key's high bits must be mixed in.
  size_t Home(uint64_t key) const {
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  template <bool kMayGrow>
  std::pair<uint32_t, bool> InsertImpl(uint64_t key) {
    size_t slot = Home(key);
    while (stamps_[slot] == generation_) {
      if (keys_[slot] == key) return {ordinals_[slot], false};
      slot = (slot + 1) & mask_;
    }
    // A new key: keep the load at or below 1/2 (checked here, off the
    // path of keys already present).
    if (2 * (size_ + 1) > capacity_) [[unlikely]] {
      if constexpr (kMayGrow) {
        Grow();
        slot = FreeSlot(key);
      } else {
        assert(false && "InsertPresized past the Reset bound");
      }
    }
    const uint32_t ordinal = static_cast<uint32_t>(size_++);
    Place(slot, key, ordinal);
    return {ordinal, true};
  }

  // The first empty slot on `key`'s probe path; the load bound keeps
  // one.
  size_t FreeSlot(uint64_t key) const {
    size_t slot = Home(key);
    while (stamps_[slot] == generation_) slot = (slot + 1) & mask_;
    return slot;
  }

  void Place(size_t slot, uint64_t key, uint32_t ordinal) {
    stamps_[slot] = generation_;
    keys_[slot] = key;
    ordinals_[slot] = ordinal;
  }

  // A stamp no slot carries marks every slot empty; when the counter
  // wraps the stamps are cleared for real.
  void NextGeneration() {
    if (++generation_ == 0) {
      std::fill(stamps_.begin(), stamps_.end(), 0);
      generation_ = 1;
    }
  }

  // Uses the first `capacity` slots, allocating more if needed. Slots
  // added here carry stamp 0, which no generation uses.
  void Resize(size_t capacity) {
    if (capacity > keys_.size()) {
      keys_.resize(capacity);
      ordinals_.resize(capacity);
      stamps_.resize(capacity, 0);
    }
    capacity_ = capacity;
    mask_ = capacity - 1;
    shift_ = 64 - std::countr_zero(capacity);
  }

  // Doubles the capacity and re-inserts the live keys with their
  // ordinals. Cold and out of line, so Insert stays small and inlined.
  [[gnu::cold, gnu::noinline]] void Grow() {
    std::vector<std::pair<uint64_t, uint32_t>> live;
    live.reserve(size_);
    for (size_t i = 0; i < capacity_; ++i) {
      if (stamps_[i] == generation_) {
        live.emplace_back(keys_[i], ordinals_[i]);
      }
    }
    NextGeneration();
    Resize(2 * capacity_);
    for (const auto& [key, ordinal] : live) {
      Place(FreeSlot(key), key, ordinal);
    }
  }

  // Parallel slot arrays: probing reads only the stamps and keys.
  std::vector<uint64_t> keys_;
  std::vector<uint32_t> ordinals_;
  std::vector<Stamp> stamps_;
  Stamp generation_ = 0;
  size_t size_ = 0;
  size_t capacity_ = 0;
  size_t mask_ = 0;
  int shift_ = 64;
};

/// Dedup index over items numbered 0, 1, 2, ... in the order they were
/// added: each key's ordinal names the first item added under it, and a
/// per-item `next` link chains later items whose key collided with it.
class DedupIndex {
 public:
  /// Empties the index, sized for `expected_items`.
  void Reset(size_t expected_items) {
    table_.Reset(expected_items);
    head_.clear();
    next_.clear();
  }

  /// Returns the item under `key` for which `same(item)` holds, or adds
  /// a new item under `key` and returns {its number, true}; the caller
  /// then appends the item at that number (it equals the item count).
  template <typename Same>
  std::pair<uint32_t, bool> FindOrAdd(uint64_t key, Same&& same) {
    const uint32_t added = static_cast<uint32_t>(next_.size());
    const auto [ordinal, inserted] = table_.Insert(key);
    if (inserted) {
      head_.push_back(added);
    } else {
      uint32_t item = head_[ordinal];
      while (true) {
        if (same(item)) return {item, false};
        if (next_[item] == kNone) break;
        item = next_[item];
      }
      next_[item] = added;  // a collision: chain the new item
    }
    next_.push_back(kNone);
    return {added, true};
  }

  /// Items added since the last Reset.
  size_t size() const { return next_.size(); }

 private:
  static constexpr uint32_t kNone = UINT32_MAX;

  FlatOrdinalTable<> table_;
  std::vector<uint32_t> head_;  // key ordinal -> first item under the key
  std::vector<uint32_t> next_;  // item -> next item under its key
};

}  // namespace bytebrain
