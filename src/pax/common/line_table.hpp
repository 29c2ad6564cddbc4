// Open-addressed hash table keyed by cache line, for the per-line maps on
// the device's hot path (PM pending overlay, lines logged this epoch,
// XPLine window, PaxCheck's pending lines). Slots live in one power-of-two
// array with linear probing: no per-entry allocation (the array doubles
// with the live set), erase shifts the rest of the cluster back instead of
// leaving tombstones, and clear() costs O(live entries) amortized — an
// array that stays much larger than its loads is reallocated to fit them.
//
// Not thread-safe; callers hold the lock that guards the owning structure.
// Pointers from find()/try_emplace() are valid until the next insertion,
// erase or clear.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "pax/common/types.hpp"

namespace pax {

template <typename V>
class LineTable {
 public:
  LineTable() = default;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Slots currently allocated (for tests and footprint accounting).
  std::size_t capacity() const { return slots_.size(); }
  /// The slot where a probe for `line` starts at the current capacity (> 0);
  /// lets tests build clusters at chosen positions.
  std::size_t home_slot(LineIndex line) const { return home(line.value); }

  V* find(LineIndex line) {
    if (size_ == 0) return nullptr;
    for (std::size_t i = home(line.value);; i = (i + 1) & mask()) {
      Slot& s = slots_[i];
      if (s.key == line.value) return &s.value;
      if (s.key == kEmpty) return nullptr;
    }
  }
  const V* find(LineIndex line) const {
    return const_cast<LineTable*>(this)->find(line);
  }
  bool contains(LineIndex line) const { return find(line) != nullptr; }

  /// Inserts (line, value) unless `line` is present. Returns the value slot
  /// of `line` and whether it was inserted (an existing value is kept).
  std::pair<V*, bool> try_emplace(LineIndex line, const V& value = V{}) {
    if ((size_ + 1) * 2 > slots_.size()) {
      rehash(slots_.empty() ? kMinCapacity : slots_.size() * 2);
    }
    for (std::size_t i = home(line.value);; i = (i + 1) & mask()) {
      Slot& s = slots_[i];
      if (s.key == line.value) return {&s.value, false};
      if (s.key == kEmpty) {
        s.key = line.value;
        s.value = value;
        ++size_;
        return {&s.value, true};
      }
    }
  }

  /// Removes `line`; returns whether it was present.
  bool erase(LineIndex line) {
    if (size_ == 0) return false;
    std::size_t hole = home(line.value);
    while (slots_[hole].key != line.value) {
      if (slots_[hole].key == kEmpty) return false;
      hole = (hole + 1) & mask();
    }
    // Backward shift: walk the rest of the cluster and move back every
    // entry whose home does not lie cyclically in (hole, j] — i.e. every
    // entry that the hole now separates from its home.
    for (std::size_t j = (hole + 1) & mask(); slots_[j].key != kEmpty;
         j = (j + 1) & mask()) {
      const std::size_t h = home(slots_[j].key);
      if (((j - h) & mask()) >= ((j - hole) & mask())) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    slots_[hole].key = kEmpty;
    --size_;
    return true;
  }

  void clear() {
    if (size_ == 0) return;
    // A table much larger than its loads would make every clear (and every
    // probe's cache footprint) pay for a past peak, so it shrinks to fit
    // them. Only after kShrinkAfter small loads in a row, though: a table
    // whose loads alternate between large and small (an XPLine window
    // between fences) keeps its capacity instead of shrinking and
    // regrowing every cycle.
    if (slots_.size() > 4 * capacity_for(size_)) {
      small_peak_ = std::max(small_peak_, size_);
      if (++small_clears_ == kShrinkAfter) {
        reset(capacity_for(small_peak_));
        size_ = 0;
        return;
      }
    } else {
      small_clears_ = 0;
      small_peak_ = 0;
    }
    for (Slot& s : slots_) s.key = kEmpty;
    size_ = 0;
  }

  /// Calls fn(LineIndex, V&) once per live entry, in slot order. fn must
  /// not insert into or erase from the table.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (Slot& s : slots_) {
      if (s.key != kEmpty) fn(LineIndex{s.key}, s.value);
    }
  }
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.key != kEmpty) fn(LineIndex{s.key}, s.value);
    }
  }

 private:
  // No pool reaches 2^64 - 1 lines, so that key marks an empty slot.
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  static constexpr std::size_t kMinCapacity = 16;
  static constexpr unsigned kShrinkAfter = 8;

  struct Slot {
    std::uint64_t key = kEmpty;
    V value{};
  };

  static std::size_t capacity_for(std::size_t n) {
    std::size_t cap = kMinCapacity;
    while (cap < 2 * n) cap *= 2;
    return cap;
  }

  std::size_t mask() const { return slots_.size() - 1; }

  // Fibonacci hashing: sequential lines (the common case) land far apart.
  std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >>
                                    (64 - shift_));
  }

  void reset(std::size_t capacity) {
    slots_.assign(capacity, Slot{});
    small_clears_ = 0;
    small_peak_ = 0;
    shift_ = 0;
    while ((std::size_t{1} << shift_) < capacity) ++shift_;
  }

  void rehash(std::size_t capacity) {
    std::vector<Slot> old = std::move(slots_);
    reset(capacity);
    for (Slot& s : old) {
      if (s.key == kEmpty) continue;
      std::size_t i = home(s.key);
      while (slots_[i].key != kEmpty) i = (i + 1) & mask();
      slots_[i] = std::move(s);
    }
  }

  std::vector<Slot> slots_;
  unsigned shift_ = 0;  // log2(slots_.size())
  std::size_t size_ = 0;
  // Consecutive clears of a load much smaller than the table, and the
  // largest of those loads.
  unsigned small_clears_ = 0;
  std::size_t small_peak_ = 0;
};

}  // namespace pax
