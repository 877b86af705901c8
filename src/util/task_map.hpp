// Open-addressing map from task id to a value, for the per-event path.
//
// MachineState and the copy-based allocators look a task up, insert it or
// erase it on every arrival, departure and migration. A node-based
// std::unordered_map pays one heap node and a pointer chase per task;
// TaskMap keeps keys and values inline in one power-of-two slot array:
//
//   * linear probing from a multiplicative (Fibonacci) hash of the id;
//   * core::kInvalidTask marks an empty slot, so that id is never stored
//     (emplace asserts) and find(core::kInvalidTask) is always null;
//   * backward-shift deletion: an erase pulls later members of its probe
//     run back into the hole, so there are no tombstones and probe runs
//     do not grow under churn;
//   * the table doubles before it would pass half full, and clear() keeps
//     the capacity, so a workload in steady state allocates nothing.
//
// for_each visits entries in slot order, which depends on the ids, the
// capacity and the erase history: callers must not depend on it. Any
// emplace or erase invalidates the pointers find and emplace returned.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/task.hpp"
#include "util/assert.hpp"

namespace partree::util {

template <typename V>
class TaskMap {
 public:
  using Key = core::TaskId;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  /// Slot count: 0 before the first emplace, then a power of two >= 16.
  [[nodiscard]] std::size_t capacity() const noexcept {
    return slots_.size();
  }

  /// The slot where the probe for `key` starts in a table of `capacity`
  /// slots (a power of two >= 2). Public so tests can build probe runs
  /// that wrap around the end of the table.
  [[nodiscard]] static constexpr std::size_t home_slot(
      Key key, std::size_t capacity) noexcept {
    return static_cast<std::size_t>(
        (key * kHashMultiplier) >> (64 - std::countr_zero(capacity)));
  }

  /// Inserts (key, value) unless `key` is already present. Returns the
  /// stored value and whether this call inserted it.
  std::pair<V*, bool> emplace(Key key, const V& value) {
    PARTREE_ASSERT(key != core::kInvalidTask,
                   "TaskMap cannot store the empty-slot sentinel");
    if ((size_ + 1) * 2 > slots_.size()) grow();
    std::size_t i = home(key);
    for (; slots_[i].key != core::kInvalidTask; i = (i + 1) & mask_) {
      if (slots_[i].key == key) return {&slots_[i].value, false};
    }
    slots_[i] = Slot{key, value};
    ++size_;
    return {&slots_[i].value, true};
  }

  /// The value stored for `key`, or null.
  [[nodiscard]] V* find(Key key) noexcept {
    const std::size_t i = locate(key);
    return i == kNotFound ? nullptr : &slots_[i].value;
  }
  [[nodiscard]] const V* find(Key key) const noexcept {
    const std::size_t i = locate(key);
    return i == kNotFound ? nullptr : &slots_[i].value;
  }

  /// Removes `key`; returns whether it was present.
  bool erase(Key key) noexcept {
    std::size_t hole = locate(key);
    if (hole == kNotFound) return false;
    // Backward shift: an entry may fill the hole unless its home slot lies
    // cyclically in (hole, j], where moving it would put it before home.
    for (std::size_t j = (hole + 1) & mask_;
         slots_[j].key != core::kInvalidTask; j = (j + 1) & mask_) {
      if (((j - home(slots_[j].key)) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole].key = core::kInvalidTask;
    --size_;
    return true;
  }

  /// Removes every entry and keeps the capacity. O(capacity).
  void clear() noexcept {
    if (size_ == 0) return;
    for (Slot& s : slots_) s.key = core::kInvalidTask;
    size_ = 0;
  }

  /// Calls fn(key, value) for every entry, in unspecified order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.key != core::kInvalidTask) fn(s.key, s.value);
    }
  }

 private:
  struct Slot {
    Key key = core::kInvalidTask;
    V value{};
  };

  static constexpr std::size_t kNotFound = ~std::size_t{0};
  static constexpr std::size_t kMinCapacity = 16;
  /// 2^64 / golden ratio: spreads consecutive ids over the table.
  static constexpr std::uint64_t kHashMultiplier = 0x9E3779B97F4A7C15ULL;

  /// home_slot for the current table, with the shift kept precomputed.
  [[nodiscard]] std::size_t home(Key key) const noexcept {
    return static_cast<std::size_t>((key * kHashMultiplier) >> shift_);
  }

  [[nodiscard]] std::size_t locate(Key key) const noexcept {
    if (size_ == 0) return kNotFound;
    // At most half the slots are full, so every probe run ends. The run
    // stops at the first empty slot before comparing keys, which is what
    // keeps the sentinel from ever matching.
    for (std::size_t i = home(key); slots_[i].key != core::kInvalidTask;
         i = (i + 1) & mask_) {
      if (slots_[i].key == key) return i;
    }
    return kNotFound;
  }

  void grow() {
    const std::size_t capacity =
        slots_.empty() ? kMinCapacity : 2 * slots_.size();
    std::vector<Slot> old(capacity);
    old.swap(slots_);
    mask_ = capacity - 1;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
    for (const Slot& s : old) {
      if (s.key == core::kInvalidTask) continue;
      std::size_t i = home(s.key);
      while (slots_[i].key != core::kInvalidTask) i = (i + 1) & mask_;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
};

}  // namespace partree::util
