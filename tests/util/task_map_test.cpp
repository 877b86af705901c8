#include "util/task_map.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <unordered_map>
#include <vector>

namespace partree::util {
namespace {

using Map = TaskMap<std::uint64_t>;

/// The map's entries, sorted by key, read through for_each.
std::vector<std::pair<core::TaskId, std::uint64_t>> entries(const Map& map) {
  std::vector<std::pair<core::TaskId, std::uint64_t>> out;
  map.for_each([&out](core::TaskId k, std::uint64_t v) {
    out.emplace_back(k, v);
  });
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<core::TaskId, std::uint64_t>> entries(
    const std::unordered_map<core::TaskId, std::uint64_t>& ref) {
  std::vector<std::pair<core::TaskId, std::uint64_t>> out(ref.begin(),
                                                          ref.end());
  std::sort(out.begin(), out.end());
  return out;
}

/// The first `count` keys whose probe starts at `slot` in a 16-slot table.
std::vector<core::TaskId> keys_homed_at(std::size_t slot, std::size_t count) {
  std::vector<core::TaskId> keys;
  for (core::TaskId k = 0; keys.size() < count; ++k) {
    if (Map::home_slot(k, 16) == slot) keys.push_back(k);
  }
  return keys;
}

TEST(TaskMapTest, EmplaceFindErase) {
  Map map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.capacity(), 0u);
  EXPECT_EQ(map.find(7), nullptr);
  EXPECT_FALSE(map.erase(7));

  const auto [v, inserted] = map.emplace(7, 70);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(*v, 70u);
  // A second emplace keeps the first value.
  const auto [again, reinserted] = map.emplace(7, 71);
  EXPECT_FALSE(reinserted);
  EXPECT_EQ(again, v);
  EXPECT_EQ(*map.find(7), 70u);
  *map.find(7) = 72;
  EXPECT_EQ(*map.find(7), 72u);
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(map.capacity(), 16u);

  EXPECT_TRUE(map.erase(7));
  EXPECT_FALSE(map.erase(7));
  EXPECT_EQ(map.find(7), nullptr);
  EXPECT_TRUE(map.empty());
}

TEST(TaskMapTest, SentinelIsNeverFoundOrStored) {
  Map map;
  EXPECT_EQ(map.find(core::kInvalidTask), nullptr);
  for (core::TaskId k = 0; k < 5; ++k) (void)map.emplace(k, k);
  // Empty slots hold the sentinel; a lookup of it must not match one.
  EXPECT_EQ(map.find(core::kInvalidTask), nullptr);
  EXPECT_EQ(std::as_const(map).find(core::kInvalidTask), nullptr);
  EXPECT_FALSE(map.erase(core::kInvalidTask));
  EXPECT_EQ(map.size(), 5u);
  EXPECT_DEATH((void)map.emplace(core::kInvalidTask, 1),
               "empty-slot sentinel");
}

TEST(TaskMapTest, GrowsBeforeHalfFull) {
  Map map;
  for (core::TaskId k = 0; k < 1000; ++k) {
    (void)map.emplace(k * 1'000'003, k);
    EXPECT_LE(2 * map.size(), map.capacity());
    EXPECT_TRUE(std::has_single_bit(map.capacity()));
  }
  EXPECT_EQ(map.capacity(), 2048u);
  for (core::TaskId k = 0; k < 1000; ++k) {
    ASSERT_NE(map.find(k * 1'000'003), nullptr) << k;
    EXPECT_EQ(*map.find(k * 1'000'003), k);
  }
}

TEST(TaskMapTest, ClearKeepsCapacityAndTheMapIsReusable) {
  Map map;
  for (core::TaskId k = 0; k < 100; ++k) (void)map.emplace(k, k);
  const std::size_t capacity = map.capacity();
  map.clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.capacity(), capacity);
  for (core::TaskId k = 0; k < 100; ++k) EXPECT_EQ(map.find(k), nullptr);
  for (core::TaskId k = 50; k < 150; ++k) (void)map.emplace(k, k + 1);
  EXPECT_EQ(map.size(), 100u);
  EXPECT_EQ(map.capacity(), capacity);
  EXPECT_EQ(map.find(49), nullptr);
  EXPECT_EQ(*map.find(149), 150u);
}

TEST(TaskMapTest, EraseInsideAProbeRunThatWrapsTheTable) {
  // Two keys homed at each of slots 14, 15 and 0 fill slots 14..15 and
  // 0..3 of a 16-slot table: the run wraps past the end. Erasing them in
  // every order makes the backward shift move entries across the wrap
  // (slot 0 -> 15, 1 -> 0, ...) and stop at entries already home.
  std::vector<core::TaskId> keys;
  for (const std::size_t slot : {14u, 15u, 0u}) {
    for (const core::TaskId k : keys_homed_at(slot, 2)) keys.push_back(k);
  }
  std::vector<std::size_t> order{0, 1, 2, 3, 4, 5};
  std::size_t orders = 0;
  do {
    Map map;
    for (const core::TaskId k : keys) (void)map.emplace(k, k + 1);
    ASSERT_EQ(map.capacity(), 16u);
    // The run wrapped: in slot order, the keys homed at 15 that overflowed
    // to slots 0 and 1 come first, the two sitting in 14 and 15 last.
    std::vector<core::TaskId> slot_order;
    map.for_each([&slot_order](core::TaskId k, std::uint64_t) {
      slot_order.push_back(k);
    });
    ASSERT_EQ(slot_order.front(), keys[2]);
    ASSERT_EQ(slot_order.back(), keys[1]);
    std::vector<bool> erased(keys.size(), false);
    for (std::size_t step = 0; step < order.size(); ++step) {
      ASSERT_TRUE(map.erase(keys[order[step]]));
      erased[order[step]] = true;
      for (std::size_t i = 0; i < keys.size(); ++i) {
        const std::uint64_t* v = map.find(keys[i]);
        if (erased[i]) {
          ASSERT_EQ(v, nullptr) << "key " << i << " after step " << step;
        } else {
          ASSERT_NE(v, nullptr) << "key " << i << " after step " << step;
          EXPECT_EQ(*v, keys[i] + 1);
        }
      }
      EXPECT_EQ(map.size(), keys.size() - step - 1);
    }
    ++orders;
  } while (std::next_permutation(order.begin(), order.end()));
  EXPECT_EQ(orders, 720u);
}

TEST(TaskMapTest, RandomChurnMatchesUnorderedMap) {
  // Keys come from a small universe (many hits and repeats) mixed with
  // arbitrary 64-bit ids; the operation mix drifts between growth and
  // shrinkage phases, with a clear-then-reuse every 31337 steps.
  std::mt19937_64 rng(20240611);
  Map map;
  std::unordered_map<core::TaskId, std::uint64_t> ref;
  std::vector<core::TaskId> wide;  // arbitrary ids inserted so far
  std::size_t peak_capacity = 0;
  for (std::uint64_t step = 0; step < 200'000; ++step) {
    const bool growing = (step / 20'000) % 2 == 0;
    const std::uint64_t roll = rng() % 100;
    core::TaskId key;
    if (rng() % 8 == 0 && !wide.empty()) {
      key = wide[rng() % wide.size()];
    } else if (rng() % 16 == 0) {
      key = rng();
      if (key == core::kInvalidTask) continue;
      wide.push_back(key);
    } else {
      key = rng() % 4096;
    }
    if (roll < (growing ? 55u : 30u)) {
      const std::uint64_t value = rng();
      const auto [v, inserted] = map.emplace(key, value);
      const auto [it, ref_inserted] = ref.emplace(key, value);
      ASSERT_EQ(inserted, ref_inserted) << "step " << step;
      EXPECT_EQ(*v, it->second);
    } else if (roll < 85) {
      ASSERT_EQ(map.erase(key), ref.erase(key) == 1) << "step " << step;
    } else {
      const std::uint64_t* v = map.find(key);
      const auto it = ref.find(key);
      ASSERT_EQ(v != nullptr, it != ref.end()) << "step " << step;
      if (v != nullptr) {
        EXPECT_EQ(*v, it->second);
      }
    }
    ASSERT_EQ(map.size(), ref.size()) << "step " << step;
    peak_capacity = std::max(peak_capacity, map.capacity());
    if (step % 9'973 == 0) {
      ASSERT_EQ(entries(map), entries(ref)) << "step " << step;
    }
    if (step % 31'337 == 31'336) {
      const std::size_t capacity = map.capacity();
      map.clear();
      ref.clear();
      EXPECT_EQ(map.capacity(), capacity);
      EXPECT_TRUE(entries(map).empty());
    }
  }
  EXPECT_EQ(entries(map), entries(ref));
  EXPECT_GE(peak_capacity, 2048u);  // the churn really grew the table
}

}  // namespace
}  // namespace partree::util
