// Equivalence pins for the bucketed repack pipeline.
//
// The bucketed pass replaced a comparison sort, and CopySet::place_run
// replaced per-task place() calls; both swaps claim BYTE-IDENTICAL
// output, because placement order is observable state (the digest goldens
// and detsim differentials depend on it). These property tests pin the
// claim against reference implementations of the old code paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/packing.hpp"
#include "tree/copy_set.hpp"
#include "util/rng.hpp"

namespace partree::core {
namespace {

std::vector<ActiveTask> random_tasks(util::Rng& rng, std::uint64_t n_leaves,
                                     int count) {
  // Power-of-two multiset with heavy duplication: sizes are drawn from
  // the full class range so every bucket sees ties.
  std::vector<ActiveTask> tasks;
  std::uint64_t classes = 1;
  for (std::uint64_t s = n_leaves; s > 1; s /= 2) ++classes;
  for (int i = 0; i < count; ++i) {
    const std::uint64_t size = std::uint64_t{1} << rng.below(classes);
    tasks.push_back({Task{static_cast<TaskId>(i), size}, tree::kInvalidNode});
  }
  // Shuffle ids relative to positions so input order is adversarial.
  for (std::size_t i = tasks.size(); i > 1; --i) {
    std::swap(tasks[i - 1], tasks[rng.below(i)]);
  }
  return tasks;
}

/// The pre-bucketing reference: one comparison sort, then per-task
/// first-fit placement -- a transcript of the old pack_tasks_ordered.
std::vector<PackedTask> reference_pack(const tree::Topology& topo,
                                       std::vector<ActiveTask> tasks,
                                       PackOrder order) {
  std::vector<PackedTask> packed;
  packed.reserve(tasks.size());
  for (const ActiveTask& at : tasks) {
    packed.push_back({at.task.id, at.task.size, {}});
  }
  std::sort(packed.begin(), packed.end(),
            [order](const PackedTask& a, const PackedTask& b) {
              switch (order) {
                case PackOrder::kDecreasingSize:
                  if (a.size != b.size) return a.size > b.size;
                  return a.id < b.id;
                case PackOrder::kIncreasingSize:
                  if (a.size != b.size) return a.size < b.size;
                  return a.id < b.id;
                case PackOrder::kArrivalOrder:
                  return a.id < b.id;
              }
              return a.id < b.id;
            });
  tree::CopySet copies(topo);
  for (PackedTask& p : packed) p.placement = copies.place(p.size);
  return packed;
}

class PackEquivalenceTest : public ::testing::TestWithParam<PackOrder> {};

TEST_P(PackEquivalenceTest, BucketedMatchesComparisonSort) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 977 + 11);
  for (const std::uint64_t n_leaves : {2u, 8u, 64u}) {
    const tree::Topology topo(n_leaves);
    for (int trial = 0; trial < 60; ++trial) {
      const int count = static_cast<int>(rng.below(40));
      const auto tasks = random_tasks(rng, n_leaves, count);
      const auto expected = reference_pack(topo, tasks, GetParam());
      const auto actual = pack_tasks_ordered(topo, tasks, GetParam());
      ASSERT_EQ(actual.size(), expected.size());
      for (std::size_t i = 0; i < actual.size(); ++i) {
        ASSERT_EQ(actual[i].id, expected[i].id)
            << "N=" << n_leaves << " trial " << trial << " pos " << i;
        ASSERT_EQ(actual[i].size, expected[i].size);
        ASSERT_EQ(actual[i].placement, expected[i].placement);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllOrders, PackEquivalenceTest,
                         ::testing::Values(PackOrder::kDecreasingSize,
                                           PackOrder::kIncreasingSize,
                                           PackOrder::kArrivalOrder),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case PackOrder::kDecreasingSize:
                               return "DecreasingSize";
                             case PackOrder::kIncreasingSize:
                               return "IncreasingSize";
                             case PackOrder::kArrivalOrder:
                               return "ArrivalOrder";
                           }
                           return "Unknown";
                         });

TEST(PlaceRunEquivalenceTest, MatchesRepeatedPlaceOnFreshSet) {
  util::Rng rng(5);
  for (int trial = 0; trial < 40; ++trial) {
    const tree::Topology topo(16);
    tree::CopySet batched(topo);
    tree::CopySet individual(topo);
    // Several runs of random size classes back to back, as the repack
    // pipeline issues them.
    for (int run = 0; run < 6; ++run) {
      const std::uint64_t size = std::uint64_t{1} << rng.below(5);
      const std::uint64_t count = rng.below(10);
      std::vector<tree::CopyPlacement> out;
      batched.place_run(size, count, out);
      ASSERT_EQ(out.size(), count);
      for (std::uint64_t i = 0; i < count; ++i) {
        const tree::CopyPlacement expected = individual.place(size);
        ASSERT_EQ(out[i], expected)
            << "trial " << trial << " run " << run << " i " << i;
      }
    }
    EXPECT_EQ(batched.digest(), individual.digest());
    EXPECT_EQ(batched.check(), "");
  }
}

TEST(PlaceRunEquivalenceTest, MatchesPlaceAcrossReclaimedInteriorCopies) {
  // Interleave placements and removals so interior copies drain (their
  // storage is reclaimed and the slot acts as a fully vacant copy), then
  // verify place_run still lands runs exactly where place() would.
  util::Rng rng(41);
  for (int trial = 0; trial < 40; ++trial) {
    const tree::Topology topo(8);
    tree::CopySet batched(topo);
    tree::CopySet individual(topo);
    std::vector<tree::CopyPlacement> live;
    for (int step = 0; step < 30; ++step) {
      if (!live.empty() && rng.below(3) == 0) {
        // Remove a random live placement from BOTH sets -- including
        // ones that drain an interior copy to empty.
        const std::size_t pick = rng.below(live.size());
        batched.remove(live[pick]);
        individual.remove(live[pick]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
        continue;
      }
      const std::uint64_t size = std::uint64_t{1} << rng.below(4);
      const std::uint64_t count = 1 + rng.below(4);
      std::vector<tree::CopyPlacement> out;
      batched.place_run(size, count, out);
      for (std::uint64_t i = 0; i < count; ++i) {
        const tree::CopyPlacement expected = individual.place(size);
        ASSERT_EQ(out[i], expected) << "trial " << trial << " step " << step;
        live.push_back(out[i]);
      }
      ASSERT_EQ(batched.check(), "");
    }
    EXPECT_EQ(batched.digest(), individual.digest());
  }
}

TEST(PlaceRunEquivalenceTest, BestFitRunFallsBackToRepeatedPlace) {
  util::Rng rng(7);
  const tree::Topology topo(16);
  tree::CopySet batched(topo, tree::CopyFit::kBestFit);
  tree::CopySet individual(topo, tree::CopyFit::kBestFit);
  for (int run = 0; run < 8; ++run) {
    const std::uint64_t size = std::uint64_t{1} << rng.below(5);
    const std::uint64_t count = rng.below(6);
    std::vector<tree::CopyPlacement> out;
    batched.place_run(size, count, out);
    for (std::uint64_t i = 0; i < count; ++i) {
      ASSERT_EQ(out[i], individual.place(size));
    }
  }
  EXPECT_EQ(batched.digest(), individual.digest());
}

TEST(PlaceRunEquivalenceTest, ClearRecyclesStorageWithoutBehaviorChange) {
  // clear() now parks drained trees in the spare pool; a cleared set must
  // stay indistinguishable from a freshly constructed one.
  const tree::Topology topo(8);
  tree::CopySet recycled(topo);
  std::vector<tree::CopyPlacement> out;
  recycled.place_run(2, 9, out);  // 3 copies
  recycled.clear();
  tree::CopySet fresh(topo);
  EXPECT_EQ(recycled.digest(), fresh.digest());
  EXPECT_EQ(recycled.copy_count(), 0u);
  EXPECT_EQ(recycled.used(), 0u);
  out.clear();
  recycled.place_run(4, 4, out);
  std::vector<tree::CopyPlacement> expected;
  fresh.place_run(4, 4, expected);
  EXPECT_EQ(out, expected);
  EXPECT_EQ(recycled.check(), "");
}

}  // namespace
}  // namespace partree::core
