#include "sim/pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/parallel.hpp"

namespace partree::sim {
namespace {

// All multi-threaded tests force an explicit n_threads >= 2: the CI hosts
// are often single-core, where the default resolves to the serial path.

TEST(WorkerPoolTest, LazyStartAndGrowth) {
  WorkerPool pool;
  EXPECT_EQ(pool.started_workers(), 0u);

  std::atomic<int> count{0};
  pool.run(8, [&](std::size_t, std::size_t) { count.fetch_add(1); }, 2);
  EXPECT_EQ(count.load(), 8);
  EXPECT_EQ(pool.started_workers(), 2u);

  // Grows to the largest requested worker count...
  pool.run(8, [&](std::size_t, std::size_t) { count.fetch_add(1); }, 4);
  EXPECT_EQ(pool.started_workers(), 4u);

  // ...and never shrinks; a narrower region just uses fewer workers.
  pool.run(8, [&](std::size_t, std::size_t) { count.fetch_add(1); }, 2);
  EXPECT_EQ(pool.started_workers(), 4u);
}

TEST(WorkerPoolTest, SerialPathRunsInlineWithoutWorkers) {
  WorkerPool pool;
  std::vector<std::size_t> order;
  pool.run(
      5,
      [&](std::size_t w, std::size_t i) {
        EXPECT_EQ(w, 0u);
        order.push_back(i);
      },
      1);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(pool.started_workers(), 0u);
}

TEST(WorkerPoolTest, ZeroItemsIsANoOp) {
  WorkerPool pool;
  bool called = false;
  pool.run(0, [&](std::size_t, std::size_t) { called = true; }, 4);
  EXPECT_FALSE(called);
  EXPECT_EQ(pool.started_workers(), 0u);
}

TEST(WorkerPoolTest, ShutdownJoinsAndRestartsLazily) {
  WorkerPool pool;
  std::atomic<int> count{0};
  pool.run(16, [&](std::size_t, std::size_t) { count.fetch_add(1); }, 3);
  EXPECT_EQ(pool.started_workers(), 3u);

  pool.shutdown();
  EXPECT_EQ(pool.started_workers(), 0u);
  pool.shutdown();  // idempotent
  EXPECT_EQ(pool.started_workers(), 0u);

  // The pool restarts lazily on the next region.
  pool.run(16, [&](std::size_t, std::size_t) { count.fetch_add(1); }, 2);
  EXPECT_EQ(count.load(), 32);
  EXPECT_EQ(pool.started_workers(), 2u);
}

TEST(WorkerPoolTest, EveryIndexOnceWithChunkedDispatch) {
  constexpr std::size_t kN = 4096;
  WorkerPool pool;
  std::vector<std::atomic<int>> visits(kN);
  pool.run(
      kN, [&](std::size_t, std::size_t i) { visits[i].fetch_add(1); }, 4);
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(visits[i].load(), 1) << i;
  }
}

TEST(WorkerPoolTest, WorkerIndicesAreBoundAndInRange) {
  constexpr std::size_t kN = 1024;
  constexpr std::size_t kWorkers = 3;
  WorkerPool pool;
  // One slot per worker: a bound worker index makes these race-free.
  std::vector<std::uint64_t> per_worker(kWorkers, 0);
  std::atomic<bool> out_of_range{false};
  pool.run(
      kN,
      [&](std::size_t w, std::size_t i) {
        if (w >= kWorkers) {
          out_of_range.store(true);
          return;
        }
        per_worker[w] += i + 1;
      },
      kWorkers);
  EXPECT_FALSE(out_of_range.load());
  const std::uint64_t total =
      std::accumulate(per_worker.begin(), per_worker.end(), std::uint64_t{0});
  EXPECT_EQ(total, std::uint64_t{kN} * (kN + 1) / 2);
}

TEST(WorkerPoolTest, BackToBackRegionsReuseWorkers) {
  WorkerPool pool;
  std::atomic<int> count{0};
  for (int round = 0; round < 50; ++round) {
    pool.run(32, [&](std::size_t, std::size_t) { count.fetch_add(1); }, 2);
  }
  EXPECT_EQ(count.load(), 50 * 32);
  EXPECT_EQ(pool.started_workers(), 2u);
}

TEST(WorkerPoolTest, FirstErrorIsRethrownAndCancelsQueuedWork) {
  constexpr std::size_t kN = 50000;
  WorkerPool pool;
  const auto run_until_boom = [&pool](std::size_t n_threads) {
    std::atomic<std::size_t> executed{0};
    try {
      pool.run(
          kN,
          [&](std::size_t, std::size_t) {
            if (executed.fetch_add(1) == 10) {
              throw std::runtime_error("pool boom");
            }
          },
          n_threads);
      ADD_FAILURE() << "expected the worker exception to be rethrown at the "
                       "join (" << n_threads << " workers)";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "pool boom");
    }
    return executed.load();
  };

  // One worker runs the items in index order, so the skip is exact: the
  // eleventh item throws and no queued item after it runs. With several
  // workers, how many items the others finish before the cancel latches
  // depends on the scheduler, so only the rethrow is checked there.
  EXPECT_EQ(run_until_boom(1), 11u);
  (void)run_until_boom(4);

  // The pool survives a cancelled region and runs the next one fully.
  std::atomic<std::size_t> after{0};
  pool.run(100, [&](std::size_t, std::size_t) { after.fetch_add(1); }, 4);
  EXPECT_EQ(after.load(), 100u);
}

TEST(WorkerPoolTest, NestedRegionsFromAWorkerRunInline) {
  WorkerPool pool;
  std::atomic<int> inner_total{0};
  pool.run(
      4,
      [&](std::size_t, std::size_t) {
        // A nested region must not deadlock on the in-flight outer one;
        // it runs inline on the worker with worker index 0.
        pool.run(
            8,
            [&](std::size_t w, std::size_t) {
              EXPECT_EQ(w, 0u);
              inner_total.fetch_add(1);
            },
            4);
      },
      2);
  EXPECT_EQ(inner_total.load(), 32);
}

TEST(WorkerPoolTest, ProcessWideInstanceIsSharedAndShutdownRestarts) {
  WorkerPool& pool = WorkerPool::instance();
  EXPECT_EQ(&pool, &WorkerPool::instance());

  std::atomic<int> count{0};
  parallel_for(64, [&](std::size_t) { count.fetch_add(1); }, 2);
  EXPECT_EQ(count.load(), 64);
  EXPECT_GE(pool.started_workers(), 2u);

  pool.shutdown();
  EXPECT_EQ(pool.started_workers(), 0u);
  parallel_for(64, [&](std::size_t) { count.fetch_add(1); }, 2);
  EXPECT_EQ(count.load(), 128);
  pool.shutdown();
}

}  // namespace
}  // namespace partree::sim
