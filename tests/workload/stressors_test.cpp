#include "workload/stressors.hpp"

#include <gtest/gtest.h>

#include "core/factory.hpp"
#include "sim/engine.hpp"
#include "util/math.hpp"

namespace partree::workload {
namespace {

TEST(FillDrainTest, ShapeAndOptimum) {
  const tree::Topology topo(16);
  const core::TaskSequence seq = fill_drain(topo, 1, 3);
  EXPECT_EQ(seq.validate(16), "");
  EXPECT_EQ(seq.arrival_count(), 48u);
  EXPECT_EQ(seq.peak_active_size(), 16u);
  EXPECT_EQ(seq.optimal_load(16), 1u);
}

TEST(FillDrainTest, LargerBlocks) {
  const tree::Topology topo(16);
  const core::TaskSequence seq = fill_drain(topo, 8, 2);
  EXPECT_EQ(seq.validate(16), "");
  EXPECT_EQ(seq.arrival_count(), 4u);
}

TEST(FillDrainTest, AnyAllocatorStaysOptimal) {
  // Full drain between rounds means even the naive allocators never
  // stack load.
  const tree::Topology topo(16);
  const core::TaskSequence seq = fill_drain(topo, 1, 4);
  sim::Engine engine(topo);
  for (const char* spec : {"greedy", "basic", "optimal", "roundrobin"}) {
    auto alloc = core::make_allocator(spec, topo);
    const auto result = engine.run(seq, *alloc);
    EXPECT_EQ(result.max_load, 1u) << spec;
  }
}

TEST(StaircaseTest, UnitOptimalButFragmenting) {
  const tree::Topology topo(64);
  const core::TaskSequence seq = staircase(topo, topo.height());
  EXPECT_EQ(seq.validate(64), "");
  EXPECT_LE(seq.peak_active_size(), 64u);
  EXPECT_EQ(seq.optimal_load(64), 1u);
}

TEST(StaircaseTest, PunishesNoReallocAllocators) {
  const tree::Topology topo(256);
  const core::TaskSequence seq = staircase(topo, topo.height());
  sim::Engine engine(topo);
  auto greedy = core::make_allocator("greedy", topo);
  const auto result = engine.run(seq, *greedy);
  // Fragmentation should cost strictly more than the optimum...
  EXPECT_GE(result.max_load, 2u);
  // ...while the optimal reallocating algorithm shrugs it off.
  auto optimal = core::make_allocator("optimal", topo);
  EXPECT_EQ(engine.run(seq, *optimal).max_load, 1u);
}

TEST(StaircaseTest, ZeroPhasesIsEmpty) {
  const tree::Topology topo(8);
  EXPECT_TRUE(staircase(topo, 0).empty());
}

TEST(ChurnTest, ValidAndDrains) {
  const tree::Topology topo(32);
  const core::TaskSequence seq = churn(topo, 10);
  EXPECT_EQ(seq.validate(32), "");
  EXPECT_EQ(seq.active_size_after(seq.size()), 0u);
  // One task of each size 1..N/2 per round: peak under N.
  EXPECT_LT(seq.peak_active_size(), 32u);
}

// True iff every arrival of `seq` has size arity^i for some i.
bool only_powers_of(const core::TaskSequence& seq, std::uint64_t arity) {
  const std::uint32_t bits = util::exact_log2(arity);
  for (const core::Event& e : seq.events()) {
    if (e.kind != core::EventKind::kArrival) continue;
    if (!util::is_pow2(e.task.size) ||
        util::exact_log2(e.task.size) % bits != 0) {
      return false;
    }
  }
  return true;
}

TEST(ArityClosedLoopTest, ValidPowersOfArityAndCloses) {
  for (const std::uint64_t arity : {2ull, 4ull, 8ull}) {
    const tree::Topology topo(64);
    const core::TaskSequence seq = arity_closed_loop(topo, arity, 800, 0.8, 5);
    EXPECT_EQ(seq.validate(64), "") << "arity " << arity;
    EXPECT_TRUE(only_powers_of(seq, arity)) << "arity " << arity;
    EXPECT_EQ(seq.active_size_after(seq.size()), 0u) << "arity " << arity;
    EXPECT_GT(seq.arrival_count(), 0u) << "arity " << arity;
  }
}

TEST(ArityStaircaseTest, ValidPowersOfArityAndSubUnit) {
  for (const std::uint64_t arity : {2ull, 4ull, 8ull}) {
    const tree::Topology topo(64);
    const core::TaskSequence seq = arity_staircase(topo, arity);
    EXPECT_EQ(seq.validate(64), "") << "arity " << arity;
    EXPECT_TRUE(only_powers_of(seq, arity)) << "arity " << arity;
    EXPECT_LE(seq.peak_active_size(), 64u) << "arity " << arity;
    EXPECT_EQ(seq.optimal_load(64), 1u) << "arity " << arity;
  }
}

TEST(ArityStaircaseTest, KeepsOneTaskPerGroupOfArity) {
  // N = 16, A = 4: phase 0 arrives 16 unit tasks and keeps ranks 0, 4,
  // 8, 12; phase 1 fills the remaining 12 PEs with three size-4 tasks
  // and keeps the first.
  const tree::Topology topo(16);
  const core::TaskSequence seq = arity_staircase(topo, 4);
  EXPECT_EQ(seq.arrival_count(), 19u);
  EXPECT_EQ(seq.active_size_after(seq.size()), 8u);
  EXPECT_TRUE(arity_staircase(tree::Topology(1), 4).empty());
}

TEST(ArityGeneratorDeathTest, RejectsBadArityOrMachineSize) {
  EXPECT_DEATH((void)arity_staircase(tree::Topology(64), 3),
               "arity must be a power of two");
  EXPECT_DEATH((void)arity_staircase(tree::Topology(16), 1),
               "arity must be a power of two");
  EXPECT_DEATH((void)arity_closed_loop(tree::Topology(32), 4, 10, 0.5, 1),
               "power of the arity");
}

}  // namespace
}  // namespace partree::workload
