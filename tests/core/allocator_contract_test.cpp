// Contract tests: every allocator spec obeys the Allocator interface
// semantics the engine relies on, across the full spec list.
#include <gtest/gtest.h>

#include "core/factory.hpp"
#include "core/sequence.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"
#include "workload/synthetic.hpp"

namespace partree::core {
namespace {

class AllocatorContract : public ::testing::TestWithParam<std::string> {
 protected:
  tree::Topology topo_{64};
};

TEST_P(AllocatorContract, PlacementsMatchRequestedSizes) {
  auto alloc = make_allocator(GetParam(), topo_, 3);
  MachineState state{topo_};
  util::Rng rng(5);
  for (TaskId id = 0; id < 100; ++id) {
    const std::uint64_t size = std::uint64_t{1} << rng.below(7);
    const Task task{id, size};
    const tree::NodeId node = alloc->place(task, state);
    ASSERT_TRUE(topo_.valid(node)) << GetParam();
    ASSERT_EQ(topo_.subtree_size(node), size) << GetParam();
    state.place(task, node);
    if (auto migs = alloc->maybe_reallocate(state)) state.migrate(*migs);
  }
}

TEST_P(AllocatorContract, ResetMakesRunsIdentical) {
  // Engine resets the allocator before each run; two consecutive runs
  // over one instance must agree event-for-event (randomized allocators
  // replay their seeded stream).
  util::Rng rng(11);
  workload::ClosedLoopParams params;
  params.n_events = 400;
  params.utilization = 0.8;
  params.size = workload::SizeSpec::uniform_log(0, 6);
  const TaskSequence seq = workload::closed_loop(topo_, params, rng);

  sim::Engine engine(topo_, sim::EngineOptions{.record_series = true});
  auto alloc = make_allocator(GetParam(), topo_, 17);
  const auto first = engine.run(seq, *alloc);
  const auto second = engine.run(seq, *alloc);
  EXPECT_EQ(first.load_series, second.load_series) << GetParam();
  EXPECT_EQ(first.reallocation_count, second.reallocation_count)
      << GetParam();
}

TEST_P(AllocatorContract, MigrationListsAreConsistent) {
  // Any reallocation must name active tasks with their live placements;
  // the engine's MachineState validation enforces it (aborts otherwise),
  // so surviving a heavy churn run IS the assertion.
  util::Rng rng(13);
  workload::ClosedLoopParams params;
  params.n_events = 800;
  params.utilization = 0.95;
  params.size = workload::SizeSpec::geometric(0.6, 6);
  const TaskSequence seq = workload::closed_loop(topo_, params, rng);
  sim::Engine engine(topo_);
  auto alloc = make_allocator(GetParam(), topo_, 23);
  const auto result = engine.run(seq, *alloc);
  EXPECT_GE(result.max_load, result.optimal_load) << GetParam();
}

TEST_P(AllocatorContract, EmptySequenceIsClean) {
  sim::Engine engine(topo_);
  auto alloc = make_allocator(GetParam(), topo_, 29);
  const auto result = engine.run(TaskSequence{}, *alloc);
  EXPECT_EQ(result.max_load, 0u) << GetParam();
  EXPECT_EQ(result.reallocation_count, 0u) << GetParam();
}

TEST_P(AllocatorContract, FullMachineTasksAlwaysAtRoot) {
  auto alloc = make_allocator(GetParam(), topo_, 31);
  MachineState state{topo_};
  const Task task{0, topo_.n_leaves()};
  EXPECT_EQ(alloc->place(task, state), tree::Topology::root()) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Specs, AllocatorContract,
    ::testing::ValuesIn(known_allocator_specs()),
    [](const ::testing::TestParamInfo<std::string>& param_info) {
      std::string name = param_info.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace partree::core
