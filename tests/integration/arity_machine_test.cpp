// Arity-A decomposable machines (quadtree = 2-D mesh, octree = 3-D mesh)
// run on the shared binary tree: an A-ary machine with N = A^h PEs is the
// binary tree machine on which only sizes A^i are requested. The paper's
// bounds carry over, with log_A N + 1 as the greedy-style factor.
#include <gtest/gtest.h>

#include <string>

#include "core/factory.hpp"
#include "sim/engine.hpp"
#include "workload/stressors.hpp"

namespace partree {
namespace {

tree::Topology arity_machine(std::uint64_t arity, std::uint32_t height) {
  std::uint64_t n = 1;
  for (std::uint32_t i = 0; i < height; ++i) n *= arity;
  return tree::Topology(n);
}

sim::SimResult run(const tree::Topology& topo, const core::TaskSequence& seq,
                   const std::string& spec) {
  sim::Engine engine(topo);
  auto alloc = core::make_allocator(spec, topo);
  return engine.run(seq, *alloc);
}

TEST(ArityMachine, GreedyWithinLogANPlusOneBound) {
  for (const std::uint64_t arity : {2ull, 4ull}) {
    const std::uint32_t height = arity == 2 ? 8 : 4;
    const tree::Topology topo = arity_machine(arity, height);
    const auto seq = workload::arity_closed_loop(topo, arity, 2000, 0.85, 7);
    const sim::SimResult r = run(topo, seq, "greedy");
    EXPECT_LE(r.max_load, (height + std::uint64_t{1}) * r.optimal_load)
        << "arity " << arity;
    EXPECT_GE(r.max_load, r.optimal_load) << "arity " << arity;
  }
}

TEST(ArityMachine, DZeroReachesOptimalLoad) {
  for (const std::uint64_t arity : {2ull, 4ull, 8ull}) {
    const tree::Topology topo = arity_machine(arity, 3);
    const auto seq = workload::arity_closed_loop(topo, arity, 1500, 0.9, 11);
    const sim::SimResult r = run(topo, seq, "dmix:d=0");
    EXPECT_EQ(r.max_load, r.optimal_load) << "arity " << arity;
  }
}

TEST(ArityMachine, DmixLoadMonotoneInDOnStaircase) {
  // Larger d never lowers the load on the fragmenting staircase, within
  // one unit of noise.
  const tree::Topology topo = arity_machine(4, 4);  // 256 PEs
  const auto seq = workload::arity_staircase(topo, 4);
  std::uint64_t previous = 0;
  for (const std::uint64_t d : {0ull, 1ull, 2ull, 4ull}) {
    const sim::SimResult r = run(topo, seq, "dmix:d=" + std::to_string(d));
    EXPECT_GE(r.max_load + 1, previous) << "d=" << d;
    previous = r.max_load;
  }
}

TEST(ArityMachine, BasicNeverReallocates) {
  const tree::Topology topo = arity_machine(4, 3);
  const auto seq = workload::arity_closed_loop(topo, 4, 1000, 0.8, 13);
  const sim::SimResult r = run(topo, seq, "basic");
  EXPECT_EQ(r.reallocation_count, 0u);
  EXPECT_EQ(r.migration_count, 0u);
}

TEST(ArityMachine, StaircaseFragmentsGreedyButNotDZero) {
  const tree::Topology topo = arity_machine(4, 4);
  const auto seq = workload::arity_staircase(topo, 4);
  const sim::SimResult greedy = run(topo, seq, "greedy");
  const sim::SimResult optimal = run(topo, seq, "dmix:d=0");
  EXPECT_EQ(optimal.max_load, optimal.optimal_load);
  EXPECT_GE(greedy.max_load, optimal.max_load);
}

TEST(ArityMachine, PinsTheE12AndMeshTableRows) {
  // Rows of the E12 and mesh_partitioning tables at their default seed;
  // a change here means the generators' RNG stream or the allocators
  // moved.
  struct Row {
    std::uint64_t arity;
    std::uint32_t height;
    bool staircase;
    std::uint64_t d;
    std::uint64_t max_load;
    std::uint64_t optimal_load;
    std::uint64_t reallocations;
  };
  const Row rows[] = {
      {4, 5, false, 1, 3, 2, 362},  // quadtree steady
      {8, 3, true, 0, 1, 1, 574},   // octree staircase
      {2, 10, false, 4, 3, 2, 84},  // binary steady
  };
  for (const Row& row : rows) {
    const tree::Topology topo = arity_machine(row.arity, row.height);
    const auto seq =
        row.staircase
            ? workload::arity_staircase(topo, row.arity)
            : workload::arity_closed_loop(topo, row.arity, 4000, 0.85, 1);
    const sim::SimResult r = run(topo, seq, "dmix:d=" + std::to_string(row.d));
    SCOPED_TRACE("arity " + std::to_string(row.arity) + " d=" +
                 std::to_string(row.d));
    EXPECT_EQ(r.max_load, row.max_load);
    EXPECT_EQ(r.optimal_load, row.optimal_load);
    EXPECT_EQ(r.reallocation_count, row.reallocations);
  }

  // mesh_partitioning's default 32 x 32 mesh, d = 0.
  const tree::Topology mesh(1024);
  const auto seq = workload::arity_closed_loop(mesh, 4, 4000, 0.85, 1);
  EXPECT_EQ(run(mesh, seq, "dmix:d=0").migration_count, 7262u);
}

}  // namespace
}  // namespace partree
