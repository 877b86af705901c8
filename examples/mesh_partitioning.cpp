// Mesh partitioning on a quadtree-decomposable machine.
//
//   ./mesh_partitioning [--side 32] [--events 4000] [--seed 1]
//
// A side x side 2-D mesh (side a power of two) decomposes into quadrants;
// users request square power-of-4 partitions. The quadtree machine is the
// binary tree machine on which only sizes 4^i are requested, so the
// shared allocators run it unchanged and show the same reallocation
// trade-off the paper proves on the binary tree.
#include <cstdio>
#include <iostream>
#include <string>

#include "core/factory.hpp"
#include "sim/engine.hpp"
#include "util/cli.hpp"
#include "util/math.hpp"
#include "util/table.hpp"
#include "workload/stressors.hpp"

int main(int argc, char** argv) {
  using namespace partree;

  util::Cli cli;
  cli.option("side", "mesh side length (power of two)", "32")
      .option("events", "workload events", "4000")
      .option("seed", "workload seed", "1");
  if (!cli.parse(argc, argv)) return 1;

  const std::uint64_t side = cli.get_u64("side");
  if (!util::is_pow2(side)) {
    std::fprintf(stderr, "side must be a power of two\n");
    return 1;
  }
  // side x side PEs = 4^(log2 side) leaves of a quadtree.
  const tree::Topology topo(side * side);
  std::printf("mesh %llu x %llu = %llu PEs, quadtree height %u\n\n",
              static_cast<unsigned long long>(side),
              static_cast<unsigned long long>(side),
              static_cast<unsigned long long>(topo.n_leaves()),
              util::exact_log2(side));

  const auto seq = workload::arity_closed_loop(
      topo, 4, cli.get_u64("events"), 0.85, cli.get_u64("seed"));
  sim::Engine engine(topo);

  util::Table table(
      {"policy", "d", "max_load", "L*", "ratio", "reallocs", "migrations"});
  for (const std::uint64_t d : {0ull, 1ull, 2ull, 4ull}) {
    auto dmix = core::make_allocator("dmix:d=" + std::to_string(d), topo);
    const sim::SimResult r = engine.run(seq, *dmix);
    table.add("k-dmix", d, r.max_load, r.optimal_load, r.ratio(),
              r.reallocation_count, r.migration_count);
  }
  auto greedy_alloc = core::make_allocator("greedy", topo);
  const sim::SimResult greedy = engine.run(seq, *greedy_alloc);
  table.add("k-greedy", "-", greedy.max_load, greedy.optimal_load,
            greedy.ratio(), 0, 0);
  auto basic_alloc = core::make_allocator("basic", topo);
  const sim::SimResult basic = engine.run(seq, *basic_alloc);
  table.add("k-basic", "-", basic.max_load, basic.optimal_load,
            basic.ratio(), 0, 0);

  table.print(std::cout, "Quadrant allocation on the mesh");
  return 0;
}
