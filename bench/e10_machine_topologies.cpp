// E10 -- "the results hold for any hierarchically decomposable machine".
//
// The same allocation algorithms drive hypercube and mesh views of the
// machine: loads are topology-independent (identical to the tree), while
// migration costs and fat-tree congestion differ per interconnect. The
// table reports load ratio plus per-interconnect reallocation cost and the
// CM-5-style fat-tree congestion at the greedy peak.
#include "bench_common.hpp"

#include "core/factory.hpp"
#include "core/step.hpp"
#include "machines/fat_tree.hpp"
#include "machines/hypercube.hpp"
#include "machines/mesh.hpp"
#include "machines/migration_cost.hpp"
#include "sim/engine.hpp"
#include "workload/campaign.hpp"

int main(int argc, char** argv) {
  using namespace partree;

  util::Cli cli;
  cli.option("n", "machine size (power of two)", "1024");
  cli.option("campaign", "workload campaign", "steady-mix");
  if (!bench::parse_standard(cli, argc, argv)) return 1;

  const tree::Topology topo(cli.get_u64("n"));

  bench::banner(
      "E10 / hierarchically decomposable machines",
      "Same algorithms, three interconnect views (tree / hypercube / "
      "mesh): identical loads, different migration economics.");

  util::Rng rng(cli.get_u64("seed"));
  const core::TaskSequence seq =
      workload::make_campaign(cli.get("campaign"), topo, rng, 0.6);

  // Geometry sanity: every submachine is one subcube and one mesh block.
  const machines::HypercubeView cube(topo);
  const machines::MeshView mesh(topo);
  std::uint64_t violations = 0;
  for (tree::NodeId v = 1; v <= topo.n_nodes(); ++v) {
    if (cube.subcube_of(v).size() != topo.subtree_size(v)) ++violations;
    if (mesh.block_of(v).area() != topo.subtree_size(v)) ++violations;
  }

  util::Table table({"allocator", "max_load", "ratio", "tree_cost",
                     "cube_cost", "mesh_cost", "fat_tree_congestion"});

  const machines::MigrationCostModel costs[] = {
      {topo, machines::Interconnect::kTree},
      {topo, machines::Interconnect::kHypercube},
      {topo, machines::Interconnect::kMesh},
  };
  const machines::FatTreeModel fat_tree(topo);

  for (const char* spec : {"optimal", "dmix:d=1", "dmix:d=2", "greedy"}) {
    std::uint64_t totals[3] = {0, 0, 0};
    sim::EngineOptions options;
    options.on_reallocation = [&](std::span<const core::Migration> migs) {
      for (int i = 0; i < 3; ++i) totals[i] += costs[i].total_cost(migs);
    };
    sim::Engine engine(topo, options);
    auto alloc = core::make_allocator(spec, topo);
    const auto result = engine.run(seq, *alloc);

    // Replay to measure fat-tree congestion at the end state.
    core::MachineState state(topo);
    auto fresh = core::make_allocator(spec, topo);
    double peak_congestion = 0.0;
    for (const core::Event& e : seq.events()) {
      core::apply_event(e, *fresh, state);
      // Congestion snapshot at the first moment the peak load is reached.
      if (peak_congestion == 0.0 && state.max_load() == result.max_load) {
        peak_congestion = fat_tree.max_congestion(state);
      }
    }

    table.add(result.allocator, result.max_load, result.ratio(), totals[0],
              totals[1], totals[2], peak_congestion);
  }

  bench::emit(table,
              "Interconnect views, campaign '" + cli.get("campaign") +
                  "', N = " + std::to_string(topo.n_leaves()),
              cli);
  bench::verdict(violations);
  return violations == 0 ? 0 : 2;
}
