// E12 -- "our results hold for any hierarchically decomposable machine".
//
// The algorithm family on arity-A machines (A = 2 is the paper's tree;
// A = 4 models a 2-D mesh decomposed into quadrants; A = 8 a 3-D mesh
// into octants). An arity-A machine with N = A^h PEs is the binary tree
// machine on which only sizes A^i are requested, so every run goes
// through the shared Engine and allocators. For each machine the d-sweep
// reproduces the same trade-off shape as E3: A_C (d = 0) is optimal
// everywhere, load rises with d, and the no-reallocation staircase
// penalty grows with the machine height.
#include "bench_common.hpp"

#include <algorithm>
#include <string>

#include "core/factory.hpp"
#include "sim/engine.hpp"
#include "workload/stressors.hpp"

int main(int argc, char** argv) {
  using namespace partree;

  util::Cli cli;
  if (!bench::parse_standard(cli, argc, argv)) return 1;

  bench::banner(
      "E12 / hierarchically decomposable generalization",
      "Tree (A=2), quadtree/2-D mesh (A=4), octree/3-D mesh (A=8): the "
      "reallocation trade-off has the same shape on every decomposition.");

  struct Machine {
    std::uint64_t arity;
    std::uint32_t height;
    const char* label;
  };
  const Machine machines[] = {
      {2, 10, "binary tree (N=1024)"},
      {4, 5, "quadtree / 2-D mesh (N=1024)"},
      {8, 3, "octree / 3-D mesh (N=512)"},
  };

  util::Table table({"machine", "workload", "policy", "d", "max_load", "L*",
                     "ratio", "reallocs", "ok"});
  std::uint64_t violations = 0;

  for (const Machine& m : machines) {
    std::uint64_t n = 1;
    for (std::uint32_t i = 0; i < m.height; ++i) n *= m.arity;
    const tree::Topology topo(n);
    sim::Engine engine(topo);
    // The safe greedy-style factor on an arity-A machine: log_A N + 1.
    const std::uint64_t greedy_bound = m.height + std::uint64_t{1};
    const auto steady = workload::arity_closed_loop(topo, m.arity, 4000, 0.85,
                                                    cli.get_u64("seed"));
    const auto stairs = workload::arity_staircase(topo, m.arity);

    const std::pair<const char*, const core::TaskSequence*> workloads[] = {
        {"steady", &steady}, {"staircase", &stairs}};

    for (const auto& [wname, seq] : workloads) {
      for (const std::uint64_t d : {0ull, 1ull, 2ull, 4ull}) {
        auto dmix = core::make_allocator("dmix:d=" + std::to_string(d), topo);
        const sim::SimResult r = engine.run(*seq, *dmix);
        // d = 0 must be exactly optimal on every machine (Theorem 3.1
        // generalizes); all runs must respect the greedy-style cap.
        bool ok = r.max_load <= (d + 1 + greedy_bound) *
                                    std::max<std::uint64_t>(r.optimal_load, 1);
        if (d == 0) ok = ok && r.max_load == r.optimal_load;
        if (!ok) ++violations;
        table.add(m.label, wname, "k-dmix", d, r.max_load, r.optimal_load,
                  r.ratio(), r.reallocation_count, ok);
      }
      auto greedy_alloc = core::make_allocator("greedy", topo);
      const sim::SimResult greedy = engine.run(*seq, *greedy_alloc);
      const bool greedy_ok =
          greedy.max_load <=
          greedy_bound * std::max<std::uint64_t>(greedy.optimal_load, 1);
      if (!greedy_ok) ++violations;
      table.add(m.label, wname, "k-greedy", "-", greedy.max_load,
                greedy.optimal_load, greedy.ratio(), 0, greedy_ok);
      auto basic_alloc = core::make_allocator("basic", topo);
      const sim::SimResult basic = engine.run(*seq, *basic_alloc);
      table.add(m.label, wname, "k-basic", "-", basic.max_load,
                basic.optimal_load, basic.ratio(), 0, true);
    }
  }

  bench::emit(table, "Generalized trade-off across decompositions", cli);
  bench::verdict(violations);
  return violations == 0 ? 0 : 2;
}
