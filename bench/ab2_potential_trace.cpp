// AB2 -- tracing Lemma 3: the adversary's potential really grows.
//
// Replays the Theorem 4.3 adversary's recorded sequence against the
// target algorithm, using the adversary's exact phase boundaries, and
// measures the paper's potential P(T, i) = sum over size-2^i blocks of
// (2^i * l - L) at every phase end. Lemma 3 promises
//   P(T, i) - P(T, i-1) >= (N - 2^(i-1)) / 2,
// which the trace verifies row by row.
#include "bench_common.hpp"

#include "adversary/det_adversary.hpp"
#include "adversary/potential.hpp"
#include "core/factory.hpp"
#include "core/step.hpp"
#include "sim/engine.hpp"

int main(int argc, char** argv) {
  using namespace partree;

  util::Cli cli;
  cli.option("n", "machine size (power of two)", "1024");
  cli.option("allocator", "target allocator spec", "greedy");
  if (!bench::parse_standard(cli, argc, argv)) return 1;

  const tree::Topology topo(cli.get_u64("n"));
  const std::uint64_t n = topo.n_leaves();

  bench::banner("AB2 / Lemma 3 potential trace",
                "P(T,i) - P(T,i-1) >= (N - 2^(i-1))/2 at every adversary "
                "phase; the accumulated potential forces the final load.");

  // Record the interactive duel.
  adversary::DetAdversary adversary(topo, topo.height());
  auto alloc = core::make_allocator(cli.get("allocator"), topo);
  core::TaskSequence recorded;
  sim::Engine engine(topo);
  const auto duel = engine.run_interactive(adversary, *alloc, &recorded);

  // Replay, evaluating the potential at each phase boundary. Phase ends
  // at the last arrival of each arrival run.
  auto fresh = core::make_allocator(cli.get("allocator"), topo);
  core::MachineState state(topo);

  util::Table table({"phase", "block", "P(T,i)", "delta", "lemma3_min",
                     "load", "ok"});
  std::uint64_t violations = 0;
  std::int64_t previous_potential = 0;
  std::uint64_t phase = 0;

  const auto events = recorded.events();
  const std::vector<std::size_t>& boundaries = adversary.phase_ends();
  std::size_t next_boundary = 0;
  for (std::size_t t = 0; t < events.size(); ++t) {
    core::apply_event(events[t], *fresh, state);

    const bool phase_ends = next_boundary < boundaries.size() &&
                            t + 1 == boundaries[next_boundary];
    if (!phase_ends) continue;
    ++next_boundary;

    const std::uint64_t block = std::uint64_t{1} << phase;
    const std::int64_t potential = adversary::det_potential(state, block);
    const std::int64_t delta = potential - previous_potential;
    // Lemma 3 applies from phase 1 on; phase 0 establishes P = 0.
    std::int64_t lemma_min = 0;
    bool ok = true;
    if (phase > 0) {
      lemma_min = (static_cast<std::int64_t>(n) -
                   (std::int64_t{1} << (phase - 1))) /
                  2;
      ok = delta >= lemma_min;
    } else {
      ok = potential == 0;
    }
    if (!ok) ++violations;
    table.add(phase, block, potential, delta, lemma_min, state.max_load(),
              ok);
    previous_potential = potential;
    ++phase;
  }

  bench::emit(table,
              "Potential growth, adversary vs " + duel.allocator +
                  ", N = " + std::to_string(n),
              cli);
  std::cout << "final load " << duel.max_load << " vs forced bound "
            << adversary.forced_load() << "\n";
  bench::verdict(violations);
  return violations == 0 ? 0 : 2;
}
