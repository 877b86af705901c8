// The Engine side of the benchmark: untraced Engine::run repetitions for
// the end-to-end metrics, and a traced replay of the same sequence that
// times each layer of the allocator contract from outside.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bench_util.hpp"
#include "core/allocator.hpp"
#include "core/sequence.hpp"
#include "workloads.hpp"

namespace perfbench {

/// What a run must reproduce: Engine::run's digest and round accounting.
struct RunFacts {
  std::uint64_t final_digest = 0;
  std::uint64_t reallocations = 0;
  std::uint64_t migrations = 0;
  std::uint64_t planned = 0;
  std::uint64_t max_load = 0;
  std::uint64_t optimal_load = 0;
  std::uint64_t arrivals = 0;

  friend bool operator==(const RunFacts&, const RunFacts&) = default;
};

/// Engine::run with state digests on: the reference every other replay of
/// the same sequence is checked against.
[[nodiscard]] RunFacts reference_run(const Workload& w,
                                     const partree::core::TaskSequence& seq);

/// Untraced Engine::run repetitions; every repetition's counts must equal
/// the reference's.
struct EngineTiming {
  std::vector<double> wall_s;  ///< per repetition
  std::uint64_t events = 0;    ///< per repetition
};

/// Appends repetitions to `out` while they fit in `budget_s`, and until
/// `out` holds at least `min_reps`. All of them together are one check in
/// `tally`.
void time_engine(const Workload& w, const partree::core::TaskSequence& seq,
                 partree::core::Allocator& allocator, const RunFacts& reference,
                 double budget_s, int min_reps, EngineTiming& out,
                 Tally& tally);

/// One traced replay: the allocator contract driven by the benchmark
/// itself, each call timed from outside (self time per layer).
struct LayerTimes {
  std::uint64_t setup_ns = 0;  ///< allocator.reset() + MachineState ctor
  std::uint64_t place_calls = 0, place_ns = 0;
  std::vector<std::uint64_t> place_samples;
  std::uint64_t state_place_ns = 0;
  std::uint64_t check_calls = 0, check_ns = 0;
  std::uint64_t rounds = 0, plan_ns = 0;
  std::vector<std::uint64_t> plan_samples;
  std::uint64_t planned = 0, moved = 0;
  std::uint64_t migrate_ns = 0;
  std::uint64_t depart_calls = 0, depart_ns = 0;
  std::uint64_t remove_ns = 0;
  std::uint64_t wall_ns = 0;  ///< the whole replay, setup included
  RunFacts facts;
  /// Facts after each requested prefix length (see traced_replay).
  std::vector<RunFacts> at_checkpoint;

  [[nodiscard]] std::uint64_t self_ns() const {
    return setup_ns + place_ns + state_place_ns + check_ns + plan_ns +
           migrate_ns + depart_ns + remove_ns;
  }
};

/// `checkpoints` (strictly ascending event counts) adds the facts after
/// each of those prefixes to at_checkpoint, which is what a service fed
/// exactly that prefix must report; leave it empty when the layer times
/// matter.
[[nodiscard]] LayerTimes traced_replay(
    const partree::core::TaskSequence& seq,
    partree::core::Allocator& allocator, partree::tree::Topology topo,
    std::span<const std::size_t> checkpoints = {});

/// Per-layer metrics from the traced replay whose wall time is the median
/// of its repetitions, plus coverage and overhead against `untraced_s`.
void add_layer_metrics(std::vector<LayerTimes>& reps, double untraced_s,
                       MetricMap& out);

}  // namespace perfbench
