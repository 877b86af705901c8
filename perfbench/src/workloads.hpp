// The benchmark's workloads. Each one is a closed-loop task sequence on a
// fixed machine and allocator, generated from the run's seed, plus the
// offered rates at which the same traffic is served online. Why each
// workload exists is recorded in BENCHMARK.json and perfbench/README.md.
#pragma once

#include <cstdint>
#include <string_view>

#include "core/sequence.hpp"
#include "tree/topology.hpp"

namespace perfbench {

struct Workload {
  std::string_view name;
  std::uint32_t log2_n = 0;
  /// Task sizes are 2^k with k uniform on [min_log, max_log].
  std::uint32_t min_log = 0;
  std::uint32_t max_log = 0;
  std::string_view alloc;  ///< core::make_allocator spec
  /// Closed-loop control steps at 85% utilisation; the generated sequence
  /// also drains every task still active at the end.
  std::uint64_t control_steps = 0;

  /// Open-loop serve phases: two fixed offered rates (requests/s) and the
  /// lowest rung of the max-rate ladder.
  double low_rps = 0.0;
  double high_rps = 0.0;
  double ladder_base_rps = 0.0;

  [[nodiscard]] partree::tree::Topology topology() const {
    return partree::tree::Topology(std::uint64_t{1} << log2_n);
  }
};

/// The workload table; nullptr for an unknown name.
[[nodiscard]] const Workload* find_workload(std::string_view name);

/// The workload's task sequence for `seed` (same seed, same sequence).
[[nodiscard]] partree::core::TaskSequence generate_sequence(
    const Workload& w, std::uint64_t seed);

/// Events a serve phase submits untimed before it starts the clock: those
/// before the first departure, which only fill the machine, and 5% more so
/// the service's first rounds have touched their memory.
[[nodiscard]] std::size_t warmup_length(
    const partree::core::TaskSequence& seq);

}  // namespace perfbench
