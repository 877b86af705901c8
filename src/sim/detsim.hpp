// Deterministic simulation harness: seeded workloads, fault injection,
// digest-based differential replay.
//
// detsim answers one question about the engine/allocator/pool stack: "told
// to fail at step k in component c, does the system either recover to a
// digest-identical state or die with a replayable crash dump?" Everything
// is derived from a single seed -- the workload, the fault plan, the
// allocator's randomness -- so any failing run reduces to a (seed, step,
// fault) triple that replays byte-for-byte.
//
// Layers:
//   * detsim_sequence  -- the seeded closed-loop workload (pure function
//     of (topology, seed, n_events)).
//   * run_detsim       -- fault-free baseline + faulted replay +
//     digest verification. Recoverable faults (alloc_fail, cancel,
//     perturb:pool) must converge back to the baseline digest; corruption
//     faults must abort with a partree-crash-v2 dump naming the fault
//     (run those under a death test or subprocess -- run_detsim does not
//     return when a corruption applies).
//   * digest_divergences -- serial vs worker-pool differential sweep
//     under forced chunk-size interleavings.
//   * shrink_failing   -- greedy repro minimisation (fewer faults, then
//     smaller steps) against a caller-supplied "still fails" oracle.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/sequence.hpp"
#include "sim/faults.hpp"
#include "sim/result.hpp"
#include "tree/topology.hpp"

namespace partree::sim {

struct DetSimOptions {
  std::uint64_t n_pes = 64;
  /// Allocator spec for core::make_allocator; `seed` feeds its randomness.
  std::string allocator = "basic";
  std::uint64_t seed = 1;
  /// Workload length in events; 0 draws 200..999 from the seed (the fuzz
  /// convention), so plain seed sweeps also vary the sequence shape.
  std::uint64_t n_events = 0;
  FaultPlan faults;
  /// Worker count for the replica/differential regions (0 = default).
  std::size_t n_threads = 0;
  /// Engine invariant net; REQUIRED when `faults` has a corrupt:* kind
  /// (that is the net the corruption must trip).
  bool debug_checks = true;
};

enum class DetSimOutcome : std::uint8_t {
  kFaultFree,   ///< empty plan; digests recorded, nothing to verify
  kRecovered,   ///< fault(s) applied, state digest-identical to baseline
  kCancelled,   ///< cancel fault rode the pool's cancel path; clean retry
                ///< reproduced the baseline digest
  kSkipped,     ///< every scheduled fault was inapplicable (e.g.
                ///< alloc_fail on a departure); digest still matched
  kDivergence,  ///< state diverged from baseline, or a corruption escaped
                ///< the debug_checks net -- a BUG; write a repro
};

[[nodiscard]] std::string_view outcome_name(DetSimOutcome outcome) noexcept;

struct DetSimReport {
  DetSimOutcome outcome = DetSimOutcome::kFaultFree;
  /// Events in the seeded sequence (the valid fault-step range).
  std::uint64_t events = 0;
  /// Fault-free final digest (the verification target).
  std::uint64_t baseline_digest = 0;
  /// Final digest of the faulted/verification replay.
  std::uint64_t run_digest = 0;
  /// Faults the engine actually applied (cancel counts via the injector).
  std::uint64_t faults_applied = 0;
  /// Human-readable explanation for kDivergence (first mismatching epoch,
  /// failed replica, ...); empty otherwise.
  std::string detail;
  /// Per-reallocation-epoch digests of baseline and faulted replay.
  std::vector<EpochDigest> baseline_epochs;
  std::vector<EpochDigest> run_epochs;
};

/// The seeded workload: a closed-loop arrival/departure mix whose length,
/// utilization and size distribution are drawn from `seed`. Pure --
/// identical inputs yield identical sequences on every platform.
[[nodiscard]] core::TaskSequence detsim_sequence(const tree::Topology& topo,
                                                 std::uint64_t seed,
                                                 std::uint64_t n_events = 0);

/// Event count of the seeded workload for `options` (what random fault
/// plans need as their step range).
[[nodiscard]] std::uint64_t detsim_event_count(const DetSimOptions& options);

/// One fault-free replay with digests recorded (the baseline side of every
/// verification; also detsim's golden-digest source).
[[nodiscard]] SimResult run_baseline(const DetSimOptions& options);

/// Baseline + faulted replay + verification. Recoverable faults replay
/// inside a worker-pool region (replica 0 carries the injector), so cancel
/// faults exercise the pool's structured-cancellation path and perturb
/// faults run under the forced chunk override. Corruption plans replay
/// serially and DO NOT RETURN when the corruption applies: the engine's
/// debug_checks net aborts with a crash dump naming the fault (call under
/// a death test or subprocess). If a corruption is inapplicable the call
/// returns kSkipped; if one applies and the net misses it, kDivergence.
[[nodiscard]] DetSimReport run_detsim(const DetSimOptions& options);

/// Differential digest sweep: replays seeds base.seed .. base.seed+n-1
/// fault-free, serially first, then through the worker pool under each
/// chunk-size override in `chunk_overrides` (0 = the pool heuristic;
/// empty span = just {0}). Returns the seeds whose pool-run digest ever
/// disagreed with the serial reference -- a non-empty result means state
/// leaks between supposedly independent replays. `base.faults` must be
/// empty.
[[nodiscard]] std::vector<std::uint64_t> digest_divergences(
    const DetSimOptions& base, std::uint64_t n_seeds,
    std::span<const std::size_t> chunk_overrides);

/// Greedy repro minimisation. `still_fails` must return true for
/// `failing` itself (asserted); the result is a configuration that still
/// fails, with a subset of the original faults and each surviving step
/// lowered as far as halving-then-decrement probing reaches. Greedy, so
/// locally (not globally) minimal; every probe is one `still_fails` call.
[[nodiscard]] DetSimOptions shrink_failing(
    DetSimOptions failing,
    const std::function<bool(const DetSimOptions&)>& still_fails);

/// Repro file contents for a verified-failing configuration.
[[nodiscard]] ReproSpec to_repro(const DetSimOptions& options,
                                 const DetSimReport& report);

}  // namespace partree::sim
