// Deterministic stress sequences that provoke fragmentation.
#pragma once

#include <cstdint>

#include "core/sequence.hpp"
#include "tree/topology.hpp"

namespace partree::workload {

/// Fill the machine with size-`size` tasks, drain completely, repeat.
/// Exercises allocator bookkeeping; optimal load stays 1.
[[nodiscard]] core::TaskSequence fill_drain(tree::Topology topo,
                                            std::uint64_t size,
                                            std::uint64_t rounds);

/// The staircase nemesis: phase i fills the residual capacity with
/// size-2^i tasks, then departs every second task of the phase, leaving a
/// comb of holes the next (doubled) size cannot reuse in place. Against
/// no-reallocation algorithms this drives load toward Theta(log N) while
/// the optimal load stays 1 -- a fixed-sequence cousin of the adaptive
/// Theorem 4.3 adversary (which remains the stronger construction).
[[nodiscard]] core::TaskSequence staircase(tree::Topology topo,
                                           std::uint64_t phases);

/// Alternating-size churn: repeatedly arrive a batch of mixed sizes and
/// depart the first half, keeping the machine about half full while
/// continuously changing shape.
[[nodiscard]] core::TaskSequence churn(tree::Topology topo,
                                       std::uint64_t rounds);

// Arity-A machines. An A-ary decomposable machine with A = 2^j and
// N = A^h PEs (A = 4: a 2-D mesh in quadrants, A = 8: a 3-D mesh in
// octants) is the binary tree machine with N leaves on which only sizes
// A^i are requested: its submachines are the aligned binary blocks of
// those sizes. Both generators assert that `arity` is a power of two
// >= 2 and that N is a power of `arity`.

/// Closed-loop churn over the powers of `arity` up to N: while the
/// active size is below utilization * N (or nothing is active) a task of
/// uniformly drawn size arity^i (i in [0, log_A N]) arrives, otherwise a
/// uniformly chosen active task departs; the tasks still active depart
/// at the end, so the sequence closes.
[[nodiscard]] core::TaskSequence arity_closed_loop(tree::Topology topo,
                                                   std::uint64_t arity,
                                                   std::uint64_t n_events,
                                                   double utilization,
                                                   std::uint64_t seed);

/// The staircase nemesis for an arity-A machine: phase i (i < log_A N)
/// fills the residual capacity with size-A^i tasks, then departs all but
/// the tasks of rank k % A == 0, leaving holes misaligned for size
/// A^(i+1). Optimal load stays 1.
[[nodiscard]] core::TaskSequence arity_staircase(tree::Topology topo,
                                                 std::uint64_t arity);

}  // namespace partree::workload
