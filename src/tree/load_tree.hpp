// Load accounting over the tree machine.
//
// Each active task occupies one whole subtree; the load of a PE is the
// number of active tasks whose subtree contains it. We therefore store, per
// node, the number of tasks rooted exactly there (`add`) plus the classic
// "max of root-to-leaf add-sums below v" aggregate (`down`):
//
//   down[v] = add[v] + max(down[left(v)], down[right(v)])      (internal)
//   down[leaf] = add[leaf]
//
// which makes assign/release an O(log N) leaf-to-root path update, gives the
// machine-wide maximum load as down[root], and the maximum load inside
// submachine v as prefix(v) + down[v] where prefix sums `add` over strict
// ancestors. The leftmost minimum-load submachine query (greedy A_G) is an
// exact DFS over the target level.
#pragma once

#include <cstdint>
#include <vector>

#include "tree/topology.hpp"

namespace partree::tree {

class LoadTree {
 public:
  explicit LoadTree(Topology topo);

  [[nodiscard]] const Topology& topology() const noexcept { return topo_; }

  /// Adds one task rooted at node v. O(log N).
  void assign(NodeId v);

  /// Removes one task rooted at node v (one must be present). O(log N).
  void release(NodeId v);

  /// Maximum PE load over the whole machine. O(1).
  [[nodiscard]] std::uint64_t max_load() const noexcept { return down_[1]; }

  /// Maximum PE load within the submachine of v. O(log N).
  [[nodiscard]] std::uint64_t subtree_max(NodeId v) const;

  /// Load of a single PE. O(log N).
  [[nodiscard]] std::uint64_t pe_load(PeId pe) const;

  /// Loads of every PE, left to right. O(N).
  [[nodiscard]] std::vector<std::uint64_t> pe_loads() const;

  /// Leftmost submachine of the given size whose maximum PE load is
  /// minimal (the greedy A_G target). Exact; O(N/size) node visits with
  /// branch-and-bound pruning; allocation-free (recursive DFS, depth at
  /// most log N).
  [[nodiscard]] NodeId min_load_node(std::uint64_t size) const;

  /// Sum over PEs of their load == total size of active tasks. O(1).
  [[nodiscard]] std::uint64_t total_active_size() const noexcept {
    return active_size_;
  }

  /// Number of active (assigned, unreleased) tasks. O(1).
  [[nodiscard]] std::uint64_t active_tasks() const noexcept {
    return active_tasks_;
  }

  void clear();

  /// Canonical 64-bit state digest: FNV-1a over the per-node task counts
  /// (positional, index order -- the tree is a positional structure) plus
  /// the maintained aggregates, so a digest mismatch flags either a
  /// different occupancy or drifted incremental aggregates. O(N).
  [[nodiscard]] std::uint64_t digest() const;

  /// TEST-ONLY fault injection: overwrites the task count rooted at v
  /// without touching any aggregate, leaving the tree internally
  /// inconsistent on purpose so the invariant nets (EngineOptions::
  /// debug_checks, the flight-recorder crash dump) can be exercised
  /// against a genuinely corrupted tree. Never call outside tests.
  void debug_corrupt_add(NodeId v, std::uint64_t count);

 private:
  void update_path(NodeId v);
  void min_load_dfs(NodeId v, std::uint32_t levels_left, std::uint64_t prefix,
                    NodeId& best, std::uint64_t& best_load,
                    std::uint64_t& visits) const;

  struct Frame {
    NodeId node;
    std::uint64_t prefix;
  };

  Topology topo_;
  std::vector<std::uint64_t> add_;
  std::vector<std::uint64_t> down_;
  std::uint64_t active_size_ = 0;
  std::uint64_t active_tasks_ = 0;
  // Reused DFS stack for the const query paths (pe_loads, min_load_node);
  // cleared, never shrunk, so steady-state queries allocate nothing.
  mutable std::vector<Frame> scratch_;
};

}  // namespace partree::tree
