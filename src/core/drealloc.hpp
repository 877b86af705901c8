// Algorithm A_M (Section 4.1): the d-reallocation online algorithm.
//
// If d >= ceil((log N + 1)/2), reallocation buys nothing over greedy, so
// A_M runs A_G and never reallocates. Otherwise it places with A_B and
// reallocates all active tasks with A_R whenever the cumulative size of
// arrivals since the last reallocation reaches dN. Theorem 4.2: load <=
// min{d + 1, ceil((log N + 1)/2)} * L*. d = 0 degenerates to A_C.
#pragma once

#include "core/allocator.hpp"
#include "core/greedy.hpp"
#include "core/packing.hpp"
#include "tree/copy_set.hpp"
#include "util/task_map.hpp"

namespace partree::core {

/// Reallocation parameter: a finite d or the never-reallocate infinity.
struct ReallocParam {
  std::uint64_t d = 0;
  bool infinite = false;

  [[nodiscard]] static ReallocParam finite(std::uint64_t d) {
    return {d, false};
  }
  [[nodiscard]] static ReallocParam inf() { return {0, true}; }
};

class DReallocAllocator : public Allocator {
 public:
  DReallocAllocator(tree::Topology topo, ReallocParam d);

  [[nodiscard]] tree::NodeId place(const Task& task,
                                   const MachineState& state) override;
  void on_departure(TaskId id, const MachineState& state) override;
  [[nodiscard]] std::optional<std::vector<Migration>> maybe_reallocate(
      const MachineState& state) override;
  [[nodiscard]] std::string name() const override;
  void reset() override;

  /// Whether this instance is in the pure-greedy regime.
  [[nodiscard]] bool greedy_regime() const noexcept {
    return greedy_.has_value();
  }

  /// Number of reallocations performed since construction/reset.
  [[nodiscard]] std::uint64_t reallocations() const noexcept {
    return reallocations_;
  }

  /// Fault-injection seam: corrupts the CopySet's used-PE aggregate (no-op
  /// in the greedy regime, which owns no copies).
  bool debug_corrupt_state() override;
  [[nodiscard]] std::string debug_check_state() const override;

 private:
  tree::Topology topo_;
  ReallocParam d_;
  std::optional<GreedyAllocator> greedy_;  // engaged in the greedy regime
  tree::CopySet copies_;
  PackScratch scratch_;  // repack buffers, recycled across rounds
  util::TaskMap<tree::CopyPlacement> placements_;
  std::uint64_t arrived_since_realloc_ = 0;
  bool realloc_pending_ = false;
  std::uint64_t reallocations_ = 0;
};

}  // namespace partree::core
