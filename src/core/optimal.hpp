// Algorithm A_C (Section 3): the optimal 0-reallocation algorithm.
//
// Every arrival triggers the reallocation procedure A_R over all active
// tasks (including the new one). Theorem 3.1: the load after every event
// equals the optimal load ceil(S(sigma; tau)/N) <= L*.
#pragma once

#include "core/allocator.hpp"
#include "core/packing.hpp"
#include "tree/copy_set.hpp"
#include "util/task_map.hpp"

namespace partree::core {

class OptimalReallocAllocator : public Allocator {
 public:
  explicit OptimalReallocAllocator(tree::Topology topo);

  [[nodiscard]] tree::NodeId place(const Task& task,
                                   const MachineState& state) override;
  void on_departure(TaskId id, const MachineState& state) override;
  [[nodiscard]] std::optional<std::vector<Migration>> maybe_reallocate(
      const MachineState& state) override;
  [[nodiscard]] std::string name() const override { return "optimal"; }
  void reset() override;
  [[nodiscard]] std::string debug_check_state() const override;

 private:
  tree::CopySet copies_;
  PackScratch scratch_;  // repack buffers, recycled across rounds
  util::TaskMap<tree::CopyPlacement> placements_;
};

}  // namespace partree::core
