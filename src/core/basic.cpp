#include "core/basic.hpp"

#include "util/assert.hpp"

namespace partree::core {

BasicAllocator::BasicAllocator(tree::Topology topo, tree::CopyFit fit)
    : fit_(fit), copies_(topo, fit) {}

std::string BasicAllocator::name() const {
  return fit_ == tree::CopyFit::kFirstFit ? "basic" : "basic-bestfit";
}

tree::NodeId BasicAllocator::place(const Task& task,
                                   const MachineState& state) {
  (void)state;
  const tree::CopyPlacement cp = copies_.place(task.size);
  const bool inserted = placements_.emplace(task.id, cp).second;
  PARTREE_ASSERT(inserted, "duplicate arrival id in BasicAllocator");
  return cp.node;
}

void BasicAllocator::on_departure(TaskId id, const MachineState& state) {
  (void)state;
  const tree::CopyPlacement* cp = placements_.find(id);
  PARTREE_ASSERT(cp != nullptr,
                 "departure of task unknown to BasicAllocator");
  copies_.remove(*cp);
  placements_.erase(id);
}

bool BasicAllocator::debug_corrupt_state() {
  if (copies_.copy_count() == 0) return false;
  copies_.debug_corrupt_used(copies_.used() + 1000);
  return true;
}

std::string BasicAllocator::debug_check_state() const {
  const std::string err = copies_.check();
  return err.empty() ? err : "copy_set: " + err;
}

void BasicAllocator::reset() {
  copies_.clear();
  placements_.clear();
}

}  // namespace partree::core
