#include "core/optimal.hpp"

#include "core/packing.hpp"
#include "util/assert.hpp"

namespace partree::core {

OptimalReallocAllocator::OptimalReallocAllocator(tree::Topology topo)
    : copies_(topo) {}

tree::NodeId OptimalReallocAllocator::place(const Task& task,
                                            const MachineState& state) {
  (void)state;
  // Provisional first-fit placement; the repack that follows immediately
  // (maybe_reallocate always fires) establishes the optimal layout before
  // the engine samples the load.
  const tree::CopyPlacement cp = copies_.place(task.size);
  const bool inserted = placements_.emplace(task.id, cp).second;
  PARTREE_ASSERT(inserted, "duplicate arrival id in OptimalReallocAllocator");
  return cp.node;
}

void OptimalReallocAllocator::on_departure(TaskId id,
                                           const MachineState& state) {
  (void)state;
  const tree::CopyPlacement* cp = placements_.find(id);
  PARTREE_ASSERT(cp != nullptr,
                 "departure of task unknown to OptimalReallocAllocator");
  copies_.remove(*cp);
  placements_.erase(id);
}

std::optional<std::vector<Migration>> OptimalReallocAllocator::maybe_reallocate(
    const MachineState& state) {
  // Pack straight into our own CopySet; the scratch-backed bucket pass
  // reproduces the A_R order exactly, so the old plan + replay-assert
  // pair collapses to one placement sweep. debug_check_state audits the
  // resulting placement map under the engine's debug_checks net.
  repack_into(state, copies_, scratch_);
  placements_.clear();
  for (const PackedTask& p : scratch_.packed) {
    placements_.emplace(p.id, p.placement);
  }
  return std::optional<std::vector<Migration>>(
      std::in_place, scratch_.migrations.begin(), scratch_.migrations.end());
}

std::string OptimalReallocAllocator::debug_check_state() const {
  const std::string err = copies_.check();
  if (!err.empty()) return "copy_set: " + err;
  return check_placements(placements_, copies_);
}

void OptimalReallocAllocator::reset() {
  copies_.clear();
  placements_.clear();
}

}  // namespace partree::core
