#include "core/machine_state.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/digest.hpp"
#include "util/math.hpp"

namespace partree::core {

MachineState::MachineState(tree::Topology topo)
    : topo_(topo), loads_(topo) {}

void MachineState::place(const Task& task, tree::NodeId node) {
  PARTREE_ASSERT(task.id != kInvalidTask, "placing invalid task id");
  PARTREE_ASSERT(valid_task_size(task.size, topo_.n_leaves()),
                 "task size violates model");
  PARTREE_ASSERT(topo_.valid(node), "placement node out of range");
  PARTREE_ASSERT(topo_.subtree_size(node) == task.size,
                 "placement node size does not match task size");
  const bool inserted = active_.emplace(task.id, ActiveTask{task, node}).second;
  PARTREE_ASSERT(inserted, "task id already active");
  loads_.assign(node);
  peak_active_size_ = std::max(peak_active_size_, loads_.total_active_size());
}

ActiveTask MachineState::remove(TaskId id) {
  const ActiveTask* at = active_.find(id);
  PARTREE_ASSERT(at != nullptr, "removing task that is not active");
  const ActiveTask removed = *at;
  loads_.release(removed.node);
  active_.erase(id);
  return removed;
}

AppliedMigrations MachineState::migrate(
    std::span<const Migration> migrations) {
  AppliedMigrations applied;
  for (const Migration& m : migrations) {
    ActiveTask* at = active_.find(m.id);
    PARTREE_ASSERT(at != nullptr, "migrating task that is not active");
    PARTREE_ASSERT(at->node == m.from,
                   "migration 'from' does not match current placement");
    PARTREE_ASSERT(topo_.valid(m.to), "migration target out of range");
    PARTREE_ASSERT(topo_.subtree_size(m.to) == at->task.size,
                   "migration target size mismatch");
    if (m.from == m.to) continue;
    loads_.release(m.from);
    loads_.assign(m.to);
    at->node = m.to;
    ++applied.moved;
    applied.moved_size += at->task.size;
  }
  obs::emit_instant(obs::Instant::kMigrationBatch, applied.moved);
  return applied;
}

const ActiveTask& MachineState::active_task(TaskId id) const {
  const ActiveTask* at = active_.find(id);
  PARTREE_ASSERT(at != nullptr, "lookup of inactive task");
  return *at;
}

std::vector<ActiveTask> MachineState::active_tasks() const {
  std::vector<ActiveTask> tasks;
  tasks.reserve(active_.size());
  for_each_active([&tasks](const ActiveTask& at) { tasks.push_back(at); });
  return tasks;
}

std::uint64_t MachineState::optimal_load() const noexcept {
  return peak_active_size_ == 0
             ? 0
             : util::ceil_div(peak_active_size_, topo_.n_leaves());
}

std::uint64_t MachineState::digest() const {
  std::uint64_t task_set = 0;
  active_.for_each([&task_set](TaskId id, const ActiveTask& at) {
    task_set = util::commutative_add(
        task_set, util::element_digest(id, at.task.size, at.node));
  });
  util::Fnv fnv;
  fnv.mix(topo_.n_leaves());
  fnv.mix(active_.size());
  fnv.mix(task_set);
  fnv.mix(loads_.max_load());
  fnv.mix(loads_.total_active_size());
  fnv.mix(peak_active_size_);
  return fnv.value();
}

bool MachineState::debug_corrupt_drop_active() {
  if (active_.empty()) return false;
  TaskId victim = kInvalidTask;
  active_.for_each([&victim](TaskId id, const ActiveTask&) {
    if (victim == kInvalidTask) victim = id;
  });
  active_.erase(victim);  // load deliberately left assigned
  return true;
}

void MachineState::clear() {
  loads_.clear();
  active_.clear();
  peak_active_size_ = 0;
}

}  // namespace partree::core
