#include "core/step.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace partree::core {

StepResult apply_event(const Event& event, Allocator& allocator,
                       MachineState& state, TaskSequence* recorded,
                       const ReallocationHook& on_reallocation) {
  const Task& task = event.task;
  StepResult step;
  step.kind = event.kind;
  if (event.kind == EventKind::kDeparture) {
    if (recorded != nullptr) recorded->depart(task.id);
    allocator.on_departure(task.id, state);
    const ActiveTask removed = state.remove(task.id);
    step.size = removed.task.size;
    step.node = removed.node;
    obs::emit_instant(obs::Instant::kDeparture, task.id);
    return step;
  }

  if (recorded != nullptr) recorded->arrive_as(task.id, task.size);
  step.size = task.size;
  step.node = allocator.place(task, state);
  state.place(task, step.node);
  // Bracketed by hand so the (overwhelmingly common) no-op decisions
  // record nothing: kReallocRoundNs counts applied rounds only, and
  // kReallocPlanNs is its planning half.
  const std::uint64_t realloc_t0 = obs::duration_start();
  if (auto migrations = allocator.maybe_reallocate(state)) {
    obs::record_since(obs::DurationMetric::kReallocPlanNs, realloc_t0);
    step.reallocated = true;
    step.planned = migrations->size();
    obs::emit_instant(obs::Instant::kReallocRound, step.planned);
    if (on_reallocation) on_reallocation(*migrations);
    const AppliedMigrations applied = state.migrate(*migrations);
    step.moved = applied.moved;
    step.moved_size = applied.moved_size;
    obs::record_value(obs::ValueMetric::kMigrationsPlanned, step.planned);
    obs::record_value(obs::ValueMetric::kMigrationsApplied, applied.moved);
    obs::record_value(obs::ValueMetric::kMigrationBatchSize, applied.moved);
    obs::record_since(obs::DurationMetric::kReallocRoundNs, realloc_t0);
    // The round may have moved the task it was triggered by.
    step.node = state.active_task(task.id).node;
  }
  obs::emit_instant(obs::Instant::kArrival, task.id);
  return step;
}

void EventTally::add(const StepResult& step,
                     std::uint64_t post_event_max_load) noexcept {
  ++(step.kind == EventKind::kArrival ? arrivals : departures);
  max_load = std::max(max_load, post_event_max_load);
  if (step.reallocated) {
    ++reallocation_count;
    migration_planned_count += step.planned;
    migration_count += step.moved;
    migrated_size += step.moved_size;
  }
}

}  // namespace partree::core
