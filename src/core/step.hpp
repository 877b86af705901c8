// The one event-apply step. Engine (sim/engine.cpp) and PartitionService
// (serve/service.cpp) both apply events through apply_event, so a serve
// run and a serial replay of its recorded sequence match by construction.
//
//   arrival t:   node = alloc.place(t, state)      // state BEFORE placing t
//                state.place(t, node)
//                if (migs = alloc.maybe_reallocate(state))  // state AFTER
//                    on_reallocation(*migs)        // placements still live
//                    state.migrate(*migs)
//   departure t: alloc.on_departure(id, state)     // placement still live
//                state.remove(id)
//
// The step also owns the trade's records: the realloc plan/round
// duration bracket, the planned/applied/batch-size migration values, the
// kReallocRound/kArrival/kDeparture instants and the recorded append.
#pragma once

#include <cstdint>
#include <functional>
#include <span>

#include "core/allocator.hpp"
#include "core/event.hpp"
#include "core/machine_state.hpp"
#include "core/sequence.hpp"

namespace partree::core {

/// Called with each reallocation's migration list BEFORE it is applied
/// (placements in `from` are still live).
using ReallocationHook = std::function<void(std::span<const Migration>)>;

/// What one apply_event did.
struct StepResult {
  EventKind kind = EventKind::kArrival;
  /// Where the task lives after the step (an arrival moved by the round
  /// it triggered reports its new node), or lived before it departed.
  tree::NodeId node = tree::kInvalidNode;
  std::uint64_t size = 0;
  /// The arrival triggered an applied reallocation round.
  bool reallocated = false;
  /// Migrations the round's plan emitted (its list length).
  std::uint64_t planned = 0;
  /// Physical moves applied (from != to) and their total size in PEs.
  std::uint64_t moved = 0;
  std::uint64_t moved_size = 0;
};

/// Applies one event to `state` through `allocator`. A departure must
/// name an active task. A non-null `recorded` gets the event appended.
StepResult apply_event(const Event& event, Allocator& allocator,
                       MachineState& state, TaskSequence* recorded = nullptr,
                       const ReallocationHook& on_reallocation = {});

/// Running totals over applied events, shared by sim::SimResult and
/// serve::ServiceStats so both front ends count the trade the same way.
struct EventTally {
  std::uint64_t arrivals = 0;
  std::uint64_t departures = 0;
  /// L_A(sigma): maximum over events of the post-event machine max load.
  std::uint64_t max_load = 0;

  /// Reallocation accounting ("the trade").
  std::uint64_t reallocation_count = 0;
  /// Physical task moves (migrations with from != to).
  std::uint64_t migration_count = 0;
  /// Migrations EMITTED by planners (list lengths); above migration_count
  /// only by the self-moves a planner emits, i.e. planner overhead.
  std::uint64_t migration_planned_count = 0;
  /// Sum of sizes of physically moved tasks (PE-sized checkpoint volume).
  std::uint64_t migrated_size = 0;

  /// Counts one applied step and the machine max load right after it.
  void add(const StepResult& step, std::uint64_t post_event_max_load) noexcept;
};

}  // namespace partree::core
