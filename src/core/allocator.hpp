// The online allocation algorithm interface.
//
// core/step.hpp's apply_event is the event contract: which hook runs
// when, and against which state.
//
// Allocators are online: place() sees only the arriving task's size and the
// current state -- never future events or task durations.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/machine_state.hpp"

namespace partree::core {

class Allocator {
 public:
  virtual ~Allocator() = default;

  /// Chooses a submachine (node of subtree size == task.size) for an
  /// arriving task. Must be deterministic given the allocator's state for
  /// deterministic algorithms.
  [[nodiscard]] virtual tree::NodeId place(const Task& task,
                                           const MachineState& state) = 0;

  /// Called when `id` departs, before the engine removes it, so the
  /// current placement is still visible via `state`.
  virtual void on_departure(TaskId id, const MachineState& state) {
    (void)id;
    (void)state;
  }

  /// Called after each arrival is applied. Return a migration list to
  /// perform a reallocation now, or nullopt to do nothing. Self-moves
  /// (from == to) are allowed and not counted as physical migrations.
  [[nodiscard]] virtual std::optional<std::vector<Migration>>
  maybe_reallocate(const MachineState& state) {
    (void)state;
    return std::nullopt;
  }

  /// Human-readable identifier ("greedy", "dmix(d=2)", ...).
  [[nodiscard]] virtual std::string name() const = 0;

  /// True for algorithms whose placements depend on random bits.
  [[nodiscard]] virtual bool is_randomized() const { return false; }

  /// Restores the allocator to its initial (empty-machine) state.
  virtual void reset() = 0;

  /// TEST-ONLY fault injection seam: corrupts the allocator's internal
  /// bookkeeping (e.g. a CopySet aggregate) so the self-check below trips.
  /// Returns true iff a corruption was actually applied; the default has
  /// no corruptible state and returns false. Never call outside
  /// tests/fault injection.
  virtual bool debug_corrupt_state() { return false; }

  /// Self-check of the allocator's internal bookkeeping against its own
  /// ground truth. Returns "" when consistent (the default: nothing to
  /// check), else a description of the first inconsistency. The engine's
  /// debug_checks net calls this after every event, so a corrupted
  /// allocator dies with a flight-recorder dump instead of silently
  /// producing plausible-looking placements.
  [[nodiscard]] virtual std::string debug_check_state() const { return {}; }
};

using AllocatorPtr = std::unique_ptr<Allocator>;

}  // namespace partree::core
