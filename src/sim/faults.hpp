// Seed-driven fault plans for the deterministic simulation harness.
//
// A FaultPlan is a sorted list of (step, kind) pairs: "at event index
// `step`, inject fault `kind`". Plans are pure data with a stable textual
// grammar so a failing run reduces to a copy-pastable triple:
//
//   plan       := fault [ "," fault ]*          (steps strictly increasing)
//   fault      := kind "@" step
//   kind       := "alloc_fail" | "cancel" | "corrupt:load_tree"
//               | "corrupt:active_map" | "corrupt:copy_set"
//               | "perturb:pool"
//
// Semantics (applied by sim::Engine via EngineOptions::faults, except
// perturb:pool which the detsim replay layer applies to the worker pool):
//
//   alloc_fail          the arrival's placement application fails
//                       transiently: after the event step the engine
//                       rolls the task back and re-places it at the node
//                       the step reports. A correct engine
//                       recovers digest-identically; a buggy rollback
//                       diverges and the digest oracle flags it.
//   cancel              FaultInjectedError is thrown at the step, riding
//                       the PR-4 pool's structured-cancellation path when
//                       the run executes inside a parallel region.
//   corrupt:load_tree   LoadTree::debug_corrupt_add behind the engine's
//                       back; debug_checks must die with a crash dump
//                       naming this fault.
//   corrupt:active_map  one active-map entry dropped without releasing its
//                       load; debug_checks must die likewise.
//   corrupt:copy_set    Allocator::debug_corrupt_state (CopySet-backed
//                       allocators corrupt their used-PE aggregate);
//                       debug_checks must die likewise. Skipped (recorded
//                       as unapplied) for allocators with no such state.
//   perturb:pool        WorkerPool chunk-size override derived from the
//                       step value, forcing a different worker
//                       interleaving; digests must be invariant.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.hpp"

namespace partree::sim {

enum class FaultKind : std::uint8_t {
  kAllocFail = 0,
  kCancel,
  kCorruptLoadTree,
  kCorruptActiveMap,
  kCorruptCopySet,
  kPerturbPool,
  kCount,
};

inline constexpr std::size_t kNumFaultKinds =
    static_cast<std::size_t>(FaultKind::kCount);

/// Stable grammar token for a kind ("alloc_fail", "corrupt:load_tree", ...).
[[nodiscard]] std::string_view fault_kind_name(FaultKind kind) noexcept;

/// True for the corrupt:* kinds, whose only correct outcome is a crash
/// dump (they require EngineOptions::debug_checks and abort the process).
[[nodiscard]] bool fault_is_corruption(FaultKind kind) noexcept;

/// One scheduled fault.
struct Fault {
  std::uint64_t step = 0;  ///< 0-based event index the fault fires at
  FaultKind kind = FaultKind::kAllocFail;

  /// Grammar form, e.g. "corrupt:load_tree@30".
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const Fault&, const Fault&) = default;
};

class FaultPlan {
 public:
  FaultPlan() = default;
  explicit FaultPlan(std::vector<Fault> faults);

  /// Parses the plan grammar. Throws std::invalid_argument (with the
  /// offending token) on unknown kinds, malformed steps, or non-increasing
  /// step order. "" parses to the empty (fault-free) plan.
  [[nodiscard]] static FaultPlan parse(std::string_view text);

  /// Canonical grammar form; parse(to_string()) round-trips.
  [[nodiscard]] std::string to_string() const;

  [[nodiscard]] const std::vector<Fault>& faults() const noexcept {
    return faults_;
  }
  [[nodiscard]] bool empty() const noexcept { return faults_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return faults_.size(); }

  /// True when any scheduled fault is a corrupt:* kind (the plan then
  /// requires debug_checks and can only end in a crash dump).
  [[nodiscard]] bool has_corruption() const noexcept;

  /// The fault scheduled exactly at `step`, or nullptr.
  [[nodiscard]] const Fault* at(std::uint64_t step) const noexcept;

  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;

 private:
  std::vector<Fault> faults_;  // sorted by step, strictly increasing
};

/// Draws a one-fault plan for a run of `n_events` events from a split of
/// `rng`: uniform step in [1, n_events), kind uniform over the injectable
/// kinds (corruption kinds included only when `include_corruption`).
/// n_events >= 2.
[[nodiscard]] FaultPlan random_fault_plan(util::Rng& rng,
                                          std::uint64_t n_events,
                                          bool include_corruption);

/// Thrown by the engine when a kCancel fault fires. Inside a parallel
/// region this latches the worker pool's cancel flag and is rethrown at
/// the join point, exactly like any body error.
class FaultInjectedError : public std::runtime_error {
 public:
  explicit FaultInjectedError(const Fault& fault)
      : std::runtime_error("injected fault " + fault.to_string()),
        fault_(fault) {}

  [[nodiscard]] const Fault& fault() const noexcept { return fault_; }

 private:
  Fault fault_;
};

/// Per-run injector the engine consults once per event. Stateful (cursor
/// over the sorted plan plus applied-fault bookkeeping); the engine calls
/// begin_run() at replay start, so one injector drives repeated runs.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {}

  /// Resets the cursor and the applied/skipped counts for a fresh replay.
  void begin_run();

  /// The fault scheduled for this step, or nullptr. Steps must be
  /// consulted in increasing order within a run.
  [[nodiscard]] const Fault* on_step(std::uint64_t step);

  /// Records whether the engine actually applied the fault returned for
  /// this step (corruptions can be inapplicable, e.g. no active task).
  void record_applied(const Fault& fault, bool applied);

  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }
  [[nodiscard]] std::uint64_t injected() const noexcept { return injected_; }
  [[nodiscard]] std::uint64_t skipped() const noexcept { return skipped_; }

  /// Context line for crash dumps: the most recently APPLIED fault in
  /// grammar form ("corrupt:load_tree@30"), or "" before any fault fired.
  /// The engine appends it to the debug_checks failure reason, so the
  /// partree-crash-v2 dump names the injected component and step.
  [[nodiscard]] const std::string& context() const noexcept {
    return context_;
  }

 private:
  FaultPlan plan_;
  std::size_t cursor_ = 0;
  std::uint64_t injected_ = 0;
  std::uint64_t skipped_ = 0;
  std::string context_;
};

/// Repro file ("partree-detsim-repro-v1" JSON): everything needed to
/// replay one failing run byte-for-byte.
struct ReproSpec {
  std::uint64_t n_pes = 0;
  std::string allocator;
  std::uint64_t seed = 0;
  FaultPlan faults;
  /// What the original run did: "divergence", "crash", or "recovered"
  /// (the latter lands in repro files only from --replay round-trips).
  std::string expect;
  /// Fault-free baseline final digest (0 when not applicable).
  std::uint64_t baseline_digest = 0;

  friend bool operator==(const ReproSpec&, const ReproSpec&) = default;
};

/// Serializes/parses the repro file. read_repro throws std::runtime_error
/// on schema violations (naming the field), so a stale or truncated file
/// fails loudly instead of replaying the wrong thing.
[[nodiscard]] std::string write_repro(const ReproSpec& spec);
[[nodiscard]] ReproSpec read_repro(std::string_view text);

}  // namespace partree::sim
