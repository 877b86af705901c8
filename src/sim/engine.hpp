// The event-replay engine: drives an allocator over an event source,
// validates every decision against the model, and collects metrics.
#pragma once

#include <cstdint>

#include "core/allocator.hpp"
#include "core/event_source.hpp"
#include "core/sequence.hpp"
#include "core/step.hpp"
#include "sim/result.hpp"

namespace partree::obs {
class TraceSink;
}  // namespace partree::obs

namespace partree::sim {

class FaultInjector;

struct EngineOptions {
  /// Record the post-event max-load series (needed for max_tau E[L]).
  bool record_series = false;
  /// Capture a per-PE load histogram at the first peak-load moment.
  bool record_peak_histogram = false;
  /// Track per-task slowdowns (max PE load inside each task's submachine
  /// over its lifetime). Adds O(overlapping tasks) work per event.
  bool record_slowdowns = false;
  /// Validate the load-accounting invariants after every event:
  /// LoadTree::max_load() must equal max over pe_loads(), the total active
  /// size must equal the sum of active task sizes, and the active-task
  /// counts must agree. O(N) per event; on violation, writes the flight
  /// record + metrics snapshot as a crash dump (obs::write_crash_dump)
  /// and aborts. For tests.
  bool debug_checks = false;
  /// When non-null, the run is traced: the global trace layer is armed
  /// with this sink and duration metrics are enabled for the duration, so
  /// duration spans, engine instants, and periodic counter samples land
  /// in the sink (drained at run end), and the duration histograms fill
  /// too. At most one traced run at a time -- the sink and the duration
  /// switch are process-wide.
  obs::TraceSink* trace = nullptr;
  /// Events between counter samples while tracing (>= 1).
  std::uint64_t trace_sample_every = 64;
  /// Record a MachineState digest at every reallocation epoch boundary
  /// (after each applied reallocation and at run end) into
  /// SimResult::epoch_digests / final_digest, and emit each one as a
  /// kStateDigest trace instant. The digests are detsim's cheap
  /// equivalence oracle for differential replay. O(active tasks) per
  /// epoch; off by default so fault-free hot paths pay nothing.
  bool record_digests = false;
  /// When non-null, the run consults the injector once per event and
  /// applies any scheduled fault (sim/faults.hpp documents the per-kind
  /// semantics). Corruption faults require debug_checks, which then dies
  /// with a crash dump whose reason names the fault; the injector is
  /// begin_run()-reset at the start of every run.
  FaultInjector* faults = nullptr;
  /// Invoked with each reallocation's migration list BEFORE it is applied
  /// (placements in `from` are still live); used e.g. to price migrations
  /// on a concrete interconnect.
  core::ReallocationHook on_reallocation;
};

class Engine {
 public:
  explicit Engine(tree::Topology topo, EngineOptions options = {});

  /// Replays a fixed sequence. The allocator is reset() first.
  [[nodiscard]] SimResult run(const core::TaskSequence& sequence,
                              core::Allocator& allocator);

  /// Drives an interactive event source (e.g. the adaptive adversary).
  /// If `recorded` is non-null, every produced event is appended to it so
  /// the run can be replayed later as a fixed sequence.
  [[nodiscard]] SimResult run_interactive(core::EventSource& source,
                                          core::Allocator& allocator,
                                          core::TaskSequence* recorded = nullptr);

 private:
  tree::Topology topo_;
  EngineOptions options_;
};

}  // namespace partree::sim
