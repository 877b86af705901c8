#include "sim/engine.hpp"

#include <algorithm>
#include <optional>

#include "obs/counters.hpp"
#include "obs/metrics.hpp"
#include "obs/timing.hpp"
#include "obs/trace.hpp"
#include "sim/faults.hpp"
#include "sim/slowdown.hpp"
#include "util/assert.hpp"
#include "util/timer.hpp"

namespace partree::sim {
namespace {

// debug_checks violation: preserve the evidence (flight record, counters,
// phase times) before aborting -- the last K engine events usually point
// straight at the mutation that corrupted the state. When a fault injector
// is armed, the most recently applied fault rides along in the reason, so
// the partree-crash-v1 dump names the injected component and step.
[[noreturn]] void invariant_failure(std::string msg,
                                    const FaultInjector* injector) {
  if (injector != nullptr && !injector->context().empty()) {
    msg += " [injected fault ";
    msg += injector->context();
    msg += "]";
  }
  obs::write_crash_dump(msg);
  util::assert_fail("debug_checks", __FILE__, __LINE__, msg.c_str());
}

// EngineOptions::debug_checks: recompute the aggregates the O(log N)
// incremental updates maintain and compare, then let the allocator audit
// its own bookkeeping (e.g. a CopySet's indexes). Catches drift introduced
// by hot-path changes (e.g. instrumentation edits) immediately, next to
// the event that caused it.
void check_state_invariants(const core::MachineState& state,
                            const core::Allocator& allocator,
                            const FaultInjector* injector) {
  const std::vector<std::uint64_t> loads = state.pe_loads();
  const std::uint64_t max_load =
      loads.empty() ? 0 : *std::max_element(loads.begin(), loads.end());
  if (state.max_load() != max_load) {
    invariant_failure("debug check: LoadTree max_load != max over pe_loads",
                      injector);
  }

  std::uint64_t active_size = 0;
  for (const core::ActiveTask& at : state.active_tasks()) {
    active_size += at.task.size;
  }
  if (state.active_size() != active_size) {
    invariant_failure(
        "debug check: LoadTree total != sum of active task sizes", injector);
  }
  if (state.loads().active_tasks() != state.active_count()) {
    invariant_failure("debug check: active task counts disagree", injector);
  }

  const std::string allocator_error = allocator.debug_check_state();
  if (!allocator_error.empty()) {
    invariant_failure("debug check: allocator state: " + allocator_error,
                      injector);
  }
}

// Arms the trace sink + timing for one traced run and restores both on
// scope exit (including the drain, so the sink sees the full run).
class ScopedTraceArm {
 public:
  explicit ScopedTraceArm(obs::TraceSink* sink)
      : armed_(sink != nullptr), timing_was_(obs::timing_enabled()) {
    if (armed_) {
      obs::set_trace_sink(sink);
      obs::set_timing_enabled(true);
    }
  }
  ~ScopedTraceArm() {
    if (armed_) {
      obs::set_trace_sink(nullptr);  // flushes every live ring first
      obs::set_timing_enabled(timing_was_);
    }
  }
  ScopedTraceArm(const ScopedTraceArm&) = delete;
  ScopedTraceArm& operator=(const ScopedTraceArm&) = delete;

 private:
  bool armed_;
  bool timing_was_;
};

}  // namespace

Engine::Engine(tree::Topology topo, EngineOptions options)
    : topo_(topo), options_(options) {}

SimResult Engine::run(const core::TaskSequence& sequence,
                      core::Allocator& allocator) {
  const std::string error = sequence.validate(topo_.n_leaves());
  PARTREE_ASSERT(error.empty(), error.c_str());
  core::SequenceSource source(sequence.events());
  return run_interactive(source, allocator);
}

SimResult Engine::run_interactive(core::EventSource& source,
                                  core::Allocator& allocator,
                                  core::TaskSequence* recorded) {
  util::Timer timer;
  const ScopedTraceArm trace_arm(options_.trace);
  const obs::Counters counters_before = obs::thread_counters();
  allocator.reset();
  core::MachineState state(topo_);

  FaultInjector* injector = options_.faults;
  if (injector != nullptr) {
    // Corruption faults are only observable through the debug_checks net;
    // running them without it would corrupt silently -- the exact failure
    // mode detsim exists to rule out.
    PARTREE_ASSERT(!injector->plan().has_corruption() ||
                       options_.debug_checks,
                   "corruption faults require EngineOptions::debug_checks");
    injector->begin_run();
  }

  SimResult result;
  result.allocator = allocator.name();
  result.n_pes = topo_.n_leaves();

  std::optional<SlowdownTracker> slowdowns;
  if (options_.record_slowdowns) slowdowns.emplace(topo_);

  while (auto event = source.next(state)) {
    const std::uint64_t step = result.events;
    bool fail_alloc_once = false;
    bool reallocated = false;
    if (injector != nullptr) {
      if (const Fault* fault = injector->on_step(step)) {
        bool applied = false;
        switch (fault->kind) {
          case FaultKind::kAllocFail:
            // Applies to the arrival below: its first placement
            // application fails transiently and is rolled back + retried.
            fail_alloc_once = event->kind == core::EventKind::kArrival;
            applied = fail_alloc_once;
            break;
          case FaultKind::kCancel:
            injector->record_applied(*fault, true);
            obs::emit_instant(obs::Instant::kFaultInjected, step);
            throw FaultInjectedError(*fault);
          case FaultKind::kCorruptLoadTree:
            state.debug_corrupt_loads(tree::NodeId{state.n_pes()}, 1000);
            applied = true;
            break;
          case FaultKind::kCorruptActiveMap:
            applied = state.debug_corrupt_drop_active();
            break;
          case FaultKind::kCorruptCopySet:
            applied = allocator.debug_corrupt_state();
            break;
          case FaultKind::kPerturbPool:
          case FaultKind::kCount:
            break;  // replay-level fault; nothing for the engine to do
        }
        injector->record_applied(*fault, applied);
        if (applied) {
          ++result.faults_injected;
          obs::emit_instant(obs::Instant::kFaultInjected, step);
        }
        // A corruption must die at the fault step, before the (possibly
        // now-invalid) event is processed against the broken state -- a
        // departure of a dropped task would otherwise abort on a model
        // assertion with no crash dump.
        if (applied && fault_is_corruption(fault->kind)) {
          check_state_invariants(state, allocator, injector);
        }
      }
    }

    if (event->kind == core::EventKind::kArrival) {
      const obs::MetricTimer arrival_metric(
          obs::DurationMetric::kArrivalHandleNs);
      const core::Task& task = event->task;
      if (recorded != nullptr) recorded->arrive_as(task.id, task.size);
      {
        const obs::ScopedTimer place_timer(obs::Phase::kPlace);
        const tree::NodeId node = allocator.place(task, state);
        state.place(task, node);
        if (fail_alloc_once) {
          // Injected transient allocation failure: the decision was made
          // but its application "failed"; roll the state back and retry
          // the same decision. Recovery must be digest-exact -- the
          // roll-back exercises the assign/release paths under fire.
          state.remove(task.id);
          state.place(task, node);
        }
      }
      reallocated = false;
      {
        const obs::ScopedTimer realloc_timer(obs::Phase::kReallocate);
        // The round is only a round once maybe_reallocate says yes, so
        // the duration metric brackets decision + application manually
        // and records nothing for the (overwhelmingly common) no-op
        // decisions -- kReallocRoundNs counts applied rounds only.
        const std::uint64_t realloc_t0 = obs::duration_metrics_enabled()
                                             ? obs::detail::monotonic_ns()
                                             : 0;
        if (auto migrations = allocator.maybe_reallocate(state)) {
          // Planning half of the round: everything up to here is the
          // allocator deciding where tasks go; what follows applies it.
          if (realloc_t0 != 0) {
            obs::record_duration(obs::DurationMetric::kReallocPlanNs,
                                 obs::detail::monotonic_ns() - realloc_t0);
          }
          ++result.reallocation_count;
          reallocated = true;
          obs::bump(obs::Counter::kReallocRounds);
          obs::emit_instant(obs::Instant::kReallocRound, migrations->size());
          if (options_.on_reallocation) options_.on_reallocation(*migrations);
          const core::AppliedMigrations applied = state.migrate(*migrations);
          result.migration_planned_count += migrations->size();
          result.migration_count += applied.moved;
          result.migrated_size += applied.moved_size;
          obs::record_value(obs::ValueMetric::kMigrationsPlanned,
                            migrations->size());
          obs::record_value(obs::ValueMetric::kMigrationsApplied,
                            applied.moved);
          obs::record_value(obs::ValueMetric::kMigrationBatchSize,
                            applied.moved);
          if (realloc_t0 != 0) {
            obs::record_duration(obs::DurationMetric::kReallocRoundNs,
                                 obs::detail::monotonic_ns() - realloc_t0);
          }
        }
      }
      if (slowdowns) {
        if (reallocated) {
          slowdowns->on_reallocation(state);
        } else {
          slowdowns->on_arrival(task.id, state.active_task(task.id).node,
                                state);
        }
      }
      ++result.arrivals;
      obs::bump(obs::Counter::kArrivals);
      obs::emit_instant(obs::Instant::kArrival, task.id);
    } else {
      const obs::MetricTimer departure_metric(
          obs::DurationMetric::kDepartureHandleNs);
      const obs::ScopedTimer departure_timer(obs::Phase::kDeparture);
      if (recorded != nullptr) recorded->depart(event->task.id);
      if (slowdowns) slowdowns->on_departure(event->task.id, state);
      allocator.on_departure(event->task.id, state);
      state.remove(event->task.id);
      ++result.departures;
      obs::bump(obs::Counter::kDepartures);
      obs::emit_instant(obs::Instant::kDeparture, event->task.id);
    }
    ++result.events;
    obs::bump(obs::Counter::kEventsProcessed);

    const obs::ScopedTimer bookkeeping_timer(obs::Phase::kBookkeeping);
    const std::uint64_t load = state.max_load();
    if (load > result.max_load) {
      result.max_load = load;
      if (options_.record_peak_histogram) {
        result.peak_pe_histogram.clear();
        for (const std::uint64_t pe_load : state.pe_loads()) {
          result.peak_pe_histogram.add(pe_load);
        }
      }
    }
    if (options_.record_series) result.load_series.push_back(load);
    if (options_.record_digests && reallocated) {
      const std::uint64_t digest = state.digest();
      result.epoch_digests.push_back({result.events, digest});
      obs::emit_instant(obs::Instant::kStateDigest, digest);
    }
    if (obs::tracing_enabled() &&
        result.events % std::max<std::uint64_t>(
                            options_.trace_sample_every, 1) == 0) {
      obs::emit_counters(load, state.optimal_load(), state.active_size(),
                         state.active_count());
    }
    if (options_.debug_checks) {
      check_state_invariants(state, allocator, injector);
    }
  }

  if (options_.record_digests) {
    result.final_digest = state.digest();
    result.epoch_digests.push_back({result.events, result.final_digest});
    obs::emit_instant(obs::Instant::kStateDigest, result.final_digest);
  }

  if (slowdowns) {
    result.task_slowdowns = slowdowns->completed();
    result.worst_slowdown = slowdowns->worst();
    result.mean_slowdown = slowdowns->mean_completed();
  }
  result.optimal_load = state.optimal_load();
  result.counters = obs::thread_counters().delta_since(counters_before);
  result.wall_seconds = timer.seconds();
  return result;
}

}  // namespace partree::sim
