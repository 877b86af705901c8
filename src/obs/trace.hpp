// Structured tracing: per-thread event rings, sinks, and a flight recorder.
//
// Instrumented code records fixed-size TraceEvents into a per-thread ring
// buffer -- no locks, no allocation past first use -- via three typed emit
// paths:
//
//   * duration spans   (obs/metrics.hpp's MetricTimer / record_since, while
//                       duration metrics are on; named by DurationMetric)
//   * engine instants  (arrival / departure / realloc round / migration
//                       batch; ALWAYS recorded -- they double as the flight
//                       recorder -- with a timestamp only while tracing)
//   * counter samples  (periodic max load / L* / active size / active tasks
//                       snapshots from the engine, while tracing)
//
// Tracing proper is armed by installing a TraceSink (set_trace_sink).
// While a sink is armed, rings flush into it whenever they fill and at
// explicit drain points (drain_trace; the engine drains after every traced
// run, and a thread's ring flushes itself on thread exit). With no sink the
// ring simply wraps, at a cost of one struct store per event, and its tail
// is the FLIGHT RECORDER: `thread_flight_record` returns the calling
// thread's last <= kFlightRecorderEvents events, and `write_crash_dump`
// serializes them together with the run-metrics snapshot as canonical
// JSON to stderr and a crash file -- the engine calls it when
// `EngineOptions::debug_checks` catches an invariant violation, so the
// events leading up to the corruption survive the abort.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace partree::obs {

/// Engine instants: point events recorded once per engine action.
enum class Instant : std::uint8_t {
  /// One arrival fully handled (placement + any reallocation applied);
  /// payload = task id.
  kArrival = 0,
  /// One departure fully handled; payload = task id.
  kDeparture,
  /// An allocator elected to reallocate; payload = migration list size.
  kReallocRound,
  /// One MachineState::migrate call; payload = physical moves applied.
  kMigrationBatch,
  /// One injected fault applied by the detsim harness (sim/faults.hpp);
  /// payload = the step (event index) the fault fired at.
  kFaultInjected,
  /// One per-reallocation-epoch MachineState digest; payload = the digest.
  kStateDigest,
  /// One sweep shard completed (sim/sweep.hpp run_shard); payload = the
  /// shard index.
  kSweepShard,
  /// One partition-service epoch batch applied (serve/service.hpp);
  /// payload = requests in the batch.
  kServeBatch,
  kCount,
};

inline constexpr std::size_t kNumInstants =
    static_cast<std::size_t>(Instant::kCount);

/// Stable snake_case name used in trace exports and crash dumps.
[[nodiscard]] std::string_view instant_name(Instant i) noexcept;

enum class TraceEventKind : std::uint8_t {
  /// One completed duration span: a = start_ns, b = end_ns,
  /// id = DurationMetric.
  kSpan = 0,
  /// One engine instant: a = payload, id = Instant.
  kInstant,
  /// One counter sample: a = max_load, b = l_star, c = active_size,
  /// d = active_tasks.
  kCounters,
};

/// Fixed-size structured event; the ring stores these by value.
struct TraceEvent {
  std::uint64_t seq = 0;    ///< per-thread sequence number (ring position)
  std::uint64_t ts_ns = 0;  ///< monotonic ns; 0 when recorded while tracing
                            ///< was off (flight-recorder-only events)
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
  std::uint64_t d = 0;
  TraceEventKind kind = TraceEventKind::kInstant;
  std::uint8_t id = 0;  ///< DurationMetric for spans, Instant for instants
};

/// Ring capacity per thread (power of two). A sinkless ring wraps; an
/// armed ring flushes before wrapping, so nothing is dropped in practice.
inline constexpr std::size_t kTraceRingCapacity = std::size_t{1} << 12;

/// Flight-recorder depth: how many trailing events a crash dump preserves.
inline constexpr std::size_t kFlightRecorderEvents = 128;

/// One thread's drained events, in sequence order.
struct ThreadTrace {
  std::uint64_t tid = 0;  ///< small id assigned at first event, process-wide
  std::vector<TraceEvent> events;
  /// Events overwritten before they could be drained (sink armed while the
  /// ring already held more than a capacity's worth of undrained events).
  std::uint64_t dropped = 0;
};

/// Consumer of drained trace chunks. `consume` is called under the trace
/// registry lock (flush points are serialized); implementations must not
/// call back into the trace API and should be cheap or buffer internally.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void consume(const ThreadTrace& chunk) = 0;
};

/// Counting sink for tests and overhead benches: tallies events by kind,
/// discards payloads.
class CountingTraceSink final : public TraceSink {
 public:
  void consume(const ThreadTrace& chunk) override;

  [[nodiscard]] std::uint64_t spans(DurationMetric m) const noexcept {
    return spans_[static_cast<std::size_t>(m)];
  }
  [[nodiscard]] std::uint64_t instants(Instant i) const noexcept {
    return instants_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] std::uint64_t counter_samples() const noexcept {
    return counter_samples_;
  }
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

 private:
  std::array<std::uint64_t, kNumDurationMetrics> spans_{};
  std::array<std::uint64_t, kNumInstants> instants_{};
  std::uint64_t counter_samples_ = 0;
  std::uint64_t total_ = 0;
  std::uint64_t dropped_ = 0;
};

/// Arms (non-null) or disarms (null) tracing. Arming skips whatever the
/// rings currently hold, so the sink sees only events recorded from this
/// point on. Quiescent points only: at most one sink at a time, and no
/// other thread may be emitting during the switch.
void set_trace_sink(TraceSink* sink);

/// True while a sink is armed. One relaxed atomic load.
[[nodiscard]] bool tracing_enabled() noexcept;

/// Flushes every live ring into the armed sink. Quiescent points only.
/// No-op without a sink.
void drain_trace();

/// Benchmark kill switch for the always-on flight-recorder store: while
/// false, emit paths record nothing at all (armed sinks included).
/// Defaults to true; flip it only at quiescent points. Exists so
/// bench_harness can price the default store against a truly bare run --
/// leave it on everywhere else.
void set_flight_recorder_enabled(bool enabled) noexcept;

/// Records an engine instant. Always stores into the calling thread's ring
/// (the flight recorder); reads the clock only while tracing is enabled.
void emit_instant(Instant i, std::uint64_t payload = 0) noexcept;

/// Records a counter sample. No-op unless tracing is enabled.
void emit_counters(std::uint64_t max_load, std::uint64_t l_star,
                   std::uint64_t active_size,
                   std::uint64_t active_tasks) noexcept;

/// The calling thread's last <= kFlightRecorderEvents events, oldest
/// first (sequence order).
[[nodiscard]] std::vector<TraceEvent> thread_flight_record();

/// Overrides the crash-dump file path (tests). Empty restores the default
/// `partree_crash_<unix_ts>.json`, placed in $PARTREE_CRASH_DIR (created
/// if missing) when that is set, else in the working directory.
void set_crash_dump_path(std::string path);

/// Serializes the calling thread's flight record plus the run-metrics
/// snapshot ("partree-crash-v2" JSON) to stderr and the crash-dump
/// file. The file write is atomic (tmp + rename), so a crash mid-dump
/// never leaves truncated JSON. Returns the file path, or "" if the file
/// could not be written (the stderr copy is emitted regardless). Called
/// on the way to abort(); does not itself abort.
std::string write_crash_dump(std::string_view reason);

namespace detail {
/// Span feed from metrics.cpp's record_span; tracing-gated by the caller.
void emit_span(DurationMetric m, std::uint64_t start_ns,
               std::uint64_t end_ns) noexcept;
}  // namespace detail

}  // namespace partree::obs
