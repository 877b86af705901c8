// Run metrics: the one observability registry for the hot layers.
//
// Instrumented code records into log2-bucketed histograms (durations and
// sizes), plus process-wide high-watermark gauges, all sharded per thread
// on the shard_registry.hpp pattern so the hot paths never synchronise. A
// histogram's count and sum double as the event counters ("how many");
// its buckets answer "how bad does it get". Every cell is a relaxed
// atomic written by exactly one thread, so a snapshot taken WHILE pool
// workers are recording is race-free (merely fuzzy) -- the crash-dump
// path reads the registry from an aborting thread without waiting for
// quiescence.
//
// Two switches:
//
//   * `set_metrics_enabled` (default ON) gates everything: value
//     histograms, gauges, and pre-measured duration records. The enabled
//     cost per record is a branch plus a handful of thread-local relaxed
//     stores; the bench harness gates it below 1% on the E2 greedy sweep
//     (metrics_overhead_pct).
//   * `set_duration_metrics_enabled` (default OFF) additionally lets
//     `MetricTimer` (and `duration_start`) read the monotonic clock,
//     populating the duration histograms. Two clock reads per
//     instrumented scope are measurable on small events, so it is opt-in
//     (`bench_harness --metrics`, or any traced engine run).
//
// While a trace sink is armed (obs/trace.hpp), every interval recorded
// through MetricTimer / record_since is also emitted as a trace span named
// by its DurationMetric, so timelines and histograms share one set of
// names.
//
// Snapshots aggregate retired + live shards into plain structs, exported
// two ways: a canonical "partree-metrics-v2" JSON document and a
// Prometheus text exposition (`partree_*` families). The crash-dump path
// (obs/trace.hpp write_crash_dump) embeds the JSON document so
// invariant-failure forensics include the distributions leading up to the
// crash.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/json.hpp"

namespace partree::obs {

/// Duration histograms (nanoseconds). Populated by MetricTimer scopes
/// while duration metrics are enabled, or directly via record_duration
/// when the caller already holds a measurement (e.g. a sweep shard's
/// wall time, measured anyway for the checkpoint). The names double as
/// trace span names.
enum class DurationMetric : std::size_t {
  /// Engine: one arrival fully handled (placement + any reallocation +
  /// slowdown bookkeeping).
  kArrivalHandleNs = 0,
  /// Engine: one departure fully handled.
  kDepartureHandleNs,
  /// Engine/serve (core::apply_event): one APPLIED reallocation round
  /// (decision + migration).
  kReallocRoundNs,
  /// Engine/serve: the allocator's planning half of one applied round
  /// (maybe_reallocate only, before any migration is applied). Recorded
  /// only when a plan was actually produced, so realloc_round_ns minus
  /// this is the application half.
  kReallocPlanNs,
  /// Pool: a caller's wait for the pool to go idle before its region
  /// dispatches (region-level queueing delay).
  kPoolDispatchWaitNs,
  /// Pool: one whole region, timed on the calling thread (includes the
  /// dispatch wait).
  kPoolRegionNs,
  /// Pool: one worker's participation in one region, timed on the worker.
  kPoolWorkerBusyNs,
  /// Pool: one worker's parked gap between consecutive regions it ran.
  kPoolWorkerIdleNs,
  /// Sweep: one run_shard call (all cells of the shard).
  kSweepShardNs,
  /// Serve: one request's wait in the partition-service queue, from
  /// admission to its epoch batch being dequeued.
  kServeQueueWaitNs,
  /// Serve: one request applied through the allocator by the service
  /// apply thread (placement or removal + any triggered reallocation).
  kServeApplyNs,
  kCount,
};

/// Size/count histograms (dimensionless). Always recorded while metrics
/// are enabled -- no clock involved.
enum class ValueMetric : std::size_t {
  /// Engine: physical task moves (from != to) per applied reallocation.
  kMigrationBatchSize = 0,
  /// Engine/serve: migrations the planner EMITTED per applied round.
  /// With the delta planner this counts tasks whose node changed plus any
  /// self-moves a custom planner chose to emit; the gap to
  /// migrations_applied is planner overhead, not physical work.
  kMigrationsPlanned,
  /// Engine/serve: physical moves (from != to) per applied round --
  /// migration_batch_size under a second, planner-facing name so the
  /// planned/applied pair reads side by side in dashboards.
  kMigrationsApplied,
  /// Pool: items per dispatched region.
  kPoolRegionItems,
  /// Pool: items per chunk a worker claimed off the ticket counter.
  kPoolChunkItems,
  /// Sweep: cells per executed shard.
  kSweepShardCells,
  /// Serve: requests per applied epoch batch.
  kServeBatchRequests,
  /// Tree: nodes visited by one LoadTree::min_load_node query. count =
  /// queries, sum = visits; visits/query << N means the pruning works.
  kMinLoadNodeVisits,
  kCount,
};

/// High-watermark gauges: merged by max, reported as one value.
enum class GaugeMetric : std::size_t {
  /// Pool: most items queued at any region dispatch.
  kPoolQueueDepthHwm = 0,
  /// Pool: most workers participating in any region.
  kPoolWorkersHwm,
  /// Serve: most requests queued in the partition service.
  kServeQueueDepthHwm,
  kCount,
};

inline constexpr std::size_t kNumDurationMetrics =
    static_cast<std::size_t>(DurationMetric::kCount);
inline constexpr std::size_t kNumValueMetrics =
    static_cast<std::size_t>(ValueMetric::kCount);
inline constexpr std::size_t kNumGaugeMetrics =
    static_cast<std::size_t>(GaugeMetric::kCount);

/// Stable snake_case names used in the JSON document; the Prometheus
/// exposition prefixes them with "partree_".
[[nodiscard]] std::string_view duration_metric_name(DurationMetric m) noexcept;
[[nodiscard]] std::string_view value_metric_name(ValueMetric m) noexcept;
[[nodiscard]] std::string_view gauge_metric_name(GaugeMetric m) noexcept;

/// Log2 bucket layout: bucket 0 holds the value 0; bucket b in [1, 64]
/// holds values v with bit_width(v) == b, i.e. v in [2^(b-1), 2^b - 1].
inline constexpr std::size_t kLog2Buckets = 65;

/// Inclusive upper bound of bucket `b` (0, 1, 3, 7, ..., 2^64 - 1).
[[nodiscard]] constexpr std::uint64_t log2_bucket_upper(
    std::size_t b) noexcept {
  if (b == 0) return 0;
  if (b >= 64) return ~std::uint64_t{0};
  return (std::uint64_t{1} << b) - 1;
}

/// Aggregated view of one histogram (plain data; no atomics).
struct MetricHistogram {
  std::array<std::uint64_t, kLog2Buckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  ///< smallest recorded value; 0 when empty
  std::uint64_t max = 0;  ///< largest recorded value; 0 when empty

  /// Smallest bucket upper bound covering at least q * count
  /// observations, clamped to [min, max] so estimates never leave the
  /// observed range. q = 0 returns min (the smallest populated value,
  /// never an empty leading bucket); q = 1 returns max. 0 when empty.
  [[nodiscard]] std::uint64_t quantile(double q) const noexcept;

  [[nodiscard]] double mean() const noexcept {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

/// A full point-in-time aggregate of the registry.
struct MetricsSnapshot {
  std::array<MetricHistogram, kNumDurationMetrics> durations{};
  std::array<MetricHistogram, kNumValueMetrics> values{};
  std::array<std::uint64_t, kNumGaugeMetrics> gauges{};

  [[nodiscard]] const MetricHistogram& duration(DurationMetric m) const {
    return durations[static_cast<std::size_t>(m)];
  }
  [[nodiscard]] const MetricHistogram& value(ValueMetric m) const {
    return values[static_cast<std::size_t>(m)];
  }
  [[nodiscard]] std::uint64_t gauge(GaugeMetric m) const {
    return gauges[static_cast<std::size_t>(m)];
  }
};

/// Master switch (default ON): gates every record_* call and gauge_max.
void set_metrics_enabled(bool enabled) noexcept;
[[nodiscard]] bool metrics_enabled() noexcept;

/// Duration-timer switch (default OFF): lets MetricTimer read the clock.
/// record_duration itself only needs the master switch -- callers that
/// already measured (sweep shards) record for free.
void set_duration_metrics_enabled(bool enabled) noexcept;
[[nodiscard]] bool duration_metrics_enabled() noexcept;

/// Records `ns` into a duration histogram (master switch gated). Emits no
/// trace span: use it for intervals that are not a scope on the calling
/// thread (queue waits, idle gaps, pre-measured wall times).
void record_duration(DurationMetric m, std::uint64_t ns) noexcept;

namespace detail {
/// Monotonic nanoseconds; never 0 (0 marks a disarmed start stamp).
[[nodiscard]] std::uint64_t monotonic_ns() noexcept;
/// Records [start_ns, end_ns) under `m` and, while a trace sink is armed,
/// emits it as a span named by `m`.
void record_span(DurationMetric m, std::uint64_t start_ns,
                 std::uint64_t end_ns) noexcept;
}  // namespace detail

/// Start stamp for a manually bracketed interval: the monotonic clock
/// while duration metrics are enabled, else 0.
[[nodiscard]] inline std::uint64_t duration_start() noexcept {
  return duration_metrics_enabled() ? detail::monotonic_ns() : 0;
}

/// Closes an interval opened by duration_start: records now - start_ns
/// (plus the trace span while armed). Free when `start_ns` is 0.
inline void record_since(DurationMetric m, std::uint64_t start_ns) noexcept {
  if (start_ns != 0) detail::record_span(m, start_ns, detail::monotonic_ns());
}

/// Records `value` into a size/count histogram (master switch gated).
void record_value(ValueMetric m, std::uint64_t value) noexcept;

/// Raises a high-watermark gauge to at least `value` (master switch
/// gated). Watermarks merge by max across shards.
void gauge_max(GaugeMetric m, std::uint64_t value) noexcept;

/// Aggregate over all shards, retired + live. Safe to call while other
/// threads record (each cell is a single-writer relaxed atomic): the
/// result is a consistent-enough snapshot, exact at quiescent points.
[[nodiscard]] MetricsSnapshot snapshot_metrics();

/// Zeroes all shards. Quiescent points only (a concurrent writer's
/// in-flight record may survive the reset).
void reset_metrics();

/// Canonical "partree-metrics-v2" JSON document: every histogram keyed by
/// name with count/sum/min/max/mean and p50/p90/p99, buckets as
/// [bucket_index, count] pairs (nonzero only), plus the gauges.
[[nodiscard]] util::json::Value metrics_to_json(const MetricsSnapshot& snap);

/// Prometheus text exposition: one `partree_<name>` histogram family per
/// metric (cumulative `_bucket{le="..."}` at the log2 upper bounds up to
/// the highest populated bucket, then `+Inf`, `_sum`, `_count`) and one
/// gauge family per watermark.
[[nodiscard]] std::string metrics_to_prometheus(const MetricsSnapshot& snap);

/// Validates a parsed partree-metrics-v2 document: schema tag, every
/// metric present, bucket totals consistent with counts, min <= max.
/// Returns "" when valid, else a message naming the violation.
[[nodiscard]] std::string validate_metrics_json(const util::json::Value& v);

/// RAII duration scope: free (one relaxed load) unless duration metrics
/// are enabled, in which case it costs two clock reads plus one record
/// (and one trace span while a sink is armed).
class MetricTimer {
 public:
  explicit MetricTimer(DurationMetric m) noexcept
      : metric_(m), start_ns_(duration_start()) {}

  ~MetricTimer() { record_since(metric_, start_ns_); }

  MetricTimer(const MetricTimer&) = delete;
  MetricTimer& operator=(const MetricTimer&) = delete;

 private:
  DurationMetric metric_;
  std::uint64_t start_ns_;
};

}  // namespace partree::obs
