// The serve side of the benchmark: the workload's traffic submitted to a
// PartitionService on a fixed open-loop schedule by one generator thread,
// with one collector thread taking the futures in FIFO order.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "bench_util.hpp"
#include "core/sequence.hpp"
#include "engine_bench.hpp"
#include "obs/metrics.hpp"
#include "workloads.hpp"

namespace perfbench {

struct ServePhase {
  std::size_t requests = 0;  ///< timed requests
  /// Per timed request: completion minus due time, and (traced phases
  /// only) time inside submit_* and how late the generator started it.
  std::vector<std::uint64_t> sojourn_ns, submit_ns, lag_ns;
  std::uint64_t wall_ns = 0;  ///< first due time to last completion
  bool ok = false;  ///< every future answered, counts and digest verified
  /// Service metrics from reset (after the untimed part) to stop(), taken
  /// before the verification replay; only when the phase was traced.
  partree::obs::MetricsSnapshot metrics;

  /// The q-quantile sojourn of each window of consecutive requests. A
  /// metric takes the kCalmQuantile over windows, so a host stall that
  /// delays some windows does not move it.
  [[nodiscard]] std::vector<double> window_quantiles(double q) const;

  /// Requests completed per second of the phase.
  [[nodiscard]] double delivered_rps() const {
    return wall_ns == 0 ? 0.0
                        : static_cast<double>(requests) * 1e9 /
                              static_cast<double>(wall_ns);
  }
};

/// What each served prefix must reproduce, keyed by its length in events
/// (from traced_replay's checkpoints, themselves checked against
/// Engine::run on the whole sequence).
using PrefixFacts = std::map<std::size_t, RunFacts>;

/// The events a phase times: [start, start + requests) of the sequence.
/// Everything before `start` is submitted untimed first.
struct PhaseSpan {
  std::size_t start = 0;
  std::size_t requests = 0;

  [[nodiscard]] std::size_t end() const { return start + requests; }
};

/// Slice `k` of `slices` phases at `rate_rps` for `seconds` each. The
/// first starts after warmup_length() and the others are spread evenly
/// over the rest of the sequence, so together they sample all of it rather
/// than one stretch.
[[nodiscard]] PhaseSpan phase_span(const partree::core::TaskSequence& seq,
                                   double rate_rps, double seconds, int k = 0,
                                   int slices = 1);

/// The workload's max-rate ladder, lowest rung first.
[[nodiscard]] std::vector<double> ladder(const Workload& w);

/// The events every rung of the ladder times: as many as the middle rung
/// offers in `seconds_per_rung`. Every rung serves the same stretch, so
/// rungs differ only in rate, not in the rounds they meet.
[[nodiscard]] PhaseSpan rung_span(const Workload& w,
                                  const partree::core::TaskSequence& seq,
                                  double seconds_per_rung);

/// Serves `seq` up to span.end(): the events before span.start submitted
/// untimed, the span on schedule at `rate_rps`. Verifies every answer, and
/// the service's final digest and round counts against `expected`.
[[nodiscard]] ServePhase serve_phase(const Workload& w,
                                     const partree::core::TaskSequence& seq,
                                     PhaseSpan span, double rate_rps,
                                     bool traced, const PrefixFacts& expected,
                                     Tally& tally);

/// Highest rung of the ladder, found by binary search, whose p90 sojourn
/// over the rung_span() meets the 5 ms limit, and whose p50 over the
/// second half of it does too (so a growing backlog fails). The limit is
/// above the few milliseconds a large round holds the apply thread, so a
/// rung fails on queueing rather than on where its rounds fall. Returns the
/// delivered rate at that rung, 0 when none passes.
[[nodiscard]] double max_rate(const Workload& w,
                              const partree::core::TaskSequence& seq,
                              double seconds_per_rung,
                              const PrefixFacts& expected, Tally& tally);

/// serve.* and loadgen.* per-layer metrics from a traced phase.
void add_serve_metrics(ServePhase& phase, MetricMap& out);

}  // namespace perfbench
