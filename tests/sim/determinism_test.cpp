// Seeded determinism: a trial batch must produce identical results and
// identical merged engine-side value histograms no matter how many worker
// threads execute it. Trial i always uses seed base+i and lands in result
// slot i, and histogram merging is commutative addition over per-thread
// shards, so n_threads is invisible everywhere except wall time (and the
// pool's own chunk histograms, which describe the schedule itself).
#include "sim/trials.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "workload/synthetic.hpp"

namespace partree::sim {
namespace {

core::TaskSequence make_sequence(const tree::Topology& topo) {
  util::Rng rng(17);
  workload::ClosedLoopParams params;
  params.n_events = 600;
  params.utilization = 0.7;
  params.size = workload::SizeSpec::uniform_log(0, topo.height());
  return workload::closed_loop(topo, params, rng);
}

std::vector<std::uint64_t> bins_of(const util::Histogram& h) {
  return {h.bins().begin(), h.bins().end()};
}

// Everything except wall_seconds, which is the one legitimately
// nondeterministic field.
void expect_identical(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.allocator, b.allocator);
  EXPECT_EQ(a.n_pes, b.n_pes);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.departures, b.departures);
  EXPECT_EQ(a.max_load, b.max_load);
  EXPECT_EQ(a.optimal_load, b.optimal_load);
  EXPECT_EQ(a.reallocation_count, b.reallocation_count);
  EXPECT_EQ(a.migration_count, b.migration_count);
  EXPECT_EQ(a.migrated_size, b.migrated_size);
  EXPECT_EQ(a.load_series, b.load_series);
  EXPECT_EQ(a.task_slowdowns, b.task_slowdowns);
  EXPECT_EQ(a.worst_slowdown, b.worst_slowdown);
  EXPECT_EQ(a.mean_slowdown, b.mean_slowdown);
  EXPECT_EQ(bins_of(a.peak_pe_histogram), bins_of(b.peak_pe_histogram));
}

// The value histograms the engine and the structures under it record.
// Pool chunk histograms are left out: chunking depends on the thread
// count by design.
constexpr obs::ValueMetric kEngineValueMetrics[] = {
    obs::ValueMetric::kMigrationBatchSize,
    obs::ValueMetric::kMigrationsPlanned,
    obs::ValueMetric::kMigrationsApplied,
    obs::ValueMetric::kMinLoadNodeVisits,
};

void expect_same_engine_values(const obs::MetricsSnapshot& a,
                               const obs::MetricsSnapshot& b) {
  for (const obs::ValueMetric m : kEngineValueMetrics) {
    const obs::MetricHistogram& ha = a.value(m);
    const obs::MetricHistogram& hb = b.value(m);
    SCOPED_TRACE(std::string(obs::value_metric_name(m)));
    EXPECT_EQ(ha.buckets, hb.buckets);
    EXPECT_EQ(ha.count, hb.count);
    EXPECT_EQ(ha.sum, hb.sum);
    EXPECT_EQ(ha.min, hb.min);
    EXPECT_EQ(ha.max, hb.max);
  }
}

/// Runs `body` on a zeroed registry and returns what it recorded.
template <typename Body>
obs::MetricsSnapshot recorded_by(Body&& body) {
  obs::reset_metrics();
  body();
  return obs::snapshot_metrics();
}

class TrialsDeterminismTest : public ::testing::TestWithParam<const char*> {};

TEST_P(TrialsDeterminismTest, SerialAndParallelRunsAreByteIdentical) {
  const tree::Topology topo(64);
  const auto seq = make_sequence(topo);

  TrialOptions serial;
  serial.trials = 8;
  serial.seed = 5;
  serial.n_threads = 1;
  TrialOptions parallel = serial;
  parallel.n_threads = 4;

  std::vector<SimResult> serial_results;
  const obs::MetricsSnapshot serial_metrics = recorded_by([&] {
    serial_results = run_trial_results(topo, seq, GetParam(), serial);
  });
  std::vector<SimResult> parallel_results;
  const obs::MetricsSnapshot parallel_metrics = recorded_by([&] {
    parallel_results = run_trial_results(topo, seq, GetParam(), parallel);
  });

  ASSERT_EQ(serial_results.size(), parallel_results.size());
  for (std::size_t i = 0; i < serial_results.size(); ++i) {
    expect_identical(serial_results[i], parallel_results[i]);
  }
  expect_same_engine_values(serial_metrics, parallel_metrics);
  EXPECT_GT(serial_results.front().events, 0u);
  // The batch is one 8-item pool region whichever path ran it.
  EXPECT_EQ(serial_metrics.value(obs::ValueMetric::kPoolRegionItems).sum, 8u);
  EXPECT_EQ(parallel_metrics.value(obs::ValueMetric::kPoolRegionItems).sum,
            8u);
}

TEST_P(TrialsDeterminismTest, AggregatesMatchAcrossThreadCounts) {
  const tree::Topology topo(32);
  const auto seq = make_sequence(topo);

  TrialOptions serial;
  serial.trials = 6;
  serial.seed = 23;
  serial.n_threads = 1;
  TrialOptions parallel = serial;
  parallel.n_threads = 4;

  TrialAggregate a;
  const obs::MetricsSnapshot a_metrics =
      recorded_by([&] { a = run_trials(topo, seq, GetParam(), serial); });
  TrialAggregate b;
  const obs::MetricsSnapshot b_metrics =
      recorded_by([&] { b = run_trials(topo, seq, GetParam(), parallel); });
  EXPECT_EQ(a.allocator, b.allocator);
  EXPECT_EQ(a.expected_max_load, b.expected_max_load);
  EXPECT_EQ(a.stddev_max_load, b.stddev_max_load);
  EXPECT_EQ(a.min_max_load, b.min_max_load);
  EXPECT_EQ(a.max_max_load, b.max_max_load);
  EXPECT_EQ(a.max_expected_load, b.max_expected_load);
  expect_same_engine_values(a_metrics, b_metrics);
}

// Both a randomized allocator (seeds matter) and a deterministic one.
INSTANTIATE_TEST_SUITE_P(Allocators, TrialsDeterminismTest,
                         ::testing::Values("randmix:d=2", "random", "greedy"));

// All three thread-count settings run back to back on the SAME process-wide
// worker pool: serial inline, an explicit 2-worker pool region, and the
// host default (which may itself be serial on single-core CI). Persistent
// workers must not leak state between regions that would perturb results.
TEST(TrialsDeterminismTest, SamePoolInstanceAcrossThreadCounts) {
  const tree::Topology topo(32);
  const auto seq = make_sequence(topo);

  TrialOptions base;
  base.trials = 6;
  base.seed = 41;

  std::vector<TrialAggregate> per_setting;
  std::vector<obs::MetricsSnapshot> per_setting_metrics;
  for (const std::size_t n_threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{0}}) {
    TrialOptions opt = base;
    opt.n_threads = n_threads;
    per_setting_metrics.push_back(recorded_by([&] {
      per_setting.push_back(run_trials(topo, seq, "randmix:d=2", opt));
    }));
  }
  for (std::size_t i = 1; i < per_setting.size(); ++i) {
    EXPECT_EQ(per_setting[0].expected_max_load,
              per_setting[i].expected_max_load);
    EXPECT_EQ(per_setting[0].stddev_max_load, per_setting[i].stddev_max_load);
    EXPECT_EQ(per_setting[0].min_max_load, per_setting[i].min_max_load);
    EXPECT_EQ(per_setting[0].max_max_load, per_setting[i].max_max_load);
    expect_same_engine_values(per_setting_metrics[0], per_setting_metrics[i]);
  }
}

}  // namespace
}  // namespace partree::sim
