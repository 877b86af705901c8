// Planned-vs-applied migration accounting (the delta-planner contract).
//
// The pre-delta planner emitted one Migration per ACTIVE task, so batch
// histograms and migration-cost accounting recorded planned (M) work
// where only the movers are physical. These tests pin the split: the
// engine tracks both, the metrics registry exports both, and a repack
// that moves nothing records an explicit zero.
#include <gtest/gtest.h>

#include <unordered_map>

#include "core/drealloc.hpp"
#include "core/factory.hpp"
#include "core/sequence.hpp"
#include "obs/metrics.hpp"
#include "serve/service.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"
#include "workload/synthetic.hpp"

namespace partree::sim {
namespace {

TEST(ReallocAccountingTest, ZeroMoveRepackRecordsZero) {
  // Two size-4 arrivals on N=4 with d=1: the second arrival pushes the
  // arrived volume past dN and triggers a repack, but both tasks already
  // sit exactly where A_R puts them (copy k, root node), so the round
  // plans and applies ZERO migrations -- and must still count as a
  // round, with an explicit 0 recorded in every migration histogram.
  obs::reset_metrics();
  const tree::Topology topo(4);
  core::TaskSequence seq;
  seq.arrive(4);
  seq.arrive(4);

  Engine engine(topo, EngineOptions{.debug_checks = true});
  core::DReallocAllocator alloc(topo, core::ReallocParam::finite(1));
  const SimResult result = engine.run(seq, alloc);

  EXPECT_EQ(result.reallocation_count, 1u);
  EXPECT_EQ(result.migration_planned_count, 0u);
  EXPECT_EQ(result.migration_count, 0u);
  EXPECT_EQ(result.migrated_size, 0u);

  const obs::MetricsSnapshot snap = obs::snapshot_metrics();
  const obs::MetricHistogram& planned =
      snap.value(obs::ValueMetric::kMigrationsPlanned);
  const obs::MetricHistogram& applied =
      snap.value(obs::ValueMetric::kMigrationsApplied);
  const obs::MetricHistogram& batch =
      snap.value(obs::ValueMetric::kMigrationBatchSize);
  EXPECT_EQ(planned.count, 1u);
  EXPECT_EQ(planned.sum, 0u);
  EXPECT_EQ(applied.count, 1u);
  EXPECT_EQ(applied.sum, 0u);
  EXPECT_EQ(batch.count, 1u);
  EXPECT_EQ(batch.sum, 0u);
}

TEST(ReallocAccountingTest, PlannedEqualsAppliedUnderDeltaPlanner) {
  // The delta planner never emits self-moves, so across a churny run the
  // planned total equals the applied total -- and the metrics registry
  // sees exactly one sample pair per round.
  obs::reset_metrics();
  const tree::Topology topo(64);
  util::Rng rng(47);
  workload::ClosedLoopParams params;
  params.n_events = 1500;
  params.utilization = 0.9;
  params.size = workload::SizeSpec::uniform_log(0, 5);
  const core::TaskSequence seq = workload::closed_loop(topo, params, rng);

  Engine engine(topo);
  core::DReallocAllocator alloc(topo, core::ReallocParam::finite(1));
  const SimResult result = engine.run(seq, alloc);
  ASSERT_GT(result.reallocation_count, 0u);
  EXPECT_EQ(result.migration_planned_count, result.migration_count);

  const obs::MetricsSnapshot snap = obs::snapshot_metrics();
  const obs::MetricHistogram& planned =
      snap.value(obs::ValueMetric::kMigrationsPlanned);
  const obs::MetricHistogram& applied =
      snap.value(obs::ValueMetric::kMigrationsApplied);
  EXPECT_EQ(planned.count, result.reallocation_count);
  EXPECT_EQ(applied.count, result.reallocation_count);
  EXPECT_EQ(planned.sum, result.migration_planned_count);
  EXPECT_EQ(applied.sum, result.migration_count);
  // migration_batch_size keeps its original applied semantics.
  EXPECT_EQ(snap.value(obs::ValueMetric::kMigrationBatchSize).sum,
            result.migration_count);
}

TEST(ReallocAccountingTest, ReallocPlanNsRecordedPerAppliedRound) {
  obs::reset_metrics();
  obs::set_duration_metrics_enabled(true);
  const tree::Topology topo(16);
  util::Rng rng(53);
  workload::ClosedLoopParams params;
  params.n_events = 400;
  params.utilization = 0.85;
  params.size = workload::SizeSpec::uniform_log(0, 4);
  const core::TaskSequence seq = workload::closed_loop(topo, params, rng);

  Engine engine(topo);
  core::DReallocAllocator alloc(topo, core::ReallocParam::finite(1));
  const SimResult result = engine.run(seq, alloc);
  obs::set_duration_metrics_enabled(false);
  ASSERT_GT(result.reallocation_count, 0u);

  const obs::MetricsSnapshot snap = obs::snapshot_metrics();
  const obs::MetricHistogram& plan =
      snap.duration(obs::DurationMetric::kReallocPlanNs);
  const obs::MetricHistogram& round =
      snap.duration(obs::DurationMetric::kReallocRoundNs);
  EXPECT_EQ(plan.count, result.reallocation_count);
  EXPECT_EQ(round.count, result.reallocation_count);
  // The plan is a prefix of the round bracket, so its time can't exceed
  // the whole round's.
  EXPECT_LE(plan.sum, round.sum);
}

TEST(ReallocAccountingTest, EngineAndServiceRecordTheSameRounds) {
  // Both front ends apply events through the one core::apply_event, so
  // the same sequence must leave the same per-round records whichever of
  // them ran it -- and the service must record no engine handle timers.
  const tree::Topology topo(64);
  util::Rng rng(59);
  workload::ClosedLoopParams params;
  params.n_events = 1500;
  params.utilization = 0.9;
  params.size = workload::SizeSpec::uniform_log(0, 5);
  const core::TaskSequence seq = workload::closed_loop(topo, params, rng);

  obs::reset_metrics();
  obs::set_duration_metrics_enabled(true);
  Engine engine(topo);
  auto engine_alloc = core::make_allocator("dmix:d=1", topo);
  const SimResult result = engine.run(seq, *engine_alloc);
  const obs::MetricsSnapshot engine_snap = obs::snapshot_metrics();
  EXPECT_GT(result.reallocation_count, 0u);
  EXPECT_EQ(engine_snap.duration(obs::DurationMetric::kArrivalHandleNs).count,
            result.arrivals);

  obs::reset_metrics();
  serve::PartitionService service(topo, core::make_allocator("dmix:d=1", topo));
  std::unordered_map<core::TaskId, core::TaskId> served_id;
  for (const core::Event& event : seq.events()) {
    if (event.kind == core::EventKind::kArrival) {
      served_id[event.task.id] = service.submit_arrival(event.task.size).id;
    } else {
      (void)service.submit_departure(served_id.at(event.task.id));
    }
  }
  service.stop();
  const obs::MetricsSnapshot serve_snap = obs::snapshot_metrics();
  obs::set_duration_metrics_enabled(false);
  EXPECT_EQ(service.stats().reallocation_count, result.reallocation_count);

  for (const obs::ValueMetric m : {obs::ValueMetric::kMigrationsPlanned,
                                   obs::ValueMetric::kMigrationsApplied,
                                   obs::ValueMetric::kMigrationBatchSize}) {
    EXPECT_EQ(serve_snap.value(m).count, engine_snap.value(m).count);
    EXPECT_EQ(serve_snap.value(m).sum, engine_snap.value(m).sum);
  }
  for (const obs::DurationMetric m : {obs::DurationMetric::kReallocPlanNs,
                                      obs::DurationMetric::kReallocRoundNs}) {
    EXPECT_EQ(serve_snap.duration(m).count, engine_snap.duration(m).count);
  }
  EXPECT_EQ(serve_snap.duration(obs::DurationMetric::kArrivalHandleNs).count,
            0u);
}

}  // namespace
}  // namespace partree::sim
