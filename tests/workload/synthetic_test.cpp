#include "workload/synthetic.hpp"

#include <gtest/gtest.h>

namespace partree::workload {
namespace {

TEST(OpenLoopTest, ProducesValidClosedSequence) {
  const tree::Topology topo(64);
  util::Rng rng(1);
  OpenLoopParams params;
  params.n_tasks = 500;
  params.size = SizeSpec::uniform_log(0, 6);
  const core::TaskSequence seq = open_loop(topo, params, rng);
  EXPECT_EQ(seq.validate(64), "");
  EXPECT_EQ(seq.arrival_count(), 500u);
  // Closed: every arrival eventually departs.
  EXPECT_EQ(seq.size(), 1000u);
  EXPECT_EQ(seq.active_size_after(seq.size()), 0u);
}

TEST(OpenLoopTest, UtilizationTracksLittlesLaw)
{
  // Expected active size ~ rate * duration * E[size]; with rate 2,
  // duration 8, size 1 -> ~16 active tasks on average.
  const tree::Topology topo(64);
  util::Rng rng(2);
  OpenLoopParams params;
  params.n_tasks = 4000;
  params.arrival_rate = 2.0;
  params.mean_duration = 8.0;
  params.size = SizeSpec::fixed_size(1);
  const core::TaskSequence seq = open_loop(topo, params, rng);
  EXPECT_GE(seq.peak_active_size(), 16u);
  EXPECT_LE(seq.peak_active_size(), 64u);
}

TEST(OpenLoopTest, ParetoDurationsAreHeavier) {
  const tree::Topology topo(64);
  util::Rng rng(3);
  OpenLoopParams exp_params;
  exp_params.n_tasks = 2000;
  exp_params.pareto_shape = 0.0;
  OpenLoopParams par_params = exp_params;
  par_params.pareto_shape = 1.5;
  const auto exp_seq = open_loop(topo, exp_params, rng);
  const auto par_seq = open_loop(topo, par_params, rng);
  EXPECT_EQ(exp_seq.validate(64), "");
  EXPECT_EQ(par_seq.validate(64), "");
}

TEST(ClosedLoopTest, HoldsTargetUtilization) {
  const tree::Topology topo(64);
  util::Rng rng(4);
  ClosedLoopParams params;
  params.n_events = 3000;
  params.utilization = 0.5;
  params.size = SizeSpec::fixed_size(1);
  const core::TaskSequence seq = closed_loop(topo, params, rng);
  EXPECT_EQ(seq.validate(64), "");
  // Peak hovers at the target (one task of slack).
  EXPECT_GE(seq.peak_active_size(), 30u);
  EXPECT_LE(seq.peak_active_size(), 40u);
  // Drains at the end.
  EXPECT_EQ(seq.active_size_after(seq.size()), 0u);
}

// utilization * n_leaves used to truncate to a target of ZERO on small
// machines (0.2 * 4 -> 0), making the "hold the load" loop oscillate
// between empty and one task. The target is now clamped to >= 1 and the
// loop arrives at-or-below target, so once a task is active the
// sequence never drains until the final teardown.
TEST(ClosedLoopTest, TinyUtilizationStillHoldsOneTask) {
  const tree::Topology topo(4);
  util::Rng rng(9);
  ClosedLoopParams params;
  params.n_events = 200;
  params.utilization = 0.2;  // truncated target would be 0
  params.size = SizeSpec::fixed_size(1);
  const core::TaskSequence seq = closed_loop(topo, params, rng);
  EXPECT_EQ(seq.validate(4), "");
  for (std::size_t tau = 1; tau <= 200; ++tau) {
    EXPECT_GE(seq.active_size_after(tau), 1u) << "drained at event " << tau;
  }
  EXPECT_EQ(seq.active_size_after(seq.size()), 0u);  // final drain intact
}

TEST(ClosedLoopTest, NeverDipsBelowTargetOnceReached) {
  const tree::Topology topo(64);
  util::Rng rng(10);
  ClosedLoopParams params;
  params.n_events = 3000;
  params.utilization = 0.5;  // target 32
  params.size = SizeSpec::fixed_size(1);
  const core::TaskSequence seq = closed_loop(topo, params, rng);
  bool reached = false;
  for (std::size_t tau = 1; tau <= 3000; ++tau) {
    const std::uint64_t active = seq.active_size_after(tau);
    if (active >= 32) reached = true;
    if (reached) {
      EXPECT_GE(active, 32u) << "dipped at event " << tau;
    }
  }
  EXPECT_TRUE(reached);
}

TEST(ClosedLoopTest, WarmupArrivesFirst) {
  const tree::Topology topo(16);
  util::Rng rng(5);
  ClosedLoopParams params;
  params.n_events = 50;
  params.warmup_tasks = 10;
  params.size = SizeSpec::fixed_size(1);
  const core::TaskSequence seq = closed_loop(topo, params, rng);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(seq[i].kind, core::EventKind::kArrival);
  }
}

TEST(ClosedLoopTest, MixedSizesStayValid) {
  const tree::Topology topo(128);
  util::Rng rng(6);
  ClosedLoopParams params;
  params.n_events = 2000;
  params.utilization = 0.9;
  params.size = SizeSpec::uniform_log(0, 7);
  const core::TaskSequence seq = closed_loop(topo, params, rng);
  EXPECT_EQ(seq.validate(128), "");
}

TEST(BurstyTest, ProducesValidSequence) {
  const tree::Topology topo(64);
  util::Rng rng(7);
  BurstyParams params;
  params.n_tasks = 800;
  params.size = SizeSpec::geometric(0.4, 4);
  const core::TaskSequence seq = bursty(topo, params, rng);
  EXPECT_EQ(seq.validate(64), "");
  EXPECT_EQ(seq.arrival_count(), 800u);
  EXPECT_EQ(seq.active_size_after(seq.size()), 0u);
}

TEST(DiurnalTest, ProducesValidClosedSequence) {
  const tree::Topology topo(64);
  util::Rng rng(8);
  DiurnalParams params;
  params.n_tasks = 600;
  params.size = SizeSpec::uniform_log(0, 4);
  const core::TaskSequence seq = diurnal(topo, params, rng);
  EXPECT_EQ(seq.validate(64), "");
  EXPECT_EQ(seq.arrival_count(), 600u);
  EXPECT_EQ(seq.active_size_after(seq.size()), 0u);
}

TEST(DiurnalTest, DayNightModulationShowsInActiveCounts) {
  // With a strong day/night contrast the peak active size must exceed
  // what a flat night-rate process would sustain.
  const tree::Topology topo(256);
  util::Rng rng(10);
  DiurnalParams day_night;
  day_night.n_tasks = 3000;
  day_night.day_rate = 8.0;
  day_night.night_rate = 0.25;
  day_night.period = 400.0;
  day_night.mean_duration = 10.0;
  const auto seq = diurnal(topo, day_night, rng);
  // Flat process at the night rate: expected active ~ 0.25*10 = 2.5.
  EXPECT_GT(seq.peak_active_size(), 10u);
}

TEST(DiurnalTest, EqualRatesDegenerateToPoisson) {
  const tree::Topology topo(64);
  util::Rng rng(12);
  DiurnalParams params;
  params.n_tasks = 500;
  params.day_rate = 2.0;
  params.night_rate = 2.0;
  const auto seq = diurnal(topo, params, rng);
  EXPECT_EQ(seq.validate(64), "");
  EXPECT_EQ(seq.arrival_count(), 500u);
}

TEST(BurstyTest, DeterministicGivenRngState) {
  const tree::Topology topo(32);
  BurstyParams params;
  params.n_tasks = 200;
  util::Rng rng1(9);
  util::Rng rng2(9);
  EXPECT_EQ(bursty(topo, params, rng1), bursty(topo, params, rng2));
}

}  // namespace
}  // namespace partree::workload
