// The deterministic fault-injection harness end to end: state digests,
// recoverable-fault verification, shrinking, and one death test per
// corruption fault site asserting the crash dump names the injected
// component and step.
#include <gtest/gtest.h>

#include <string>

#include "core/event.hpp"
#include "core/machine_state.hpp"
#include "sim/detsim.hpp"

namespace partree::sim {
namespace {

// --- digest basics ---------------------------------------------------------

TEST(StateDigestTest, EmptyStatesAgreeAndPlacementChangesDigest) {
  core::MachineState a{tree::Topology(8)};
  core::MachineState b{tree::Topology(8)};
  EXPECT_EQ(a.digest(), b.digest());
  a.place({0, 2}, 4);
  EXPECT_NE(a.digest(), b.digest());
  b.place({0, 2}, 4);
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_EQ(a.loads().digest(), b.loads().digest());
}

TEST(StateDigestTest, ActiveSetDigestIsOrderIndependent) {
  // The active map is an unordered set; building the same final placements
  // in a different order must yield the same digest.
  core::MachineState a{tree::Topology(8)};
  core::MachineState b{tree::Topology(8)};
  a.place({0, 1}, 8);
  a.place({1, 2}, 4);
  a.place({2, 1}, 9);
  b.place({2, 1}, 9);
  b.place({0, 1}, 8);
  b.place({1, 2}, 4);
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(StateDigestTest, PlacementNodeIsPartOfTheDigest) {
  core::MachineState a{tree::Topology(8)};
  core::MachineState b{tree::Topology(8)};
  a.place({0, 1}, 8);
  b.place({0, 1}, 9);  // same task, different leaf
  EXPECT_NE(a.digest(), b.digest());
}

// --- seeded workload and baseline ------------------------------------------

TEST(DetSimTest, SequenceAndBaselineAreSeedDeterministic) {
  const tree::Topology topo(64);
  EXPECT_EQ(detsim_sequence(topo, 5), detsim_sequence(topo, 5));
  EXPECT_NE(detsim_sequence(topo, 5), detsim_sequence(topo, 6));

  DetSimOptions options;
  options.seed = 5;
  const SimResult a = run_baseline(options);
  const SimResult b = run_baseline(options);
  EXPECT_NE(a.final_digest, 0u);
  EXPECT_EQ(a.final_digest, b.final_digest);
  EXPECT_EQ(a.epoch_digests, b.epoch_digests);
  EXPECT_EQ(detsim_event_count(options), a.events);
}

TEST(DetSimTest, ExplicitLengthKeepsWorkloadShape) {
  const tree::Topology topo(64);
  const auto seq = detsim_sequence(topo, 9, 50);
  EXPECT_EQ(seq.size(), 50u);
  EXPECT_TRUE(seq.validate(64).empty());
}

// --- recoverable faults -----------------------------------------------------

/// First event index >= 1 matching `kind` in the seeded workload (the
/// detsim step domain), or 0 when absent.
std::uint64_t first_step(const core::TaskSequence& seq, core::EventKind kind) {
  for (std::size_t i = 1; i < seq.size(); ++i) {
    if (seq[i].kind == kind) return i;
  }
  return 0;
}

TEST(DetSimTest, FaultFreePlanReportsFaultFree) {
  DetSimOptions options;
  options.seed = 11;
  const DetSimReport report = run_detsim(options);
  EXPECT_EQ(report.outcome, DetSimOutcome::kFaultFree);
  EXPECT_EQ(report.run_digest, report.baseline_digest);
}

TEST(DetSimTest, AllocFailOnArrivalRecoversDigestExactly) {
  const tree::Topology topo(64);
  DetSimOptions options;
  options.seed = 11;
  const std::uint64_t step = first_step(
      detsim_sequence(topo, options.seed), core::EventKind::kArrival);
  ASSERT_GT(step, 0u);
  options.faults = FaultPlan({{step, FaultKind::kAllocFail}});
  const DetSimReport report = run_detsim(options);
  EXPECT_EQ(report.outcome, DetSimOutcome::kRecovered) << report.detail;
  EXPECT_EQ(report.faults_applied, 1u);
  EXPECT_EQ(report.run_digest, report.baseline_digest);
  EXPECT_EQ(report.run_epochs, report.baseline_epochs);
}

TEST(DetSimTest, AllocFailOnDepartureIsSkippedNotApplied) {
  const tree::Topology topo(64);
  DetSimOptions options;
  options.seed = 11;
  const std::uint64_t step = first_step(
      detsim_sequence(topo, options.seed), core::EventKind::kDeparture);
  ASSERT_GT(step, 0u);
  options.faults = FaultPlan({{step, FaultKind::kAllocFail}});
  const DetSimReport report = run_detsim(options);
  EXPECT_EQ(report.outcome, DetSimOutcome::kSkipped) << report.detail;
  EXPECT_EQ(report.faults_applied, 0u);
  EXPECT_EQ(report.run_digest, report.baseline_digest);
}

TEST(DetSimTest, CancelRidesThePoolAndRetriesClean) {
  DetSimOptions options;
  options.seed = 13;
  options.faults = FaultPlan({{20, FaultKind::kCancel}});
  const DetSimReport report = run_detsim(options);
  EXPECT_EQ(report.outcome, DetSimOutcome::kCancelled) << report.detail;
  EXPECT_EQ(report.faults_applied, 1u);
  EXPECT_EQ(report.run_digest, report.baseline_digest);
}

TEST(DetSimTest, PoolPerturbationLeavesDigestsInvariant) {
  DetSimOptions options;
  options.seed = 17;
  options.allocator = "dmix:d=1";
  options.faults = FaultPlan({{9, FaultKind::kPerturbPool}});
  const DetSimReport report = run_detsim(options);
  EXPECT_EQ(report.outcome, DetSimOutcome::kRecovered) << report.detail;
  EXPECT_EQ(report.run_digest, report.baseline_digest);
}

TEST(DetSimTest, DifferentialSweepFindsNoDivergences) {
  DetSimOptions base;
  base.seed = 100;
  const std::size_t chunks[] = {0, 1, 3};
  EXPECT_TRUE(digest_divergences(base, 8, chunks).empty());
}

// --- shrinking --------------------------------------------------------------

TEST(DetSimTest, ShrinkDropsFaultsAndLowersSteps) {
  DetSimOptions failing;
  failing.faults =
      FaultPlan::parse("cancel@3,alloc_fail@40,perturb:pool@90");
  // Synthetic oracle: "fails" iff some alloc_fail fault has step >= 10.
  const auto still_fails = [](const DetSimOptions& candidate) {
    for (const Fault& f : candidate.faults.faults()) {
      if (f.kind == FaultKind::kAllocFail && f.step >= 10) return true;
    }
    return false;
  };
  const DetSimOptions shrunk = shrink_failing(failing, still_fails);
  EXPECT_EQ(shrunk.faults.to_string(), "alloc_fail@10");
}

TEST(DetSimTest, ReproCarriesTheVerifiedOutcome) {
  DetSimOptions options;
  options.seed = 3;
  options.allocator = "greedy";
  options.faults = FaultPlan::parse("corrupt:load_tree@4");
  DetSimReport report;
  report.baseline_digest = 0xabcULL;
  const ReproSpec spec = to_repro(options, report);
  EXPECT_EQ(spec.expect, "crash");
  EXPECT_EQ(spec.seed, 3u);
  EXPECT_EQ(spec.faults.to_string(), "corrupt:load_tree@4");
  const ReproSpec reread = read_repro(write_repro(spec));
  EXPECT_EQ(reread, spec);
}

// --- corruption fault sites: die with a dump naming component and step ------

/// A step by which at least three tasks are active in seed 21's workload,
/// so every corruption site has state to corrupt (the basic allocator
/// then holds at least one live copy).
std::uint64_t busy_step(std::uint64_t seed) {
  const tree::Topology topo(64);
  const core::TaskSequence seq = detsim_sequence(topo, seed);
  std::uint64_t active = 0;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    if (active >= 3) return i;
    if (seq[i].kind == core::EventKind::kArrival) {
      ++active;
    } else {
      --active;
    }
  }
  return 0;
}

DetSimOptions corruption_options(FaultKind kind) {
  DetSimOptions options;
  options.seed = 21;
  options.allocator = "basic";  // CopySet-backed, so all three sites exist
  const std::uint64_t step = busy_step(options.seed);
  EXPECT_GT(step, 0u);
  options.faults = FaultPlan({{step, kind}});
  return options;
}

using DetSimDeathTest = ::testing::Test;

TEST(DetSimDeathTest, LoadTreeCorruptionDiesWithNamedDump) {
  const DetSimOptions options =
      corruption_options(FaultKind::kCorruptLoadTree);
  const std::string expected =
      "injected fault corrupt:load_tree@" +
      std::to_string(options.faults.faults()[0].step);
  EXPECT_DEATH((void)run_detsim(options), expected.c_str());
}

TEST(DetSimDeathTest, ActiveMapCorruptionDiesWithNamedDump) {
  const DetSimOptions options =
      corruption_options(FaultKind::kCorruptActiveMap);
  const std::string expected =
      "injected fault corrupt:active_map@" +
      std::to_string(options.faults.faults()[0].step);
  EXPECT_DEATH((void)run_detsim(options), expected.c_str());
}

TEST(DetSimDeathTest, CopySetCorruptionDiesWithNamedDump) {
  const DetSimOptions options =
      corruption_options(FaultKind::kCorruptCopySet);
  const std::string expected =
      "injected fault corrupt:copy_set@" +
      std::to_string(options.faults.faults()[0].step);
  EXPECT_DEATH((void)run_detsim(options), expected.c_str());
}

TEST(DetSimDeathTest, CrashCarriesTheFlightRecorderDump) {
  // The abort path must emit the partree-crash-v2 schema (the replayable
  // dump), not just an assertion message.
  const DetSimOptions options =
      corruption_options(FaultKind::kCorruptLoadTree);
  EXPECT_DEATH((void)run_detsim(options), "partree-crash-v2");
}

TEST(DetSimDeathTest, CorruptionWithoutDebugChecksIsRefused) {
  DetSimOptions options = corruption_options(FaultKind::kCorruptLoadTree);
  options.debug_checks = false;
  EXPECT_DEATH((void)run_detsim(options),
               "require.*debug_checks|debug_checks");
}

}  // namespace
}  // namespace partree::sim
