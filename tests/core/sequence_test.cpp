#include "core/sequence.hpp"

#include <gtest/gtest.h>

namespace partree::core {
namespace {

TEST(SequenceTest, EmptySequence) {
  TaskSequence seq;
  EXPECT_TRUE(seq.empty());
  EXPECT_EQ(seq.total_arrival_size(), 0u);
  EXPECT_EQ(seq.peak_active_size(), 0u);
  EXPECT_EQ(seq.optimal_load(8), 0u);
  EXPECT_EQ(seq.validate(8), "");
}

TEST(SequenceTest, ArrivalsAssignFreshIds) {
  TaskSequence seq;
  EXPECT_EQ(seq.arrive(1), 0u);
  EXPECT_EQ(seq.arrive(2), 1u);
  EXPECT_EQ(seq.arrive(4), 2u);
  EXPECT_EQ(seq.size(), 3u);
  EXPECT_EQ(seq.arrival_count(), 3u);
}

TEST(SequenceTest, PeakTracksDepartures) {
  TaskSequence seq;
  const TaskId a = seq.arrive(4);
  (void)seq.arrive(2);
  seq.depart(a);
  (void)seq.arrive(2);
  // Peak was 6 (after second arrival), then 2, then 4.
  EXPECT_EQ(seq.peak_active_size(), 6u);
  EXPECT_EQ(seq.total_arrival_size(), 8u);
}

TEST(SequenceTest, ActiveSizeAfter) {
  TaskSequence seq;
  const TaskId a = seq.arrive(4);
  (void)seq.arrive(2);
  seq.depart(a);
  EXPECT_EQ(seq.active_size_after(0), 0u);
  EXPECT_EQ(seq.active_size_after(1), 4u);
  EXPECT_EQ(seq.active_size_after(2), 6u);
  EXPECT_EQ(seq.active_size_after(3), 2u);
}

TEST(SequenceTest, OptimalLoadCeil) {
  TaskSequence seq;
  for (int i = 0; i < 9; ++i) (void)seq.arrive(1);
  EXPECT_EQ(seq.optimal_load(8), 2u);   // ceil(9/8)
  EXPECT_EQ(seq.optimal_load(16), 1u);
}

TEST(SequenceTest, ValidateAcceptsGoodSequence) {
  TaskSequence seq;
  const TaskId a = seq.arrive(2);
  seq.depart(a);
  EXPECT_EQ(seq.validate(8), "");
}

TEST(SequenceTest, ValidateRejectsNonPow2) {
  TaskSequence seq;
  (void)seq.arrive(3);
  EXPECT_NE(seq.validate(8), "");
}

TEST(SequenceTest, ValidateRejectsOversize) {
  TaskSequence seq;
  (void)seq.arrive(16);
  EXPECT_NE(seq.validate(8), "");
}

TEST(SequenceTest, ValidateRejectsUnknownDeparture) {
  TaskSequence seq;
  seq.depart(42);
  EXPECT_NE(seq.validate(8), "");
}

TEST(SequenceTest, ValidateRejectsDoubleDeparture) {
  TaskSequence seq;
  const TaskId a = seq.arrive(1);
  seq.depart(a);
  seq.depart(a);
  EXPECT_NE(seq.validate(8), "");
}

TEST(SequenceTest, ValidateRejectsDuplicateArrival) {
  TaskSequence seq;
  seq.arrive_as(7, 1);
  seq.arrive_as(7, 2);
  EXPECT_NE(seq.validate(8), "");
}

TEST(SequenceTest, ValidateRejectsTheInvalidTaskId) {
  // kInvalidTask is the empty-slot sentinel of the engine's task index; a
  // trace naming it must fail validation, not abort in MachineState::place.
  TaskSequence seq;
  seq.arrive_as(kInvalidTask, 1);
  EXPECT_NE(seq.validate(8), "");
}

TEST(SequenceTest, ArriveAsAdvancesIds) {
  TaskSequence seq;
  seq.arrive_as(10, 1);
  EXPECT_EQ(seq.arrive(1), 11u);
}

TEST(SequenceTest, ConstructFromEvents) {
  std::vector<Event> events{Event::arrival(0, 2), Event::departure(0),
                            Event::arrival(1, 4)};
  TaskSequence seq(std::move(events));
  EXPECT_EQ(seq.size(), 3u);
  EXPECT_EQ(seq.arrive(1), 2u);  // next id continues after max arrival id
}

TEST(SequenceTest, AppendConcatenates) {
  TaskSequence a;
  (void)a.arrive(1);
  TaskSequence b;
  b.arrive_as(5, 2);
  a.append(b);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(a.arrive(1), 6u);
}

TEST(SequenceTest, Figure1SequenceShape) {
  const TaskSequence seq = figure1_sequence();
  ASSERT_EQ(seq.size(), 7u);
  EXPECT_EQ(seq.validate(4), "");
  EXPECT_EQ(seq.peak_active_size(), 4u);
  EXPECT_EQ(seq.optimal_load(4), 1u);
  EXPECT_EQ(seq[6].kind, EventKind::kArrival);
  EXPECT_EQ(seq[6].task.size, 2u);
}

}  // namespace
}  // namespace partree::core
