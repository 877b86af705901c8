#include "core/machine_state.hpp"

#include <gtest/gtest.h>

namespace partree::core {
namespace {

TEST(MachineStateTest, PlaceAndRemove) {
  MachineState m{tree::Topology(8)};
  m.place({0, 4}, 2);
  EXPECT_TRUE(m.is_active(0));
  EXPECT_EQ(m.active_count(), 1u);
  EXPECT_EQ(m.max_load(), 1u);
  EXPECT_EQ(m.active_size(), 4u);
  const ActiveTask removed = m.remove(0);
  EXPECT_EQ(removed.task.id, 0u);
  EXPECT_EQ(removed.task.size, 4u);
  EXPECT_EQ(removed.node, 2u);
  EXPECT_FALSE(m.is_active(0));
  EXPECT_EQ(m.max_load(), 0u);
}

TEST(MachineStateTest, RemoveReturnsTheTaskWhereItLivesNow) {
  MachineState m{tree::Topology(8)};
  m.place({7, 2}, 4);
  m.migrate({{7, 4, 6}});
  const ActiveTask removed = m.remove(7);
  EXPECT_EQ(removed.task.size, 2u);
  EXPECT_EQ(removed.node, 6u);
  EXPECT_EQ(m.active_size(), 0u);
}

TEST(MachineStateTest, PeakPersistsAfterDepartures) {
  MachineState m{tree::Topology(4)};
  m.place({0, 4}, 1);
  m.place({1, 4}, 1);
  EXPECT_EQ(m.peak_active_size(), 8u);
  EXPECT_EQ(m.optimal_load(), 2u);
  m.remove(0);
  m.remove(1);
  EXPECT_EQ(m.peak_active_size(), 8u);
  EXPECT_EQ(m.optimal_load(), 2u);
}

TEST(MachineStateTest, MigrationMovesLoad) {
  MachineState m{tree::Topology(8)};
  m.place({0, 4}, 2);
  m.place({1, 4}, 2);
  EXPECT_EQ(m.max_load(), 2u);
  m.migrate({{1, 2, 3}});
  EXPECT_EQ(m.max_load(), 1u);
  EXPECT_EQ(m.active_task(1).node, 3u);
}

TEST(MachineStateTest, SelfMigrationIsNoop) {
  MachineState m{tree::Topology(8)};
  m.place({0, 2}, 4);
  const AppliedMigrations applied = m.migrate({{0, 4, 4}});
  EXPECT_EQ(applied.moved, 0u);
  EXPECT_EQ(applied.moved_size, 0u);
  EXPECT_EQ(m.active_task(0).node, 4u);
  EXPECT_EQ(m.max_load(), 1u);
}

TEST(MachineStateTest, MigrateReturnsPhysicalMovesAndTheirSize) {
  MachineState m{tree::Topology(8)};
  m.place({0, 4}, 2);
  m.place({1, 2}, 6);
  m.place({2, 1}, 8);
  // Task 0 stays put; 1 and 2 move. Only the moves count.
  const AppliedMigrations applied =
      m.migrate({{0, 2, 2}, {1, 6, 7}, {2, 8, 9}});
  EXPECT_EQ(applied.moved, 2u);
  EXPECT_EQ(applied.moved_size, 3u);
  EXPECT_EQ(m.active_task(1).node, 7u);
  EXPECT_EQ(m.active_task(2).node, 9u);
}

TEST(MachineStateTest, ActiveTasksSnapshot) {
  MachineState m{tree::Topology(8)};
  m.place({0, 2}, 4);
  m.place({1, 4}, 3);
  const auto tasks = m.active_tasks();
  EXPECT_EQ(tasks.size(), 2u);
}

TEST(MachineStateTest, PeLoads) {
  MachineState m{tree::Topology(4)};
  m.place({0, 4}, 1);
  m.place({1, 2}, 2);
  const auto loads = m.pe_loads();
  ASSERT_EQ(loads.size(), 4u);
  EXPECT_EQ(loads[0], 2u);
  EXPECT_EQ(loads[1], 2u);
  EXPECT_EQ(loads[2], 1u);
  EXPECT_EQ(loads[3], 1u);
}

TEST(MachineStateTest, Clear) {
  MachineState m{tree::Topology(4)};
  m.place({0, 4}, 1);
  m.clear();
  EXPECT_EQ(m.active_count(), 0u);
  EXPECT_EQ(m.max_load(), 0u);
  EXPECT_EQ(m.peak_active_size(), 0u);
}

TEST(MachineStateDeathTest, RejectsSizeMismatch) {
  MachineState m{tree::Topology(8)};
  EXPECT_DEATH(m.place({0, 2}, 2), "size does not match");
}

TEST(MachineStateDeathTest, RejectsInvalidSize) {
  MachineState m{tree::Topology(8)};
  EXPECT_DEATH(m.place({0, 3}, 2), "violates model");
}

TEST(MachineStateDeathTest, RejectsDuplicateId) {
  MachineState m{tree::Topology(8)};
  m.place({0, 1}, 8);
  EXPECT_DEATH(m.place({0, 1}, 9), "already active");
}

TEST(MachineStateDeathTest, RejectsUnknownRemoval) {
  MachineState m{tree::Topology(8)};
  EXPECT_DEATH((void)m.remove(3), "not active");
}

TEST(MachineStateDeathTest, RejectsStaleMigrationSource) {
  MachineState m{tree::Topology(8)};
  m.place({0, 4}, 2);
  EXPECT_DEATH(m.migrate({{0, 3, 2}}), "does not match current placement");
}

TEST(MachineStateDeathTest, RejectsWrongSizeMigrationTarget) {
  MachineState m{tree::Topology(8)};
  m.place({0, 4}, 2);
  EXPECT_DEATH(m.migrate({{0, 2, 4}}), "target size mismatch");
}

}  // namespace
}  // namespace partree::core
