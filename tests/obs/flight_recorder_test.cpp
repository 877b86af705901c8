#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/event_source.hpp"
#include "core/factory.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "tree/load_tree.hpp"
#include "util/json.hpp"

namespace partree::obs {
namespace {

// Emits `n_arrivals` unit arrivals and, right before handing out the last
// one, corrupts the LoadTree's raw add-counts behind the engine's back.
// EngineOptions::debug_checks then trips on that final event, so the crash
// dump's flight record must end exactly at the last arrival.
class CorruptingSource final : public core::EventSource {
 public:
  explicit CorruptingSource(std::uint64_t n_arrivals)
      : n_arrivals_(n_arrivals) {}

  [[nodiscard]] std::optional<core::Event> next(
      const core::MachineState& state) override {
    if (emitted_ >= n_arrivals_) return std::nullopt;
    ++emitted_;
    if (emitted_ == n_arrivals_) {
      // The engine owns the state; EventSource::next is the one seam a
      // test can reach it through, hence the const_cast onto the
      // documented TEST-ONLY corruption hook.
      auto& loads = const_cast<tree::LoadTree&>(state.loads());
      loads.debug_corrupt_add(tree::NodeId{state.n_pes()}, 1000);
    }
    return core::Event::arrival(emitted_, 1);
  }

 private:
  std::uint64_t n_arrivals_;
  std::uint64_t emitted_ = 0;
};

constexpr std::uint64_t kArrivalCount = kFlightRecorderEvents + 72;

// Empty dump_path exercises the default path selection (PARTREE_CRASH_DIR
// or the working directory).
void run_until_crash(const std::string& dump_path = "") {
  set_crash_dump_path(dump_path);
  const tree::Topology topo(8);
  sim::EngineOptions options;
  options.debug_checks = true;
  sim::Engine engine(topo, options);
  auto greedy = core::make_allocator("greedy", topo);
  CorruptingSource source(kArrivalCount);
  (void)engine.run_interactive(source, *greedy);
}

TEST(FlightRecorderDeathTest, CrashDumpHoldsLastKEventsInOrder) {
  const std::string dump_path =
      ::testing::TempDir() + "flight_recorder_test.crash.json";
  std::remove(dump_path.c_str());

  EXPECT_DEATH(run_until_crash(dump_path),
               "debug check: LoadTree max_load != max over pe_loads");

  // The child wrote the dump before aborting; pick it apart here.
  std::ifstream in(dump_path);
  ASSERT_TRUE(in) << "crash dump was not written to " << dump_path;
  std::stringstream buf;
  buf << in.rdbuf();
  const util::json::Value dump = util::json::parse(buf.str());

  EXPECT_EQ(dump.at("schema").as_string(), "partree-crash-v2");
  EXPECT_NE(dump.at("reason").as_string().find("debug check"),
            std::string::npos);

  // More engine events happened than the recorder keeps, so the record is
  // full: exactly K events, consecutive, all arrivals, ending at the very
  // arrival whose processing tripped the check.
  const util::json::Array& flight = dump.at("flight_record").as_array();
  ASSERT_EQ(flight.size(), kFlightRecorderEvents);
  std::uint64_t prev_seq = 0;
  std::uint64_t prev_value = 0;
  for (std::size_t i = 0; i < flight.size(); ++i) {
    const util::json::Value& ev = flight[i];
    EXPECT_EQ(ev.at("kind").as_string(), "instant");
    EXPECT_EQ(ev.at("name").as_string(), "arrival");
    // Untraced instants carry no timestamp: the flight recorder never
    // reads the clock on the hot path.
    EXPECT_EQ(ev.at("ts_ns").as_u64(), 0u);
    const std::uint64_t seq = ev.at("seq").as_u64();
    const std::uint64_t value = ev.at("args").at("value").as_u64();
    if (i > 0) {
      EXPECT_EQ(seq, prev_seq + 1);
      EXPECT_EQ(value, prev_value + 1);
    }
    prev_seq = seq;
    prev_value = value;
  }
  EXPECT_EQ(prev_value, kArrivalCount);  // task ids are 1-based

  // The metrics snapshot is the dump's only count source: greedy queried
  // min_load_node once per arrival.
  EXPECT_EQ(dump.find("counters"), nullptr);
  EXPECT_EQ(dump.find("phase_times"), nullptr);
  const util::json::Value& metrics = dump.at("metrics");
  EXPECT_EQ(validate_metrics_json(metrics), "");
  EXPECT_GE(metrics.at("values").at("min_load_node_visits").at("count")
                .as_u64(),
            kArrivalCount);
}

// Default-path behavior: with no set_crash_dump_path override, the dump
// lands in $PARTREE_CRASH_DIR (created on demand) as
// partree_crash_<ts>.json -- not in whatever directory the process happens
// to be running in -- and the atomic tmp + rename write leaves no .tmp
// residue next to it.
TEST(FlightRecorderDeathTest, DefaultDumpHonorsCrashDirEnv) {
  const std::string dir =
      ::testing::TempDir() + "flight_recorder_test.crash_dir";
  std::filesystem::remove_all(dir);

  EXPECT_DEATH(
      {
        ::setenv("PARTREE_CRASH_DIR", dir.c_str(), 1);
        run_until_crash();  // no override: default path selection
      },
      "debug check: LoadTree max_load != max over pe_loads");

  std::vector<std::filesystem::path> dumps;
  std::vector<std::filesystem::path> residue;
  ASSERT_TRUE(std::filesystem::is_directory(dir))
      << "crash dir was not created";
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("partree_crash_") && name.ends_with(".json")) {
      dumps.push_back(entry.path());
    } else {
      residue.push_back(entry.path());
    }
  }
  ASSERT_EQ(dumps.size(), 1u) << "expected exactly one crash dump in " << dir;
  EXPECT_TRUE(residue.empty())
      << "unexpected file next to the dump (tmp residue?): "
      << residue.front();

  // The dump is complete, parseable JSON (the atomic write's contract).
  std::ifstream in(dumps.front());
  ASSERT_TRUE(in);
  std::stringstream buf;
  buf << in.rdbuf();
  const util::json::Value dump = util::json::parse(buf.str());
  EXPECT_EQ(dump.at("schema").as_string(), "partree-crash-v2");
  EXPECT_EQ(dump.at("flight_record").as_array().size(),
            kFlightRecorderEvents);

  std::filesystem::remove_all(dir);
}

TEST(FlightRecorderTest, ThreadFlightRecordIsBoundedAndOrdered) {
  for (std::uint64_t i = 0; i < kFlightRecorderEvents + 10; ++i) {
    emit_instant(Instant::kArrival, i);
  }
  const std::vector<TraceEvent> record = thread_flight_record();
  ASSERT_EQ(record.size(), kFlightRecorderEvents);
  for (std::size_t i = 1; i < record.size(); ++i) {
    EXPECT_EQ(record[i].seq, record[i - 1].seq + 1);
  }
  EXPECT_EQ(record.back().a, kFlightRecorderEvents + 9);
}

}  // namespace
}  // namespace partree::obs
