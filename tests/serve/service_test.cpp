// PartitionService tests. Every test name carries the "Serve" prefix so
// `ctest -R Serve` selects exactly this file (the CI serve job and
// scripts/check.sh rely on that). The differential tests are the load-
// bearing ones: a multi-threaded service run must reach the same final
// digest as a serial Engine::run replay of the recorded admission
// sequence -- they are the TSan targets.
#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/factory.hpp"
#include "core/sequence.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace partree::serve {
namespace {

core::AllocatorPtr make(const std::string& spec, const tree::Topology& topo) {
  return core::make_allocator(spec, topo);
}

/// Replays `seq` serially through Engine::run and returns the result
/// (with digests recorded) -- the oracle for every differential check.
sim::SimResult replay(const tree::Topology& topo, const std::string& spec,
                      const core::TaskSequence& seq) {
  sim::Engine engine(topo, sim::EngineOptions{.record_digests = true});
  auto alloc = make(spec, topo);
  return engine.run(seq, *alloc);
}

/// Options for the tests that replay: recording is off by default.
ServiceOptions recording() {
  ServiceOptions options;
  options.record_sequence = true;
  return options;
}

TEST(ServeBasicTest, SingleThreadMatchesSerialReplay) {
  const tree::Topology topo(8);
  PartitionService service(topo, make("greedy", topo), recording());

  auto t0 = service.submit_arrival(2);
  auto t1 = service.submit_arrival(4);
  auto t2 = service.submit_arrival(1);
  auto d1 = service.submit_departure(t1.id);
  auto t3 = service.submit_arrival(8);

  const Placement p0 = t0.placed.get();
  EXPECT_EQ(p0.id, t0.id);
  EXPECT_EQ(p0.size, 2u);
  EXPECT_NE(p0.node, tree::kInvalidNode);
  EXPECT_GE(p0.max_load, 1u);
  (void)t2.placed.get();
  const Placement pd = d1.get();
  EXPECT_EQ(pd.id, t1.id);
  EXPECT_EQ(pd.size, 4u);  // departures report the departing task's size
  (void)t3.placed.get();

  service.stop();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.admitted, 5u);
  EXPECT_EQ(stats.applied, 5u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.arrivals, 4u);
  EXPECT_EQ(stats.departures, 1u);

  const auto serial = replay(topo, "greedy", service.recorded());
  EXPECT_EQ(stats.final_digest, serial.final_digest);
  EXPECT_EQ(stats.max_load, serial.max_load);
  EXPECT_EQ(stats.optimal_load, serial.optimal_load);
}

TEST(ServeBasicTest, ArrivalIdsFollowAdmissionOrder) {
  const tree::Topology topo(4);
  PartitionService service(topo, make("greedy", topo));
  for (core::TaskId expected = 0; expected < 16; ++expected) {
    auto ticket = service.submit_arrival(1);
    EXPECT_EQ(ticket.id, expected);
    (void)ticket.placed.get();
  }
  service.stop();
  EXPECT_EQ(service.stats().arrivals, 16u);
}

TEST(ServeBasicTest, InvalidArrivalSizeThrowsWithoutAdmission) {
  const tree::Topology topo(4);
  PartitionService service(topo, make("greedy", topo), recording());
  for (const std::uint64_t bad : {0ull, 3ull, 8ull, 100ull}) {
    try {
      (void)service.submit_arrival(bad);
      FAIL() << "size " << bad << " should have thrown";
    } catch (const ServiceError& e) {
      EXPECT_EQ(e.code(), ServiceErrorCode::kBadRequest);
    }
  }
  service.stop();
  EXPECT_EQ(service.stats().admitted, 0u);
  EXPECT_EQ(service.recorded().events().size(), 0u);
}

TEST(ServeBasicTest, UnknownDepartureFailsOnlyThatFuture) {
  // kInvalidTask is the empty-slot sentinel of the task index: it must be
  // answered like any other unknown id, not matched to an empty slot.
  for (const core::TaskId bogus_id :
       {core::TaskId{12345}, core::kInvalidTask}) {
    SCOPED_TRACE(bogus_id);
    const tree::Topology topo(4);
    PartitionService service(topo, make("greedy", topo), recording());
    auto a = service.submit_arrival(1);
    auto bogus = service.submit_departure(bogus_id);
    auto b = service.submit_arrival(2);

    (void)a.placed.get();
    const Placement failed = bogus.get();
    EXPECT_FALSE(failed.ok);
    EXPECT_EQ(failed.error, ServiceErrorCode::kBadRequest);
    EXPECT_EQ(failed.id, bogus_id);
    try {
      failed.throw_if_failed();
      FAIL() << "throw_if_failed should rethrow the in-band failure";
    } catch (const ServiceError& e) {
      EXPECT_EQ(e.code(), ServiceErrorCode::kBadRequest);
    }
    EXPECT_TRUE(b.placed.get().ok);  // the neighbour is unaffected

    service.stop();
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.applied, 2u);
    EXPECT_EQ(stats.failed, 1u);
    // The failed departure is NOT recorded, so the sequence still replays.
    EXPECT_EQ(service.recorded().events().size(), 2u);
    EXPECT_EQ(service.stats().final_digest,
              replay(topo, "greedy", service.recorded()).final_digest);
  }
}

TEST(ServeDeathTest, RecordedWithoutRecordingAsserts) {
  // A caller who forgets to turn recording on must get an error, not an
  // empty sequence that silently "replays" to the empty machine.
  const tree::Topology topo(4);
  PartitionService service(topo, make("greedy", topo));
  (void)service.submit_arrival(1).placed.get();
  service.stop();
  EXPECT_DEATH((void)service.recorded(), "record_sequence");
}

TEST(ServeBasicTest, DoubleDepartureSecondFails) {
  const tree::Topology topo(4);
  PartitionService service(topo, make("greedy", topo));
  auto a = service.submit_arrival(2);
  (void)a.placed.get();
  EXPECT_TRUE(service.submit_departure(a.id).get().ok);
  EXPECT_FALSE(service.submit_departure(a.id).get().ok);
  service.stop();
  EXPECT_EQ(service.stats().failed, 1u);
}

TEST(ServeBackpressureTest, RejectModeThrowsQueueFull) {
  const tree::Topology topo(4);
  ServiceOptions options;
  options.queue_capacity = 4;
  options.backpressure = BackpressureMode::kReject;
  PartitionService service(topo, make("greedy", topo), options);
  service.pause_applying();  // keep the queue full deterministically

  std::vector<ArrivalTicket> tickets;
  for (int i = 0; i < 4; ++i) tickets.push_back(service.submit_arrival(1));
  try {
    (void)service.submit_arrival(1);
    FAIL() << "full queue should have rejected";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ServiceErrorCode::kQueueFull);
  }
  EXPECT_EQ(service.queue_depth(), 4u);

  service.resume_applying();
  for (auto& t : tickets) (void)t.placed.get();
  service.stop();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.admitted, 4u);
  EXPECT_EQ(stats.rejected, 1u);
}

TEST(ServeBackpressureTest, BlockModeTimesOutPastDeadline) {
  const tree::Topology topo(4);
  ServiceOptions options;
  options.queue_capacity = 2;
  options.backpressure = BackpressureMode::kBlock;
  options.block_timeout_ms = 20;
  PartitionService service(topo, make("greedy", topo), options);
  service.pause_applying();

  std::vector<ArrivalTicket> tickets;
  for (int i = 0; i < 2; ++i) tickets.push_back(service.submit_arrival(1));
  try {
    (void)service.submit_arrival(1);
    FAIL() << "blocked submitter should have timed out";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ServiceErrorCode::kTimeout);
  }

  service.resume_applying();
  for (auto& t : tickets) (void)t.placed.get();
  service.stop();
  EXPECT_EQ(service.stats().rejected, 1u);
}

TEST(ServeBackpressureTest, BlockModeUnblocksWhenSpaceFrees) {
  const tree::Topology topo(4);
  ServiceOptions options;
  options.queue_capacity = 2;
  options.backpressure = BackpressureMode::kBlock;
  PartitionService service(topo, make("greedy", topo), options);
  service.pause_applying();

  std::vector<ArrivalTicket> tickets;
  for (int i = 0; i < 2; ++i) tickets.push_back(service.submit_arrival(1));

  std::atomic<bool> admitted{false};
  std::thread blocked([&] {
    auto t = service.submit_arrival(1);  // parks: queue is full
    admitted.store(true);
    (void)t.placed.get();
  });
  // The submitter must still be parked while the apply thread is paused.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(admitted.load());

  service.resume_applying();  // drains the queue, freeing space
  blocked.join();
  EXPECT_TRUE(admitted.load());
  for (auto& t : tickets) (void)t.placed.get();
  service.stop();
  EXPECT_EQ(service.stats().admitted, 3u);
  EXPECT_EQ(service.stats().rejected, 0u);
}

TEST(ServeLifecycleTest, SubmitAfterStopThrowsStopped) {
  const tree::Topology topo(4);
  PartitionService service(topo, make("greedy", topo));
  auto a = service.submit_arrival(1);
  service.stop();
  (void)a.placed.get();  // admitted before stop: still answered
  try {
    (void)service.submit_arrival(1);
    FAIL() << "post-stop submission should have thrown";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ServiceErrorCode::kStopped);
  }
  try {
    (void)service.submit_departure(a.id);
    FAIL() << "post-stop submission should have thrown";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ServiceErrorCode::kStopped);
  }
}

TEST(ServeLifecycleTest, StopIsIdempotentAndDestructorSafe) {
  const tree::Topology topo(4);
  PartitionService service(topo, make("greedy", topo));
  auto a = service.submit_arrival(1);
  service.stop();
  service.stop();
  EXPECT_EQ(a.placed.get().size, 1u);
  // Destructor runs stop() a third time on scope exit.
}

TEST(ServeLifecycleTest, FlushAppliesEverythingAdmittedSoFar) {
  const tree::Topology topo(8);
  PartitionService service(topo, make("greedy", topo));
  std::vector<ArrivalTicket> tickets;
  for (int i = 0; i < 32; ++i) tickets.push_back(service.submit_arrival(1));
  service.flush();
  const ServiceStats stats = service.stats();
  EXPECT_GE(stats.applied, 32u);
  for (auto& t : tickets) {
    EXPECT_EQ(t.placed.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
  }
  service.stop();
}

TEST(ServeLifecycleTest, DrainEmptiesTheQueue) {
  const tree::Topology topo(8);
  PartitionService service(topo, make("greedy", topo));
  for (int i = 0; i < 64; ++i) {
    auto t = service.submit_arrival(1);
    (void)t;  // futures dropped on purpose: drain must not need them
  }
  service.drain();
  EXPECT_EQ(service.queue_depth(), 0u);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.applied + stats.failed, stats.admitted);
  service.stop();
}

TEST(ServeBatchTest, BatchCapIsRespected) {
  const tree::Topology topo(8);
  ServiceOptions options;
  options.queue_capacity = 128;
  options.batch_size = 8;
  PartitionService service(topo, make("greedy", topo), options);
  service.pause_applying();
  std::vector<ArrivalTicket> tickets;
  for (int i = 0; i < 40; ++i) tickets.push_back(service.submit_arrival(1));
  service.resume_applying();
  for (auto& t : tickets) (void)t.placed.get();
  service.stop();

  const ServiceStats stats = service.stats();
  EXPECT_LE(stats.max_batch, 8u);
  // 40 queued requests at cap 8 need at least 5 epoch batches.
  EXPECT_GE(stats.batches, 5u);
  EXPECT_GE(stats.max_batch, 1u);
}

TEST(ServeBatchTest, PlacementsCarryBatchIndexes) {
  const tree::Topology topo(8);
  ServiceOptions options;
  options.batch_size = 4;
  PartitionService service(topo, make("greedy", topo), options);
  service.pause_applying();
  std::vector<ArrivalTicket> tickets;
  for (int i = 0; i < 12; ++i) tickets.push_back(service.submit_arrival(1));
  service.resume_applying();
  std::uint64_t last_batch = 0;
  for (auto& t : tickets) {
    const Placement p = t.placed.get();
    EXPECT_GE(p.batch, last_batch);  // admission order => batch monotone
    last_batch = p.batch;
  }
  EXPECT_GE(last_batch, 2u);  // 12 requests / cap 4 => at least 3 batches
  service.stop();
}

TEST(ServeMetricsTest, RecordsQueueAndApplyDistributions) {
  const tree::Topology topo(8);
  obs::reset_metrics();
  obs::set_duration_metrics_enabled(true);
  {
    PartitionService service(topo, make("greedy", topo));
    std::vector<ArrivalTicket> tickets;
    for (int i = 0; i < 16; ++i) tickets.push_back(service.submit_arrival(1));
    for (auto& t : tickets) (void)t.placed.get();
    service.stop();
  }
  obs::set_duration_metrics_enabled(false);

  const obs::MetricsSnapshot snap = obs::snapshot_metrics();
  EXPECT_EQ(snap.duration(obs::DurationMetric::kServeApplyNs).count, 16u);
  EXPECT_EQ(snap.duration(obs::DurationMetric::kServeQueueWaitNs).count, 16u);
  EXPECT_GE(snap.value(obs::ValueMetric::kServeBatchRequests).count, 1u);
  EXPECT_EQ(snap.value(obs::ValueMetric::kServeBatchRequests).sum, 16u);
  EXPECT_GE(snap.gauge(obs::GaugeMetric::kServeQueueDepthHwm), 1u);
  obs::reset_metrics();
}

/// One closed-loop client: keeps ~`window` tasks active, alternating
/// arrivals and departures of its own tasks, blocking on each future so
/// every departure names a task whose arrival has already applied.
void run_client(PartitionService& service, std::uint64_t seed,
                std::uint64_t requests, std::uint64_t window) {
  util::Rng rng(seed);
  const std::uint64_t n = service.topology().n_leaves();
  std::uint64_t log2n = 0;
  while ((std::uint64_t{1} << (log2n + 1)) <= n) ++log2n;
  std::vector<core::TaskId> mine;
  for (std::uint64_t k = 0; k < requests; ++k) {
    const bool depart = !mine.empty() &&
                        (mine.size() >= window || rng.bernoulli(0.4));
    if (depart) {
      const std::uint64_t pick = rng.below(mine.size());
      const core::TaskId id = mine[pick];
      mine[pick] = mine.back();
      mine.pop_back();
      (void)service.submit_departure(id).get();
    } else {
      const std::uint64_t size = std::uint64_t{1} << rng.below(log2n + 1);
      auto ticket = service.submit_arrival(size);
      mine.push_back(ticket.id);
      (void)ticket.placed.get();
    }
  }
  // Retire the remaining tasks so the machine ends empty-ish per client.
  for (const core::TaskId id : mine) (void)service.submit_departure(id).get();
}

/// The tentpole oracle: N client threads hammer the service; the
/// recorded admission sequence replayed serially through Engine::run
/// must reproduce the exact same final digest and max load. Run under
/// TSan in CI (threadsanitize job).
void run_differential(const std::string& spec) {
  const tree::Topology topo(32);
  ServiceOptions options = recording();
  options.queue_capacity = 64;
  options.batch_size = 16;
  PartitionService service(topo, make(spec, topo), options);

  constexpr std::uint64_t kClients = 4;
  constexpr std::uint64_t kRequests = 500;
  std::vector<std::thread> clients;
  for (std::uint64_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&service, c] {
      run_client(service, 0x5eed + c, kRequests, 8);
    });
  }
  for (auto& t : clients) t.join();
  service.drain();
  service.stop();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.failed, 0u) << spec;
  EXPECT_EQ(stats.applied, stats.admitted) << spec;
  EXPECT_GE(stats.applied, kClients * kRequests) << spec;
  EXPECT_EQ(service.recorded().events().size(), stats.applied) << spec;

  const auto serial = replay(topo, spec, service.recorded());
  EXPECT_EQ(stats.final_digest, serial.final_digest) << spec;
  EXPECT_EQ(stats.max_load, serial.max_load) << spec;
  EXPECT_EQ(stats.arrivals, serial.arrivals) << spec;
  EXPECT_EQ(stats.departures, serial.departures) << spec;
  EXPECT_EQ(stats.reallocation_count, serial.reallocation_count) << spec;
  EXPECT_EQ(stats.migration_count, serial.migration_count) << spec;
  EXPECT_EQ(stats.migration_planned_count, serial.migration_planned_count)
      << spec;
  EXPECT_EQ(stats.migrated_size, serial.migrated_size) << spec;
}

TEST(ServeDifferentialTest, GreedyMatchesSerialReplay) {
  run_differential("greedy");
}

TEST(ServeDifferentialTest, BasicMatchesSerialReplay) {
  run_differential("basic");
}

TEST(ServeDifferentialTest, DReallocMatchesSerialReplay) {
  run_differential("dmix:d=1");
}

TEST(ServeDifferentialTest, RandomizedMatchesSerialReplay) {
  run_differential("random");
}

}  // namespace
}  // namespace partree::serve
