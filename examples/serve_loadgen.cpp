// serve_loadgen: closed-loop load generator for the online partition
// service (serve/service.hpp).
//
//   ./serve_loadgen                                  # 4 clients, 100k requests
//   ./serve_loadgen --clients 8 --requests 200000 --alloc greedy
//   ./serve_loadgen --metrics serve_metrics.json     # + metrics snapshot
//
// N client threads each keep a private working set of tasks, submitting
// arrivals and departures with up to --window requests in flight, and
// measure per-request latency from submission to future completion. At
// the end the run SELF-VERIFIES: the recorded admission sequence is
// replayed serially through Engine::run and the final state digests must
// match -- any lost, duplicated, or reordered request changes the digest.
// The metrics snapshot is taken as soon as the service stops, so it covers
// the service alone: it must hold one migrations_planned record per served
// reallocation round and no engine arrival_handle_ns record (the replay
// runs after it). Exit status: 0 verified, 1 digest mismatch, lost
// requests or a snapshot that is not the service's, 2 I/O error writing
// --metrics.
//
// --metrics arms the duration timers (queue-wait and apply-latency
// histograms) and writes the partree-metrics-v2 snapshot; validate or
// pretty-print it with `trace_stats --metrics <file>`.
#include <algorithm>
#include <cstdio>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/factory.hpp"
#include "obs/metrics.hpp"
#include "serve/service.hpp"
#include "sim/engine.hpp"
#include "tree/topology.hpp"
#include "util/cli.hpp"
#include "util/file.hpp"
#include "util/rng.hpp"
#include "util/str.hpp"

namespace {

using namespace partree;

struct ClientResult {
  std::uint64_t submitted = 0;
  std::vector<std::uint64_t> latencies_ns;
};

/// One in-flight request: when it was submitted and the future that
/// completes when the apply thread answers it.
struct Pending {
  std::uint64_t submit_ns = 0;
  std::future<serve::Placement> done;
};

void harvest(std::vector<Pending>& window, std::size_t keep,
             ClientResult& out) {
  while (window.size() > keep) {
    Pending p = std::move(window.front());
    window.erase(window.begin());
    (void)p.done.get();
    out.latencies_ns.push_back(obs::detail::monotonic_ns() - p.submit_ns);
  }
}

/// Closed-loop client: hold ~8 tasks active, pipeline up to `window`
/// outstanding requests. Departures only name this client's own admitted
/// arrivals, which the global admission order guarantees apply first.
ClientResult run_client(serve::PartitionService& service, std::uint64_t seed,
                        std::uint64_t requests, std::size_t window) {
  ClientResult result;
  util::Rng rng(seed);
  const std::uint64_t n = service.topology().n_leaves();
  std::uint64_t log2n = 0;
  while ((std::uint64_t{1} << (log2n + 1)) <= n) ++log2n;

  std::vector<core::TaskId> mine;
  std::vector<Pending> in_flight;
  constexpr std::size_t kHold = 8;  // target working-set size

  for (std::uint64_t k = 0; k < requests; ++k) {
    const bool depart =
        !mine.empty() && (mine.size() >= kHold || rng.bernoulli(0.45));
    Pending p;
    p.submit_ns = obs::detail::monotonic_ns();
    if (depart) {
      const std::uint64_t pick = rng.below(mine.size());
      const core::TaskId id = mine[pick];
      mine[pick] = mine.back();
      mine.pop_back();
      p.done = service.submit_departure(id);
    } else {
      const std::uint64_t size = std::uint64_t{1} << rng.below(log2n + 1);
      serve::ArrivalTicket ticket = service.submit_arrival(size);
      mine.push_back(ticket.id);
      p.done = std::move(ticket.placed);
    }
    in_flight.push_back(std::move(p));
    ++result.submitted;
    harvest(in_flight, window - 1, result);
  }
  // Retire the remaining working set so the machine drains.
  for (const core::TaskId id : mine) {
    Pending p;
    p.submit_ns = obs::detail::monotonic_ns();
    p.done = service.submit_departure(id);
    in_flight.push_back(std::move(p));
    ++result.submitted;
  }
  harvest(in_flight, 0, result);
  return result;
}

std::uint64_t percentile(const std::vector<std::uint64_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli;
  cli.option("pes", "machine size (power-of-two leaves)", "256")
      .option("alloc", "allocator spec (core/factory.hpp)", "dmix:d=2")
      .option("clients", "client threads", "4")
      .option("requests", "total requests across all clients", "100000")
      .option("window", "max in-flight requests per client", "16")
      .option("queue", "service queue capacity", "512")
      .option("batch", "epoch batch size cap", "64")
      .option("seed", "base RNG seed (client c uses seed + c)", "42")
      .option("metrics",
              "write a partree-metrics-v2 snapshot here (arms duration "
              "timers; validate with trace_stats --metrics)",
              "");
  if (!cli.parse(argc, argv)) return 2;

  const std::uint64_t pes = cli.get_u64("pes");
  const std::string alloc_spec = cli.get("alloc");
  const std::uint64_t clients = std::max<std::uint64_t>(1, cli.get_u64("clients"));
  const std::uint64_t requests = cli.get_u64("requests");
  const std::size_t window =
      static_cast<std::size_t>(std::max<std::uint64_t>(1, cli.get_u64("window")));
  const std::string metrics_path = cli.get("metrics");

  const tree::Topology topo(pes);
  serve::ServiceOptions options;
  options.queue_capacity = static_cast<std::size_t>(cli.get_u64("queue"));
  options.batch_size = static_cast<std::size_t>(cli.get_u64("batch"));
  options.record_sequence = true;  // the serial replay below verifies it

  obs::reset_metrics();
  if (!metrics_path.empty()) obs::set_duration_metrics_enabled(true);

  serve::PartitionService service(topo, core::make_allocator(alloc_spec, topo),
                                  options);

  const std::uint64_t per_client = requests / clients;
  const std::uint64_t seed = cli.get_u64("seed");
  std::vector<ClientResult> results(clients);
  std::vector<std::thread> threads;
  const std::uint64_t t_start = obs::detail::monotonic_ns();
  for (std::uint64_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      results[c] = run_client(service, seed + c, per_client, window);
    });
  }
  for (auto& t : threads) t.join();
  service.drain();
  const std::uint64_t t_end = obs::detail::monotonic_ns();
  service.stop();
  // Scope the snapshot to the service: the verification replay below
  // records into the same registry.
  obs::set_duration_metrics_enabled(false);
  const obs::MetricsSnapshot snap = obs::snapshot_metrics();

  const serve::ServiceStats stats = service.stats();
  std::vector<std::uint64_t> latencies;
  std::uint64_t submitted = 0;
  for (const ClientResult& r : results) {
    submitted += r.submitted;
    latencies.insert(latencies.end(), r.latencies_ns.begin(),
                     r.latencies_ns.end());
  }
  std::sort(latencies.begin(), latencies.end());

  const double wall_s =
      static_cast<double>(t_end - t_start) / 1e9;
  const double throughput =
      wall_s > 0.0 ? static_cast<double>(stats.applied) / wall_s : 0.0;
  std::printf("serve_loadgen: %llu PEs, %s, %llu clients x %llu requests\n",
              static_cast<unsigned long long>(pes), alloc_spec.c_str(),
              static_cast<unsigned long long>(clients),
              static_cast<unsigned long long>(per_client));
  std::printf(
      "  applied %llu (%llu arrivals, %llu departures) in %s s -> %s req/s\n",
      static_cast<unsigned long long>(stats.applied),
      static_cast<unsigned long long>(stats.arrivals),
      static_cast<unsigned long long>(stats.departures),
      util::format_double(wall_s, 3).c_str(),
      util::format_double(throughput, 0).c_str());
  std::printf(
      "  latency us: p50 %s  p90 %s  p99 %s  max %s\n",
      util::format_double(static_cast<double>(percentile(latencies, 0.50)) / 1e3, 1).c_str(),
      util::format_double(static_cast<double>(percentile(latencies, 0.90)) / 1e3, 1).c_str(),
      util::format_double(static_cast<double>(percentile(latencies, 0.99)) / 1e3, 1).c_str(),
      util::format_double(
          latencies.empty() ? 0.0 : static_cast<double>(latencies.back()) / 1e3, 1)
          .c_str());
  std::printf(
      "  batches %llu (max %llu), max load %llu (optimal %llu), "
      "reallocations %llu moving %llu tasks\n",
      static_cast<unsigned long long>(stats.batches),
      static_cast<unsigned long long>(stats.max_batch),
      static_cast<unsigned long long>(stats.max_load),
      static_cast<unsigned long long>(stats.optimal_load),
      static_cast<unsigned long long>(stats.reallocation_count),
      static_cast<unsigned long long>(stats.migration_count));

  // Self-verification: no lost/duplicated requests, and the serial
  // replay of the recorded sequence lands on the same digest.
  bool ok = true;
  if (stats.admitted != submitted || stats.applied != stats.admitted ||
      stats.failed != 0) {
    std::fprintf(stderr,
                 "FAIL: submitted %llu admitted %llu applied %llu failed %llu\n",
                 static_cast<unsigned long long>(submitted),
                 static_cast<unsigned long long>(stats.admitted),
                 static_cast<unsigned long long>(stats.applied),
                 static_cast<unsigned long long>(stats.failed));
    ok = false;
  }
  const std::uint64_t planned_rounds =
      snap.value(obs::ValueMetric::kMigrationsPlanned).count;
  const std::uint64_t engine_arrivals =
      snap.duration(obs::DurationMetric::kArrivalHandleNs).count;
  if (planned_rounds != stats.reallocation_count || engine_arrivals != 0) {
    std::fprintf(stderr,
                 "FAIL: metrics snapshot is not the service's: %llu "
                 "migrations_planned records for %llu served rounds, %llu "
                 "engine arrival_handle_ns records\n",
                 static_cast<unsigned long long>(planned_rounds),
                 static_cast<unsigned long long>(stats.reallocation_count),
                 static_cast<unsigned long long>(engine_arrivals));
    ok = false;
  }
  sim::Engine engine(topo, sim::EngineOptions{.record_digests = true});
  auto replay_alloc = core::make_allocator(alloc_spec, topo);
  const sim::SimResult serial = engine.run(service.recorded(), *replay_alloc);
  if (serial.final_digest != stats.final_digest ||
      serial.max_load != stats.max_load) {
    std::fprintf(
        stderr,
        "FAIL: serve digest %016llx load %llu != serial replay digest "
        "%016llx load %llu\n",
        static_cast<unsigned long long>(stats.final_digest),
        static_cast<unsigned long long>(stats.max_load),
        static_cast<unsigned long long>(serial.final_digest),
        static_cast<unsigned long long>(serial.max_load));
    ok = false;
  }
  if (ok) {
    std::printf("  verified: serial replay of %zu recorded events matches "
                "(digest %016llx)\n",
                service.recorded().events().size(),
                static_cast<unsigned long long>(stats.final_digest));
  }

  if (!metrics_path.empty()) {
    const std::string doc = obs::metrics_to_json(snap).dump();
    if (!util::write_file_atomic(metrics_path, doc + "\n")) {
      std::fprintf(stderr, "serve_loadgen: cannot write %s\n",
                   metrics_path.c_str());
      return 2;
    }
    std::printf("  wrote %s (%llu queue waits, %llu applies timed)\n",
                metrics_path.c_str(),
                static_cast<unsigned long long>(
                    snap.duration(obs::DurationMetric::kServeQueueWaitNs).count),
                static_cast<unsigned long long>(
                    snap.duration(obs::DurationMetric::kServeApplyNs).count));
  }
  return ok ? 0 : 1;
}
