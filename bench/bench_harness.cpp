// The benchmark-regression harness.
//
// Runs a fixed, seeded suite of performance scenarios -- allocator
// micro-ops, the E2 greedy campaign sweep, the E3 tradeoff sweep, raw
// engine replay throughput, run_trials batches through the persistent
// worker pool, and trace/metrics overhead measurements -- with
// warmup + repetitions, and writes a machine-readable BENCH_<date>.json
// (schema: src/obs/bench_schema.hpp). `bench_diff` compares two such
// files and gates on regressions; every future perf PR proves itself
// against the committed bench/baseline.json.
//
//   bench_harness                      # full run, writes BENCH_<date>.json
//   bench_harness --smoke              # tiny sizes, 1 rep; exercises the
//                                      # machinery (CI), not comparable
//   bench_harness --trace out.json     # ONE traced E2 greedy sweep ->
//                                      # Chrome trace JSON; no bench report
//   bench_harness --metrics m.json     # arm duration metrics for the run
//                                      # and write the final
//                                      # partree-metrics-v2 snapshot
//                                      # (composes with --trace)
#include "bench_common.hpp"

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <functional>
#include <thread>

#include "core/factory.hpp"
#include "obs/bench_schema.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/service.hpp"
#include "sim/engine.hpp"
#include "sim/parallel.hpp"
#include "sim/sweep.hpp"
#include "sim/trials.hpp"
#include "util/digest.hpp"
#include "util/file.hpp"
#include "tree/load_tree.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"
#include "workload/campaign.hpp"
#include "workload/synthetic.hpp"

namespace partree::bench {
namespace {

struct HarnessConfig {
  std::uint64_t reps = 7;
  std::uint64_t warmup = 1;
  std::uint64_t seed = 1;
  bool smoke = false;
  /// Event-budget multiplier; --smoke drops it to a fraction.
  double scale = 1.0;
  /// Worker threads for the parallel suites; 0 defers to each suite's
  /// own default (the pool suite picks 2 so single-core hosts still
  /// exercise the worker pool rather than the serial inline path).
  std::uint64_t n_threads = 0;
};

/// Times `body` warmup+reps times.
obs::BenchSuite run_suite(const std::string& name, std::uint64_t n,
                          const HarnessConfig& config,
                          const std::function<void()>& body) {
  obs::BenchSuite suite;
  suite.name = name;
  suite.n = n;
  suite.reps = config.reps;

  for (std::uint64_t i = 0; i < config.warmup; ++i) body();
  for (std::uint64_t rep = 0; rep < config.reps; ++rep) {
    util::Timer timer;
    body();
    suite.wall_ms.push_back(timer.millis());
  }
  suite.finalize_stats();

  std::printf("  %-28s n=%-6llu median %10.3f ms   p90 %10.3f ms\n",
              suite.name.c_str(), static_cast<unsigned long long>(n),
              suite.median_ms, suite.p90_ms);
  return suite;
}

// Suite 1: raw LoadTree micro-ops (assign / release / min_load_node), the
// O(log N) + pruned-DFS primitives every allocator sits on.
void alloc_micro_body(const HarnessConfig& config) {
  const std::uint64_t n = config.smoke ? 256 : 1024;
  const std::uint64_t ops =
      static_cast<std::uint64_t>(30000 * config.scale) + 100;
  const tree::Topology topo(n);
  tree::LoadTree loads(topo);
  util::Rng rng(config.seed);
  std::vector<tree::NodeId> assigned;
  for (std::uint64_t i = 0; i < ops; ++i) {
    if (!assigned.empty() && rng.uniform01() < 0.45) {
      const std::size_t idx = static_cast<std::size_t>(
          rng.below(assigned.size()));
      loads.release(assigned[idx]);
      assigned[idx] = assigned.back();
      assigned.pop_back();
    } else {
      const std::uint64_t size = std::uint64_t{1}
                                 << rng.below(topo.height() + 1);
      const tree::NodeId node = loads.min_load_node(size);
      loads.assign(node);
      assigned.push_back(node);
    }
  }
}

// Suite 2: the E2 greedy campaign sweep at N=1024 -- exact A_G over every
// named workload campaign. Also the body the overhead suites re-time; with
// a sink it becomes the traced run behind --trace.
void greedy_sweep_body(const HarnessConfig& config,
                       obs::TraceSink* sink = nullptr) {
  const std::uint64_t n = config.smoke ? 128 : 1024;
  const tree::Topology topo(n);
  sim::EngineOptions options;
  options.trace = sink;
  sim::Engine engine(topo, options);
  for (const std::string& campaign : workload::campaign_names()) {
    util::Rng rng(config.seed + n * 13);
    const auto seq =
        workload::make_campaign(campaign, topo, rng, 0.4 * config.scale);
    auto greedy = core::make_allocator("greedy", topo);
    const auto result = engine.run(seq, *greedy);
    PARTREE_ASSERT(result.max_load >= result.optimal_load,
                   "greedy below optimal: impossible");
  }
}

// Suite 3: the E3 tradeoff sweep -- A_M(d) across the d axis on one
// closed-loop sequence (the repack path dominates).
void tradeoff_sweep_body(const HarnessConfig& config) {
  const std::uint64_t n = config.smoke ? 64 : 256;
  const tree::Topology topo(n);
  util::Rng rng(config.seed + 7);
  workload::ClosedLoopParams params;
  params.n_events =
      static_cast<std::uint64_t>(6000 * config.scale) + 100;
  params.utilization = 0.75;
  params.size = workload::SizeSpec::uniform_log(0, topo.height());
  const auto seq = workload::closed_loop(topo, params, rng);

  sim::Engine engine(topo);
  for (const char* spec :
       {"dmix:d=0", "dmix:d=1", "dmix:d=2", "dmix:d=4", "dmix:d=inf"}) {
    auto alloc = core::make_allocator(spec, topo);
    (void)engine.run(seq, *alloc);
  }
}

// Suite 4: raw replay throughput at N=4096 through the fast-path
// allocators (greedy-fast's LevelForest index + basic's copy stack).
void engine_replay_body(const HarnessConfig& config) {
  const std::uint64_t n = config.smoke ? 512 : 4096;
  const tree::Topology topo(n);
  util::Rng rng(config.seed + 11);
  workload::ClosedLoopParams params;
  params.n_events =
      static_cast<std::uint64_t>(40000 * config.scale) + 100;
  params.utilization = 0.85;
  params.size = workload::SizeSpec::geometric(0.6, topo.height());
  const auto seq = workload::closed_loop(topo, params, rng);

  sim::Engine engine(topo);
  for (const char* spec : {"greedy-fast", "basic"}) {
    auto alloc = core::make_allocator(spec, topo, config.seed);
    (void)engine.run(seq, *alloc);
  }
}

// Suite 4b: reallocation-round cost -- A_M(d=1) at large N under a
// high-churn closed loop whose task sizes are biased large, so the d=1
// trigger fires every few arrivals and the per-round repack cost
// (copy-tree rebuild + pack + migration planning) dominates the run
// rather than the O(log N) placement path.
void realloc_round_body(const HarnessConfig& config) {
  const std::uint64_t n = config.smoke ? 1024 : 65536;
  const tree::Topology topo(n);
  util::Rng rng(config.seed + 29);
  workload::ClosedLoopParams params;
  params.n_events =
      static_cast<std::uint64_t>(2400 * config.scale) + 100;
  params.utilization = 0.9;
  params.size =
      workload::SizeSpec::uniform_log(topo.height() - 7, topo.height());
  const auto seq = workload::closed_loop(topo, params, rng);

  sim::Engine engine(topo);
  auto alloc = core::make_allocator("dmix:d=1", topo);
  const auto result = engine.run(seq, *alloc);
  PARTREE_ASSERT(result.reallocation_count > 0,
                 "realloc_round measured zero reallocation rounds");
}

// Suite 5: run_trials batches dispatched through the persistent worker
// pool -- 8 back-to-back batches of 16 seeded trials each, so the pool's
// region setup/join cost (not thread spawn cost, which the pool amortizes
// away) is what this suite times. Uses an explicit worker count by
// default because single-core hosts would otherwise resolve to the
// serial inline path and never touch the pool.
void trial_batch_body(const HarnessConfig& config) {
  const std::uint64_t n = config.smoke ? 32 : 64;
  const tree::Topology topo(n);
  util::Rng rng(config.seed + 19);
  workload::ClosedLoopParams params;
  params.n_events = static_cast<std::uint64_t>(1200 * config.scale) + 50;
  params.utilization = 0.7;
  params.size = workload::SizeSpec::uniform_log(0, topo.height());
  const auto seq = workload::closed_loop(topo, params, rng);

  sim::TrialOptions topt;
  topt.trials = 16;
  topt.seed = config.seed;
  topt.n_threads = config.n_threads != 0 ? config.n_threads : 2;
  const int batches = config.smoke ? 2 : 8;
  for (int batch = 0; batch < batches; ++batch) {
    (void)sim::run_trials(topo, seq, "random", topt);
  }
}

// Suite 5b: the online partition service under concurrent load -- 4
// closed-loop client threads submitting through the bounded MPSC queue,
// one apply thread draining epoch batches. Times the full
// admission-to-completion path (queue handoff + batching + allocator
// apply), the thing serve/service.hpp adds on top of engine replay.
void serve_throughput_body(const HarnessConfig& config) {
  const std::uint64_t n = config.smoke ? 64 : 256;
  const tree::Topology topo(n);
  serve::ServiceOptions options;
  options.queue_capacity = 512;
  options.batch_size = 64;
  serve::PartitionService service(
      topo, core::make_allocator("dmix:d=2", topo, config.seed), options);

  constexpr std::uint64_t kClients = 4;
  const std::uint64_t per_client =
      static_cast<std::uint64_t>(2000 * config.scale) + 100;
  std::uint64_t log2n = 0;
  while ((std::uint64_t{1} << (log2n + 1)) <= n) ++log2n;

  std::vector<std::thread> clients;
  for (std::uint64_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      util::Rng rng(config.seed + 23 + c);
      std::vector<core::TaskId> mine;
      for (std::uint64_t k = 0; k < per_client; ++k) {
        if (!mine.empty() && (mine.size() >= 8 || rng.bernoulli(0.45))) {
          const std::uint64_t pick = rng.below(mine.size());
          const core::TaskId id = mine[pick];
          mine[pick] = mine.back();
          mine.pop_back();
          (void)service.submit_departure(id).get();
        } else {
          const std::uint64_t size = std::uint64_t{1}
                                     << rng.below(log2n + 1);
          auto ticket = service.submit_arrival(size);
          mine.push_back(ticket.id);
          (void)ticket.placed.get();
        }
      }
      for (const core::TaskId id : mine) {
        (void)service.submit_departure(id).get();
      }
    });
  }
  for (auto& t : clients) t.join();
  service.drain();
  service.stop();
}

// Suite 6: what the tracing subsystem costs while DISABLED -- the default
// path every other suite and every user run takes, which now carries one
// flight-recorder store per engine instant. The recorded wall times are
// those default runs (so bench_diff gates them against the baseline like
// any suite), and trace_overhead_pct is the acceptance metric (< 5%):
// their median vs truly-bare runs with the recorder switched off. The
// full cost of ARMING tracing (duration timers + clock reads + ring drains
// into a counting sink) is printed for reference but is not gated -- a
// complete timeline is expected to cost real time.
obs::BenchSuite trace_overhead_suite(const HarnessConfig& config) {
  auto timed_one = [&](bool recorder_on, obs::TraceSink* arm) {
    obs::set_flight_recorder_enabled(recorder_on);
    util::Timer timer;
    greedy_sweep_body(config, arm);
    obs::set_flight_recorder_enabled(true);
    return timer.millis();
  };

  for (std::uint64_t i = 0; i < config.warmup + 1; ++i) {
    greedy_sweep_body(config);
  }

  // Drift on a shared box dwarfs a per-event store, so bare and default
  // runs are INTERLEAVED in alternating order (the OBSERVABILITY.md
  // refresh procedure) and the pct is the median of per-pair ratios,
  // which cancels drift slower than one pair.
  obs::BenchSuite bare;
  obs::BenchSuite suite;
  suite.name = "trace_overhead_greedy_sweep";
  suite.n = config.smoke ? 128 : 1024;
  const std::uint64_t pairs =
      config.smoke ? config.reps : std::max<std::uint64_t>(config.reps, 15);
  suite.reps = pairs;
  std::vector<double> pair_ratio;
  for (std::uint64_t rep = 0; rep < pairs; ++rep) {
    double bare_ms;
    double default_ms;
    if (rep % 2 == 0) {
      bare_ms = timed_one(false, nullptr);
      default_ms = timed_one(true, nullptr);
    } else {
      default_ms = timed_one(true, nullptr);
      bare_ms = timed_one(false, nullptr);
    }
    bare.wall_ms.push_back(bare_ms);
    suite.wall_ms.push_back(default_ms);
    if (bare_ms > 0.0) pair_ratio.push_back(default_ms / bare_ms);
  }
  bare.finalize_stats();
  suite.finalize_stats();
  std::sort(pair_ratio.begin(), pair_ratio.end());

  obs::CountingTraceSink sink;
  obs::BenchSuite armed;
  for (std::uint64_t rep = 0; rep < config.reps; ++rep) {
    armed.wall_ms.push_back(timed_one(true, &sink));
  }
  armed.finalize_stats();
  suite.trace_overhead_pct =
      pair_ratio.empty()
          ? 0.0
          : (pair_ratio[pair_ratio.size() / 2] - 1.0) * 100.0;
  const double armed_pct =
      suite.median_ms <= 0.0
          ? 0.0
          : (armed.median_ms - suite.median_ms) / suite.median_ms * 100.0;

  std::printf(
      "  %-28s n=%-6llu median %10.3f ms   overhead %+6.2f%% vs bare "
      "(armed: %+6.2f%%)\n",
      suite.name.c_str(), static_cast<unsigned long long>(suite.n),
      suite.median_ms, *suite.trace_overhead_pct, armed_pct);
  return suite;
}

// Suite 7: what the metrics registry costs on its DEFAULT path -- master
// switch on, duration timers off, so every record is a branch plus a few
// thread-local relaxed stores and the clock is never read. The recorded
// wall times are those default runs (bench_diff gates them like any
// suite); metrics_overhead_pct is the acceptance metric (< 1%): the
// median of per-pair ratios against truly-bare runs with the master
// switch off, interleaved like trace_overhead_suite so machine drift
// cancels. The cost of ARMING duration timers (two clock reads per timed
// scope) is printed for reference but not gated.
obs::BenchSuite metrics_overhead_suite(const HarnessConfig& config) {
  const bool durations_were = obs::duration_metrics_enabled();
  auto timed_one = [&](bool master, bool durations) {
    obs::set_metrics_enabled(master);
    obs::set_duration_metrics_enabled(durations);
    util::Timer timer;
    greedy_sweep_body(config);
    obs::set_metrics_enabled(true);
    obs::set_duration_metrics_enabled(durations_were);
    return timer.millis();
  };

  for (std::uint64_t i = 0; i < config.warmup + 1; ++i) {
    greedy_sweep_body(config);
  }

  obs::BenchSuite bare;
  obs::BenchSuite suite;
  suite.name = "metrics_overhead_greedy_sweep";
  suite.n = config.smoke ? 128 : 1024;
  const std::uint64_t pairs =
      config.smoke ? config.reps : std::max<std::uint64_t>(config.reps, 15);
  suite.reps = pairs;
  std::vector<double> pair_ratio;
  for (std::uint64_t rep = 0; rep < pairs; ++rep) {
    double bare_ms;
    double default_ms;
    if (rep % 2 == 0) {
      bare_ms = timed_one(false, false);
      default_ms = timed_one(true, false);
    } else {
      default_ms = timed_one(true, false);
      bare_ms = timed_one(false, false);
    }
    bare.wall_ms.push_back(bare_ms);
    suite.wall_ms.push_back(default_ms);
    if (bare_ms > 0.0) pair_ratio.push_back(default_ms / bare_ms);
  }
  bare.finalize_stats();
  suite.finalize_stats();
  std::sort(pair_ratio.begin(), pair_ratio.end());
  suite.metrics_overhead_pct =
      pair_ratio.empty()
          ? 0.0
          : (pair_ratio[pair_ratio.size() / 2] - 1.0) * 100.0;

  obs::BenchSuite armed;
  for (std::uint64_t rep = 0; rep < config.reps; ++rep) {
    armed.wall_ms.push_back(timed_one(true, true));
  }
  armed.finalize_stats();
  const double armed_pct =
      suite.median_ms <= 0.0
          ? 0.0
          : (armed.median_ms - suite.median_ms) / suite.median_ms * 100.0;

  std::printf(
      "  %-28s n=%-6llu median %10.3f ms   overhead %+6.2f%% vs bare "
      "(durations armed: %+6.2f%%)\n",
      suite.name.c_str(), static_cast<unsigned long long>(suite.n),
      suite.median_ms, *suite.metrics_overhead_pct, armed_pct);
  return suite;
}

// --sweep: run a checkpointed grid (preset e3/e7 or a full spec) under the
// crash-safe sweep runner and exit -- the resumable way to run the
// experiment suites when a box may die mid-campaign. Exits the normal
// measuring path entirely, like --trace.
int run_sweep_mode(const HarnessConfig& config, const std::string& grid_text,
                   const std::string& ckpt, bool resume) {
  const sim::SweepGrid grid = sim::SweepGrid::parse(grid_text);
  sim::SweepOptions options;
  options.n_threads = config.n_threads;
  options.checkpoint_path = ckpt;
  options.resume = resume;
  const sim::SweepReport report = sim::run_sweep(grid, options);
  for (const std::string& note : report.notes) {
    std::printf("note: %s\n", note.c_str());
  }
  std::printf(
      "sweep %s: %llu cells (%llu shards run, %llu resumed), worst ratio "
      "%.3f\ncombined_digest=%s\n",
      grid_text.c_str(), static_cast<unsigned long long>(report.cells),
      static_cast<unsigned long long>(report.shards_run),
      static_cast<unsigned long long>(report.shards_resumed),
      report.worst_ratio,
      util::digest_hex(report.combined_digest).c_str());
  return report.complete ? 0 : 3;
}

// --trace: one traced greedy sweep -> Chrome trace JSON; exits the
// process' normal measuring path entirely.
int run_traced_sweep(const HarnessConfig& config, const std::string& path) {
  obs::ChromeTraceSink sink;
  greedy_sweep_body(config, &sink);
  if (!sink.write_file(path)) {
    std::fprintf(stderr, "bench_harness: cannot write %s\n", path.c_str());
    return 2;
  }
  std::printf(
      "wrote %s (%llu arrival_handle_ns spans, %llu arrivals, %llu counter "
      "samples, %llu dropped)\nopen it in chrome://tracing or "
      "ui.perfetto.dev\n",
      path.c_str(),
      static_cast<unsigned long long>(
          sink.span_count(obs::DurationMetric::kArrivalHandleNs)),
      static_cast<unsigned long long>(
          sink.instant_count(obs::Instant::kArrival)),
      static_cast<unsigned long long>(sink.counter_samples()),
      static_cast<unsigned long long>(sink.dropped_events()));
  return 0;
}

// Disarm the duration timers, snapshot the metrics registry, and write
// the canonical partree-metrics-v2 document atomically. Shared by the
// measuring path and --trace, both of which honor --metrics.
int write_metrics_snapshot(const std::string& path) {
  obs::set_duration_metrics_enabled(false);
  const obs::MetricsSnapshot snap = obs::snapshot_metrics();
  const std::string doc = obs::metrics_to_json(snap).dump();
  if (!util::write_file_atomic(path, doc + "\n")) {
    std::fprintf(stderr, "bench_harness: cannot write %s\n", path.c_str());
    return 2;
  }
  std::printf(
      "wrote %s (%llu arrivals timed, %llu pool regions; validate / "
      "analyze with trace_stats --metrics)\n",
      path.c_str(),
      static_cast<unsigned long long>(
          snap.duration(obs::DurationMetric::kArrivalHandleNs).count),
      static_cast<unsigned long long>(
          snap.value(obs::ValueMetric::kPoolRegionItems).count));
  return 0;
}

std::string today_iso() {
  const std::time_t now = std::time(nullptr);
  std::tm tm_buf{};
  localtime_r(&now, &tm_buf);
  char buf[16];
  std::strftime(buf, sizeof(buf), "%Y-%m-%d", &tm_buf);
  return buf;
}

std::string git_short_sha() {
  FILE* pipe = popen("git rev-parse --short HEAD 2>/dev/null", "r");
  if (pipe == nullptr) return "unknown";
  char buf[64] = {};
  const bool ok = std::fgets(buf, sizeof(buf), pipe) != nullptr;
  pclose(pipe);
  if (!ok) return "unknown";
  std::string sha(buf);
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
    sha.pop_back();
  }
  return sha.empty() ? "unknown" : sha;
}

}  // namespace
}  // namespace partree::bench

int main(int argc, char** argv) {
  using namespace partree;

  util::Cli cli;
  cli.option("out", "output json path (default BENCH_<date>.json)", "");
  cli.option("reps", "measured repetitions per suite", "7");
  cli.option("warmup", "warmup repetitions per suite", "1");
  cli.flag("smoke", "tiny sizes and 1 rep: exercise, don't measure");
  cli.option("trace",
             "write a Chrome trace of one traced E2 greedy sweep here and "
             "exit (no bench report)",
             "");
  cli.option("metrics",
             "arm duration metrics for the bench run and write the final "
             "partree-metrics-v2 snapshot here",
             "");
  cli.option("n-threads",
             "worker threads for the parallel suites (0 = suite default)",
             "0");
  cli.option("sweep",
             "run this sweep grid (preset e3/e7 or sim/sweep.hpp spec) "
             "under the crash-safe sweep runner and exit (no bench report)",
             "");
  cli.option("sweep-ckpt", "checkpoint path for --sweep", "");
  cli.flag("sweep-resume", "resume --sweep-ckpt instead of starting fresh");
  if (!bench::parse_standard(cli, argc, argv)) return 1;

  bench::HarnessConfig config;
  config.reps = cli.get_u64("reps");
  config.warmup = cli.get_u64("warmup");
  config.seed = cli.get_u64("seed");
  config.n_threads = cli.get_u64("n-threads");
  if (cli.get_flag("smoke")) {
    config.smoke = true;
    config.scale = 0.05;
    config.reps = 1;
    config.warmup = 0;
  }
  PARTREE_ASSERT(config.reps >= 1, "need at least one repetition");

  if (const std::string grid = cli.get("sweep"); !grid.empty()) {
    return bench::run_sweep_mode(config, grid, cli.get("sweep-ckpt"),
                                 cli.get_flag("sweep-resume"));
  }

  const std::string metrics_path = cli.get("metrics");

  if (const std::string trace_path = cli.get("trace"); !trace_path.empty()) {
    obs::reset_metrics();
    // Each traced engine run arms the duration timers for itself, so the
    // --metrics snapshot of a traced sweep is populated without arming.
    const int rc = bench::run_traced_sweep(config, trace_path);
    if (rc != 0 || metrics_path.empty()) return rc;
    return bench::write_metrics_snapshot(metrics_path);
  }

  bench::banner("BENCH harness",
                "Fixed perf suite with warmup + repetitions; medians go to "
                "BENCH_<date>.json for bench_diff gating.");

  obs::BenchReport report;
  report.date = bench::today_iso();
  report.git_sha = bench::git_short_sha();
  report.n_threads = config.n_threads != 0 ? config.n_threads
                                           : sim::default_thread_count();
  report.smoke = config.smoke;

  obs::reset_metrics();
  // Duration histograms stay empty unless the timers are armed; --metrics
  // asks for a populated snapshot, so arm them for the whole run.
  if (!metrics_path.empty()) obs::set_duration_metrics_enabled(true);

  report.suites.push_back(bench::run_suite(
      "alloc_micro_ops", config.smoke ? 256 : 1024, config,
      [&] { bench::alloc_micro_body(config); }));
  report.suites.push_back(bench::run_suite(
      "greedy_sweep_e2", config.smoke ? 128 : 1024, config,
      [&] { bench::greedy_sweep_body(config); }));
  report.suites.push_back(bench::run_suite(
      "tradeoff_sweep_e3", config.smoke ? 64 : 256, config,
      [&] { bench::tradeoff_sweep_body(config); }));
  report.suites.push_back(bench::run_suite(
      "engine_replay", config.smoke ? 512 : 4096, config,
      [&] { bench::engine_replay_body(config); }));
  report.suites.push_back(bench::run_suite(
      "realloc_round", config.smoke ? 1024 : 65536, config,
      [&] { bench::realloc_round_body(config); }));
  report.suites.push_back(bench::run_suite(
      "trial_batch_pool", config.smoke ? 32 : 64, config,
      [&] { bench::trial_batch_body(config); }));
  report.suites.push_back(bench::run_suite(
      "serve_throughput", config.smoke ? 64 : 256, config,
      [&] { bench::serve_throughput_body(config); }));
  report.suites.push_back(bench::trace_overhead_suite(config));
  report.suites.push_back(bench::metrics_overhead_suite(config));

  std::string out_path = cli.get("out");
  if (out_path.empty()) out_path = "BENCH_" + report.date + ".json";
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "bench_harness: cannot write %s\n", out_path.c_str());
    return 2;
  }
  out << to_json(report).dump() << "\n";
  std::printf("\nwrote %s (%zu suites, git %s, %llu threads%s)\n",
              out_path.c_str(), report.suites.size(),
              report.git_sha.c_str(),
              static_cast<unsigned long long>(report.n_threads),
              report.smoke ? ", SMOKE" : "");

  if (!metrics_path.empty()) {
    if (const int rc = bench::write_metrics_snapshot(metrics_path); rc != 0) {
      return rc;
    }
  }
  return 0;
}
