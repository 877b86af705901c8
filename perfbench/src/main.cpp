// perfbench_driver: runs one benchmark workload and prints the result
// line. Built and invoked by perfbench/run.py:
//
//   perfbench_driver --workload dense_churn --seed 1 --seconds 40 --trace 0
//
// --trace 0 measures the end-to-end metrics with nothing traced; --trace 1
// replays the same sequence through the allocator contract with every
// layer call timed, runs one serve phase with the service's metrics armed,
// and searches the max-rate ladder. Either way every answer is verified, and the last stdout line is
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>

#include "bench_util.hpp"
#include "core/factory.hpp"
#include "engine_bench.hpp"
#include "serve_bench.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

constexpr int kSetupRepsPerSlice = 16;
constexpr int kMinReps = 3;
constexpr int kSlices = 4;
// Max-rate searches; the metric is their median, so one rung misjudged in
// a host stall does not decide it.
constexpr int kSearches = 3;

// Shares of --seconds given to each part of a run.
constexpr double kEngineShare = 0.4;
constexpr double kRateShare = 0.2;     // each of the two fixed rates
constexpr double kTracedShare = 0.2;   // untraced and traced replays each
constexpr double kTracedServeShare = 0.15;
constexpr double kRungShare = 0.0125;  // each probed ladder rung

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = 0;
};

bool parse_u64(std::string_view s, std::uint64_t& out) {
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc() && ptr == s.data() + s.size();
}

bool parse_args(int argc, char** argv, Args& args) {
  bool seen_seconds = false;
  bool seen_seed = false;
  bool seen_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const std::string_view value = argv[i + 1];
    std::uint64_t v = 0;
    if (key == "--workload") {
      args.workload = find_workload(value);
    } else if (key == "--seed" && parse_u64(value, v)) {
      args.seed = v;
      seen_seed = true;
    } else if (key == "--seconds" && parse_u64(value, v) && v >= 1 &&
               v <= 60) {
      args.seconds = static_cast<double>(v);
      seen_seconds = true;
    } else if (key == "--trace" && parse_u64(value, v) && v <= 1) {
      args.trace = static_cast<int>(v);
      seen_trace = true;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && args.workload != nullptr && seen_seed &&
         seen_seconds && seen_trace;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

void print_result(const Tally& tally, const MetricMap& metrics) {
  std::string line = "{\"correct\": ";
  line += tally.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(tally.attempted);
  line += ", \"failed\": " + std::to_string(tally.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) line += ", ";
    first = false;
    line += "\"" + name + "\": {\"value\": " + number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

double events_per_s(EngineTiming t) {
  return static_cast<double>(t.events) / quantile(t.wall_s, kCalmQuantile);
}

// The facts every serve phase of this run must reproduce. The replay that
// produces them is itself checked against Engine::run on the whole
// sequence, so each service is compared with Engine::run by transitivity.
PrefixFacts expected_facts(const Workload& w,
                           const partree::core::TaskSequence& seq,
                           partree::core::Allocator& allocator,
                           const RunFacts& reference,
                           std::vector<std::size_t> prefixes, Tally& tally) {
  prefixes.push_back(seq.size());
  std::sort(prefixes.begin(), prefixes.end());
  prefixes.erase(std::unique(prefixes.begin(), prefixes.end()),
                 prefixes.end());
  const LayerTimes replay =
      traced_replay(seq, allocator, w.topology(), prefixes);
  tally.add(seq.size(), replay.at_checkpoint.back() == reference);
  PrefixFacts out;
  for (std::size_t i = 0; i < prefixes.size(); ++i) {
    out[prefixes[i]] = replay.at_checkpoint[i];
  }
  return out;
}

// Set-up: sequence generation plus a constructed, reset allocator. Each
// repetition first frees the previous sequence and allocator, outside the
// timed region, and regenerates the same sequence from the same seed; the
// Engine repetitions that follow check that it is.
void set_up(const Workload& w, std::uint64_t seed,
            partree::core::TaskSequence& seq,
            partree::core::AllocatorPtr& allocator,
            std::vector<double>& setup_s) {
  for (int i = 0; i < kSetupRepsPerSlice; ++i) {
    seq = partree::core::TaskSequence();
    allocator = nullptr;
    const std::uint64_t t0 = now_ns();
    seq = generate_sequence(w, seed);
    allocator = partree::core::make_allocator(w.alloc, w.topology());
    allocator->reset();
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
}

MetricMap end_to_end(const Args& args, Tally& tally) {
  const Workload& w = *args.workload;
  const double secs = args.seconds;

  std::vector<double> setup_s;
  partree::core::TaskSequence seq;
  partree::core::AllocatorPtr allocator;
  set_up(w, args.seed, seq, allocator, setup_s);
  const double setup_rss_mb = peak_rss_mb();

  const RunFacts ref = reference_run(w, seq);
  // Each fixed rate runs as kSlices phases spread over the run, so a slow
  // spell of the host hits only some of them.
  const double phase_s = kRateShare * secs / kSlices;
  const auto low_span = [&](int k) {
    return phase_span(seq, w.low_rps, phase_s, k, kSlices);
  };
  const auto high_span = [&](int k) {
    return phase_span(seq, w.high_rps, phase_s, k, kSlices);
  };
  std::vector<std::size_t> prefixes;
  for (int k = 0; k < kSlices; ++k) {
    prefixes.push_back(low_span(k).end());
    prefixes.push_back(high_span(k).end());
  }
  const PrefixFacts expected =
      expected_facts(w, seq, *allocator, ref, prefixes, tally);

  // Set-ups and Engine repetitions are interleaved with the serve phases
  // for the same reason.
  EngineTiming timing;
  std::vector<double> low50, low90, high50, high90;
  std::size_t low_requests = 0, high_requests = 0;
  const auto append = [](std::vector<double>& to, std::vector<double> from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  for (int k = 0; k < kSlices; ++k) {
    if (k > 0) set_up(w, args.seed, seq, allocator, setup_s);
    time_engine(w, seq, *allocator, ref, kEngineShare * secs / kSlices,
                std::min(k + 1, kMinReps), timing, tally);
    const ServePhase low = serve_phase(w, seq, low_span(k), w.low_rps, false,
                                       expected, tally);
    append(low50, low.window_quantiles(0.5));
    append(low90, low.window_quantiles(0.9));
    low_requests += low.requests;
    const ServePhase high = serve_phase(w, seq, high_span(k), w.high_rps,
                                        false, expected, tally);
    append(high50, high.window_quantiles(0.5));
    append(high90, high.window_quantiles(0.9));
    high_requests += high.requests;
  }
  const double rss_mb = peak_rss_mb();

  MetricMap m;
  m["events_per_s"] = {events_per_s(timing), "1/s"};
  m["setup_s"] = {quantile(setup_s, kCalmQuantile), "s"};
  m["placements_per_arrival"] = {
      static_cast<double>(ref.arrivals + ref.migrations) /
          static_cast<double>(ref.arrivals),
      "count"};
  const auto calm_us = [](std::vector<double>& windows) {
    return quantile(windows, kCalmQuantile) / 1e3;
  };
  m["latency_p50_us.low"] = {calm_us(low50), "us"};
  m["latency_p90_us.low"] = {calm_us(low90), "us"};
  m["latency_p50_us.high"] = {calm_us(high50), "us"};
  m["latency_p90_us.high"] = {calm_us(high90), "us"};
  m["ok_share"] = {1.0 - static_cast<double>(tally.failed_checks) /
                             static_cast<double>(tally.checks),
                   "share"};
  m["peak_rss_mb"] = {rss_mb, "MB"};
  std::fprintf(stderr,
               "%s seed %llu: %zu events, %zu engine reps, rounds %llu, "
               "moved %llu; serve %zu + %zu requests; peak RSS %.1f MB "
               "after set-up, %.1f MB at the end\n",
               std::string(w.name).c_str(),
               static_cast<unsigned long long>(args.seed), seq.size(),
               timing.wall_s.size(),
               static_cast<unsigned long long>(ref.reallocations),
               static_cast<unsigned long long>(ref.migrations), low_requests,
               high_requests, setup_rss_mb, rss_mb);
  return m;
}

MetricMap per_layer(const Args& args, Tally& tally) {
  const Workload& w = *args.workload;
  const double secs = args.seconds;

  const std::uint64_t g0 = now_ns();
  const partree::core::TaskSequence seq = generate_sequence(w, args.seed);
  const double generate_ms = ns_to_ms(now_ns() - g0);

  const RunFacts ref = reference_run(w, seq);
  const auto allocator = partree::core::make_allocator(w.alloc, w.topology());
  EngineTiming untraced;
  time_engine(w, seq, *allocator, ref, kTracedShare * secs, kMinReps,
              untraced, tally);

  // The traced replay must reproduce Engine::run exactly, or its layer
  // times describe some other computation.
  std::vector<LayerTimes> reps;
  const std::uint64_t start = now_ns();
  while (static_cast<int>(reps.size()) < kMinReps ||
         ns_to_ms(now_ns() - start) < kTracedShare * secs * 1e3) {
    reps.push_back(traced_replay(seq, *allocator, w.topology()));
    tally.add(seq.size(), reps.back().facts == ref);
  }

  MetricMap m;
  add_layer_metrics(reps, median(untraced.wall_s), m);
  m["workload.generate_ms"] = {generate_ms, "ms"};
  m["sim.load_ratio"] = {static_cast<double>(ref.max_load) /
                             static_cast<double>(ref.optimal_load),
                         "ratio"};

  const PhaseSpan span =
      phase_span(seq, w.high_rps, kTracedServeShare * secs);
  const PrefixFacts expected = expected_facts(
      w, seq, *allocator, ref,
      {span.end(), rung_span(w, seq, kRungShare * secs).end()}, tally);
  ServePhase phase =
      serve_phase(w, seq, span, w.high_rps, true, expected, tally);
  add_serve_metrics(phase, m);

  // A saturation search: near the service's capacity its figures follow
  // the host more than the code, so it has no end-to-end bound.
  std::vector<double> best_rps;
  for (int i = 0; i < kSearches; ++i) {
    best_rps.push_back(max_rate(w, seq, kRungShare * secs, expected, tally));
  }
  m["max_rate_rps"] = {median(best_rps), "1/s"};
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1\n",
                 argc > 0 ? argv[0] : "perfbench_driver");
    return 2;
  }
  Tally tally;
  const MetricMap metrics = args.trace == 0 ? end_to_end(args, tally)
                                            : per_layer(args, tally);
  print_result(tally, metrics);
  return 0;
}
