#include "serve_bench.hpp"

#include <atomic>
#include <cmath>
#include <exception>
#include <future>
#include <thread>

#include "core/factory.hpp"
#include "serve/service.hpp"

namespace perfbench {
namespace {

using partree::core::EventKind;
using partree::core::TaskSequence;
using partree::serve::Placement;

// 64 rungs, 2^(1/16) apart: a 16x range from the workload's base rate.
constexpr int kLadderRungs = 64;
constexpr double kLadderStep = 1.0442737824274138;
constexpr std::size_t kWindows = 32;
constexpr std::size_t kMinWindowRequests = 400;
constexpr double kP90LimitNs = 5e6;  // the max-rate ladder's latency limit
constexpr std::size_t kFillWindow = 1024;  // the service's queue capacity

void wait_until(std::uint64_t due_ns) {
  for (;;) {
    const std::uint64_t now = now_ns();
    if (now >= due_ns) return;
    if (due_ns - now > 200'000) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(due_ns - now - 100'000));
    }
  }
}

// True when the future holds a successful answer for task `id`. A request
// the service dropped shows up as a broken promise: a lost answer.
bool answered(std::future<Placement>& f, partree::core::TaskId id) {
  try {
    const Placement placed = f.get();
    return placed.ok && placed.id == id;
  } catch (const std::future_error&) {
    return false;
  }
}

// Takes futures in FIFO order as the generator publishes them; records
// when each answer was seen and whether it is the answer asked for. It
// polls rather than blocks: a blocked collector adds its own wake-up to
// every measured sojourn, and on a virtual machine a wake-up of an idle
// vCPU can take milliseconds when the host is busy.
struct Collector {
  std::vector<std::future<Placement>> futures;
  std::vector<partree::core::TaskId> expected;
  std::vector<std::uint64_t> done_ns;
  std::atomic<std::size_t> published{0};
  std::uint64_t bad = 0;

  explicit Collector(std::size_t n) : futures(n), expected(n), done_ns(n) {}

  void run() {
    for (std::size_t i = 0; i < futures.size(); ++i) {
      while (published.load(std::memory_order_acquire) <= i) {
      }
      std::future<Placement>& f = futures[i];
      if (!f.valid()) {
        ++bad;
        done_ns[i] = now_ns();
        continue;
      }
      while (f.wait_for(std::chrono::seconds(0)) !=
             std::future_status::ready) {
      }
      done_ns[i] = now_ns();
      if (!answered(f, expected[i])) ++bad;
    }
  }

  void publish(std::size_t i, std::future<Placement> f,
               partree::core::TaskId id) {
    futures[i] = std::move(f);
    expected[i] = id;
    published.store(i + 1, std::memory_order_release);
  }
};

// Submits one event; returns the future, or an invalid one (counted as a
// failure by the collector) when the service refuses it or names another
// task id than the sequence does. Nothing may escape: the collector thread
// is waiting for every slot.
std::future<Placement> submit(partree::serve::PartitionService& service,
                              const partree::core::Event& e) {
  try {
    if (e.kind == EventKind::kDeparture) {
      return service.submit_departure(e.task.id);
    }
    partree::serve::ArrivalTicket ticket = service.submit_arrival(e.task.size);
    if (ticket.id != e.task.id) return {};
    return std::move(ticket.placed);
  } catch (const std::exception&) {
    return {};
  }
}

// Quantile of a log2-bucketed service histogram, interpolated by rank
// inside the bucket that holds it; the library's own quantile() returns
// bucket bounds, which are too coarse to tell two commits apart.
double bucket_quantile(const partree::obs::MetricHistogram& h, double q) {
  if (h.count == 0) return 0.0;
  const double rank = q * static_cast<double>(h.count);
  double seen = 0.0;
  for (std::size_t b = 0; b < h.buckets.size(); ++b) {
    const auto c = static_cast<double>(h.buckets[b]);
    if (c == 0.0) continue;
    if (seen + c >= rank) {
      const double lo =
          b == 0 ? 0.0
                 : static_cast<double>(partree::obs::log2_bucket_upper(b - 1)) +
                       1.0;
      const auto hi = static_cast<double>(partree::obs::log2_bucket_upper(b));
      return std::clamp(lo + (hi - lo) * (rank - seen) / c,
                        static_cast<double>(h.min),
                        static_cast<double>(h.max));
    }
    seen += c;
  }
  return static_cast<double>(h.max);
}

}  // namespace

std::vector<double> ServePhase::window_quantiles(double q) const {
  const std::size_t n = sojourn_ns.size();
  const std::size_t windows =
      std::clamp<std::size_t>(n / kMinWindowRequests, 1, kWindows);
  std::vector<double> out;
  for (std::size_t k = 0; k < windows; ++k) {
    std::vector<std::uint64_t> window(
        sojourn_ns.begin() + static_cast<long>(n * k / windows),
        sojourn_ns.begin() + static_cast<long>(n * (k + 1) / windows));
    out.push_back(quantile(window, q));
  }
  return out;
}

PhaseSpan phase_span(const TaskSequence& seq, double rate_rps,
                     double seconds, int k, int slices) {
  const std::size_t warm = warmup_length(seq);
  const std::size_t room = seq.size() - warm;
  const std::size_t n = std::min<std::size_t>(
      static_cast<std::size_t>(std::llround(rate_rps * seconds)), room);
  const std::size_t offset =
      slices > 1 ? static_cast<std::size_t>(k) * (room - n) /
                       static_cast<std::size_t>(slices - 1)
                 : 0;
  return {.start = warm + offset, .requests = n};
}

PhaseSpan rung_span(const Workload& w, const TaskSequence& seq,
                    double seconds_per_rung) {
  return phase_span(seq, ladder(w)[kLadderRungs / 2], seconds_per_rung);
}

std::vector<double> ladder(const Workload& w) {
  std::vector<double> rates;
  for (int k = 0; k < kLadderRungs; ++k) {
    rates.push_back(w.ladder_base_rps * std::pow(kLadderStep, k));
  }
  return rates;
}

ServePhase serve_phase(const Workload& w, const TaskSequence& seq,
                       PhaseSpan span, double rate_rps, bool traced,
                       const PrefixFacts& expected, Tally& tally) {
  const std::size_t fill = span.start;
  const std::size_t total = span.end();
  const std::size_t n = span.requests;
  const auto events = seq.events();
  ServePhase out;
  out.requests = n;

  partree::serve::PartitionService service(
      w.topology(), partree::core::make_allocator(w.alloc, w.topology()));
  std::uint64_t bad = 0;
  {
    // The untimed part is checked in a sliding window of futures, so the
    // driver's share of peak RSS does not grow with its length.
    std::vector<std::future<Placement>> window(kFillWindow);
    for (std::size_t i = 0; i < fill + kFillWindow; ++i) {
      std::future<Placement>& slot = window[i % kFillWindow];
      if (i >= kFillWindow) {
        const std::size_t j = i - kFillWindow;
        if (j < fill && !(slot.valid() && answered(slot, events[j].task.id))) {
          ++bad;
        }
      }
      if (i < fill) slot = submit(service, events[i]);
    }
    service.drain();
  }
  if (traced) {
    partree::obs::reset_metrics();
    partree::obs::set_duration_metrics_enabled(true);
  }

  Collector collector(n);
  if (traced) {
    out.submit_ns.resize(n);
    out.lag_ns.resize(n);
  }
  const double period_ns = 1e9 / rate_rps;
  const std::uint64_t t0 = now_ns() + 1'000'000;
  const auto due = [&](std::size_t i) {
    return t0 + static_cast<std::uint64_t>(static_cast<double>(i) * period_ns);
  };
  std::thread collector_thread([&collector] { collector.run(); });
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t due_i = due(i);
    wait_until(due_i);
    const partree::core::Event& e = events[fill + i];
    const std::uint64_t s0 = now_ns();
    std::future<Placement> f = submit(service, e);
    const std::uint64_t s1 = now_ns();
    if (traced) {
      out.lag_ns[i] = s0 - due_i;
      out.submit_ns[i] = s1 - s0;
    }
    collector.publish(i, std::move(f), e.task.id);
  }
  collector_thread.join();
  service.stop();
  if (traced) {
    out.metrics = partree::obs::snapshot_metrics();
    partree::obs::set_duration_metrics_enabled(false);
  }

  out.wall_ns = n == 0 ? 0 : collector.done_ns[n - 1] - t0;
  out.sojourn_ns = std::move(collector.done_ns);
  for (std::size_t i = 0; i < n; ++i) out.sojourn_ns[i] -= due(i);
  bad += collector.bad;

  // The admitted sequence is exactly the submitted prefix, so the service
  // must end where a serial replay of that prefix ends.
  const partree::serve::ServiceStats stats = service.stats();
  const RunFacts served{.final_digest = stats.final_digest,
                        .reallocations = stats.reallocation_count,
                        .migrations = stats.migration_count,
                        .planned = stats.migration_planned_count,
                        .max_load = stats.max_load,
                        .optimal_load = stats.optimal_load,
                        .arrivals = stats.arrivals};
  const auto want = expected.find(total);
  out.ok = bad == 0 && want != expected.end() && served == want->second &&
           stats.admitted == total && stats.applied == total &&
           stats.failed == 0;
  tally.add(total, out.ok);
  return out;
}

double max_rate(const Workload& w, const TaskSequence& seq,
                double seconds_per_rung, const PrefixFacts& expected,
                Tally& tally) {
  const std::vector<double> rates = ladder(w);
  const PhaseSpan span = rung_span(w, seq, seconds_per_rung);
  double delivered = 0.0;
  const auto passes = [&](double rate) {
    const ServePhase phase =
        serve_phase(w, seq, span, rate, false, expected, tally);
    if (!phase.ok || phase.sojourn_ns.empty()) return false;
    std::vector<std::uint64_t> all = phase.sojourn_ns;
    std::vector<std::uint64_t> late(
        all.begin() + static_cast<long>(all.size() / 2), all.end());
    if (quantile(all, 0.9) > kP90LimitNs ||
        quantile(late, 0.5) > kP90LimitNs) {
      return false;
    }
    delivered = phase.delivered_rps();
    return true;
  };
  int lo = -1;                              // highest rung known to pass
  int hi = static_cast<int>(rates.size());  // lowest rung known to fail
  double best = 0.0;
  while (hi - lo > 1) {
    const int mid = (lo + hi) / 2;
    if (passes(rates[static_cast<std::size_t>(mid)])) {
      lo = mid;
      best = delivered;
    } else {
      hi = mid;
    }
  }
  return best;
}

void add_serve_metrics(ServePhase& phase, MetricMap& out) {
  using partree::obs::DurationMetric;
  using partree::obs::GaugeMetric;
  using partree::obs::ValueMetric;
  const auto put = [&out](const char* name, double value, const char* unit) {
    out[name] = {value, unit};
  };
  put("serve.submit.ns_p50", quantile(phase.submit_ns, 0.5), "ns");
  put("serve.submit.ns_p99", quantile(phase.submit_ns, 0.99), "ns");
  put("serve.sojourn.ns_p50", quantile(phase.sojourn_ns, 0.5), "ns");
  put("serve.sojourn.ns_p99", quantile(phase.sojourn_ns, 0.99), "ns");

  const partree::obs::MetricsSnapshot& snap = phase.metrics;
  const auto& wait = snap.duration(DurationMetric::kServeQueueWaitNs);
  const auto& apply = snap.duration(DurationMetric::kServeApplyNs);
  put("serve.queue_wait.ns_p50", bucket_quantile(wait, 0.5), "ns");
  put("serve.queue_wait.ns_p99", bucket_quantile(wait, 0.99), "ns");
  put("serve.apply.ns_p50", bucket_quantile(apply, 0.5), "ns");
  put("serve.apply.ns_p99", bucket_quantile(apply, 0.99), "ns");
  put("serve.batch.mean_requests",
      snap.value(ValueMetric::kServeBatchRequests).mean(), "count");
  put("serve.queue_depth_hwm",
      static_cast<double>(snap.gauge(GaugeMetric::kServeQueueDepthHwm)),
      "count");
  put("serve.apply_busy_share",
      phase.wall_ns == 0 ? 0.0
                         : static_cast<double>(apply.sum) /
                               static_cast<double>(phase.wall_ns),
      "share");

  double lag_sum = 0.0;
  for (const std::uint64_t l : phase.lag_ns) lag_sum += static_cast<double>(l);
  const double lag_max =
      phase.lag_ns.empty()
          ? 0.0
          : static_cast<double>(
                *std::max_element(phase.lag_ns.begin(), phase.lag_ns.end()));
  put("loadgen.lag_us_mean",
      phase.lag_ns.empty()
          ? 0.0
          : lag_sum / static_cast<double>(phase.lag_ns.size()) / 1e3,
      "us");
  put("loadgen.lag_us_max", lag_max / 1e3, "us");
}

}  // namespace perfbench
