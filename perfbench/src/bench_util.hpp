// Shared helpers for the benchmark driver: its own monotonic clock,
// quantiles over samples, and the result line's metric map.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock. The benchmark times every span with
/// this clock rather than the library's obs timers, so it measures the
/// library from outside and keeps working when those timers change.
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double ns_to_ms(std::uint64_t ns) {
  return static_cast<double>(ns) / 1e6;
}

/// Linear-interpolated quantile (the "inclusive" definition: q = 0 is the
/// minimum, q = 1 the maximum). Reorders `v`; 0 for an empty sample.
template <typename T>
double quantile(std::vector<T>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return static_cast<double>(v[lo]) * (1.0 - frac) +
         static_cast<double>(v[hi]) * frac;
}

template <typename T>
double median(std::vector<T> v) {
  return quantile(v, 0.5);
}

/// Which quantile of per-window latencies, of set-up times and of Engine
/// repetition times a metric reports. Other tenants of a shared host stall the whole process for
/// milliseconds at a time, sometimes for most of a run; they only ever add
/// time, so the calmer samples are the ones that show what the code costs.
inline constexpr double kCalmQuantile = 0.1;

/// Named metric values with their units, printed as the result line.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

/// Tally of verified operations (engine events replayed and serve requests
/// answered) and of the checks that verified them. A failed check counts
/// all of its operations as failed.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t checks = 0;
  std::uint64_t failed_checks = 0;

  void add(std::uint64_t ops, bool ok) {
    attempted += ops;
    ++checks;
    if (!ok) {
      failed += ops;
      ++failed_checks;
    }
  }
};

}  // namespace perfbench
