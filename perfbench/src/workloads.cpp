#include "workloads.hpp"

#include <algorithm>
#include <array>

#include "util/rng.hpp"
#include "workload/sizes.hpp"
#include "workload/synthetic.hpp"

namespace perfbench {
namespace {

using partree::workload::SizeSpec;

constexpr double kUtilization = 0.85;

// Rates are fixed per workload, so two commits are always offered the same
// load. The high rate is at most a third of the capacity measured on a
// 4-vCPU host: nearer saturation the p90 follows the host's noise more
// than the code.
constexpr std::array kWorkloads = {
    // ~9k small tasks; each round repacks and moves most of them, so
    // per-task costs in plan, migrate and departures dominate.
    Workload{.name = "dense_churn", .log2_n = 16, .min_log = 0, .max_log = 4,
             .alloc = "dmix:d=1", .control_steps = 300000,
             .low_rps = 50000, .high_rps = 120000, .ladder_base_rps = 62500},
    // Small machine, cheap decisions: the service's own queue, promise
    // and lock costs dominate.
    Workload{.name = "serve_open_loop", .log2_n = 10, .min_log = 0,
             .max_log = 10, .alloc = "dmix:d=2", .control_steps = 400000,
             .low_rps = 50000, .high_rps = 100000, .ladder_base_rps = 100000},
};

}  // namespace

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

partree::core::TaskSequence generate_sequence(const Workload& w,
                                              std::uint64_t seed) {
  partree::util::Rng rng(seed);
  return partree::workload::closed_loop(
      w.topology(),
      {.n_events = w.control_steps,
       .utilization = kUtilization,
       .size = SizeSpec::uniform_log(w.min_log, w.max_log)},
      rng);
}

std::size_t warmup_length(const partree::core::TaskSequence& seq) {
  std::size_t fill = 0;
  while (fill < seq.size() &&
         seq[fill].kind == partree::core::EventKind::kArrival) {
    ++fill;
  }
  return std::min(seq.size(), fill + seq.size() / 20);
}

}  // namespace perfbench
