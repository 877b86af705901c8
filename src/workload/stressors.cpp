#include "workload/stressors.hpp"

#include <utility>
#include <vector>

#include "util/assert.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace partree::workload {
namespace {

// log_A N for an arity-A machine on `topo`.
std::uint32_t arity_height(const tree::Topology& topo, std::uint64_t arity) {
  PARTREE_ASSERT(arity >= 2 && util::is_pow2(arity),
                 "arity must be a power of two >= 2");
  const std::uint32_t bits = util::exact_log2(arity);
  PARTREE_ASSERT(topo.height() % bits == 0,
                 "machine size must be a power of the arity");
  return topo.height() / bits;
}

}  // namespace

core::TaskSequence fill_drain(tree::Topology topo, std::uint64_t size,
                              std::uint64_t rounds) {
  PARTREE_ASSERT(util::is_pow2(size) && size <= topo.n_leaves(),
                 "fill_drain size must be a power of two <= N");
  core::TaskSequence seq;
  const std::uint64_t count = topo.n_leaves() / size;
  for (std::uint64_t r = 0; r < rounds; ++r) {
    std::vector<core::TaskId> batch;
    batch.reserve(count);
    for (std::uint64_t k = 0; k < count; ++k) {
      batch.push_back(seq.arrive(size));
    }
    for (const core::TaskId id : batch) seq.depart(id);
  }
  return seq;
}

core::TaskSequence staircase(tree::Topology topo, std::uint64_t phases) {
  PARTREE_ASSERT(phases <= topo.height(), "staircase phases exceed log N");
  core::TaskSequence seq;
  std::uint64_t active_size = 0;

  for (std::uint64_t i = 0; i < phases; ++i) {
    const std::uint64_t size = std::uint64_t{1} << i;
    const std::uint64_t count = (topo.n_leaves() - active_size) / size;
    std::vector<core::TaskId> phase;
    phase.reserve(count);
    for (std::uint64_t k = 0; k < count; ++k) {
      phase.push_back(seq.arrive(size));
      active_size += size;
    }
    // Depart every second task of this phase (even ranks), halving the
    // occupied size but leaving holes misaligned for size 2^(i+1).
    for (std::uint64_t k = 0; k < phase.size(); k += 2) {
      seq.depart(phase[k]);
      active_size -= size;
    }
  }
  return seq;
}

core::TaskSequence churn(tree::Topology topo, std::uint64_t rounds) {
  core::TaskSequence seq;
  const std::uint32_t max_log = topo.height();
  for (std::uint64_t r = 0; r < rounds; ++r) {
    std::vector<core::TaskId> batch;
    // One task of each size up to N/2, largest first: total size < N.
    for (std::uint32_t log = max_log; log-- > 0;) {
      batch.push_back(seq.arrive(std::uint64_t{1} << log));
    }
    for (std::size_t k = 0; k < batch.size() / 2; ++k) {
      seq.depart(batch[k]);
    }
    for (std::size_t k = batch.size() / 2; k < batch.size(); ++k) {
      seq.depart(batch[k]);
    }
  }
  return seq;
}

core::TaskSequence arity_closed_loop(tree::Topology topo, std::uint64_t arity,
                                     std::uint64_t n_events,
                                     double utilization, std::uint64_t seed) {
  const std::uint32_t height = arity_height(topo, arity);
  PARTREE_ASSERT(utilization > 0.0 && utilization <= 1.0,
                 "utilization out of range");
  util::Rng rng(seed);
  const auto target = static_cast<std::uint64_t>(
      utilization * static_cast<double>(topo.n_leaves()));

  core::TaskSequence seq;
  std::vector<std::pair<core::TaskId, std::uint64_t>> active;  // id, size
  std::uint64_t active_size = 0;

  for (std::uint64_t e = 0; e < n_events; ++e) {
    if (active.empty() || active_size < target) {
      std::uint64_t size = 1;
      const std::uint64_t log = rng.below(height + std::uint64_t{1});
      for (std::uint64_t i = 0; i < log; ++i) size *= arity;
      active.emplace_back(seq.arrive(size), size);
      active_size += size;
    } else {
      const std::uint64_t pick = rng.below(active.size());
      const auto [id, size] = active[pick];
      active[pick] = active.back();
      active.pop_back();
      active_size -= size;
      seq.depart(id);
    }
  }
  while (!active.empty()) {
    seq.depart(active.back().first);
    active.pop_back();
  }
  return seq;
}

core::TaskSequence arity_staircase(tree::Topology topo, std::uint64_t arity) {
  const std::uint32_t height = arity_height(topo, arity);
  core::TaskSequence seq;
  std::uint64_t active_size = 0;
  std::uint64_t size = 1;
  for (std::uint32_t phase = 0; phase < height; ++phase) {
    const std::uint64_t count = (topo.n_leaves() - active_size) / size;
    std::vector<core::TaskId> ids;
    ids.reserve(count);
    for (std::uint64_t k = 0; k < count; ++k) {
      ids.push_back(seq.arrive(size));
      active_size += size;
    }
    // Keep one task per group of A, so each next-size block holds a
    // misaligned survivor.
    for (std::uint64_t k = 0; k < ids.size(); ++k) {
      if (k % arity != 0) {
        seq.depart(ids[k]);
        active_size -= size;
      }
    }
    size *= arity;
  }
  return seq;
}

}  // namespace partree::workload
