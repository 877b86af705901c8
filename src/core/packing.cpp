#include "core/packing.hpp"

#include <algorithm>
#include <utility>

#include "util/assert.hpp"
#include "util/math.hpp"

namespace partree::core {
namespace {

/// Sizes buckets to the topology's class count (sizes 2^0 .. 2^height)
/// and empties them, keeping their capacity.
void reset_buckets(PackScratch& scratch, std::size_t n_classes) {
  if (scratch.buckets.size() < n_classes) scratch.buckets.resize(n_classes);
  for (auto& bucket : scratch.buckets) bucket.clear();
}

/// Places every bucketed task into `copies` class by class (largest
/// first when `decreasing`), ids ascending within a class, filling
/// scratch.packed / scratch.from_nodes in placement order. Identical
/// output to sorting (size, id) with one comparison sort and placing one
/// by one: the class walk IS the size key, the per-class id sort is the
/// tie-break, and place_run is placement-for-placement equal to place().
void place_buckets(tree::CopySet& copies, PackScratch& scratch,
                   bool decreasing) {
  std::size_t total = 0;
  for (const auto& bucket : scratch.buckets) total += bucket.size();
  scratch.packed.clear();
  scratch.packed.reserve(total);
  scratch.from_nodes.clear();
  scratch.from_nodes.reserve(total);

  const std::size_t n_classes = scratch.buckets.size();
  for (std::size_t step = 0; step < n_classes; ++step) {
    const std::size_t j = decreasing ? n_classes - 1 - step : step;
    auto& bucket = scratch.buckets[j];
    if (bucket.empty()) continue;
    std::sort(bucket.begin(), bucket.end(),
              [](const PackScratch::Pending& a,
                 const PackScratch::Pending& b) { return a.id < b.id; });
    const std::uint64_t size = std::uint64_t{1} << j;
    scratch.run.clear();
    copies.place_run(size, bucket.size(), scratch.run);
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      scratch.packed.push_back({bucket[i].id, size, scratch.run[i]});
      scratch.from_nodes.push_back(bucket[i].from);
    }
  }
}

}  // namespace

std::string check_placements(
    const util::TaskMap<tree::CopyPlacement>& placements,
    const tree::CopySet& copies) {
  std::string err;
  std::uint64_t tracked = 0;
  placements.for_each([&](TaskId id, const tree::CopyPlacement& cp) {
    if (err.empty() && !copies.occupied(cp)) {
      err = "placement for task " + std::to_string(id) +
            " is not occupied in the copy set";
    }
    tracked += copies.topology().subtree_size(cp.node);
  });
  if (err.empty() && tracked != copies.used()) {
    err = "tracked placement sizes " + std::to_string(tracked) +
          " != copy set used " + std::to_string(copies.used());
  }
  return err;
}

std::uint64_t repack_into(const MachineState& state, tree::CopySet& copies,
                          PackScratch& scratch) {
  const tree::Topology& topo = state.topology();
  reset_buckets(scratch, topo.height() + std::size_t{1});
  state.for_each_active([&scratch](const ActiveTask& at) {
    scratch.buckets[util::exact_log2(at.task.size)].push_back(
        {at.task.id, at.node});
  });
  copies.clear();
  place_buckets(copies, scratch, /*decreasing=*/true);

  // Delta pass with an exact reserve: count the movers first, then fill.
  // The debug assert pins that the estimate really covers the fill -- a
  // planner that reallocates mid-loop would invalidate spans handed out
  // over this buffer.
  std::size_t movers = 0;
  for (std::size_t i = 0; i < scratch.packed.size(); ++i) {
    if (scratch.packed[i].placement.node != scratch.from_nodes[i]) ++movers;
  }
  scratch.migrations.clear();
  scratch.migrations.reserve(movers);
  [[maybe_unused]] const std::size_t cap = scratch.migrations.capacity();
  for (std::size_t i = 0; i < scratch.packed.size(); ++i) {
    const PackedTask& p = scratch.packed[i];
    if (p.placement.node == scratch.from_nodes[i]) continue;
    scratch.migrations.push_back(
        {p.id, scratch.from_nodes[i], p.placement.node});
  }
  PARTREE_DEBUG_ASSERT(scratch.migrations.capacity() == cap,
                       "delta migration list outgrew its exact reserve");
  return copies.copy_count();
}

std::vector<PackedTask> pack_tasks_ordered(const tree::Topology& topo,
                                           std::span<const ActiveTask> tasks,
                                           PackOrder order) {
  tree::CopySet copies(topo);
  if (order == PackOrder::kArrivalOrder) {
    // Sizes interleave under arrival order, so there is no class run to
    // batch; a single id sort and per-task placement is the whole job.
    std::vector<PackedTask> packed;
    packed.reserve(tasks.size());
    for (const ActiveTask& at : tasks) {
      packed.push_back({at.task.id, at.task.size, {}});
    }
    std::sort(packed.begin(), packed.end(),
              [](const PackedTask& a, const PackedTask& b) {
                return a.id < b.id;
              });
    for (PackedTask& p : packed) p.placement = copies.place(p.size);
    return packed;
  }

  PackScratch scratch;
  reset_buckets(scratch, topo.height() + std::size_t{1});
  for (const ActiveTask& at : tasks) {
    scratch.buckets[util::exact_log2(at.task.size)].push_back(
        {at.task.id, at.node});
  }
  place_buckets(copies, scratch, order == PackOrder::kDecreasingSize);
  return std::move(scratch.packed);
}

std::vector<PackedTask> pack_tasks(const tree::Topology& topo,
                                   std::span<const ActiveTask> tasks) {
  return pack_tasks_ordered(topo, tasks, PackOrder::kDecreasingSize);
}

std::vector<Migration> plan_repack(const MachineState& state,
                                   PackScratch& scratch,
                                   std::uint64_t* out_copies) {
  if (!scratch.copies ||
      scratch.copies->topology().n_leaves() != state.topology().n_leaves()) {
    scratch.copies.emplace(state.topology());
  }
  const std::uint64_t copies = repack_into(state, *scratch.copies, scratch);
  if (out_copies != nullptr) *out_copies = copies;
  return {scratch.migrations.begin(), scratch.migrations.end()};
}

std::vector<Migration> plan_repack(const MachineState& state,
                                   std::uint64_t* out_copies) {
  PackScratch scratch;
  return plan_repack(state, scratch, out_copies);
}

}  // namespace partree::core
