#include "engine_bench.hpp"

#include <algorithm>
#include <optional>

#include "core/factory.hpp"
#include "core/machine_state.hpp"
#include "sim/engine.hpp"

namespace perfbench {

using partree::core::Allocator;
using partree::core::EventKind;
using partree::core::MachineState;
using partree::core::Migration;
using partree::core::TaskSequence;

namespace {

RunFacts facts_of(const partree::sim::SimResult& r) {
  return {.final_digest = r.final_digest,
          .reallocations = r.reallocation_count,
          .migrations = r.migration_count,
          .planned = r.migration_planned_count,
          .max_load = r.max_load,
          .optimal_load = r.optimal_load,
          .arrivals = r.arrivals};
}

}  // namespace

RunFacts reference_run(const Workload& w, const TaskSequence& seq) {
  const auto allocator = partree::core::make_allocator(w.alloc, w.topology());
  partree::sim::Engine engine(w.topology(), {.record_digests = true});
  return facts_of(engine.run(seq, *allocator));
}

void time_engine(const Workload& w, const TaskSequence& seq,
                 Allocator& allocator, const RunFacts& reference,
                 double budget_s, int min_reps, EngineTiming& out,
                 Tally& tally) {
  partree::sim::Engine engine(w.topology());
  out.events = seq.size();
  const std::uint64_t start = now_ns();
  double last_s = 0.0;
  std::uint64_t ops = 0;
  bool ok = true;
  // Another repetition only when it fits the budget (or the minimum is
  // not met yet), so slow workloads do not overrun their share.
  while (static_cast<int>(out.wall_s.size()) < min_reps ||
         static_cast<double>(now_ns() - start) / 1e9 + last_s <= budget_s) {
    const std::uint64_t t0 = now_ns();
    const partree::sim::SimResult r = engine.run(seq, allocator);
    last_s = static_cast<double>(now_ns() - t0) / 1e9;
    out.wall_s.push_back(last_s);
    RunFacts facts = facts_of(r);
    facts.final_digest = reference.final_digest;  // digests are off here
    ops += r.events;
    ok = ok && facts == reference && r.events == seq.size();
  }
  tally.add(ops, ok);
}

LayerTimes traced_replay(const TaskSequence& seq, Allocator& allocator,
                         partree::tree::Topology topo,
                         std::span<const std::size_t> checkpoints) {
  LayerTimes lt;
  lt.place_samples.reserve(seq.size());
  const std::uint64_t start = now_ns();
  allocator.reset();
  MachineState state(topo);
  lt.setup_ns = now_ns() - start;

  std::uint64_t max_load = 0;
  const auto facts_now = [&] {
    return RunFacts{.final_digest = state.digest(),
                    .reallocations = lt.rounds,
                    .migrations = lt.moved,
                    .planned = lt.planned,
                    .max_load = max_load,
                    .optimal_load = state.optimal_load(),
                    .arrivals = lt.place_calls};
  };
  const auto events = seq.events();
  for (std::size_t i = 0; i < events.size(); ++i) {
    const partree::core::Event& e = events[i];
    if (e.kind == EventKind::kArrival) {
      const std::uint64_t t0 = now_ns();
      const partree::tree::NodeId node = allocator.place(e.task, state);
      const std::uint64_t t1 = now_ns();
      state.place(e.task, node);
      const std::uint64_t t2 = now_ns();
      const std::optional<std::vector<Migration>> migrations =
          allocator.maybe_reallocate(state);
      const std::uint64_t t3 = now_ns();
      ++lt.place_calls;
      lt.place_samples.push_back(t1 - t0);
      lt.place_ns += t1 - t0;
      lt.state_place_ns += t2 - t1;
      if (migrations) {
        // Same accounting as Engine::run: a returned list is a round, and
        // only moves with from != to are physical migrations.
        ++lt.rounds;
        lt.plan_ns += t3 - t2;
        lt.plan_samples.push_back(t3 - t2);
        lt.planned += migrations->size();
        for (const Migration& m : *migrations) lt.moved += m.from != m.to;
        const std::uint64_t t4 = now_ns();
        state.migrate(*migrations);
        lt.migrate_ns += now_ns() - t4;
      } else {
        ++lt.check_calls;
        lt.check_ns += t3 - t2;
      }
    } else {
      const std::uint64_t t0 = now_ns();
      allocator.on_departure(e.task.id, state);
      const std::uint64_t t1 = now_ns();
      state.remove(e.task.id);
      const std::uint64_t t2 = now_ns();
      ++lt.depart_calls;
      lt.depart_ns += t1 - t0;
      lt.remove_ns += t2 - t1;
    }
    max_load = std::max(max_load, state.max_load());
    if (lt.at_checkpoint.size() < checkpoints.size() &&
        checkpoints[lt.at_checkpoint.size()] == i + 1) {
      lt.at_checkpoint.push_back(facts_now());
    }
  }
  lt.wall_ns = now_ns() - start;
  lt.facts = facts_now();
  return lt;
}

void add_layer_metrics(std::vector<LayerTimes>& reps, double untraced_s,
                       MetricMap& out) {
  std::sort(reps.begin(), reps.end(),
            [](const LayerTimes& a, const LayerTimes& b) {
              return a.wall_ns < b.wall_ns;
            });
  LayerTimes& lt = reps[reps.size() / 2];
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const auto put = [&out](const char* name, double value, const char* unit) {
    out[name] = {value, unit};
  };
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };

  put("core.place.calls", count(lt.place_calls), "count");
  put("core.place.self_ms", ns_to_ms(lt.place_ns), "ms");
  put("core.place.ns_p50", quantile(lt.place_samples, 0.5), "ns");
  put("state.place.calls", count(lt.place_calls), "count");
  put("state.place.self_ms", ns_to_ms(lt.state_place_ns), "ms");
  put("core.realloc_check.calls", count(lt.check_calls), "count");
  put("core.realloc_check.self_ms", ns_to_ms(lt.check_ns), "ms");
  put("core.realloc_plan.rounds", count(lt.rounds), "count");
  put("core.realloc_plan.self_ms", ns_to_ms(lt.plan_ns), "ms");
  put("core.realloc_plan.ns_per_round_p50", quantile(lt.plan_samples, 0.5),
      "ns");
  put("core.realloc_plan.planned", count(lt.planned), "count");
  put("core.realloc_plan.moved", count(lt.moved), "count");
  put("core.realloc_plan.useful_ratio",
      ratio(count(lt.moved), count(lt.planned)), "ratio");
  put("core.realloc_plan.ns_per_moved",
      ratio(count(lt.plan_ns), count(lt.moved)), "ns");
  put("state.migrate.calls", count(lt.rounds), "count");
  put("state.migrate.self_ms", ns_to_ms(lt.migrate_ns), "ms");
  put("state.migrate.ns_per_move",
      ratio(count(lt.migrate_ns), count(lt.moved)), "ns");
  put("core.depart.calls", count(lt.depart_calls), "count");
  put("core.depart.self_ms", ns_to_ms(lt.depart_ns), "ms");
  put("state.remove.calls", count(lt.depart_calls), "count");
  put("state.remove.self_ms", ns_to_ms(lt.remove_ns), "ms");
  put("sim.run_setup_ms", ns_to_ms(lt.setup_ns), "ms");
  put("trace.coverage", ratio(count(lt.self_ns()), count(lt.wall_ns)),
      "ratio");
  put("trace.overhead_pct",
      100.0 * ratio(static_cast<double>(lt.wall_ns) / 1e9 - untraced_s,
                    untraced_s),
      "%");
}

}  // namespace perfbench
