#include "core/sequence.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "util/assert.hpp"
#include "util/math.hpp"

namespace partree::core {

TaskSequence::TaskSequence(std::vector<Event> events)
    : events_(std::move(events)) {
  for (const Event& e : events_) {
    if (e.kind == EventKind::kArrival) {
      next_id_ = std::max(next_id_, e.task.id + 1);
    }
  }
}

TaskId TaskSequence::arrive(std::uint64_t size) {
  const TaskId id = next_id_++;
  events_.push_back(Event::arrival(id, size));
  return id;
}

void TaskSequence::arrive_as(TaskId id, std::uint64_t size) {
  events_.push_back(Event::arrival(id, size));
  next_id_ = std::max(next_id_, id + 1);
}

void TaskSequence::depart(TaskId id) {
  events_.push_back(Event::departure(id));
}

std::uint64_t TaskSequence::total_arrival_size() const {
  std::uint64_t total = 0;
  for (const Event& e : events_) {
    if (e.kind == EventKind::kArrival) total += e.task.size;
  }
  return total;
}

std::uint64_t TaskSequence::peak_active_size() const {
  std::unordered_map<TaskId, std::uint64_t> active_size;
  std::uint64_t current = 0;
  std::uint64_t peak = 0;
  for (const Event& e : events_) {
    if (e.kind == EventKind::kArrival) {
      active_size.emplace(e.task.id, e.task.size);
      current += e.task.size;
      peak = std::max(peak, current);
    } else {
      const auto it = active_size.find(e.task.id);
      PARTREE_ASSERT(it != active_size.end(),
                     "departure of unknown task in peak_active_size");
      current -= it->second;
      active_size.erase(it);
    }
  }
  return peak;
}

std::uint64_t TaskSequence::active_size_after(std::size_t tau) const {
  PARTREE_ASSERT(tau <= events_.size(), "tau beyond sequence length");
  std::unordered_map<TaskId, std::uint64_t> active_size;
  std::uint64_t current = 0;
  for (std::size_t i = 0; i < tau; ++i) {
    const Event& e = events_[i];
    if (e.kind == EventKind::kArrival) {
      active_size.emplace(e.task.id, e.task.size);
      current += e.task.size;
    } else {
      const auto it = active_size.find(e.task.id);
      PARTREE_ASSERT(it != active_size.end(), "departure of unknown task");
      current -= it->second;
      active_size.erase(it);
    }
  }
  return current;
}

std::uint64_t TaskSequence::optimal_load(std::uint64_t n_pes) const {
  if (events_.empty()) return 0;
  return util::ceil_div(peak_active_size(), n_pes);
}

std::size_t TaskSequence::arrival_count() const {
  return static_cast<std::size_t>(
      std::count_if(events_.begin(), events_.end(), [](const Event& e) {
        return e.kind == EventKind::kArrival;
      }));
}

std::string TaskSequence::validate(std::uint64_t n_pes) const {
  std::unordered_set<TaskId> seen;
  std::unordered_set<TaskId> active;
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    if (e.kind == EventKind::kArrival) {
      if (e.task.id == kInvalidTask) {
        return "event " + std::to_string(i) +
               ": arrival uses the reserved invalid task id " +
               std::to_string(e.task.id);
      }
      if (!valid_task_size(e.task.size, n_pes)) {
        return "event " + std::to_string(i) + ": task " +
               std::to_string(e.task.id) + " has invalid size " +
               std::to_string(e.task.size);
      }
      if (!seen.insert(e.task.id).second) {
        return "event " + std::to_string(i) + ": duplicate arrival of task " +
               std::to_string(e.task.id);
      }
      active.insert(e.task.id);
    } else {
      if (active.erase(e.task.id) == 0) {
        return "event " + std::to_string(i) + ": departure of task " +
               std::to_string(e.task.id) + " which is not active";
      }
    }
  }
  return "";
}

void TaskSequence::append(const TaskSequence& other) {
  events_.insert(events_.end(), other.events_.begin(), other.events_.end());
  next_id_ = std::max(next_id_, other.next_id_);
}

TaskSequence figure1_sequence() {
  TaskSequence seq;
  const TaskId t1 = seq.arrive(1);
  const TaskId t2 = seq.arrive(1);
  const TaskId t3 = seq.arrive(1);
  const TaskId t4 = seq.arrive(1);
  (void)t1;
  (void)t3;
  seq.depart(t2);
  seq.depart(t4);
  seq.arrive(2);  // t5
  return seq;
}

}  // namespace partree::core
