#include "serve/service.hpp"

#include <chrono>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"

namespace partree::serve {

std::string_view service_error_name(ServiceErrorCode code) noexcept {
  switch (code) {
    case ServiceErrorCode::kQueueFull: return "queue_full";
    case ServiceErrorCode::kTimeout: return "timeout";
    case ServiceErrorCode::kStopped: return "stopped";
    case ServiceErrorCode::kBadRequest: return "bad_request";
  }
  return "unknown";
}

PartitionService::PartitionService(tree::Topology topo,
                                   core::AllocatorPtr allocator,
                                   ServiceOptions options)
    : topo_(topo),
      allocator_(std::move(allocator)),
      options_(options),
      state_(topo) {
  PARTREE_ASSERT(allocator_ != nullptr, "service needs an allocator");
  PARTREE_ASSERT(options_.queue_capacity >= 1, "queue capacity must be >= 1");
  PARTREE_ASSERT(options_.batch_size >= 1, "batch size must be >= 1");
  allocator_->reset();
  apply_thread_ = std::thread([this] { apply_loop(); });
}

PartitionService::~PartitionService() { stop(); }

ArrivalTicket PartitionService::submit_arrival(std::uint64_t size) {
  // Size validation happens before admission so an invalid request can
  // never reach the recorded sequence (which must replay through
  // Engine::run's sequence validation).
  if (!core::valid_task_size(size, topo_.n_leaves())) {
    throw ServiceError(ServiceErrorCode::kBadRequest,
                       "arrival size " + std::to_string(size) +
                           " is not a power of two in [1, " +
                           std::to_string(topo_.n_leaves()) + "]");
  }
  return admit(core::Event::arrival(core::kInvalidTask, size));
}

std::future<Placement> PartitionService::submit_departure(core::TaskId id) {
  return admit(core::Event::departure(id)).placed;
}

// Shared admission path: backpressure, id assignment (arrivals are
// numbered in admission order under the queue lock, which is what makes
// the recorded sequence's ids deterministic), and the queue push.
ArrivalTicket PartitionService::admit(core::Event event) {
  std::unique_lock lock(mutex_);
  const auto has_space = [this] {
    return queue_.size() < options_.queue_capacity || !accepting_;
  };
  if (!accepting_) {
    throw ServiceError(ServiceErrorCode::kStopped, "service is stopped");
  }
  if (!has_space()) {
    if (options_.backpressure == BackpressureMode::kReject) {
      ++stats_.rejected;
      throw ServiceError(ServiceErrorCode::kQueueFull,
                         "request queue is full");
    }
    if (options_.block_timeout_ms == 0) {
      cv_space_.wait(lock, has_space);
    } else if (!cv_space_.wait_for(
                   lock, std::chrono::milliseconds(options_.block_timeout_ms),
                   has_space)) {
      ++stats_.rejected;
      throw ServiceError(ServiceErrorCode::kTimeout,
                         "request queue stayed full past the deadline");
    }
    if (!accepting_) {
      throw ServiceError(ServiceErrorCode::kStopped, "service is stopped");
    }
  }

  if (event.kind == core::EventKind::kArrival) event.task.id = next_id_++;
  Request req{event, obs::duration_start(), {}};
  ArrivalTicket admitted{event.task.id, req.promise.get_future()};
  queue_.push_back(std::move(req));
  ++stats_.admitted;
  obs::gauge_max(obs::GaugeMetric::kServeQueueDepthHwm, queue_.size());
  lock.unlock();
  cv_work_.notify_one();
  return admitted;
}

void PartitionService::flush() {
  std::unique_lock lock(mutex_);
  const std::uint64_t target = stats_.admitted;
  cv_work_.notify_one();
  cv_applied_.wait(lock, [this, target] {
    return stats_.applied + stats_.failed >= target || stopped_;
  });
}

void PartitionService::drain() {
  std::unique_lock lock(mutex_);
  cv_work_.notify_one();
  cv_applied_.wait(lock, [this] {
    return (queue_.empty() &&
            stats_.applied + stats_.failed >= stats_.admitted) ||
           stopped_;
  });
}

void PartitionService::stop() {
  {
    std::unique_lock lock(mutex_);
    if (stopped_ && !apply_thread_.joinable()) return;
    accepting_ = false;
    stopping_ = true;
    paused_ = false;  // stop() overrides a test pause: everything drains
  }
  cv_work_.notify_all();
  cv_space_.notify_all();  // parked submitters observe kStopped
  if (apply_thread_.joinable()) apply_thread_.join();
  std::unique_lock lock(mutex_);
  stopped_ = true;
  cv_applied_.notify_all();
}

ServiceStats PartitionService::stats() const {
  std::unique_lock lock(mutex_);
  return stats_;
}

std::size_t PartitionService::queue_depth() const {
  std::unique_lock lock(mutex_);
  return queue_.size();
}

const core::TaskSequence& PartitionService::recorded() const {
  std::unique_lock lock(mutex_);
  PARTREE_ASSERT(options_.record_sequence,
                 "recorded() requires ServiceOptions::record_sequence");
  PARTREE_ASSERT(stopped_, "recorded() requires stop() first");
  return recorded_;
}

void PartitionService::pause_applying() {
  std::unique_lock lock(mutex_);
  paused_ = true;
}

void PartitionService::resume_applying() {
  {
    std::unique_lock lock(mutex_);
    paused_ = false;
  }
  cv_work_.notify_all();
}

void PartitionService::apply_loop() {
  std::uint64_t batch_index = 0;
  std::deque<Request> batch;
  while (true) {
    {
      std::unique_lock lock(mutex_);
      cv_work_.wait(lock, [this] {
        if (stopping_) return true;  // drain (or exit) regardless of pause
        return !paused_ && !queue_.empty();
      });
      if (queue_.empty()) {
        if (stopping_) break;
        continue;
      }
      // Close the epoch batch at the cap or at whatever is queued right
      // now -- the apply thread never waits for a batch to fill, so
      // queue-empty is a natural flush point and flush()/drain() only
      // ever wait, never signal special markers.
      const std::size_t take =
          std::min(queue_.size(), options_.batch_size);
      for (std::size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    cv_space_.notify_all();
    apply_batch(batch, batch_index++);
    batch.clear();
  }

  // Everything admitted has been answered; publish the end-of-run facts.
  const std::uint64_t digest = state_.digest();
  std::unique_lock lock(mutex_);
  stats_.final_digest = digest;
  stats_.optimal_load = state_.optimal_load();
  cv_applied_.notify_all();
}

void PartitionService::apply_batch(std::deque<Request>& batch,
                                   std::uint64_t batch_index) {
  std::uint64_t failed = 0;
  for (Request& req : batch) {
    if (req.enqueue_ns != 0) {
      obs::record_duration(obs::DurationMetric::kServeQueueWaitNs,
                           obs::detail::monotonic_ns() - req.enqueue_ns);
    }
    if (!apply_one(req, batch_index)) ++failed;
  }
  obs::emit_instant(obs::Instant::kServeBatch, batch.size());
  obs::record_value(obs::ValueMetric::kServeBatchRequests, batch.size());

  std::unique_lock lock(mutex_);
  static_cast<core::EventTally&>(stats_) = tally_;
  stats_.applied += batch.size() - failed;
  stats_.failed += failed;
  ++stats_.batches;
  stats_.max_batch = std::max<std::uint64_t>(stats_.max_batch, batch.size());
  lock.unlock();
  cv_applied_.notify_all();
}

// One request through core::apply_event. Only the unknown-task check is
// the service's own: its departures are outside input, not a validated
// sequence.
bool PartitionService::apply_one(Request& req, std::uint64_t batch_index) {
  const obs::MetricTimer apply_timer(obs::DurationMetric::kServeApplyNs);
  Placement placement;
  placement.id = req.event.task.id;
  placement.batch = batch_index;

  if (req.event.kind == core::EventKind::kDeparture &&
      !state_.is_active(req.event.task.id)) {
    // Fail THIS request only, in-band (Placement::ok = false, never
    // set_exception -- see the ServiceErrorCode comment in the header);
    // it is not recorded, so the recorded sequence stays replayable.
    placement.ok = false;
    placement.error = ServiceErrorCode::kBadRequest;
    req.promise.set_value(placement);
    return false;
  }

  const core::StepResult step = core::apply_event(
      req.event, *allocator_, state_,
      options_.record_sequence ? &recorded_ : nullptr);
  placement.size = step.size;
  placement.node = step.node;
  placement.max_load = state_.max_load();
  tally_.add(step, placement.max_load);
  req.promise.set_value(placement);
  return true;
}

}  // namespace partree::serve
