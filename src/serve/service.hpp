// The online partition service: a long-lived front-end for the paper's
// actual setting, where users ARRIVE at a time-shared partitionable
// machine and request submachines, instead of replaying a pre-built
// TaskSequence in batch.
//
// Many client threads call submit_arrival(size) / submit_departure(id);
// requests are admitted -- in a single global admission order -- into a
// bounded MPSC queue (a full queue blocks or rejects, per
// BackpressureMode). One apply thread drains it in admission order into
// EPOCH BATCHES (closed at the batch-size cap or when the queue runs
// empty; flush()/drain() force the point), applies each request through
// core::apply_event (core/step.hpp) -- the step Engine::run calls too --
// and completes the request's future with its placement and post-apply
// load. The paper's dN trigger lives inside the allocator's
// maybe_reallocate, so epoch accounting runs ACROSS batches, and a serial
// Engine::run replay of the recorded sequence reaches the same final
// digest (the Serve differential tests pin this under TSan). stop() is
// graceful: every admitted request is answered, then the final digest is
// published in the stats.
//
// Observability (docs/OBSERVABILITY.md): serve_queue_wait_ns and
// serve_apply_ns per request, serve_batch_requests per batch, a
// queue-depth high-watermark gauge and one kServeBatch instant per batch.
#pragma once

#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include <condition_variable>
#include <mutex>

#include "core/allocator.hpp"
#include "core/machine_state.hpp"
#include "core/sequence.hpp"
#include "core/step.hpp"
#include "tree/topology.hpp"

namespace partree::serve {

/// What happens to a submitter when the request queue is full.
enum class BackpressureMode : std::uint8_t {
  /// Park the submitting thread until space frees (or the configured
  /// deadline passes, which throws ServiceError::kTimeout).
  kBlock = 0,
  /// Fail the submission immediately with ServiceError::kQueueFull.
  kReject,
};

/// Typed submission failures. Requests that were never admitted (the
/// queue stayed full, the service stopped) throw from submit_*;
/// per-request application failures (e.g. departing an unknown task)
/// surface in-band through the request's future -- a Placement with
/// `ok == false` (Placement::throw_if_failed rethrows as a typed
/// ServiceError on the consumer's own thread) -- so one bad request
/// never poisons its neighbours. In-band rather than set_exception on
/// purpose: an exception_ptr's last reference can be dropped by the
/// apply thread while the submitter examines the exception object, a
/// cross-thread handoff that cannot be shown race-free (libstdc++'s
/// exception refcounting is uninstrumented under TSan).
enum class ServiceErrorCode : std::uint8_t {
  kQueueFull = 0,  ///< kReject backpressure: no space at submission
  kTimeout,        ///< kBlock backpressure: deadline passed, still full
  kStopped,        ///< submitted after stop() (or while blocked when it hit)
  kBadRequest,     ///< invalid size / unknown or already-departed task
};

[[nodiscard]] std::string_view service_error_name(
    ServiceErrorCode code) noexcept;

class ServiceError : public std::runtime_error {
 public:
  ServiceError(ServiceErrorCode code, const std::string& what)
      : std::runtime_error(what), code_(code) {}

  [[nodiscard]] ServiceErrorCode code() const noexcept { return code_; }

 private:
  ServiceErrorCode code_;
};

struct ServiceOptions {
  /// Bounded request-queue capacity (backpressure beyond this).
  std::size_t queue_capacity = 1024;
  /// Epoch-batch cap: the apply thread drains at most this many requests
  /// per batch (it also closes a batch early when the queue runs empty).
  std::size_t batch_size = 64;
  BackpressureMode backpressure = BackpressureMode::kBlock;
  /// kBlock only: longest a submitter may park waiting for space, in
  /// milliseconds; 0 waits forever.
  std::uint64_t block_timeout_ms = 0;
  /// Record the admitted (applied) sequence for differential replay
  /// through Engine::run. O(1 event) memory per applied request, kept
  /// for the service's lifetime, so off by default.
  bool record_sequence = false;
};

/// Completed-request payload carried by the future: where the task lives
/// (lived, for departures), the machine max load right after this request
/// was applied, and the epoch batch that applied it.
struct Placement {
  core::TaskId id = core::kInvalidTask;
  std::uint64_t size = 0;
  tree::NodeId node = tree::kInvalidNode;
  /// MachineState::max_load() immediately after this request applied.
  std::uint64_t max_load = 0;
  /// 0-based index of the epoch batch that applied this request.
  std::uint64_t batch = 0;
  /// false when the request could not be applied (departure of an
  /// unknown or inactive task); `error` then says why and the
  /// state-changing fields above are meaningless.
  bool ok = true;
  ServiceErrorCode error = ServiceErrorCode::kBadRequest;

  /// Rethrows a failed apply as the typed ServiceError it would have
  /// been; no-op when ok.
  void throw_if_failed() const {
    if (!ok) {
      throw ServiceError(error, "request for task " + std::to_string(id) +
                                    " failed to apply: " +
                                    std::string(service_error_name(error)));
    }
  }
};

/// An admitted arrival: the task id is assigned at admission (so clients
/// can name the task before it is placed), the future completes at apply.
struct ArrivalTicket {
  core::TaskId id = core::kInvalidTask;
  std::future<Placement> placed;
};

/// Point-in-time service accounting on top of the event tally shared
/// with sim::SimResult; final_digest/optimal_load are meaningful once
/// stop() has returned.
struct ServiceStats : core::EventTally {
  std::uint64_t admitted = 0;  ///< requests accepted into the queue
  std::uint64_t applied = 0;   ///< futures completed with a Placement
  std::uint64_t failed = 0;    ///< futures completed with a ServiceError
  std::uint64_t rejected = 0;  ///< submissions refused (full/timeout)
  std::uint64_t batches = 0;   ///< epoch batches applied
  std::uint64_t max_batch = 0;
  /// ceil(peak active size / N) at stop (the paper's L*).
  std::uint64_t optimal_load = 0;
  /// Canonical MachineState digest at stop; compare against the
  /// Engine::run final_digest of the recorded sequence.
  std::uint64_t final_digest = 0;
};

class PartitionService {
 public:
  /// Takes ownership of the allocator (reset() is called, as in
  /// Engine::run) and starts the apply thread immediately.
  PartitionService(tree::Topology topo, core::AllocatorPtr allocator,
                   ServiceOptions options = {});
  /// stop()s if the caller has not; all admitted requests are answered.
  ~PartitionService();

  PartitionService(const PartitionService&) = delete;
  PartitionService& operator=(const PartitionService&) = delete;

  /// Admits an arrival of `size` PEs (power of two, 1..N; anything else
  /// throws kBadRequest without touching the queue). Returns the
  /// admission-order task id plus the future that completes when the
  /// request is applied. Throws kQueueFull/kTimeout/kStopped per the
  /// backpressure configuration.
  [[nodiscard]] ArrivalTicket submit_arrival(std::uint64_t size);

  /// Admits a departure of a previously admitted task. When the task is
  /// not active at apply time (never arrived or already departed) the
  /// future completes with Placement::ok == false / kBadRequest.
  [[nodiscard]] std::future<Placement> submit_departure(core::TaskId id);

  /// Blocks until every request admitted BEFORE this call has applied
  /// (forcing the current partial batch out). No-op after stop().
  void flush();

  /// Blocks until the queue is empty and every admitted request has
  /// applied. Unlike flush(), requests admitted concurrently with the
  /// wait are covered too (it re-checks until admitted == applied).
  void drain();

  /// Graceful shutdown: refuses new submissions (parked submitters throw
  /// kStopped), lets the apply thread answer everything already
  /// admitted, joins it, and publishes the final state digest in
  /// stats(). Idempotent.
  void stop();

  [[nodiscard]] ServiceStats stats() const;

  [[nodiscard]] const tree::Topology& topology() const noexcept {
    return topo_;
  }
  [[nodiscard]] std::size_t queue_depth() const;

  /// The admitted-and-applied sequence, in admission order. Requires
  /// ServiceOptions::record_sequence (asserts otherwise). Only call after
  /// stop(): the apply thread owns the sequence while it runs.
  [[nodiscard]] const core::TaskSequence& recorded() const;

  /// TEST-ONLY: parks the apply thread after its current batch so tests
  /// can fill the bounded queue deterministically (backpressure paths)
  /// or count batches; resume() releases it. Never pause around flush()
  /// or drain() on the same thread -- they would wait forever.
  void pause_applying();
  void resume_applying();

 private:
  struct Request {
    core::Event event;
    std::uint64_t enqueue_ns = 0;  ///< 0 unless duration metrics armed
    std::promise<Placement> promise;
  };

  /// Shared admission path; an arrival's id is assigned here.
  [[nodiscard]] ArrivalTicket admit(core::Event event);
  void apply_loop();
  void apply_batch(std::deque<Request>& batch, std::uint64_t batch_index);
  /// Applies one request and completes its future; false when it failed
  /// in-band (departure of an inactive task).
  bool apply_one(Request& req, std::uint64_t batch_index);

  tree::Topology topo_;
  core::AllocatorPtr allocator_;
  ServiceOptions options_;

  // Apply-thread-only state (read by others strictly after the join in
  // stop()).
  core::MachineState state_;
  core::TaskSequence recorded_;
  core::EventTally tally_;  ///< published into stats_ after each batch

  mutable std::mutex mutex_;
  std::condition_variable cv_space_;    ///< submitters: queue has room
  std::condition_variable cv_work_;     ///< apply thread: work or stop
  std::condition_variable cv_applied_;  ///< flush()/drain() waiters
  std::deque<Request> queue_;
  ServiceStats stats_;
  core::TaskId next_id_ = 0;
  bool accepting_ = true;
  bool stopping_ = false;
  bool stopped_ = false;
  bool paused_ = false;

  std::thread apply_thread_;
};

}  // namespace partree::serve
