#pragma once

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "rl/trainer.h"
#include "serving/model_registry.h"
#include "serving/request_queue.h"
#include "util/status.h"

namespace lpa::serving {

struct ServerConfig {
  /// Worker threads pulling from the request queue. 0 is allowed (requests
  /// queue but are never served — useful for admission-control tests and
  /// staged bring-up).
  int worker_threads = 2;
  /// Bounded request queue; a full queue rejects (admission control).
  size_t queue_capacity = 256;
  /// Deadline applied to requests that do not carry their own; <= 0 = none,
  /// and so is one too far off for the steady clock to represent (+inf).
  /// Requests whose deadline passed before a worker picked them up are shed
  /// with DeadlineExceeded instead of wasting inference on a stale answer.
  double default_deadline_seconds = 0.0;
};

/// \brief One served suggestion (or the reason there is none).
struct SuggestResponse {
  Status status;
  /// Model version that produced the result (0 when rejected/shed).
  uint64_t model_version = 0;
  /// Present iff status.ok().
  std::optional<rl::InferenceResult> result;
  /// Submit-to-completion wall time.
  double latency_seconds = 0.0;
  /// Portion of the latency spent queued before a worker picked it up.
  double queue_seconds = 0.0;
};

/// \brief Per-caller outcome accounting, written by the server when each
/// request resolves (classified by the response status the caller sees).
/// The fleet router attaches one sink per tenant so per-tenant fairness is
/// observable without wrapping every future. Must outlive every request
/// submitted against it.
struct RequestSink {
  std::atomic<uint64_t> completed{0};
  std::atomic<uint64_t> rejected{0};  ///< Unavailable / ResourceExhausted
  std::atomic<uint64_t> shed{0};      ///< DeadlineExceeded
  std::atomic<uint64_t> failed{0};    ///< everything else non-OK
};

/// \brief The advisor serving layer: worker threads pull Suggest requests
/// from a bounded MPMC queue, resolve the current model from the registry
/// (RCU hot swap), and each runs its request's inference rollout itself.
///
/// Every submitted request gets exactly one response — completed, rejected
/// at admission (queue full / server stopped), shed past its deadline, or
/// failed (no model published, InvalidArgument for a frequency vector the
/// model's workload rejects, aborted shutdown); futures are never
/// abandoned. Stop(kDrain) stops admissions, lets workers finish everything
/// queued, and joins them; Stop(kAbort) fails whatever is still queued.
/// The server is restartable: Start after Stop begins a fresh queue.
class AdvisorServer {
 public:
  /// \brief `registry` is the default model namespace for requests that do
  /// not carry their own; it may be null when every request routes to an
  /// explicit registry (fleet shards), in which case registry-less requests
  /// fail with FailedPrecondition.
  AdvisorServer(ModelRegistry* registry, ServerConfig config);
  ~AdvisorServer();  // Stop(kDrain)

  AdvisorServer(const AdvisorServer&) = delete;
  AdvisorServer& operator=(const AdvisorServer&) = delete;

  /// \brief Spawn the workers and open admissions. Fails if already running.
  Status Start();

  enum class StopMode {
    kDrain,  ///< serve everything already admitted, then shut down
    kAbort,  ///< fail queued-but-unstarted requests with Unavailable
  };
  /// \brief Graceful shutdown; idempotent, safe without a prior Start.
  void Stop(StopMode mode = StopMode::kDrain);

  bool running() const;

  /// \brief Submit one suggestion request. `deadline_seconds` < 0 uses the
  /// config default; 0, or a deadline beyond the steady clock's range,
  /// disables the deadline. The returned future always resolves —
  /// immediately (with a rejection) when admission fails.
  std::future<SuggestResponse> SubmitAsync(std::vector<double> frequencies,
                                           double deadline_seconds = -1.0);

  /// \brief Multi-tenant submit: resolve the model from `registry` (the
  /// tenant's namespace) instead of the server default, and record the
  /// outcome into `sink` (optional). Both pointers must outlive the
  /// response. Null `registry` falls back to the server default.
  std::future<SuggestResponse> SubmitAsync(ModelRegistry* registry,
                                           std::vector<double> frequencies,
                                           double deadline_seconds,
                                           RequestSink* sink);

  /// \brief Blocking convenience wrapper around SubmitAsync.
  SuggestResponse Suggest(std::vector<double> frequencies,
                          double deadline_seconds = -1.0);

  /// \brief Monotonic request accounting; submitted is always the sum of
  /// the other four once every returned future has resolved.
  struct Stats {
    uint64_t submitted = 0;
    uint64_t completed = 0;
    uint64_t rejected = 0;  ///< admission control (queue full / not running)
    uint64_t shed = 0;      ///< deadline passed while queued
    uint64_t failed = 0;    ///< no model / invalid mix / aborted shutdown
  };
  Stats stats() const;

  const ServerConfig& config() const { return config_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct PendingRequest {
    std::vector<double> frequencies;
    Clock::time_point submitted_at;
    Clock::time_point deadline;  // time_point::max() = none
    std::promise<SuggestResponse> promise;
    /// Tenant namespace to serve from; null = the server's default registry.
    ModelRegistry* registry = nullptr;
    /// Per-tenant outcome accounting; null = none.
    RequestSink* sink = nullptr;
  };

  void WorkerLoop();
  void Respond(PendingRequest* request, SuggestResponse response);

  ModelRegistry* registry_;
  ServerConfig config_;

  /// Guards running_ and queue_ replacement (Start/Stop/Submit admission).
  mutable std::mutex state_mu_;
  bool running_ = false;
  std::unique_ptr<BoundedQueue<PendingRequest>> queue_;
  std::vector<std::thread> workers_;

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> failed_{0};
};

}  // namespace lpa::serving
