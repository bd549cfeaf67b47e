#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <vector>

#include "serving/server.h"

namespace lpa::serving {

/// \brief Sends one request for `tenant` (always 0 with one tenant) and
/// returns its future. Bind it to `AdvisorServer::SubmitAsync` (ignoring the
/// tenant) or to `fleet::FleetRouter::SubmitAsync` (naming the tenant).
using SubmitFn = std::function<std::future<SuggestResponse>(
    int tenant, std::vector<double> mix, double deadline_seconds)>;

/// \brief Traffic shape of one load generator run: random workload-frequency
/// vectors, either closed-loop (a fixed set of clients, each waiting for its
/// response before sending the next request — models a capped connection
/// pool) or open-loop (requests fired on a fixed arrival schedule at a
/// target QPS regardless of completions — models internet traffic and
/// exposes queueing collapse). With more than one tenant, each request's
/// tenant is drawn from a Zipf popularity ranking (tenant 0 hottest), so a
/// few hot tenants dominate while a long tail trickles.
struct LoadgenOptions {
  bool open_loop = false;
  /// Closed-loop concurrent clients.
  int clients = 4;
  /// Open-loop target arrival rate (uniform interarrival spacing).
  double qps = 50.0;
  double duration_seconds = 2.0;
  /// Per-request deadline; <= 0 uses the server default.
  double deadline_seconds = -1.0;
  /// Seed of the request stream (closed-loop client i forks seed ^ i).
  uint64_t seed = 42;
  /// Dimension of the frequency vectors (the workload's query count).
  int num_queries = 1;
  /// Tenants; with one, no tenant is drawn and the stream is mixes only.
  int tenants = 1;
  /// Zipf exponent of the tenant-popularity distribution (0 = uniform).
  double zipf_theta = 1.2;
};

/// \brief Outcome counts and latency distribution of one run, or of one
/// tenant's share of it.
struct LoadgenReport {
  uint64_t submitted = 0;
  /// ResourceExhausted: bounced by the tenant's token bucket.
  uint64_t quota_rejected = 0;
  uint64_t completed = 0;
  /// Unavailable: admission control or shutdown.
  uint64_t rejected = 0;
  /// DeadlineExceeded: the deadline passed while queued.
  uint64_t shed = 0;
  uint64_t failed = 0;
  double wall_seconds = 0.0;
  /// Completed requests per wall-clock second.
  double throughput_qps = 0.0;
  /// Latency of completed requests (seconds); NaN when none completed. An
  /// open-loop request counts from its due time on the schedule, so a
  /// dispatcher that falls behind shows in the latency.
  double latency_p50 = 0.0, latency_p95 = 0.0, latency_p99 = 0.0;
  double latency_mean = 0.0, latency_max = 0.0;
  /// Open loop: the furthest behind its schedule a request was sent
  /// (seconds); 0 in a closed loop.
  double max_lateness_seconds = 0.0;
  /// Completed requests per (tenant-local) model version.
  std::map<uint64_t, uint64_t> completed_per_version;
  /// The same report over each tenant's requests, indexed by tenant.
  std::vector<LoadgenReport> per_tenant;

  /// \brief Every submitted request resolved into exactly one bucket, in the
  /// aggregate and per tenant, and the per-version counts add up.
  bool CountersConsistent() const;
};

/// \brief Replay load through `submit` for the configured duration.
/// `at_halftime` (optional) runs once on a side thread halfway through —
/// the hook used to hot-swap models under load.
LoadgenReport RunLoadgen(const SubmitFn& submit, const LoadgenOptions& options,
                         const std::function<void()>& at_halftime = nullptr);

}  // namespace lpa::serving
