#pragma once

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "fleet/consistent_hash.h"
#include "fleet/quota.h"
#include "fleet/tenant_directory.h"
#include "serving/server.h"
#include "util/status.h"

namespace lpa::fleet {

/// \brief Fleet shape: how many AdvisorServer shards, how each is
/// configured, and the admission quota every new tenant starts with.
struct FleetConfig {
  /// Initial shard count (AdvisorServer instances; >= 1).
  int shards = 2;
  /// Virtual-node points each shard contributes to the consistent-hash ring.
  int vnodes_per_shard = 64;
  /// Per-shard server configuration (worker pool, queue, default deadline).
  serving::ServerConfig server;
  /// Admission quota applied to tenants on first sight (default unlimited).
  QuotaConfig default_quota;
};

/// \brief Resolved per-tenant accounting. Once every future a tenant
/// submitted has resolved, `submitted` equals the sum of the other five.
struct TenantStats {
  uint64_t submitted = 0;
  uint64_t quota_rejected = 0;  ///< bounced by the tenant's token bucket
  uint64_t completed = 0;
  uint64_t rejected = 0;  ///< shard admission control / shutdown
  uint64_t shed = 0;      ///< deadline passed while queued
  uint64_t failed = 0;    ///< no model published / aborted shutdown

  uint64_t accepted() const { return submitted - quota_rejected; }
  bool Settled() const {
    return submitted ==
           quota_rejected + completed + rejected + shed + failed;
  }
};

/// \brief The multi-tenant serving front end: shards tenants across N
/// in-process `AdvisorServer` instances via a consistent-hash ring, resolves
/// each request against the tenant's own `ModelRegistry` namespace, and
/// meters admission with a per-tenant token bucket so one hot tenant cannot
/// starve the rest.
///
/// Request path: quota check (reject with ResourceExhausted when the
/// bucket is dry) → ring lookup (tenant → shard, stable
/// under shard add/remove) → shard `SubmitAsync` carrying the tenant's
/// registry and stats sink. Every submitted request resolves exactly once,
/// with the same guarantees the single-tenant server gives.
///
/// Shards can be added and removed while serving: `AddShard` only pulls
/// tenants onto the new shard, `RemoveShard` drains the leaving server so
/// its queued requests complete (zero drops) — both remaps are bounded by
/// the ring's consistency property. Since every shard serves any tenant's
/// registry on demand, a tenant moving between shards needs no state
/// migration.
class FleetRouter {
 public:
  FleetRouter(TenantDirectory* directory, FleetConfig config);
  ~FleetRouter();  // Stop(kDrain)

  FleetRouter(const FleetRouter&) = delete;
  FleetRouter& operator=(const FleetRouter&) = delete;

  /// \brief Start every shard server and open admissions.
  Status Start();

  /// \brief Stop every shard (drain or abort); idempotent.
  void Stop(serving::AdvisorServer::StopMode mode =
                serving::AdvisorServer::StopMode::kDrain);

  bool running() const;

  /// \brief Submit one suggestion for `tenant`. Unknown tenants are created
  /// with the default quota and an empty model namespace (requests then fail
  /// with FailedPrecondition until something is published for them).
  std::future<serving::SuggestResponse> SubmitAsync(
      const std::string& tenant, std::vector<double> frequencies,
      double deadline_seconds = -1.0);

  /// \brief Blocking convenience wrapper around SubmitAsync.
  serving::SuggestResponse Suggest(const std::string& tenant,
                                   std::vector<double> frequencies,
                                   double deadline_seconds = -1.0);

  /// \brief Add one shard (started immediately when the router is running).
  /// Returns the new shard's id.
  uint64_t AddShard();

  /// \brief Retire a shard: its ring points vanish (tenants remap to
  /// survivors) and its server drains, completing everything it had queued.
  /// Fails on the last shard or an unknown id.
  Status RemoveShard(uint64_t shard_id);

  std::vector<uint64_t> shard_ids() const;
  size_t num_shards() const;

  /// \brief The shard currently owning `tenant` (pure ring lookup — does
  /// not create the tenant).
  uint64_t ShardOf(const std::string& tenant) const;

  /// \brief Replace `tenant`'s quota (bucket resets to the new burst).
  void SetQuota(const std::string& tenant, QuotaConfig quota);

  TenantStats tenant_stats(const std::string& tenant) const;

  /// \brief Sum of every tenant's stats.
  TenantStats totals() const;

  /// \brief Sum of every tenant's token-bucket violations — enforcement
  /// self-check, must be 0 (also exported as fleet.quota_violation.count).
  uint64_t quota_violations() const;

  TenantDirectory* directory() const { return directory_; }
  const FleetConfig& config() const { return config_; }

 private:
  struct TenantEntry {
    serving::ModelRegistry* registry = nullptr;
    TokenBucket bucket;
    std::atomic<uint64_t> submitted{0};
    std::atomic<uint64_t> quota_rejected{0};
    /// Outcome classification written by the shard server on resolution.
    serving::RequestSink sink;

    explicit TenantEntry(QuotaConfig quota) : bucket(quota) {}
  };

  struct Shard {
    uint64_t id = 0;
    std::shared_ptr<serving::AdvisorServer> server;
  };

  /// Both require mu_ held.
  TenantEntry* GetOrCreateEntryLocked(const std::string& tenant);
  std::shared_ptr<serving::AdvisorServer> ShardServerLocked(
      const std::string& tenant) const;

  TenantDirectory* directory_;
  FleetConfig config_;

  /// Guards running_, shards_, ring_, and the tenant map (entry pointers
  /// stay stable once created; their counters are atomics).
  mutable std::mutex mu_;
  bool running_ = false;
  uint64_t next_shard_id_ = 0;
  std::vector<Shard> shards_;
  ConsistentHashRing ring_;
  std::map<std::string, std::unique_ptr<TenantEntry>> tenants_;
};

}  // namespace lpa::fleet
