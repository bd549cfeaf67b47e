#pragma once

#include <cstdint>
#include <unordered_map>

#include "engine/cluster.h"
#include "rl/environment.h"

namespace lpa::rl {

/// \brief Toggles for the online-phase optimizations of Sec 4.2; Table 2 is
/// produced by training with different subsets enabled.
struct OnlineEnvOptions {
  bool use_runtime_cache = true;
  bool use_lazy_repartitioning = true;
  bool use_timeouts = true;
};

/// \brief Accounting of the (simulated) time the online training phase
/// spends on the cluster — the quantity Table 2 reports in hours.
struct OnlineAccounting {
  double query_seconds = 0.0;        ///< sample-database query execution
  double repartition_seconds = 0.0;  ///< data movement for design changes
  size_t queries_executed = 0;
  size_t cache_hits = 0;
  double timeout_saved_seconds = 0.0;  ///< execution cut off by timeouts

  double total_seconds() const { return query_seconds + repartition_seconds; }
};

/// \brief Online-training environment (Sec 4.2): rewards are measured
/// runtimes on a *sampled* cluster database, scaled per query by
/// S_i = c_full(P_offline, q_i) / c_sample(P_offline, q_i).
///
/// Implements the paper's online-phase optimizations:
///  * Query Runtime Cache keyed by the per-query relevant-table design;
///  * Lazy repartitioning: before executing query q the environment deploys
///    a hybrid design that matches the agent's state only on q's tables —
///    tables no executed query touches are never moved;
///  * Timeouts: once a best workload cost r' is known, a query whose scaled
///    runtime share exceeds -r'/(S_i f_i) is cut off (the partitioning is
///    provably worse than the best known one).
class OnlineEnv : public PartitioningEnv {
 public:
  /// \param cluster The sampled cluster; must outlive the environment.
  /// \param scale_factors Per-query S_i (empty = all 1.0).
  OnlineEnv(engine::ClusterDatabase* cluster,
            const workload::Workload* workload,
            std::vector<double> scale_factors, OnlineEnvOptions options);

  const workload::Workload& workload() const override { return *workload_; }

  double QueryCost(int query_index, const partition::PartitioningState& state,
                   double frequency) override;

  /// \brief WorkloadCost override: without lazy repartitioning the full
  /// design is deployed eagerly before any query runs; it also maintains the
  /// best-known workload cost used by the timeout rule. The queries that
  /// miss the runtime cache are deployed one by one on the calling thread,
  /// each noting the design key it is measured under, then executed as one
  /// `ExecuteQueries` batch: side by side on the exec context's pool (`ctx`'s
  /// when none is set) when two or more miss, on the calling thread when
  /// one does. Accounting, timeouts and cache inserts then follow in query
  /// order, so every result is bit-identical to executing each miss right
  /// after its deployment, at any thread count.
  double WorkloadCost(const partition::PartitioningState& state,
                      const std::vector<double>& frequencies,
                      EvalContext* ctx = nullptr) override;

  const OnlineAccounting& accounting() const { return accounting_; }
  const OnlineEnvOptions& options() const { return options_; }

  /// \brief Seed the timeout rule with the offline solution's cost (the
  /// paper computes r_offline before the online phase starts).
  void SetBestKnownCost(double cost) { best_cost_ = cost; }
  double best_known_cost() const { return best_cost_; }

  /// \brief Standing execution context whose pool runs a step's uncached
  /// queries side by side. Only the context's thread pool is used (never
  /// its RNG), so setting it speeds up measured execution without touching
  /// any training RNG stream — results stay bit-identical at every thread
  /// count. Must outlive the env or be reset to nullptr. Takes precedence
  /// over the ctx passed to WorkloadCost.
  void set_exec_context(EvalContext* ctx) { exec_ctx_ = ctx; }

 private:
  /// One query of a walk: its index and frequency in, its cost out.
  struct PricedQuery {
    int query;
    double frequency;
    double cost;
  };

  /// \brief Price `queries` (in query order) under `state` in three phases:
  /// probe the cache and deploy each miss on this thread, execute the misses
  /// as one batch on the engine, then fold accounting, timeouts and cache
  /// inserts back in query order.
  void Walk(const partition::PartitioningState& state,
            std::vector<PricedQuery>* queries, EvalContext* ctx);

  /// Deploy the parts of `state` needed before executing `query_index`.
  void DeployFor(int query_index, const partition::PartitioningState& state);

  /// Tables referenced per query; grown lazily (incremental training adds
  /// queries after construction; their scale factor defaults to 1).
  const std::vector<schema::TableId>& QueryTables(int query_index);

  engine::ClusterDatabase* cluster_;
  const workload::Workload* workload_;
  std::vector<double> scale_;
  OnlineEnvOptions options_;
  std::vector<std::vector<schema::TableId>> query_tables_;
  /// Query Runtime Cache, keyed by the fingerprint of (query index, design
  /// restricted to the query's tables).
  std::unordered_map<uint64_t, double> cache_;
  OnlineAccounting accounting_;
  double best_cost_ = -1.0;  ///< negative = unknown
  /// Standing context from set_exec_context (pool reused for every query).
  EvalContext* exec_ctx_ = nullptr;
};

/// \brief Measure the per-query scale factors S_i between the full cluster
/// and the sampled cluster under the design `p_offline` (Sec 4.2, Sampling).
/// `ctx` (optional) parallelizes the engine kernels inside each measurement.
std::vector<double> ComputeScaleFactors(
    engine::ClusterDatabase* full, engine::ClusterDatabase* sample,
    const workload::Workload& workload,
    const partition::PartitioningState& p_offline, EvalContext* ctx = nullptr);

}  // namespace lpa::rl
