#pragma once

#include "costmodel/cost_cache.h"
#include "costmodel/cost_model.h"
#include "rl/environment.h"

namespace lpa::rl {

/// \brief Offline-training environment (Sec 4.1): rewards come from the
/// network-centric cost model `cm(P, q)`; no database is touched.
///
/// Query costs are memoized in a `costmodel::CostCache` keyed by the 64-bit
/// fingerprint of (query index, physical design restricted to the query's
/// tables) — the same key structure as the online Query Runtime Cache,
/// exploiting that a query's cost only depends on the states of the tables
/// it references. Fingerprints come from the state's incrementally
/// maintained per-table design hashes, so a probe costs O(|query tables|)
/// hash combines and no string construction. A training step prices the
/// whole workload through `WorkloadCost`: one memo probe per weighted query,
/// and a plan only for a (query, design) pair not seen before.
///
/// The cost model is stateless, so this environment supports parallel
/// evaluation (WorkloadCost fans per-query costs out across the context's
/// thread pool) and the pure query-cost contract (`SupportsIncrementalCost`)
/// that inference-time pruning needs.
class OfflineEnv : public PartitioningEnv {
 public:
  OfflineEnv(const costmodel::CostModel* model,
             const workload::Workload* workload);

  const workload::Workload& workload() const override { return *workload_; }

  double QueryCost(int query_index, const partition::PartitioningState& state,
                   double frequency) override;

  bool SupportsParallelEval() const override { return true; }
  bool SupportsIncrementalCost() const override { return true; }

  /// \brief Extend the per-query table lists after the workload gained
  /// queries (incremental training). NOT thread-safe; call between
  /// evaluations, never concurrently with them.
  void SyncWorkload();

  size_t cache_size() const { return cache_.size(); }
  size_t cache_hits() const { return cache_.stats().hits; }
  /// \brief Cost-model memo probes (hits + misses) — every QueryCost call
  /// probes exactly once.
  size_t evaluations() const {
    auto s = cache_.stats();
    return s.hits + s.misses;
  }

 private:
  const costmodel::CostModel* model_;
  const workload::Workload* workload_;
  /// Tables referenced per query (cache-key scope), built eagerly in the
  /// constructor and extended only by SyncWorkload(), so concurrent
  /// QueryCost calls only ever read.
  std::vector<std::vector<schema::TableId>> query_tables_;
  costmodel::CostCache cache_;
};

}  // namespace lpa::rl
