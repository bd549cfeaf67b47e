#pragma once

#include <vector>

#include "partition/partition_state.h"
#include "util/eval_context.h"
#include "workload/workload.h"

namespace lpa::rl {

/// \brief Reward source for the DQN agent: something that can price a query
/// under a partitioning (the cost-model simulation offline, the sampled
/// cluster online).
class PartitioningEnv {
 public:
  virtual ~PartitioningEnv() = default;

  virtual const workload::Workload& workload() const = 0;

  /// \brief Cost (seconds, full-database scale) of query `query_index` under
  /// `state`. `frequency` is the query's current workload frequency — the
  /// online environment needs it for the timeout optimization (Sec 4.2).
  virtual double QueryCost(int query_index,
                           const partition::PartitioningState& state,
                           double frequency) = 0;

  /// \brief Frequency-weighted workload cost `sum_j f_j * c(P, q_j)`.
  /// Entries with zero frequency are skipped (and never executed).
  ///
  /// When `ctx` carries a thread pool and the environment reports
  /// SupportsParallelEval(), per-query costs are evaluated concurrently;
  /// each cost lands in its query's slot and the weighted sum is reduced in
  /// query order, so the result is bit-identical to the serial loop.
  virtual double WorkloadCost(const partition::PartitioningState& state,
                              const std::vector<double>& frequencies,
                              EvalContext* ctx = nullptr);

  /// \brief Whether QueryCost may be called from multiple threads at once.
  /// Environments with per-call mutable state (the online env deploys
  /// designs and accounts runtimes) must return false; they are always
  /// evaluated serially regardless of the context's thread count.
  virtual bool SupportsParallelEval() const { return false; }

  /// \brief Whether QueryCost is a pure, frequency-independent function of
  /// (query, designs of the query's tables) — the `costmodel::QueryCostFn`
  /// contract. `search::ActionPruner`'s bounds rely on it: inference prunes
  /// rollouts only on environments that return true. The online environment
  /// must return false: its costs carry per-call noise, timeout effects, and
  /// runtime accounting.
  virtual bool SupportsIncrementalCost() const { return false; }
};

}  // namespace lpa::rl
