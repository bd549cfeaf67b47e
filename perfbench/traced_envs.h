#pragma once

// Timing decorators over the advisor's public interfaces. The traced pass
// routes every cost evaluation through them, so the time spent in the cost
// model, the engine and everything else (the learner) can be told apart
// without instrumenting the program itself. Each decorator returns exactly
// what the wrapped object returns.

#include <cstdint>
#include <vector>

#include "bench/bench_common.h"
#include "perfbench/perfbench.h"
#include "rl/online_env.h"
#include "search/dp_designer.h"
#include "telemetry/metric.h"

namespace lpa::perfbench {

/// \brief Time spent answering query-cost requests, split by whether the
/// CostCache already held the answer (a probe) or the planner had to run
/// (a plan). A call counts as a plan when it moved
/// `costmodel.cost_cache_misses.count`; the traced pass is serial, so the
/// attribution is exact.
class CostLayer {
 public:
  CostLayer();

  /// Runs `fn` (one query-cost evaluation) and books its wall time.
  template <typename Fn>
  double Time(Fn&& fn) {
    const uint64_t misses = misses_.value();
    const double start = Now();
    const double cost = fn();
    const double elapsed = Now() - start;
    if (misses_.value() != misses) {
      plan_s += elapsed;
      ++plans;
    } else {
      cache_s += elapsed;
      ++hits;
    }
    return cost;
  }

  double total_s() const { return plan_s + cache_s; }

  double plan_s = 0.0;
  double cache_s = 0.0;
  uint64_t plans = 0;
  uint64_t hits = 0;

 private:
  const telemetry::Counter& misses_;
};

/// \brief Decorator over an incremental-cost environment (`rl::OfflineEnv`)
/// that books every QueryCost call in a CostLayer. It reports the wrapped
/// environment's capabilities, so trainers take the same code paths (and
/// draw the same random numbers) as on the bare environment.
class TimedCostEnv : public rl::PartitioningEnv {
 public:
  TimedCostEnv(rl::PartitioningEnv* inner, CostLayer* layer)
      : inner_(inner), layer_(layer) {}

  const workload::Workload& workload() const override {
    return inner_->workload();
  }
  double QueryCost(int query_index, const partition::PartitioningState& state,
                   double frequency) override {
    return layer_->Time(
        [&] { return inner_->QueryCost(query_index, state, frequency); });
  }
  bool SupportsParallelEval() const override {
    return inner_->SupportsParallelEval();
  }
  bool SupportsIncrementalCost() const override {
    return inner_->SupportsIncrementalCost();
  }

 private:
  rl::PartitioningEnv* inner_;
  CostLayer* layer_;
};

/// \brief Decorator over `rl::OnlineEnv` that times its WorkloadCost (the
/// entry point trainers and Suggest use on this environment: deploy, execute
/// on the sampled cluster, consult the runtime cache).
class TimedOnlineEnv : public rl::PartitioningEnv {
 public:
  explicit TimedOnlineEnv(rl::OnlineEnv* inner) : inner_(inner) {}

  const workload::Workload& workload() const override {
    return inner_->workload();
  }
  double QueryCost(int query_index, const partition::PartitioningState& state,
                   double frequency) override;
  double WorkloadCost(const partition::PartitioningState& state,
                      const std::vector<double>& frequencies,
                      EvalContext* ctx = nullptr) override;
  bool SupportsParallelEval() const override {
    return inner_->SupportsParallelEval();
  }
  bool SupportsIncrementalCost() const override {
    return inner_->SupportsIncrementalCost();
  }

  /// Wall time spent inside the wrapped environment so far.
  double seconds() const { return seconds_; }

 private:
  rl::OnlineEnv* inner_;
  double seconds_ = 0.0;
};

/// One designer run: its result and wall time.
struct DpOutcome {
  search::DpResult result;
  double wall_s = 0.0;
};

/// \brief `baselines::DpDesign` against the testbed's exact cost model,
/// with the designer's query-cost function booked in `layer` when non-null.
/// Both forms memoize per-query costs in a fresh CostCache, as DpDesign
/// does, so they explore the same nodes and return the same design.
DpOutcome RunDpDesigner(const bench::Testbed& tb,
                        const std::vector<double>& frequencies,
                        const search::DpDesignerConfig& config,
                        CostLayer* layer);

/// exp1's DP settings: ε = 0.1, beam-limited above 8 tables.
search::DpDesignerConfig DpSettings(const schema::Schema& schema);

}  // namespace lpa::perfbench
