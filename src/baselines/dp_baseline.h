#pragma once

#include <vector>

#include "costmodel/cost_model.h"
#include "partition/partition_state.h"
#include "search/dp_designer.h"
#include "workload/workload.h"

namespace lpa::baselines {

/// \brief Bounded-suboptimality design baseline (src/search/): cost-window
/// DP + branch-and-bound over per-table designs against `estimator`'s cost.
/// Unlike the Minimum-Optimizer hill climber, the result carries a
/// certificate: when `DpResult::certified`, the returned design's cost is
/// within (1+ε) of the optimum under the estimator — exactly optimal at
/// ε = 0. Per-query estimates are memoized in a fingerprint-keyed CostCache,
/// as in the hill climber and the offline environment. The designer's bounds
/// take `CostModel::QueryCostFloor` to skip combinations that cannot lower
/// them; the result is bit-identical to pricing every combination.
///
/// Feed it a NoisyOptimizerModel for a "classical advisor with modern
/// search" comparison, or the exact CostModel for a true-optimum anchor.
search::DpResult DpDesign(const schema::Schema& schema,
                          const workload::Workload& workload,
                          const partition::EdgeSet& edges,
                          const costmodel::CostModel& estimator,
                          const std::vector<double>& frequencies,
                          const search::DpDesignerConfig& config = {});

/// \brief Overload using the workload's own frequency vector.
search::DpResult DpDesign(const schema::Schema& schema,
                          const workload::Workload& workload,
                          const partition::EdgeSet& edges,
                          const costmodel::CostModel& estimator,
                          const search::DpDesignerConfig& config = {});

}  // namespace lpa::baselines
