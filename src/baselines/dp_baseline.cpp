#include "baselines/dp_baseline.h"

#include "costmodel/cost_cache.h"
#include "util/hash.h"

namespace lpa::baselines {

search::DpResult DpDesign(const schema::Schema& schema,
                          const workload::Workload& workload,
                          const partition::EdgeSet& edges,
                          const costmodel::CostModel& estimator,
                          const std::vector<double>& frequencies,
                          const search::DpDesignerConfig& config) {
  std::vector<std::vector<schema::TableId>> query_tables;
  query_tables.reserve(static_cast<size_t>(workload.num_queries()));
  for (const auto& q : workload.queries()) query_tables.push_back(q.tables());
  costmodel::CostCache cache;
  search::DpDesigner designer(
      &schema, &workload, &edges,
      [&](int j, const partition::PartitioningState& s) {
        uint64_t key = HashCombine(
            Hash64(static_cast<uint64_t>(j)),
            s.DesignFingerprint(query_tables[static_cast<size_t>(j)]));
        return cache.GetOrCompute(
            key, [&] { return estimator.QueryCost(workload.query(j), s); });
      },
      config,
      [&](int j, const partition::PartitioningState& s) {
        return estimator.QueryCostFloor(workload.query(j), s);
      });
  return designer.Run(frequencies);
}

search::DpResult DpDesign(const schema::Schema& schema,
                          const workload::Workload& workload,
                          const partition::EdgeSet& edges,
                          const costmodel::CostModel& estimator,
                          const search::DpDesignerConfig& config) {
  return DpDesign(schema, workload, edges, estimator, workload.frequencies(),
                  config);
}

}  // namespace lpa::baselines
