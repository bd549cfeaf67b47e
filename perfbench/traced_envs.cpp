#include "perfbench/traced_envs.h"

#include "baselines/dp_baseline.h"
#include "costmodel/cost_cache.h"
#include "telemetry/registry.h"
#include "util/hash.h"

namespace lpa::perfbench {

CostLayer::CostLayer()
    : misses_(telemetry::MetricsRegistry::Global().GetCounter(
          "costmodel.cost_cache_misses.count")) {}

double TimedOnlineEnv::QueryCost(int query_index,
                                 const partition::PartitioningState& state,
                                 double frequency) {
  const double start = Now();
  const double cost = inner_->QueryCost(query_index, state, frequency);
  seconds_ += Now() - start;
  return cost;
}

double TimedOnlineEnv::WorkloadCost(const partition::PartitioningState& state,
                                    const std::vector<double>& frequencies,
                                    EvalContext* ctx) {
  const double start = Now();
  const double cost = inner_->WorkloadCost(state, frequencies, ctx);
  seconds_ += Now() - start;
  return cost;
}

search::DpDesignerConfig DpSettings(const schema::Schema& schema) {
  search::DpDesignerConfig config;
  config.epsilon = 0.1;
  if (schema.num_tables() > 8) {
    config.max_frontier = 128;
    config.max_bound_enum = 512;
  }
  return config;
}

DpOutcome RunDpDesigner(const bench::Testbed& tb,
                        const std::vector<double>& frequencies,
                        const search::DpDesignerConfig& config,
                        CostLayer* layer) {
  DpOutcome out{search::DpResult{tb.Initial()}, 0.0};
  const double start = Now();
  if (layer == nullptr) {
    out.result = baselines::DpDesign(*tb.schema, *tb.workload, *tb.edges,
                                     *tb.exact_model, frequencies, config);
    out.wall_s = Now() - start;
    return out;
  }
  // DpDesign's memoized query cost, with each call booked in `layer`.
  const workload::Workload& workload = *tb.workload;
  std::vector<std::vector<schema::TableId>> query_tables;
  for (const auto& q : workload.queries()) query_tables.push_back(q.tables());
  costmodel::CostCache cache;
  search::DpDesigner designer(
      tb.schema.get(), &workload, tb.edges.get(),
      [&](int j, const partition::PartitioningState& s) {
        return layer->Time([&] {
          uint64_t key = HashCombine(
              Hash64(static_cast<uint64_t>(j)),
              s.DesignFingerprint(query_tables[static_cast<size_t>(j)]));
          return cache.GetOrCompute(key, [&] {
            return tb.exact_model->QueryCost(workload.query(j), s);
          });
        });
      },
      config);
  out.result = designer.Run(frequencies);
  out.wall_s = Now() - start;
  return out;
}

}  // namespace lpa::perfbench
