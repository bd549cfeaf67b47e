#include "rl/online_env.h"

#include <algorithm>

#include "telemetry/registry.h"
#include "util/hash.h"
#include "util/logging.h"

namespace lpa::rl {

namespace {

struct OnlineEnvMetrics {
  telemetry::Counter& queries_executed;
  telemetry::Counter& cache_hits;
  telemetry::Counter& timeout_saved;

  static OnlineEnvMetrics& Get() {
    auto& reg = telemetry::MetricsRegistry::Global();
    static OnlineEnvMetrics* m = new OnlineEnvMetrics{
        reg.GetCounter("rl.online_queries_executed.count"),
        reg.GetCounter("rl.online_cache_hits.count"),
        reg.GetCounter("rl.online_timeout_saved.seconds")};
    return *m;
  }
};

}  // namespace

OnlineEnv::OnlineEnv(engine::ClusterDatabase* cluster,
                     const workload::Workload* workload,
                     std::vector<double> scale_factors,
                     OnlineEnvOptions options)
    : cluster_(cluster),
      workload_(workload),
      scale_(std::move(scale_factors)),
      options_(options) {
  if (scale_.empty()) {
    scale_.assign(static_cast<size_t>(workload->num_queries()), 1.0);
  }
  LPA_CHECK(scale_.size() == static_cast<size_t>(workload->num_queries()));
}

const std::vector<schema::TableId>& OnlineEnv::QueryTables(int query_index) {
  while (static_cast<int>(query_tables_.size()) <= query_index) {
    query_tables_.push_back(
        workload_->query(static_cast<int>(query_tables_.size())).tables());
  }
  while (query_tables_.size() > scale_.size()) scale_.push_back(1.0);
  return query_tables_[static_cast<size_t>(query_index)];
}

void OnlineEnv::DeployFor(int query_index,
                          const partition::PartitioningState& state) {
  const auto& deployed = cluster_->deployed_design();
  std::vector<partition::TablePartition> design;
  if (deployed.has_value()) {
    design = deployed->table_partitions();
  } else {
    design = state.table_partitions();
  }
  // Override only the tables the query touches (lazy repartitioning).
  for (schema::TableId t : QueryTables(query_index)) {
    design[static_cast<size_t>(t)] = state.table_partition(t);
  }
  auto hybrid = partition::PartitioningState::FromDesign(
      &state.schema(), &state.edges(), design);
  accounting_.repartition_seconds += cluster_->ApplyDesign(hybrid);
}

void OnlineEnv::Walk(const partition::PartitioningState& state,
                     std::vector<PricedQuery>* queries, EvalContext* ctx) {
  // Phase 1, in query order on this thread: probe the runtime cache, deploy
  // each miss's tables and note the design key the miss is measured under,
  // the one its own deployment left.
  std::vector<size_t> misses;
  std::vector<uint64_t> keys;
  std::vector<engine::QueryRun> runs;
  size_t hits = 0;
  for (size_t k = 0; k < queries->size(); ++k) {
    PricedQuery& p = (*queries)[k];
    const uint64_t key =
        HashCombine(Hash64(static_cast<uint64_t>(p.query)),
                    state.DesignFingerprint(QueryTables(p.query)));
    if (options_.use_runtime_cache) {
      auto it = cache_.find(key);
      if (it != cache_.end()) {
        p.cost = it->second;
        ++hits;
        continue;
      }
    }
    if (options_.use_lazy_repartitioning) {
      DeployFor(p.query, state);
    } else {
      accounting_.repartition_seconds += cluster_->ApplyDesign(state);
    }
    misses.push_back(k);
    keys.push_back(key);
    runs.push_back(
        {&workload_->query(p.query), cluster_->deployed_design_key()});
  }
  OnlineEnvMetrics& metrics = OnlineEnvMetrics::Get();
  accounting_.cache_hits += hits;
  if (hits > 0) metrics.cache_hits.Add(hits);
  if (runs.empty()) return;

  // Phase 2: execute the misses. Later deployments only placed tables the
  // way `state` places them, so each miss still finds its tables as its own
  // deployment left them. Two or more run side by side on the pool (only
  // its pool is used, never a context's RNG). A lone miss runs on this
  // thread: fanning its per-node kernels out as well left the pool threads
  // with larger heaps and measured no faster.
  EvalContext* exec = exec_ctx_ != nullptr ? exec_ctx_ : ctx;
  const std::vector<engine::QueryRunStats> stats =
      cluster_->ExecuteQueries(runs, runs.size() > 1 ? exec : nullptr);
  accounting_.queries_executed += runs.size();
  metrics.queries_executed.Add(runs.size());

  // Phase 3, in query order: accounting, the timeout rule and the cache.
  for (size_t m = 0; m < misses.size(); ++m) {
    PricedQuery& p = (*queries)[misses[m]];
    const double scale = scale_[static_cast<size_t>(p.query)];
    const double sample_seconds = stats[m].seconds;
    const double scaled = scale * sample_seconds;
    double charged = sample_seconds;
    // Timeout rule: a single query whose weighted share exceeds the best
    // known workload cost proves the partitioning inferior; cut execution
    // there.
    if (options_.use_timeouts && best_cost_ > 0.0 && p.frequency > 0.0) {
      const double budget_scaled = best_cost_ / p.frequency;
      if (scaled > budget_scaled) {
        charged = budget_scaled / scale;
        accounting_.timeout_saved_seconds += sample_seconds - charged;
        metrics.timeout_saved.AddSeconds(sample_seconds - charged);
      }
    }
    accounting_.query_seconds += charged;
    // A cut query's true (uncut) cost enters the cache too, so later mixes
    // reuse it.
    cache_.emplace(keys[m], scaled);
    p.cost = scaled;
  }
}

double OnlineEnv::QueryCost(int query_index,
                            const partition::PartitioningState& state,
                            double frequency) {
  std::vector<PricedQuery> one = {{query_index, frequency, 0.0}};
  Walk(state, &one, nullptr);
  return one[0].cost;
}

double OnlineEnv::WorkloadCost(const partition::PartitioningState& state,
                               const std::vector<double>& frequencies,
                               EvalContext* ctx) {
  if (!options_.use_lazy_repartitioning) {
    accounting_.repartition_seconds += cluster_->ApplyDesign(state);
  }
  std::vector<PricedQuery> queries;
  const size_t num_queries = static_cast<size_t>(workload_->num_queries());
  for (size_t j = 0; j < num_queries && j < frequencies.size(); ++j) {
    if (frequencies[j] > 0.0) {
      queries.push_back({static_cast<int>(j), frequencies[j], 0.0});
    }
  }
  Walk(state, &queries, ctx);
  double total = 0.0;
  for (const PricedQuery& p : queries) total += p.frequency * p.cost;
  if (best_cost_ < 0.0 || total < best_cost_) best_cost_ = total;
  return total;
}

std::vector<double> ComputeScaleFactors(
    engine::ClusterDatabase* full, engine::ClusterDatabase* sample,
    const workload::Workload& workload,
    const partition::PartitioningState& p_offline, EvalContext* ctx) {
  full->ApplyDesign(p_offline);
  sample->ApplyDesign(p_offline);
  std::vector<double> scale;
  scale.reserve(static_cast<size_t>(workload.num_queries()));
  for (const auto& q : workload.queries()) {
    double c_full = full->ExecuteQuery(q, ctx).seconds;
    double c_sample = sample->ExecuteQuery(q, ctx).seconds;
    scale.push_back(c_sample > 0.0 ? c_full / c_sample : 1.0);
  }
  return scale;
}

}  // namespace lpa::rl
