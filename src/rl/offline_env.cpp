#include "rl/offline_env.h"

#include "util/hash.h"

namespace lpa::rl {

double PartitioningEnv::WorkloadCost(const partition::PartitioningState& state,
                                     const std::vector<double>& frequencies,
                                     EvalContext* ctx) {
  const int num_queries = workload().num_queries();
  auto freq_at = [&frequencies](int j) {
    return j < static_cast<int>(frequencies.size())
               ? frequencies[static_cast<size_t>(j)]
               : 0.0;
  };
  if (ctx != nullptr && ctx->pool() != nullptr && SupportsParallelEval()) {
    // Fan out: each query's cost lands in its own slot, then the weighted
    // sum runs in query order — bit-identical to the serial loop below.
    std::vector<double> costs(static_cast<size_t>(num_queries), 0.0);
    ctx->pool()->ParallelFor(
        static_cast<size_t>(num_queries), 1, [&](size_t begin, size_t end) {
          for (size_t j = begin; j < end; ++j) {
            double f = freq_at(static_cast<int>(j));
            if (f <= 0.0) continue;
            costs[j] = QueryCost(static_cast<int>(j), state, f);
          }
        });
    double total = 0.0;
    for (int j = 0; j < num_queries; ++j) {
      double f = freq_at(j);
      if (f <= 0.0) continue;
      total += f * costs[static_cast<size_t>(j)];
    }
    return total;
  }
  double total = 0.0;
  for (int j = 0; j < num_queries; ++j) {
    double f = freq_at(j);
    if (f <= 0.0) continue;
    total += f * QueryCost(j, state, f);
  }
  return total;
}

OfflineEnv::OfflineEnv(const costmodel::CostModel* model,
                       const workload::Workload* workload)
    : model_(model), workload_(workload) {
  SyncWorkload();
}

void OfflineEnv::SyncWorkload() {
  while (static_cast<int>(query_tables_.size()) < workload_->num_queries()) {
    query_tables_.push_back(
        workload_->query(static_cast<int>(query_tables_.size())).tables());
  }
}

double OfflineEnv::QueryCost(int query_index,
                             const partition::PartitioningState& state,
                             double /*frequency*/) {
  const auto& tables = query_tables_[static_cast<size_t>(query_index)];
  uint64_t key = HashCombine(Hash64(static_cast<uint64_t>(query_index)),
                             state.DesignFingerprint(tables));
  return cache_.GetOrCompute(key, [&] {
    return model_->QueryCost(workload_->query(query_index), state);
  });
}

}  // namespace lpa::rl
