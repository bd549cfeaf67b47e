#include "search/action_pruner.h"

#include <algorithm>
#include <functional>
#include <limits>

#include "search/bounds.h"
#include "util/logging.h"

namespace lpa::search {

ActionPruner::ActionPruner(const schema::Schema* schema,
                           const workload::Workload* workload,
                           const partition::EdgeSet* edges,
                           costmodel::QueryCostFn query_cost,
                           ActionPrunerConfig config)
    : schema_(schema), query_cost_(std::move(query_cost)), config_(config) {
  LPA_CHECK(config_.prune_epsilon >= 0.0);
  minq_ = ComputeQueryLowerBounds(*schema_, *workload, *edges, query_cost_,
                                  config_.max_bound_enum);
  for (const auto& q : workload->queries()) query_tables_.push_back(q.tables());
}

double ActionPruner::GlobalLowerBound(
    const std::vector<double>& frequencies) const {
  return WeightedLowerBound(minq_, frequencies);
}

std::unique_ptr<ActionPruner::Session> ActionPruner::NewSession() const {
  return std::unique_ptr<Session>(new Session(this));
}

namespace {

double FreqAt(const std::vector<double>& frequencies, size_t j) {
  return j < frequencies.size() ? frequencies[j] : 0.0;
}

}  // namespace

double ActionPruner::Session::PriceExact(
    const partition::PartitioningState& state,
    const std::vector<schema::TableId>& affected,
    const std::vector<double>& frequencies) {
  return PriceOrPrune(state, affected, frequencies,
                      std::numeric_limits<double>::infinity())
      .cost;
}

double ActionPruner::Session::LowerBound(
    const std::vector<double>& frequencies) const {
  const std::vector<double>& minq = owner_->minq_;
  std::vector<char> drifted(static_cast<size_t>(owner_->schema_->num_tables()),
                            0);
  for (schema::TableId t : pending_) drifted[static_cast<size_t>(t)] = 1;
  double total = 0.0;
  for (size_t j = 0; j < minq.size(); ++j) {
    const double f = FreqAt(frequencies, j);
    if (f <= 0.0) continue;
    bool touched = costs_.empty();
    for (schema::TableId t : owner_->query_tables_[j]) {
      touched = touched || drifted[static_cast<size_t>(t)] != 0;
    }
    total += f * (touched ? minq[j] : costs_[j]);
  }
  return total;
}

ActionPruner::Session::PriceResult ActionPruner::Session::PriceOrPrune(
    const partition::PartitioningState& state,
    const std::vector<schema::TableId>& affected,
    const std::vector<double>& frequencies, double threshold) {
  Defer(affected);
  if (threshold < std::numeric_limits<double>::infinity()) {
    const double lb = LowerBound(frequencies);
    if (lb * (1.0 + owner_->config_.prune_epsilon) >= threshold) {
      // The bound already rules out beating the threshold; leave the state
      // unpriced and keep the drifted tables for the next exact pricing.
      return PriceResult{lb, false};
    }
  }
  // Exact pricing, reduced in query order with the f <= 0 skip rule of
  // PartitioningEnv::WorkloadCost, so totals carry its bits.
  const std::vector<double>& minq = owner_->minq_;
  costs_.resize(minq.size());
  double total = 0.0;
  for (size_t j = 0; j < minq.size(); ++j) {
    const double f = FreqAt(frequencies, j);
    if (f <= 0.0) {
      costs_[j] = minq[j];
      continue;
    }
    costs_[j] = owner_->query_cost_(static_cast<int>(j), state);
    total += f * costs_[j];
  }
  pending_.clear();
  last_total_ = total;
  return PriceResult{total, true};
}

double ActionPruner::Session::ReachableLowerBound(
    const std::vector<double>& frequencies, int horizon) const {
  LPA_CHECK(synced());
  if (horizon <= 0) return last_total_;
  const size_t num_tables = static_cast<size_t>(owner_->schema_->num_tables());
  // potential(t): the most the total can drop if table t is re-designed —
  // every query on t falls from its current cost to its floor. A query on
  // two re-designed tables is counted twice, which only loosens the bound.
  // Each table's sum runs in query order.
  std::vector<double> potentials(num_tables, 0.0);
  for (size_t j = 0; j < costs_.size(); ++j) {
    const double f = FreqAt(frequencies, j);
    if (f <= 0.0) continue;
    const double drop = f * std::max(0.0, costs_[j] - owner_->minq_[j]);
    for (schema::TableId t : owner_->query_tables_[j]) {
      potentials[static_cast<size_t>(t)] += drop;
    }
  }
  // Each action re-designs at most two tables, so within the horizon at
  // most min(2·horizon, T) tables can move: subtract the largest potentials.
  size_t movable = std::min(num_tables, static_cast<size_t>(horizon) * 2);
  std::partial_sort(potentials.begin(),
                    potentials.begin() + static_cast<long>(movable),
                    potentials.end(), std::greater<double>());
  double drop = 0.0;
  for (size_t i = 0; i < movable; ++i) drop += potentials[i];
  return last_total_ - drop;
}

}  // namespace lpa::search
