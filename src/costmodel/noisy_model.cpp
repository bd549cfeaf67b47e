#include "costmodel/noisy_model.h"

#include <algorithm>
#include <cmath>

#include "util/hash.h"
#include "util/rng.h"

namespace lpa::costmodel {

namespace {

/// Factors the noise memo may hold before it is wiped wholesale. One entry
/// per (query name, join, depth) actually planned; TPC-CH needs fewer than
/// a thousand.
constexpr size_t kNoiseMemoMaxEntries = 1 << 16;

}  // namespace

size_t NoisyOptimizerModel::NoiseKeyHash::operator()(const NoiseKey& k) const {
  uint64_t h = HashCombine(k.name_hash, static_cast<uint64_t>(k.join_index));
  return static_cast<size_t>(
      HashCombine(h, static_cast<uint64_t>(k.num_joined)));
}

NoisyOptimizerModel::NoisyOptimizerModel(const schema::Schema* schema,
                                         HardwareProfile hardware,
                                         double depth_sigma, uint64_t seed,
                                         bool use_independence_assumption,
                                         double design_sigma)
    : CostModel(schema, hardware),
      depth_sigma_(depth_sigma),
      seed_(seed),
      use_independence_assumption_(use_independence_assumption),
      design_sigma_(design_sigma) {}

void NoisyOptimizerModel::set_stats_epoch(int epoch) {
  stats_epoch_ = epoch;
  std::lock_guard<std::mutex> lock(noise_mu_);
  noise_memo_.clear();
}

double NoisyOptimizerModel::DesignCostScale(
    const workload::QuerySpec& query,
    const partition::PartitioningState& state) const {
  if (!use_independence_assumption_) return 1.0;
  double sigma = design_sigma_ * std::max(0, query.num_tables() - 3);
  if (sigma <= 0.0) return 1.0;
  // Deliberately NOT seeded by the query identity: a real optimizer misprices
  // similar subplans the same way, so estimate errors correlate across
  // queries touching the same tables and do not diversify away at the
  // workload level.
  uint64_t h = seed_ * 7919ULL;
  h = HashCombine(h, HashString(state.PhysicalDesignKey(query.tables())));
  h = HashCombine(h, static_cast<uint64_t>(stats_epoch_) * 2654435761ULL);
  Rng rng(h);
  return std::exp(sigma * rng.Gaussian());
}

double NoisyOptimizerModel::CardinalityScale(const workload::QuerySpec& query,
                                             int join_index,
                                             int num_joined) const {
  const auto& join = query.joins[static_cast<size_t>(join_index)];

  // Independence assumption: selectivity = prod over equalities of
  // 1/max(d_l, d_r). The exact model divides by the capped-composite
  // denominator D; to turn it into the independence estimate we scale by
  // D / prod(max(d_l, d_r)) (<= 1 for correlated composite keys).
  double prod = 1.0;
  double prod_l = 1.0, prod_r = 1.0;
  for (const auto& eq : join.equalities) {
    double dl = static_cast<double>(schema_->column(eq.left).distinct_count);
    double dr = static_cast<double>(schema_->column(eq.right).distinct_count);
    prod = std::min(prod * std::max(dl, dr), 1e30);
    prod_l = std::min(prod_l * dl, 1e30);
    prod_r = std::min(prod_r * dr, 1e30);
  }
  double rows_l = static_cast<double>(schema_->table(join.left_table()).row_count);
  double rows_r = static_cast<double>(schema_->table(join.right_table()).row_count);
  double exact_denominator =
      std::max(1.0, std::max(std::min(prod_l, rows_l), std::min(prod_r, rows_r)));
  double independence =
      use_independence_assumption_ ? exact_denominator / prod : 1.0;

  // Depth-compounding lognormal noise, deterministic per (query, predicate,
  // depth, statistics epoch); memoized under the current epoch.
  double sigma = depth_sigma_ * std::max(0, num_joined - 2);
  double noise = 1.0;
  if (sigma > 0.0) {
    const NoiseKey key{HashString(query.name), join_index, num_joined};
    {
      std::lock_guard<std::mutex> lock(noise_mu_);
      auto it = noise_memo_.find(key);
      if (it != noise_memo_.end()) return independence * it->second;
    }
    uint64_t h = HashCombine(seed_, key.name_hash);
    h = HashCombine(h, static_cast<uint64_t>(join_index) * 1315423911ULL);
    h = HashCombine(h, static_cast<uint64_t>(num_joined));
    h = HashCombine(h, static_cast<uint64_t>(stats_epoch_) * 2654435761ULL);
    Rng rng(h);
    noise = std::exp(sigma * rng.Gaussian());
    std::lock_guard<std::mutex> lock(noise_mu_);
    if (noise_memo_.size() >= kNoiseMemoMaxEntries) noise_memo_.clear();
    noise_memo_.emplace(key, noise);
  }
  return independence * noise;
}

}  // namespace lpa::costmodel
