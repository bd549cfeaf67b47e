#pragma once

#include <mutex>
#include <unordered_map>

#include "costmodel/cost_model.h"

namespace lpa::costmodel {

/// \brief Cost model with DBMS-optimizer-like estimation errors, used as
/// (a) the estimator behind the Minimum-Optimizer design baseline and
/// (b) the planner of the disk-based (Postgres-XL-like) engine profile.
///
/// Two error mechanisms, both faithful to how real optimizers misestimate
/// (Leis et al., "How good are query optimizers, really?"):
///  * the *independence assumption* on composite join keys — the selectivity
///   of a conjunctive predicate is taken as the product of its equalities'
///   selectivities, which grossly underestimates correlated composite joins
///   (e.g. TPC-DS sales-returns on (ticket, item), TPC-CH order-orderline on
///   (order, warehouse, district));
///  * multiplicative lognormal noise whose deviation grows with the number
///   of already-joined tables — errors compound through deep join trees.
///
/// The noise is deterministic per (query, predicate, depth, statistics
/// epoch): re-planning the same query yields the same plan, but refreshing
/// statistics after bulk updates (Exp 3a) flips some plans — exactly the
/// behaviour the paper observed on Postgres-XL.
///
/// The depth-noise factor is memoized per model, so a repeated
/// (query, predicate, depth) seeds no generator. The memo is guarded by a
/// mutex: the engine plans from pool threads (`ExecuteWorkload`).
class NoisyOptimizerModel : public CostModel {
 public:
  NoisyOptimizerModel(const schema::Schema* schema, HardwareProfile hardware,
                      double depth_sigma = 0.5, uint64_t seed = 4242,
                      bool use_independence_assumption = true,
                      double design_sigma = 0.8);

  /// \brief Bump after bulk updates: models an ANALYZE refresh that changes
  /// the statistics the estimates are drawn from. Clears the noise memo.
  /// Not safe concurrently with planning.
  void set_stats_epoch(int epoch);
  int stats_epoch() const { return stats_epoch_; }
  int StatsEpoch() const override { return stats_epoch_; }

  double CardinalityScale(const workload::QuerySpec& query, int join_index,
                          int num_joined) const override;

  /// \brief Per-(query, design) lognormal estimate error whose deviation
  /// grows with the query's table count — complex queries are estimated
  /// (much) worse, per Leis et al. Disabled together with the independence
  /// assumption (the engine-planner configuration).
  double DesignCostScale(const workload::QuerySpec& query,
                         const partition::PartitioningState& state) const override;

 private:
  double depth_sigma_;
  uint64_t seed_;
  /// When false, composite keys are estimated exactly (like the base model)
  /// and only the lognormal depth noise remains — the configuration used for
  /// the engine's runtime planner, whose plan choices should only flip at
  /// the margins.
  bool use_independence_assumption_;
  double design_sigma_;
  int stats_epoch_ = 0;

  /// Inputs of the depth noise besides the seed and the stats epoch: the
  /// hash of the query's name, the join and the number of joined tables.
  struct NoiseKey {
    uint64_t name_hash;
    int join_index;
    int num_joined;
    bool operator==(const NoiseKey&) const = default;
  };
  struct NoiseKeyHash {
    size_t operator()(const NoiseKey& k) const;
  };
  /// Depth-noise factors of the current stats epoch.
  mutable std::mutex noise_mu_;
  mutable std::unordered_map<NoiseKey, double, NoiseKeyHash> noise_memo_;
};

}  // namespace lpa::costmodel
