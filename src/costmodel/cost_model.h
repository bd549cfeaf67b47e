#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "costmodel/hardware.h"
#include "partition/partition_state.h"
#include "schema/schema.h"
#include "workload/workload.h"

namespace lpa::costmodel {

/// \brief Prices one query under a state. Must be a pure,
/// frequency-independent function of the query index and the designs of the
/// query's tables: the memo keys, the search bounds and the pruner's per-query
/// costs all rely on it.
using QueryCostFn =
    std::function<double(int query_index,
                          const partition::PartitioningState& state)>;

/// \brief Per-join physical strategy the model (and the engine's planner)
/// can choose from (Sec 4.1).
enum class JoinStrategy {
  kCoLocated = 0,        ///< both sides already aligned on the join key
  kBroadcastLeft = 1,    ///< ship the full left input to every node
  kBroadcastRight = 2,   ///< ship the full right input to every node
  kRepartitionLeft = 3,  ///< hash-redistribute the left input only
  kRepartitionRight = 4, ///< hash-redistribute the right input only
  kRepartitionBoth = 5,  ///< symmetric repartitioning of both inputs
};

const char* JoinStrategyName(JoinStrategy s);

/// \brief Node of a physical plan tree: a base-table scan or a binary join.
struct PlanNode {
  /// Base table (valid iff leaf).
  schema::TableId table = -1;
  /// Index into QuerySpec::joins (valid iff inner node).
  int predicate = -1;
  JoinStrategy strategy = JoinStrategy::kCoLocated;
  /// When repartitioning or co-locating, the equality (index into the
  /// predicate's equalities) whose columns carry the output partitioning.
  int align_equality = 0;
  std::unique_ptr<PlanNode> left;
  std::unique_ptr<PlanNode> right;
  /// Model-estimated output cardinality of this node.
  double est_card = 0.0;

  bool is_scan() const { return table >= 0; }
};

/// \brief A physical plan with its cost breakdown (seconds).
struct QueryPlan {
  std::unique_ptr<PlanNode> root;
  double scan_seconds = 0.0;
  double net_seconds = 0.0;
  double cpu_seconds = 0.0;
  double output_seconds = 0.0;

  double total_seconds() const {
    return scan_seconds + net_seconds + cpu_seconds + output_seconds;
  }

  /// \brief Strategies in execution (bottom-up, left-deep-first) order —
  /// handy for tests and logs.
  std::vector<JoinStrategy> JoinStrategies() const;

  /// \brief Render the plan tree as an indented string.
  std::string ToString(const schema::Schema& schema,
                       const workload::QuerySpec& query) const;
};

/// \brief The simple network-centric cost model of Sec 4.1.
///
/// Like an optimizer it enumerates join orders (dynamic programming over
/// connected subgraphs, tracking the partitioning property of intermediates
/// as equivalence classes of join columns) and picks, per join, the cheapest
/// of co-located / broadcast / repartitioning strategies. The resulting
/// estimate `cm(P, q)` is the reward signal of the offline training phase.
///
/// The `CardinalityScale` hook lets subclasses perturb join selectivities —
/// the NoisyOptimizerModel baseline (baselines/optimizer_designer.h) uses it
/// to reproduce the error structure of DBMS optimizer estimates.
class CostModel {
 public:
  CostModel(const schema::Schema* schema, HardwareProfile hardware);
  virtual ~CostModel() = default;

  const HardwareProfile& hardware() const { return hardware_; }
  const schema::Schema& schema() const { return *schema_; }

  /// \brief Estimated runtime (seconds) of one query under a partitioning.
  double QueryCost(const workload::QuerySpec& query,
                   const partition::PartitioningState& state) const;

  /// \brief A floor of `QueryCost(query, state)` that plans nothing: the
  /// plan's scan seconds (every plan scans each table once) times
  /// `DesignCostScale`. It never exceeds `QueryCost` in floating point: the
  /// net, CPU and output terms added to the scans are non-negative, IEEE
  /// rounding is monotone, and both sides take the same positive factor.
  double QueryCostFloor(const workload::QuerySpec& query,
                        const partition::PartitioningState& state) const;

  /// \brief Full plan (join order, strategies, cost breakdown).
  QueryPlan PlanQuery(const workload::QuerySpec& query,
                      const partition::PartitioningState& state) const;

  /// \brief Frequency-weighted workload cost `sum_j f_j * cm(P, q_j)`.
  double WorkloadCost(const workload::Workload& workload,
                      const partition::PartitioningState& state) const;

  /// \brief Estimated seconds to change the physical design from `from` to
  /// `to`: every differing table is re-shuffled (or broadcast, when it
  /// becomes replicated) across the cluster.
  double RepartitioningCost(const partition::PartitioningState& from,
                            const partition::PartitioningState& to) const;

  /// \brief Multiplicative factor applied to the estimated selectivity of
  /// join `join_index` of `query` when the joined subplan spans `num_joined`
  /// base tables. The base model is exact (returns 1); noisy subclasses
  /// override to model optimizer estimation errors. The planner memoizes it
  /// per search, so an override must be a pure function of its arguments,
  /// and must not plan.
  virtual double CardinalityScale(const workload::QuerySpec& query,
                                  int join_index, int num_joined) const;

  /// \brief Multiplicative factor applied to the final cost estimate of
  /// `query` under `state`. The base model returns 1; the noisy optimizer
  /// model uses it to realize per-(query, design) estimation errors — a
  /// design advisor minimizing such estimates suffers the winner's curse
  /// (Sec 7.2's "erroneous cost estimates"). Plan *shape* selection
  /// (PlanQuery) is unaffected.
  virtual double DesignCostScale(const workload::QuerySpec& query,
                                 const partition::PartitioningState& state) const;

  /// \brief Version of the table statistics the optimizer plans with. The
  /// base model is exact and stateless (always 0); NoisyOptimizerModel
  /// returns its stats epoch, which Exp 3a bumps after data updates to flip
  /// borderline plans. Consumers that cache plans (the engine's plan cache)
  /// must fold this into their keys so a statistics refresh re-plans.
  virtual int StatsEpoch() const { return 0; }

  /// \brief Re-price exchanges (broadcast/repartition shipping and
  /// RepartitioningCost) in measured *encoded* bytes per row, one entry per
  /// table — typically `ClusterDatabase::EncodedRowBytes(t)` so the planner
  /// prices transfers the same way a `price_encoded_bytes` engine measures
  /// them. Set before planning (callers own the synchronization; the engine
  /// holds the model const). Unset (the default) keeps logical-width
  /// pricing, bit-identical to the pre-compression model. Scan and output
  /// costs always use logical widths: scans read decoded tuples.
  void set_encoded_row_bytes(std::vector<double> bytes_per_row) {
    encoded_row_bytes_ = std::move(bytes_per_row);
  }
  const std::vector<double>& encoded_row_bytes() const {
    return encoded_row_bytes_;
  }
  /// \brief Bytes/row table `t` ships over an exchange: the encoded width
  /// when set, the logical row width otherwise.
  double ExchangeRowBytes(schema::TableId t) const {
    if (!encoded_row_bytes_.empty()) {
      return encoded_row_bytes_.at(static_cast<size_t>(t));
    }
    return static_cast<double>(schema_->table(t).row_width_bytes());
  }

 protected:
  const schema::Schema* schema_;
  HardwareProfile hardware_;
  std::vector<double> encoded_row_bytes_;
};

/// \brief Expected max-shard / average-shard imbalance when hashing a column
/// with `distinct` values onto `nodes` nodes (balls-into-bins estimate,
/// capped at `nodes`). Partitioning TPC-CH tables by the 10-valued district
/// id on a 6-node cluster yields roughly 2x imbalance; high-cardinality keys
/// approach 1.
double SkewFactor(int64_t distinct, int nodes);

}  // namespace lpa::costmodel
