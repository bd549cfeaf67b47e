#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "costmodel/cost_model.h"
#include "partition/partition_state.h"
#include "schema/schema.h"
#include "workload/workload.h"

namespace lpa::search {

/// \brief Budget and slack of the bounded-suboptimality design search.
struct DpDesignerConfig {
  /// Suboptimality slack: a subtree is pruned only when its admissible lower
  /// bound f satisfies f·(1+ε) ≥ incumbent, so the returned design is
  /// provably within (1+ε) of the optimum under the search's cost function.
  /// ε = 0 prunes with a strict bound and returns an exact optimum.
  double epsilon = 0.0;
  /// Per-query option-combination cap for the admissible bounds; beyond it
  /// a bound falls back to the (cheaper, still admissible) unconstrained
  /// per-query minimum.
  int max_bound_enum = 4096;
  /// Frontier cap per level after ε-dominance merging. Exceeding it keeps
  /// the `max_frontier` lowest-f states and VOIDS the certificate
  /// (`DpResult::certified` = false) — the search degrades into a beam.
  size_t max_frontier = 4096;
  /// Geometric growth of the cost windows that order node expansion
  /// (the PISA `cost_window` idiom); purely an expansion schedule plus
  /// telemetry, never a correctness knob.
  double window_growth = 0.1;
};

/// \brief Outcome of one `DpDesigner::Run`.
struct DpResult {
  /// The best complete design found (no active edges — edge bits are not
  /// part of the physical design and never change a cost).
  partition::PartitioningState best_state;
  /// Exact cost of `best_state` under the search's cost function, reduced
  /// in query order (bit-comparable with an exhaustive enumeration).
  double best_cost = 0.0;
  /// Proven floor: when `certified`, OPT ≥ certified_lower_bound, hence
  /// best_cost ≤ (1+ε)·OPT. 0 when the certificate was voided.
  double certified_lower_bound = 0.0;
  /// True iff the frontier never overflowed `max_frontier` — the (1+ε)
  /// guarantee holds exactly.
  bool certified = true;
  uint64_t nodes_expanded = 0;
  uint64_t nodes_pruned = 0;   ///< subtrees cut by the incumbent bound
  uint64_t nodes_merged = 0;   ///< children absorbed by dominance merging
  uint64_t cost_windows = 0;   ///< expansion windows advanced across levels
};

/// \brief Bounded-suboptimality design search: a cost-window dynamic program
/// over per-table partitioning decisions with a branch-and-bound driver.
///
/// Tables are decided in a fixed order (descending weighted query
/// participation). A node is a partial assignment; its priority is
/// f = g + h where
///   g = Σ f_j · cost_j   over CLOSED queries (all referenced tables
///       decided — the cost is exact and memoized by design fingerprint),
///   h = Σ f_j · LB_j     over open queries, LB_j the minimum of query j's
///       cost over all designs of its undecided tables with the decided
///       ones clamped (enumeration capped, falling back to the
///       unconstrained per-query minimum — admissible either way).
/// Children whose f·(1+ε) reaches the incumbent (seeded by a greedy f-dive,
/// tightened by every completed assignment) are pruned; children agreeing
/// on the designs of all live decided tables (decided tables still
/// referenced by an open query) have identical completions and merge to the
/// lowest g. Expansion within a level proceeds through geometrically
/// growing cost windows, lowest f first.
///
/// `query_cost` must be a pure, frequency-independent function of
/// (query index, designs of the query's tables). Single-threaded; results
/// are deterministic for fixed inputs.
///
/// Telemetry (process-global): search.nodes_expanded.count,
/// search.pruned.count, search.merged.count, search.cost_windows.count.
class DpDesigner {
 public:
  /// `query_floor`, when set, must never exceed `query_cost` for the same
  /// arguments (`CostModel::QueryCostFloor` is one). The clamped bounds and
  /// the per-query floors then skip pricing any combination whose floor
  /// already reaches the running minimum; every bound, prune, merge and
  /// result stays the same.
  DpDesigner(const schema::Schema* schema, const workload::Workload* workload,
             const partition::EdgeSet* edges, costmodel::QueryCostFn query_cost,
             DpDesignerConfig config = {},
             costmodel::QueryCostFn query_floor = nullptr);

  /// \brief Search the design space for the given workload mix.
  DpResult Run(const std::vector<double>& frequencies);

 private:
  const schema::Schema* schema_;
  const workload::Workload* workload_;
  const partition::EdgeSet* edges_;
  costmodel::QueryCostFn query_cost_;
  costmodel::QueryCostFn query_floor_;
  DpDesignerConfig config_;
};

/// \brief Exact optimum by full enumeration — the verification oracle for
/// the DP's (1+ε) certificate. Returns (state, cost) with the cost reduced
/// in query order (bit-comparable with `DpResult::best_cost`), or nullopt
/// when the design space exceeds `max_states` combinations.
std::optional<std::pair<partition::PartitioningState, double>>
ExhaustiveOptimum(
    const schema::Schema& schema, const workload::Workload& workload,
    const partition::EdgeSet& edges, const costmodel::QueryCostFn& query_cost,
    const std::vector<double>& frequencies, long long max_states = 1 << 16);

}  // namespace lpa::search
