#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "costmodel/cost_model.h"
#include "partition/partition_state.h"
#include "storage/database.h"

namespace lpa {
class EvalContext;
class ThreadPool;
}  // namespace lpa

namespace lpa::engine {

/// \brief Engine configuration: hardware profile driving the simulated
/// clock, plus measurement-noise controls.
struct EngineConfig {
  costmodel::HardwareProfile hardware;
  /// Relative stddev of the multiplicative runtime noise (real measurements
  /// jitter; the noise is deterministic per (query, physical design)).
  double noise_stddev = 0.02;
  uint64_t seed = 42;
  /// Seal master tables and shards into compressed EncodedColumns
  /// (docs/INTERNALS.md §11). Encoding is lossless, so query results and
  /// QueryRunStats are bit-identical either way; only memory changes.
  bool encode_storage = true;
  /// Price exchanges, broadcasts and data movement in *encoded* bytes (the
  /// measured per-table compression ratio) instead of logical row widths.
  /// This intentionally changes net_seconds / bytes_shuffled — benches that
  /// flip it record fresh baselines. Off by default so the default engine
  /// stays bit-identical to the uncompressed accounting.
  bool price_encoded_bytes = false;
};

/// \brief Cost/measurement breakdown of one executed query.
struct QueryRunStats {
  double seconds = 0.0;  ///< total simulated wall-clock (with noise)
  double scan_seconds = 0.0;
  double net_seconds = 0.0;
  double cpu_seconds = 0.0;
  double output_seconds = 0.0;
  /// Actual (not estimated) cardinality of the final join result.
  uint64_t rows_out = 0;
  /// Actual bytes that crossed the interconnect.
  uint64_t bytes_shuffled = 0;
  /// Portion of `bytes_shuffled` sent by broadcast exchanges.
  uint64_t bytes_broadcast = 0;
};

/// \brief One query of a `ClusterDatabase::ExecuteQueries` batch.
struct QueryRun {
  const workload::QuerySpec* query = nullptr;
  /// Design key the query's measurement noise is seeded with: the
  /// `deployed_design_key()` of the deployment it is measured under.
  uint64_t design_key = 0;
};

/// \brief A simulated shared-nothing database cluster.
///
/// This is the repo's stand-in for the paper's Postgres-XL / System-X
/// testbeds (see DESIGN.md): real columnar data, real hash partitioning and
/// replication across `num_nodes` simulated nodes, real scan / hash-join /
/// shuffle / broadcast execution that counts every tuple and byte — with
/// wall-clock *derived* from those counters and the HardwareProfile
/// (max-over-nodes per pipeline phase), so deployments are reproducible and
/// parametric. Plans come from an injected CostModel acting as the engine's
/// optimizer; injecting a NoisyOptimizerModel reproduces optimizer-quality
/// plan choices (and their sensitivity to data updates, Exp 3a).
class ClusterDatabase {
 public:
  /// \param data The materialized database (consumed).
  /// \param planner The engine's internal optimizer; must outlive this.
  ClusterDatabase(storage::Database data, EngineConfig config,
                  const costmodel::CostModel* planner);

  const schema::Schema& schema() const { return data_.schema(); }
  const EngineConfig& config() const { return config_; }
  int num_nodes() const { return config_.hardware.num_nodes; }

  /// \brief Deploy a physical design. Only tables whose design changed are
  /// actually moved (the engine-level half of lazy repartitioning). Returns
  /// the simulated seconds the data movement took.
  ///
  /// A table keeps the sealed shards of every partition column it has been
  /// placed by (at most one copy per column) until the next `BulkAppend`.
  /// Going back to such a column moves those shards back in instead of
  /// routing, scattering and sealing the master again. The movement is still
  /// priced and counted as if the rows moved: the per-source-node byte sums
  /// and moved-row count of each (table, from column, to column) are
  /// memoized, and the seconds and counters are built from them exactly as
  /// for a fresh placement.
  double ApplyDesign(const partition::PartitioningState& design);

  /// \brief Currently deployed design (empty before the first ApplyDesign).
  const std::optional<partition::PartitioningState>& deployed_design() const {
    return deployed_;
  }

  /// \brief The deployed design's part of the measurement-noise seed (a
  /// hash of its PhysicalDesignKey; 0 before the first ApplyDesign).
  uint64_t deployed_design_key() const { return deployed_key_hash_; }

  /// \brief Plan (via the injected optimizer) and execute one query against
  /// the deployed design. Aborts if no design is deployed.
  ///
  /// `ctx` (optional) supplies the thread pool the per-node kernels (scans,
  /// shard routing, local joins) fan out over; null runs serially. Every
  /// `QueryRunStats` field is bit-identical at any thread count: parallel
  /// chunks write disjoint slots and all merges reduce in node order.
  QueryRunStats ExecuteQuery(const workload::QuerySpec& query,
                             EvalContext* ctx = nullptr) const;

  /// \brief Execute a batch of queries against the deployed design; entry i
  /// of the result is `runs[i]`'s stats. Query i's measurement noise is
  /// seeded with `runs[i].design_key` instead of the deployed design's key,
  /// so a caller may deploy the tables of several queries one after another
  /// and execute them together afterwards: each query measures exactly as
  /// if it had run right after its own deployment, provided the later
  /// deployments left its tables where they were.
  ///
  /// A lone query runs as in ExecuteQuery, its per-node kernels on `ctx`'s
  /// pool. Two or more run side by side on the pool, each serial inside,
  /// every thread taking the next query from a shared cursor until none is
  /// left. The stats are bit-identical at any thread count, and the engine
  /// counters are recorded on the calling thread in batch order.
  std::vector<QueryRunStats> ExecuteQueries(const std::vector<QueryRun>& runs,
                                            EvalContext* ctx = nullptr) const;

  /// \brief Frequency-weighted workload runtime `sum_j f_j * seconds(q_j)`:
  /// the queries with a positive frequency run as one ExecuteQueries batch
  /// under the deployed design's key, and the weighted sum reduces in query
  /// order, so the total is bit-identical at any thread count.
  double ExecuteWorkload(const workload::Workload& workload,
                         EvalContext* ctx = nullptr) const;

  /// \brief EXPLAIN ANALYZE: the plan the engine's optimizer chooses for
  /// `query` under the deployed design, plus the measured execution
  /// breakdown. Aborts if no design is deployed.
  std::string Explain(const workload::QuerySpec& query) const;

  /// \brief Exp 3a: bulk-load `fraction` additional rows into every table
  /// and redistribute them according to the deployed design. Drops every
  /// kept layout and memoized movement term.
  void BulkAppend(double fraction, uint64_t seed);

  /// \brief Rows currently materialized in a table (across shards).
  size_t TableRows(schema::TableId t) const;

  /// \brief The master tables (sealed when `encode_storage`).
  const storage::Database& database() const { return data_; }
  /// \brief Shard `node` of table `t` under the deployed design, or nullptr
  /// while `t` is replicated or not yet placed. Layouts kept for other
  /// columns are not reachable here.
  const storage::TableData* shard(schema::TableId t, int node) const;

  /// \brief Heap bytes currently resident across master tables and shards
  /// (encoded bytes when `encode_storage`; plain bytes otherwise). Kept
  /// layouts count: they are resident too.
  size_t storage_resident_bytes() const;
  /// \brief Bytes the same data (kept layouts included) occupies in the
  /// plain representation.
  size_t storage_raw_bytes() const;

  /// \brief Measured encoded bytes per row of table `t`: the logical row
  /// width scaled by the master's compression ratio (equals the logical
  /// width when encoding is off). Feed these to
  /// `CostModel::set_encoded_row_bytes` to re-price the planner the same way
  /// `price_encoded_bytes` re-prices the engine.
  double EncodedRowBytes(schema::TableId t) const {
    return table_enc_width_.at(static_cast<size_t>(t));
  }

 private:
  /// What moving a table from one partition column to another ships: the
  /// bytes each source node sends (summed row by row in master order) and
  /// the number of rows that change node.
  struct MoveTerms {
    std::vector<double> out_bytes;
    size_t moved_rows = 0;
  };

  /// Physical placement of one table and the layouts it keeps.
  struct Placement {
    bool replicated = false;
    /// The partition column; -1 while replicated or not yet placed.
    schema::ColumnId column = -1;
    /// Per column, one sealed shard per node if the table has been placed by
    /// that column since the last BulkAppend, else empty. `layouts[column]`
    /// is deployed; a replicated table is served by the master in data_.
    std::vector<std::vector<storage::TableData>> layouts;
    /// MoveTerms per (from column, to column), keyed from * columns + to.
    std::unordered_map<int, MoveTerms> moves;
  };

  /// \brief Place table `t` as `target`, adding the movement's simulated
  /// seconds to `*move_seconds`. Returns whether a layout was built.
  bool PlaceTable(schema::TableId t, const partition::TablePartition& target,
                  double* move_seconds);
  /// \brief Route the master of `t` by `column` and seal one shard per node.
  std::vector<storage::TableData> BuildLayout(schema::TableId t,
                                              schema::ColumnId column) const;
  /// \brief MoveTerms of table `t` from column `from` to column `to`,
  /// computed on first use.
  const MoveTerms& MoveTermsFor(schema::TableId t, schema::ColumnId from,
                                schema::ColumnId to);
  /// \brief Deployed shards of a partitioned table.
  const std::vector<storage::TableData>& DeployedShards(
      schema::TableId t) const;

  /// \brief Seal every master table (no-op unless `encode_storage`), then
  /// refresh the per-table encoded widths and the storage gauges.
  void SealMastersAndRefresh();
  /// \brief Exchange-priced bytes per row of table `t`: encoded width when
  /// `price_encoded_bytes`, logical width otherwise.
  double PricedRowWidth(schema::TableId t) const;

  /// Counts of one execution that only feed the engine's counters.
  struct ExecTally {
    uint64_t join_probes = 0;
    uint64_t parallel_chunks = 0;
    uint64_t encoded_exchanged = 0;
  };

  /// \brief Execute `query` by `plan` with its noise seeded by
  /// `design_key`, fanning the per-node kernels out over `pool` (null:
  /// serial). Records nothing.
  QueryRunStats RunQuery(const workload::QuerySpec& query,
                         const costmodel::QueryPlan& plan, uint64_t design_key,
                         ThreadPool* pool, ExecTally* tally) const;

  /// \brief Plan `query` through the plan cache: keyed by (structural query
  /// hash, deployed design fingerprint of the query's tables, planner stats
  /// epoch), so unchanged deployments never re-plan while design changes and
  /// statistics refreshes (Exp 3a) still reach the optimizer.
  std::shared_ptr<const costmodel::QueryPlan> PlanFor(
      const workload::QuerySpec& query) const;
  void InvalidatePlanCache() const;

  storage::Database data_;
  EngineConfig config_;
  const costmodel::CostModel* planner_;
  std::vector<Placement> placements_;
  std::optional<partition::PartitioningState> deployed_;
  /// HashString of the deployed design's PhysicalDesignKey: the design's
  /// part of the measurement-noise seed, hashed once per ApplyDesign.
  uint64_t deployed_key_hash_ = 0;
  /// Per-table encoded bytes/row, refreshed whenever masters are re-sealed.
  std::vector<double> table_enc_width_;

  /// Bounded plan cache; mutable because planning is a pure function of
  /// (query, deployed design, planner statistics) and ExecuteQuery is const.
  mutable std::mutex plan_cache_mu_;
  mutable std::unordered_map<uint64_t,
                             std::shared_ptr<const costmodel::QueryPlan>>
      plan_cache_;
};

}  // namespace lpa::engine
