#include "engine/cluster.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <functional>
#include <sstream>
#include <utility>

#include "engine/join_table.h"
#include "telemetry/registry.h"
#include "util/eval_context.h"
#include "util/hash.h"
#include "util/logging.h"

namespace lpa::engine {

namespace {

/// Registry handles resolved once; all hot-path updates are relaxed atomics.
struct EngineMetrics {
  telemetry::Counter& queries_executed;
  telemetry::Counter& rows_out;
  telemetry::Counter& bytes_shuffled;
  telemetry::Counter& bytes_broadcast;
  telemetry::Counter& cpu_seconds;
  telemetry::Counter& designs_applied;
  telemetry::Counter& bytes_moved;
  telemetry::Counter& repartition_seconds;
  telemetry::Counter& plan_cache_hits;
  telemetry::Counter& plan_cache_misses;
  telemetry::Counter& plan_cache_invalidations;
  telemetry::Counter& join_probes;
  telemetry::Counter& parallel_chunks;
  telemetry::Counter& encoded_bytes_exchanged;
  telemetry::Counter& layouts_built;
  telemetry::Counter& layouts_reused;
  telemetry::Gauge& bytes_resident;
  telemetry::Gauge& bytes_raw;
  telemetry::Histogram& query_seconds;

  static EngineMetrics& Get() {
    auto& reg = telemetry::MetricsRegistry::Global();
    static EngineMetrics* m = new EngineMetrics{
        reg.GetCounter("engine.queries_executed.count"),
        reg.GetCounter("engine.rows_out.count"),
        reg.GetCounter("engine.bytes_shuffled.bytes"),
        reg.GetCounter("engine.bytes_broadcast.bytes"),
        reg.GetCounter("engine.cpu.seconds"),
        reg.GetCounter("engine.designs_applied.count"),
        reg.GetCounter("engine.bytes_moved.bytes"),
        reg.GetCounter("engine.repartition.seconds"),
        reg.GetCounter("engine.plan_cache_hits.count"),
        reg.GetCounter("engine.plan_cache_misses.count"),
        reg.GetCounter("engine.plan_cache_invalidations.count"),
        reg.GetCounter("engine.join_probes.count"),
        reg.GetCounter("engine.parallel_chunks.count"),
        reg.GetCounter("engine.encoded_bytes_exchanged.bytes"),
        reg.GetCounter("engine.layouts_built.count"),
        reg.GetCounter("engine.layouts_reused.count"),
        reg.GetGauge("storage.bytes_resident.bytes"),
        reg.GetGauge("storage.bytes_raw.bytes"),
        reg.GetHistogram("engine.query_elapsed.seconds",
                         telemetry::Histogram::LatencyBounds())};
    return *m;
  }
};

using costmodel::JoinStrategy;
using costmodel::PlanNode;
using schema::ColumnRef;

/// Entries a bounded plan cache may hold before it is wiped wholesale (one
/// entry per (query, design, stats epoch) triple actually planned).
constexpr size_t kPlanCacheMaxEntries = 4096;

/// A distributed intermediate result: per-node column chunks for the join
/// columns still needed upstream, plus logical row-width accounting.
struct DistRelation {
  bool replicated = false;
  std::vector<ColumnRef> cols;                          // slot -> column
  std::vector<std::vector<std::vector<int64_t>>> data;  // [node][slot][row]
  std::vector<size_t> rows;                             // [node] row counts
  double width = 0.0;                                   // logical bytes/row
  /// Encoded bytes/row (the logical width scaled by the source tables'
  /// measured compression ratios; sums across joins like `width`).
  double enc_width = 0.0;
  /// Bytes multiplier when this relation crosses an exchange. Engines
  /// without predicate pushdown below exchanges (Postgres-XL-like) ship the
  /// unfiltered base table even though only the filtered rows join.
  double byte_inflation = 1.0;

  int SlotOf(const ColumnRef& ref) const {
    for (size_t i = 0; i < cols.size(); ++i) {
      if (cols[i] == ref) return static_cast<int>(i);
    }
    return -1;
  }

  size_t TotalRows() const {
    size_t total = 0;
    for (size_t r : rows) total += r;
    return total;
  }
};

/// Concatenate all node chunks (gather); used for broadcasts. Two passes:
/// count first, then one exact reserve per slot and contiguous range copies.
void Gather(const DistRelation& rel, std::vector<std::vector<int64_t>>* out,
            size_t* out_rows) {
  size_t total = 0;
  for (size_t r : rel.rows) total += r;
  size_t nodes = rel.data.size();
  out->assign(rel.cols.size(), {});
  for (size_t s = 0; s < rel.cols.size(); ++s) {
    auto& dst = (*out)[s];
    dst.reserve(total);
    for (size_t node = 0; node < nodes; ++node) {
      dst.insert(dst.end(), rel.data[node][s].begin(), rel.data[node][s].end());
    }
  }
  *out_rows = total;
}

/// Rows whose key hashes a join computes at once: the hash buffer stays at
/// 8 KB however large the side.
constexpr size_t kHashBlock = 1024;

/// Composite-key hashes of rows [begin, begin + count) over the given
/// (non-empty) slots, one column at a time, into (*out)[0, count): row r
/// gets HashCombine(...HashCombine(0x12345678, Hash64(v_0[r]))...,
/// Hash64(v_k[r])) over the slots in order.
void KeyHashes(const std::vector<std::vector<int64_t>>& cols,
               const std::vector<int>& slots, size_t begin, size_t count,
               std::vector<uint64_t>* out) {
  out->resize(count);
  uint64_t* h = out->data();
  const int64_t* first = cols[static_cast<size_t>(slots[0])].data() + begin;
  for (size_t r = 0; r < count; ++r) {
    h[r] = HashCombine(0x12345678ULL, Hash64(static_cast<uint64_t>(first[r])));
  }
  for (size_t k = 1; k < slots.size(); ++k) {
    const int64_t* v = cols[static_cast<size_t>(slots[k])].data() + begin;
    for (size_t r = 0; r < count; ++r) {
      h[r] = HashCombine(h[r], Hash64(static_cast<uint64_t>(v[r])));
    }
  }
}

/// One node's scratch for a query's kernels, reused across its scans and
/// joins.
struct NodeScratch {
  JoinTable table;
  std::vector<uint64_t> hashes;
  std::vector<uint32_t> build_rows;  ///< matches: build-side row
  std::vector<uint32_t> probe_rows;  ///< matches: probe-side row
  std::vector<uint32_t> selected;    ///< rows a filtered scan keeps
  std::vector<int64_t> values;       ///< block-decode buffer
};

/// Does the subtree under `node` scan table `t`?
bool Scans(const PlanNode* node, schema::TableId t) {
  if (node->is_scan()) return node->table == t;
  return Scans(node->left.get(), t) || Scans(node->right.get(), t);
}

/// Structural hash of everything that can change the optimizer's plan for a
/// query. The name alone is not a safe cache key: ad-hoc QuerySpecs (tests,
/// parameterized instances) reuse names with different shapes.
uint64_t QuerySpecHash(const workload::QuerySpec& q) {
  uint64_t h = HashString(q.name);
  for (const auto& scan : q.scans) {
    h = HashCombine(h, Hash64(static_cast<uint64_t>(scan.table)));
    h = HashCombine(h, std::bit_cast<uint64_t>(scan.selectivity));
  }
  for (const auto& join : q.joins) {
    for (const auto& eq : join.equalities) {
      h = HashCombine(h, Hash64(static_cast<uint64_t>(eq.left.table)));
      h = HashCombine(h, Hash64(static_cast<uint64_t>(eq.left.column)));
      h = HashCombine(h, Hash64(static_cast<uint64_t>(eq.right.table)));
      h = HashCombine(h, Hash64(static_cast<uint64_t>(eq.right.column)));
    }
  }
  h = HashCombine(h, std::bit_cast<uint64_t>(q.output_fraction));
  h = HashCombine(h, Hash64(static_cast<uint64_t>(q.selectivity_bucket)));
  return h;
}

/// Hash-route every row of `data` by `column`: dst_of[r] = Hash64(v_r) % n.
/// Works on sealed and unsealed tables. Dictionary columns route in code
/// space — each distinct value is hashed once and rows map decoded codes
/// through the per-code destination table, never materializing the values.
void RouteAll(const storage::TableData& data, schema::ColumnId column, int n,
              std::vector<uint32_t>* dst_of) {
  const size_t rows = data.num_rows();
  dst_of->resize(rows);
  storage::ColumnView view = data.view(column);
  const storage::EncodedColumn* enc = view.encoded();
  if (enc != nullptr && enc->encoding() == storage::Encoding::kDict) {
    const auto& dict = enc->dict();
    std::vector<uint32_t> dest(dict.size());
    for (size_t c = 0; c < dict.size(); ++c) {
      dest[c] = static_cast<uint32_t>(Hash64(static_cast<uint64_t>(dict[c])) %
                                      static_cast<uint64_t>(n));
    }
    std::vector<uint32_t> codes(storage::EncodedColumn::kBlock);
    for (size_t start = 0; start < rows;
         start += storage::EncodedColumn::kBlock) {
      size_t count = std::min(rows - start, storage::EncodedColumn::kBlock);
      enc->DecodeCodes(start, count, codes.data());
      for (size_t j = 0; j < count; ++j) {
        (*dst_of)[start + j] = dest[codes[j]];
      }
    }
    return;
  }
  std::vector<int64_t> scratch;
  view.ForEachBlock(&scratch, [&](size_t start, size_t count,
                                  const int64_t* v) {
    for (size_t j = 0; j < count; ++j) {
      (*dst_of)[start + j] = static_cast<uint32_t>(
          Hash64(static_cast<uint64_t>(v[j])) % static_cast<uint64_t>(n));
    }
  });
}

}  // namespace

ClusterDatabase::ClusterDatabase(storage::Database data, EngineConfig config,
                                 const costmodel::CostModel* planner)
    : data_(std::move(data)), config_(config), planner_(planner) {
  placements_.resize(static_cast<size_t>(schema().num_tables()));
  for (schema::TableId t = 0; t < schema().num_tables(); ++t) {
    placements_[static_cast<size_t>(t)].layouts.resize(
        schema().table(t).columns.size());
  }
  table_enc_width_.assign(static_cast<size_t>(schema().num_tables()), 0.0);
  SealMastersAndRefresh();
}

void ClusterDatabase::SealMastersAndRefresh() {
  for (schema::TableId t = 0; t < schema().num_tables(); ++t) {
    if (config_.encode_storage) data_.mutable_table(t).Seal();
    const storage::TableData& master = data_.table(t);
    double ratio = 1.0;
    if (master.sealed() && master.raw_bytes() > 0) {
      ratio = static_cast<double>(master.resident_bytes()) /
              static_cast<double>(master.raw_bytes());
    }
    table_enc_width_[static_cast<size_t>(t)] =
        schema().table(t).row_width_bytes() * ratio;
  }
  auto& em = EngineMetrics::Get();
  em.bytes_resident.Set(static_cast<double>(storage_resident_bytes()));
  em.bytes_raw.Set(static_cast<double>(storage_raw_bytes()));
}

double ClusterDatabase::PricedRowWidth(schema::TableId t) const {
  return config_.price_encoded_bytes
             ? table_enc_width_[static_cast<size_t>(t)]
             : schema().table(t).row_width_bytes();
}

size_t ClusterDatabase::storage_resident_bytes() const {
  size_t bytes = 0;
  for (schema::TableId t = 0; t < schema().num_tables(); ++t) {
    bytes += data_.table(t).resident_bytes();
    for (const auto& layout : placements_[static_cast<size_t>(t)].layouts) {
      for (const auto& shard : layout) bytes += shard.resident_bytes();
    }
  }
  return bytes;
}

size_t ClusterDatabase::storage_raw_bytes() const {
  size_t bytes = 0;
  for (schema::TableId t = 0; t < schema().num_tables(); ++t) {
    bytes += data_.table(t).raw_bytes();
    for (const auto& layout : placements_[static_cast<size_t>(t)].layouts) {
      for (const auto& shard : layout) bytes += shard.raw_bytes();
    }
  }
  return bytes;
}

const std::vector<storage::TableData>& ClusterDatabase::DeployedShards(
    schema::TableId t) const {
  const Placement& placement = placements_[static_cast<size_t>(t)];
  LPA_CHECK(!placement.replicated && placement.column >= 0);
  return placement.layouts[static_cast<size_t>(placement.column)];
}

std::vector<storage::TableData> ClusterDatabase::BuildLayout(
    schema::TableId t, schema::ColumnId column) const {
  // Routing pass first (dictionary-aware: see RouteAll) so every shard is
  // sized to its exact final row count, then a column-wise materialize pass
  // that block-decodes the master once per column and scatters through
  // precomputed per-row write positions — reproducing the row order the old
  // row-at-a-time AppendRowFrom loop produced.
  const storage::TableData& master = data_.table(t);
  const size_t nn = static_cast<size_t>(num_nodes());
  const size_t rows = master.num_rows();
  std::vector<uint32_t> dst_of;
  RouteAll(master, column, num_nodes(), &dst_of);
  std::vector<size_t> shard_rows(nn, 0);
  for (size_t r = 0; r < rows; ++r) ++shard_rows[dst_of[r]];
  std::vector<uint32_t> pos(rows);
  {
    std::vector<size_t> cursor(nn, 0);
    for (size_t r = 0; r < rows; ++r) {
      pos[r] = static_cast<uint32_t>(cursor[dst_of[r]]++);
    }
  }
  const int cols = master.num_columns();
  std::vector<storage::TableData> shards(nn, storage::TableData(cols));
  for (size_t d = 0; d < nn; ++d) {
    for (int c = 0; c < cols; ++c) shards[d].column(c).resize(shard_rows[d]);
    shards[d].rids().resize(shard_rows[d]);
  }
  std::vector<int64_t> scratch;
  std::vector<int64_t*> ptrs(nn);
  for (int c = 0; c <= cols; ++c) {  // slot `cols` scatters the rid column
    storage::ColumnView view = c < cols ? master.view(c) : master.rid_view();
    for (size_t d = 0; d < nn; ++d) {
      ptrs[d] = (c < cols ? shards[d].column(c) : shards[d].rids()).data();
    }
    view.ForEachBlock(&scratch, [&](size_t start, size_t count,
                                    const int64_t* v) {
      for (size_t j = 0; j < count; ++j) {
        size_t r = start + j;
        ptrs[dst_of[r]][pos[r]] = v[j];
      }
    });
  }
  if (config_.encode_storage) {
    for (auto& shard : shards) shard.Seal();
  }
  return shards;
}

const ClusterDatabase::MoveTerms& ClusterDatabase::MoveTermsFor(
    schema::TableId t, schema::ColumnId from, schema::ColumnId to) {
  Placement& placement = placements_[static_cast<size_t>(t)];
  const int key =
      from * static_cast<int>(placement.layouts.size()) + to;
  auto it = placement.moves.find(key);
  if (it != placement.moves.end()) return it->second;
  const storage::TableData& master = data_.table(t);
  const double pwidth = PricedRowWidth(t);
  std::vector<uint32_t> src_of, dst_of;
  RouteAll(master, from, num_nodes(), &src_of);
  RouteAll(master, to, num_nodes(), &dst_of);
  MoveTerms terms;
  terms.out_bytes.assign(static_cast<size_t>(num_nodes()), 0.0);
  // Per-row repeated additions in row order: the exact addition sequence
  // of the old interleaved loop, so default-priced seconds are
  // bit-identical.
  for (size_t r = 0; r < master.num_rows(); ++r) {
    if (src_of[r] != dst_of[r]) {
      terms.out_bytes[src_of[r]] += pwidth;
      ++terms.moved_rows;
    }
  }
  return placement.moves.emplace(key, std::move(terms)).first->second;
}

bool ClusterDatabase::PlaceTable(schema::TableId t,
                                 const partition::TablePartition& target,
                                 double* move_seconds) {
  Placement& placement = placements_[static_cast<size_t>(t)];
  const storage::TableData& master = data_.table(t);
  const auto& hw = config_.hardware;
  const double width = schema().table(t).row_width_bytes();
  const double pwidth = PricedRowWidth(t);
  const double enc_w = table_enc_width_[static_cast<size_t>(t)];
  const int n = num_nodes();
  auto& em = EngineMetrics::Get();
  const bool was_partitioned = !placement.replicated && placement.column >= 0;

  if (target.replicated) {
    if (!placement.replicated) {
      // Every node must receive the shards it lacks. Each node pushes its
      // shard to n-1 peers in parallel; elapsed is the largest shard.
      double max_shard_bytes = 0.0;
      double total_shard_bytes = 0.0;
      size_t total_shard_rows = 0;
      if (was_partitioned) {
        for (const auto& shard : DeployedShards(t)) {
          double shard_bytes = static_cast<double>(shard.num_rows()) * pwidth;
          max_shard_bytes = std::max(max_shard_bytes, shard_bytes);
          total_shard_bytes += shard_bytes;
          total_shard_rows += shard.num_rows();
        }
      }
      em.bytes_moved.Add(static_cast<uint64_t>(total_shard_bytes * (n - 1)));
      em.encoded_bytes_exchanged.Add(static_cast<uint64_t>(
          static_cast<double>(total_shard_rows) * enc_w * (n - 1)));
      *move_seconds += max_shard_bytes * (n - 1) / hw.exchange_bytes_per_sec();
      *move_seconds += static_cast<double>(master.num_rows()) * width *
                       hw.disk_scan_factor / hw.scan_bytes_per_sec;
    }
    placement.replicated = true;
    placement.column = -1;
    return false;
  }

  // Hash-partition by target.column, counting actual row movement. A layout
  // held before moves back in as it was sealed.
  auto& layout = placement.layouts[static_cast<size_t>(target.column)];
  const bool build = layout.empty();
  if (build) {
    layout = BuildLayout(t, target.column);
    em.layouts_built.Add();
  } else {
    em.layouts_reused.Add();
  }
  // From a replicated state every node already holds every row: the new
  // shards can be carved out locally with zero network traffic.
  std::vector<double> out_bytes(static_cast<size_t>(n), 0.0);
  size_t moved_rows = 0;
  if (was_partitioned) {
    const MoveTerms& terms = MoveTermsFor(t, placement.column, target.column);
    out_bytes = terms.out_bytes;
    moved_rows = terms.moved_rows;
  }
  double max_out = *std::max_element(out_bytes.begin(), out_bytes.end());
  double total_out_bytes = 0.0;
  for (double b : out_bytes) total_out_bytes += b;
  em.bytes_moved.Add(static_cast<uint64_t>(total_out_bytes));
  em.encoded_bytes_exchanged.Add(
      static_cast<uint64_t>(static_cast<double>(moved_rows) * enc_w));
  *move_seconds += max_out / hw.exchange_bytes_per_sec();
  *move_seconds += static_cast<double>(master.num_rows()) * width *
                   hw.disk_scan_factor / (n * hw.scan_bytes_per_sec);
  placement.replicated = false;
  placement.column = target.column;
  return build;
}

double ClusterDatabase::ApplyDesign(const partition::PartitioningState& design) {
  double move_seconds = 0.0;
  bool built = false;
  for (schema::TableId t = 0; t < schema().num_tables(); ++t) {
    const auto& target = design.table_partition(t);
    Placement& placement = placements_[static_cast<size_t>(t)];
    bool unchanged =
        deployed_.has_value() && placement.replicated == target.replicated &&
        (target.replicated || placement.column == target.column);
    if (unchanged) continue;
    built |= PlaceTable(t, target, &move_seconds);
  }
  deployed_ = design;
  deployed_key_hash_ = HashString(design.PhysicalDesignKey());
  auto& em = EngineMetrics::Get();
  em.designs_applied.Add();
  em.repartition_seconds.AddSeconds(move_seconds);
  // Storage only grows when a layout is built; kept layouts stay resident.
  if (built) {
    em.bytes_resident.Set(static_cast<double>(storage_resident_bytes()));
    em.bytes_raw.Set(static_cast<double>(storage_raw_bytes()));
  }
  return move_seconds;
}

void ClusterDatabase::BulkAppend(double fraction, uint64_t seed) {
  LPA_CHECK(deployed_.has_value());
  // Appending auto-thaws sealed masters (storage::TableData); everything is
  // re-sealed below once the data stops changing.
  data_.BulkAppend(fraction, seed);
  SealMastersAndRefresh();
  // Kept layouts and movement terms describe the old rows. Redistribute
  // from scratch according to the deployed design (the update path itself is
  // not part of any measured experiment).
  for (schema::TableId t = 0; t < schema().num_tables(); ++t) {
    Placement& placement = placements_[static_cast<size_t>(t)];
    for (auto& layout : placement.layouts) layout.clear();
    placement.moves.clear();
    if (placement.replicated) continue;
    double ignored = 0.0;
    partition::TablePartition target{false, placement.column};
    placement.replicated = true;  // force rebuild without movement accounting
    PlaceTable(t, target, &ignored);
  }
  auto& em = EngineMetrics::Get();
  em.bytes_resident.Set(static_cast<double>(storage_resident_bytes()));
  em.bytes_raw.Set(static_cast<double>(storage_raw_bytes()));
  // The data (and thus anything a statistics refresh feeds the optimizer)
  // changed; cached plans for this deployment may no longer be the ones the
  // optimizer would pick.
  InvalidatePlanCache();
}

size_t ClusterDatabase::TableRows(schema::TableId t) const {
  return data_.table(t).num_rows();
}

const storage::TableData* ClusterDatabase::shard(schema::TableId t,
                                                 int node) const {
  const Placement& placement = placements_.at(static_cast<size_t>(t));
  if (placement.replicated || placement.column < 0) return nullptr;
  const auto& shards = DeployedShards(t);
  if (node < 0 || static_cast<size_t>(node) >= shards.size()) return nullptr;
  return &shards[static_cast<size_t>(node)];
}

std::shared_ptr<const costmodel::QueryPlan> ClusterDatabase::PlanFor(
    const workload::QuerySpec& query) const {
  auto& em = EngineMetrics::Get();
  uint64_t key = HashCombine(QuerySpecHash(query),
                             deployed_->DesignFingerprint(query.tables()));
  key = HashCombine(key, Hash64(static_cast<uint64_t>(planner_->StatsEpoch())));
  {
    std::lock_guard<std::mutex> lock(plan_cache_mu_);
    auto it = plan_cache_.find(key);
    if (it != plan_cache_.end()) {
      em.plan_cache_hits.Add();
      return it->second;
    }
  }
  em.plan_cache_misses.Add();
  auto plan = std::make_shared<costmodel::QueryPlan>(
      planner_->PlanQuery(query, *deployed_));
  std::lock_guard<std::mutex> lock(plan_cache_mu_);
  if (plan_cache_.size() >= kPlanCacheMaxEntries) plan_cache_.clear();
  // Concurrent misses computed the same deterministic plan; first insert wins.
  return plan_cache_.emplace(key, std::move(plan)).first->second;
}

void ClusterDatabase::InvalidatePlanCache() const {
  std::lock_guard<std::mutex> lock(plan_cache_mu_);
  if (!plan_cache_.empty()) {
    EngineMetrics::Get().plan_cache_invalidations.Add();
    plan_cache_.clear();
  }
}

// Implementation note: execution walks the plan tree bottom-up. Each
// operator accounts its own simulated elapsed time as max-over-nodes of the
// per-node work (CPU: tuples / rate; network: bytes sent / bandwidth) and
// adds it to the stats, mirroring how a pipeline of exchange-separated
// fragments behaves on a real cluster. Intermediate results carry only the
// columns some ancestor join's predicate reads; the root join materializes
// none. Widths are accounted per table, so no stat depends on which columns
// are carried.
//
// Determinism contract: per-node (and per-source) kernels write disjoint
// output slots and every reduction over them runs on the orchestrating
// thread in node order; floating-point accumulations replicate the serial
// addition sequence exactly (network bytes are per-row repeated additions of
// a constant, never a count*constant product, which rounds differently). The
// only order that differs from the pre-vectorized engine is the row order of
// join outputs for duplicate build keys — a permutation within a chunk,
// which no stat observes (counts, hash multisets and max-reductions are
// permutation-invariant).
QueryRunStats ClusterDatabase::RunQuery(const workload::QuerySpec& query,
                                        const costmodel::QueryPlan& plan,
                                        uint64_t design_key, ThreadPool* pool,
                                        ExecTally* tally) const {
  const auto& hw = config_.hardware;
  const int n = num_nodes();
  QueryRunStats stats;

  uint64_t& join_probes = tally->join_probes;
  uint64_t& parallel_chunks = tally->parallel_chunks;
  uint64_t& encoded_exchanged = tally->encoded_exchanged;
  const bool price_encoded = config_.price_encoded_bytes;
  // Run fn(0..count) on the pool when one is available; chunks must write
  // disjoint state. Serial fallback preserves index order.
  auto fan_out = [&](size_t count, const std::function<void(size_t)>& fn) {
    if (pool != nullptr && count > 1) {
      parallel_chunks += count;
      pool->ParallelForEach(count, 1, fn);
    } else {
      for (size_t i = 0; i < count; ++i) fn(i);
    }
  };
  // On a pool, slot i serves node i's kernels and the last slot the serial
  // ones: replicated scans and the builds shared by every node (replicated
  // or broadcast inputs). Serially everything runs one kernel at a time, so
  // one slot serves all of them: a join reads the table it built, never
  // another slot's.
  std::vector<NodeScratch> scratch(pool != nullptr ? static_cast<size_t>(n) + 1
                                                   : 1);
  NodeScratch& shared = scratch.back();
  auto node_scratch = [&](size_t node) -> NodeScratch& {
    return scratch[pool != nullptr ? node : 0];
  };

  // Recursive plan execution; `live` lists the columns of the node's tables
  // that an ancestor join reads.
  std::function<DistRelation(const PlanNode*, const std::vector<ColumnRef>&)>
      exec = [&](const PlanNode* node,
                 const std::vector<ColumnRef>& live) -> DistRelation {
    if (node->is_scan()) {
      schema::TableId t = node->table;
      const auto& placement = placements_[static_cast<size_t>(t)];
      const auto& table_meta = schema().table(t);
      double width = table_meta.row_width_bytes();
      double sel = query.SelectivityOf(t);
      uint64_t threshold = sel >= 1.0
                               ? UINT64_MAX
                               : static_cast<uint64_t>(
                                     sel * static_cast<double>(UINT64_MAX));
      uint64_t qseed = HashCombine(HashString(query.name),
                                   HashString(table_meta.name));
      DistRelation rel;
      rel.cols = live;
      rel.width = width;
      rel.enc_width = table_enc_width_[static_cast<size_t>(t)];

      // Two passes: select row indices first (block-decoding the rid column
      // through the reusable scratch), then one exact resize per slot and an
      // encoding-aware gather per column. Unfiltered scans decode the needed
      // columns wholesale. Sources may be sealed (encoded) or plain; either
      // way the materialized chunks are identical, so everything downstream
      // (joins, exchanges, stats) is bit-identical.
      auto scan_chunk = [&](const storage::TableData& src, NodeScratch* sc,
                            std::vector<std::vector<int64_t>>* out,
                            size_t* out_rows) {
        const size_t slots = rel.cols.size();
        if (threshold == UINT64_MAX) {
          out->assign(slots, {});
          for (size_t s = 0; s < slots; ++s) {
            src.view(rel.cols[s].column).CopyTo(&(*out)[s]);
          }
          *out_rows = src.num_rows();
          return;
        }
        auto& selected = sc->selected;
        selected.clear();
        selected.reserve(src.num_rows());
        src.rid_view().ForEachBlock(
            &sc->values, [&](size_t start, size_t count, const int64_t* rids) {
              for (size_t j = 0; j < count; ++j) {
                if (Hash64(static_cast<uint64_t>(rids[j]) ^ qseed) <=
                    threshold) {
                  selected.push_back(static_cast<uint32_t>(start + j));
                }
              }
            });
        const size_t count = selected.size();
        out->assign(slots, {});
        for (size_t s = 0; s < slots; ++s) {
          auto& dst = (*out)[s];
          dst.resize(count);
          src.view(rel.cols[s].column)
              .Gather(selected.data(), count, dst.data(), &sc->values);
        }
        *out_rows = count;
      };

      if (!hw.pushdown_filters && sel < 1.0) {
        rel.byte_inflation = 1.0 / sel;
      }
      if (placement.replicated) {
        rel.replicated = true;
        rel.data.resize(1);
        rel.rows.resize(1);
        scan_chunk(data_.table(t), &shared, &rel.data[0], &rel.rows[0]);
        // Each node scans its full replica; elapsed equals one full scan.
        stats.scan_seconds += static_cast<double>(data_.table(t).num_rows()) *
                              width * hw.disk_scan_factor /
                              hw.scan_bytes_per_sec;
      } else {
        const auto& shards = DeployedShards(t);
        rel.data.resize(static_cast<size_t>(n));
        rel.rows.resize(static_cast<size_t>(n));
        fan_out(static_cast<size_t>(n), [&](size_t i) {
          scan_chunk(shards[i], &node_scratch(i), &rel.data[i], &rel.rows[i]);
        });
        double max_bytes = 0.0;
        for (const auto& shard : shards) {
          max_bytes = std::max(max_bytes,
                               static_cast<double>(shard.num_rows()) * width);
        }
        stats.scan_seconds +=
            max_bytes * hw.disk_scan_factor / hw.scan_bytes_per_sec;
      }
      return rel;
    }

    const auto& pred = query.joins[static_cast<size_t>(node->predicate)];
    // The inputs carry what the ancestors read plus this predicate's
    // columns, each from the side that scans its table.
    std::vector<ColumnRef> needed = live;
    for (const auto& eq : pred.equalities) {
      for (const auto& ref : {eq.left, eq.right}) {
        if (std::find(needed.begin(), needed.end(), ref) == needed.end()) {
          needed.push_back(ref);
        }
      }
    }
    std::vector<ColumnRef> left_live, right_live;
    for (const auto& ref : needed) {
      (Scans(node->left.get(), ref.table) ? left_live : right_live)
          .push_back(ref);
    }
    DistRelation left = exec(node->left.get(), left_live);
    DistRelation right = exec(node->right.get(), right_live);

    // Key slots per side, one per equality (oriented by membership).
    std::vector<int> lslots, rslots;
    for (const auto& eq : pred.equalities) {
      int ll = left.SlotOf(eq.left), lr = left.SlotOf(eq.right);
      int rl = right.SlotOf(eq.left), rr = right.SlotOf(eq.right);
      if (ll >= 0 && rr >= 0) {
        lslots.push_back(ll);
        rslots.push_back(rr);
      } else if (lr >= 0 && rl >= 0) {
        lslots.push_back(lr);
        rslots.push_back(rl);
      } else {
        LPA_LOG(Error) << "join equality columns missing from inputs";
        std::abort();
      }
    }

    // Reshuffle a partitioned side by the hash of its align-equality column.
    // Pass 1 routes every row (fanned per source node, disjoint outputs);
    // pass 2 materializes each destination chunk at its exact size through
    // per-(source, destination) write windows that reproduce the serial
    // source-major row order. Network bytes accumulate one row at a time per
    // source (the serial addition sequence) before the node-order merge.
    auto reshuffle = [&](DistRelation* rel, int align_slot) {
      LPA_CHECK(!rel->replicated);
      const size_t nn = static_cast<size_t>(n);
      const size_t slots = rel->cols.size();
      std::vector<std::vector<uint32_t>> dst_of(nn);
      std::vector<std::vector<size_t>> counts(nn, std::vector<size_t>(nn, 0));
      fan_out(nn, [&](size_t src) {
        const auto& keycol = rel->data[src][static_cast<size_t>(align_slot)];
        const size_t rows = rel->rows[src];
        auto& dsts = dst_of[src];
        dsts.resize(rows);
        auto& cnt = counts[src];
        for (size_t r = 0; r < rows; ++r) {
          uint32_t dst = static_cast<uint32_t>(
              Hash64(static_cast<uint64_t>(keycol[r])) %
              static_cast<uint64_t>(n));
          dsts[r] = dst;
          ++cnt[dst];
        }
      });
      // Exact destination sizes and disjoint per-(src, dst) write offsets.
      std::vector<size_t> fresh_rows(nn, 0);
      std::vector<std::vector<size_t>> offset(nn, std::vector<size_t>(nn, 0));
      for (size_t dst = 0; dst < nn; ++dst) {
        size_t total = 0;
        for (size_t src = 0; src < nn; ++src) {
          offset[src][dst] = total;
          total += counts[src][dst];
        }
        fresh_rows[dst] = total;
      }
      // One slot at a time, each source column freed once scattered, so
      // the side is held about once rather than twice.
      std::vector<std::vector<std::vector<int64_t>>> fresh(
          nn, std::vector<std::vector<int64_t>>(slots));
      for (size_t s = 0; s < slots; ++s) {
        for (size_t dst = 0; dst < nn; ++dst) {
          fresh[dst][s].resize(fresh_rows[dst]);
        }
        fan_out(nn, [&](size_t src) {
          std::vector<size_t> cursor(offset[src]);
          const auto& dsts = dst_of[src];
          const auto& col = rel->data[src][s];
          for (size_t r = 0; r < rel->rows[src]; ++r) {
            fresh[dsts[r]][s][cursor[dsts[r]]++] = col[r];
          }
          std::vector<int64_t>().swap(rel->data[src][s]);
        });
      }
      std::vector<double> out_bytes(nn, 0.0);
      std::vector<double> enc_out(nn, 0.0);
      const double row_bytes =
          (price_encoded ? rel->enc_width : rel->width) * rel->byte_inflation;
      const double enc_row_bytes = rel->enc_width * rel->byte_inflation;
      for (size_t src = 0; src < nn; ++src) {
        // Every row that crosses nodes ships row_bytes; add it per row, as
        // the row-at-a-time loop did, so the double sum is bit-identical.
        const size_t crossing = rel->rows[src] - counts[src][src];
        double bytes = 0.0;
        for (size_t i = 0; i < crossing; ++i) bytes += row_bytes;
        out_bytes[src] = bytes;
        // Counter-only (never feeds seconds), so a product is fine here.
        enc_out[src] = static_cast<double>(crossing) * enc_row_bytes;
      }
      double max_out = *std::max_element(out_bytes.begin(), out_bytes.end());
      stats.net_seconds += max_out / hw.exchange_bytes_per_sec();
      double total_out = 0.0;
      double total_enc = 0.0;
      for (size_t src = 0; src < nn; ++src) {
        total_out += out_bytes[src];
        total_enc += enc_out[src];
      }
      stats.bytes_shuffled += static_cast<uint64_t>(total_out);
      encoded_exchanged += static_cast<uint64_t>(total_enc);
      rel->data = std::move(fresh);
      rel->rows = std::move(fresh_rows);
    };

    // Broadcast a side: gather everything (freeing the node chunks), count
    // per-node sends. Returns the full input (a replicated side already is
    // one).
    auto broadcast = [&](DistRelation& rel,
                         std::vector<std::vector<int64_t>>* gathered,
                         size_t* full_rows)
        -> const std::vector<std::vector<int64_t>>* {
      if (rel.replicated) {
        *full_rows = rel.rows[0];
        return &rel.data[0];
      }
      Gather(rel, gathered, full_rows);
      for (auto& chunk : rel.data) {
        std::vector<std::vector<int64_t>>().swap(chunk);
      }
      const double bw = price_encoded ? rel.enc_width : rel.width;
      double max_chunk = 0.0, total = 0.0, total_enc = 0.0;
      for (size_t node = 0; node < rel.data.size(); ++node) {
        double bytes =
            static_cast<double>(rel.rows[node]) * bw * rel.byte_inflation;
        max_chunk = std::max(max_chunk, bytes);
        total += bytes;
        total_enc += static_cast<double>(rel.rows[node]) * rel.enc_width *
                     rel.byte_inflation;
      }
      stats.net_seconds += max_chunk * (n - 1) / hw.exchange_bytes_per_sec();
      stats.bytes_shuffled += static_cast<uint64_t>(total * (n - 1));
      stats.bytes_broadcast += static_cast<uint64_t>(total * (n - 1));
      encoded_exchanged += static_cast<uint64_t>(total_enc * (n - 1));
      return gathered;
    };

    int align = node->align_equality;
    switch (node->strategy) {
      case JoinStrategy::kRepartitionLeft:
        reshuffle(&left, lslots[static_cast<size_t>(align)]);
        break;
      case JoinStrategy::kRepartitionRight:
        reshuffle(&right, rslots[static_cast<size_t>(align)]);
        break;
      case JoinStrategy::kRepartitionBoth:
        reshuffle(&left, lslots[static_cast<size_t>(align)]);
        reshuffle(&right, rslots[static_cast<size_t>(align)]);
        break;
      default:
        break;
    }

    // The output carries exactly `live`; out_from[k] is the (side, slot)
    // output slot k copies.
    DistRelation out;
    out.cols = live;
    out.width = left.width + right.width;
    out.enc_width = left.enc_width + right.enc_width;
    std::vector<std::pair<bool, size_t>> out_from;
    for (const auto& ref : live) {
      int ls = left.SlotOf(ref);
      if (ls >= 0) {
        out_from.emplace_back(true, static_cast<size_t>(ls));
      } else {
        int rs = right.SlotOf(ref);
        LPA_CHECK(rs >= 0);
        out_from.emplace_back(false, static_cast<size_t>(rs));
      }
    }

    // Serial build of one chunk into `sc`'s join table.
    auto build_table = [&](NodeScratch* sc,
                           const std::vector<std::vector<int64_t>>& bcols,
                           size_t brows, const std::vector<int>& bslots,
                           uint64_t* probes) {
      LPA_CHECK(brows < JoinTable::kNone);
      sc->table.Reset(brows);
      for (size_t begin = 0; begin < brows; begin += kHashBlock) {
        const size_t count = std::min(kHashBlock, brows - begin);
        KeyHashes(bcols, bslots, begin, count, &sc->hashes);
        for (size_t r = 0; r < count; ++r) {
          sc->table.Insert(sc->hashes[r], static_cast<uint32_t>(begin + r),
                           probes);
        }
      }
    };

    // Probe one chunk against a built table and materialize the matches:
    // one pass collects the (build, probe) row pairs into the reused match
    // arrays, then every output column fills with one exact resize + tight
    // loop. Without output columns only the count is kept.
    auto local_join = [&](const JoinTable& jt, NodeScratch* sc,
                          const std::vector<std::vector<int64_t>>& bcols,
                          const std::vector<std::vector<int64_t>>& pcols,
                          size_t prows, const std::vector<int>& pslots,
                          bool build_is_left,
                          std::vector<std::vector<int64_t>>* ocols,
                          size_t* orows, uint64_t* probes) {
      LPA_CHECK(prows < JoinTable::kNone);
      // Visits every (build row, probe row) match in probe-row order,
      // hashing the probe keys a block at a time.
      auto for_each_match = [&](auto&& visit) {
        for (size_t begin = 0; begin < prows; begin += kHashBlock) {
          const size_t count = std::min(kHashBlock, prows - begin);
          KeyHashes(pcols, pslots, begin, count, &sc->hashes);
          for (size_t r = 0; r < count; ++r) {
            for (uint32_t e = jt.Find(sc->hashes[r], probes);
                 e != JoinTable::kNone; e = jt.entry(e).next) {
              visit(jt.entry(e).row, static_cast<uint32_t>(begin + r));
            }
          }
        }
      };
      if (out_from.empty()) {
        size_t total = 0;
        for_each_match([&](uint32_t, uint32_t) { ++total; });
        LPA_CHECK(total < 50'000'000);  // guard against plan pathologies
        ocols->clear();
        *orows = total;
        return;
      }
      sc->build_rows.clear();
      sc->probe_rows.clear();
      for_each_match([&](uint32_t build_row, uint32_t probe_row) {
        sc->build_rows.push_back(build_row);
        sc->probe_rows.push_back(probe_row);
      });
      // Guard against plan pathologies.
      LPA_CHECK(sc->build_rows.size() < 50'000'000);
      const size_t total = sc->build_rows.size();
      ocols->assign(out_from.size(), {});
      for (size_t k = 0; k < out_from.size(); ++k) {
        const auto [from_left, slot] = out_from[k];
        const bool from_build = from_left == build_is_left;
        const auto& col = (from_build ? bcols : pcols)[slot];
        const uint32_t* rows =
            (from_build ? sc->build_rows : sc->probe_rows).data();
        auto& dst = (*ocols)[k];
        dst.resize(total);
        for (size_t i = 0; i < total; ++i) dst[i] = col[rows[i]];
      }
      *orows = total;
    };

    if (left.replicated && right.replicated) {
      out.replicated = true;
      out.data.resize(1);
      out.rows.resize(1);
      build_table(&shared, left.data[0], left.rows[0], lslots, &join_probes);
      local_join(shared.table, &scratch[0], left.data[0], right.data[0],
                 right.rows[0], rslots, /*build_is_left=*/true, &out.data[0],
                 &out.rows[0], &join_probes);
      double max_tuples =
          static_cast<double>(left.rows[0] + right.rows[0] + out.rows[0]);
      stats.cpu_seconds += max_tuples / hw.join_tuples_per_sec;
      return out;
    }

    // Build side: a replicated input, a broadcast input, or the co-located
    // left chunk.
    std::vector<std::vector<int64_t>> gathered;
    const std::vector<std::vector<int64_t>>* full = nullptr;
    size_t full_rows = 0;
    bool build_full_left = false, build_full_right = false;
    if (node->strategy == JoinStrategy::kBroadcastLeft) {
      full = broadcast(left, &gathered, &full_rows);
      build_full_left = true;
    } else if (node->strategy == JoinStrategy::kBroadcastRight) {
      full = broadcast(right, &gathered, &full_rows);
      build_full_right = true;
    } else if (left.replicated) {
      full = &left.data[0];
      full_rows = left.rows[0];
      build_full_left = true;
    } else if (right.replicated) {
      full = &right.data[0];
      full_rows = right.rows[0];
      build_full_right = true;
    }

    out.data.resize(static_cast<size_t>(n));
    out.rows.resize(static_cast<size_t>(n));
    std::vector<double> node_tuples(static_cast<size_t>(n), 0.0);
    std::vector<uint64_t> node_probes(static_cast<size_t>(n), 0);
    if (build_full_left || build_full_right) {
      // One shared build (the multimap engine rebuilt it per node), then
      // every node probes it concurrently with its own probe counter.
      build_table(&shared, *full, full_rows, build_full_left ? lslots : rslots,
                  &join_probes);
      DistRelation& probe_rel = build_full_left ? right : left;
      const auto& pslots = build_full_left ? rslots : lslots;
      fan_out(static_cast<size_t>(n), [&](size_t i) {
        local_join(shared.table, &node_scratch(i), *full, probe_rel.data[i],
                   probe_rel.rows[i], pslots, build_full_left, &out.data[i],
                   &out.rows[i], &node_probes[i]);
        node_tuples[i] = static_cast<double>(full_rows + probe_rel.rows[i] +
                                             out.rows[i]);
        // Node i's input is spent once its output is built.
        std::vector<std::vector<int64_t>>().swap(probe_rel.data[i]);
      });
    } else {
      fan_out(static_cast<size_t>(n), [&](size_t i) {
        NodeScratch& sc = node_scratch(i);
        build_table(&sc, left.data[i], left.rows[i], lslots, &node_probes[i]);
        local_join(sc.table, &sc, left.data[i], right.data[i], right.rows[i],
                   rslots, /*build_is_left=*/true, &out.data[i], &out.rows[i],
                   &node_probes[i]);
        node_tuples[i] = static_cast<double>(left.rows[i] + right.rows[i] +
                                             out.rows[i]);
        std::vector<std::vector<int64_t>>().swap(left.data[i]);
        std::vector<std::vector<int64_t>>().swap(right.data[i]);
      });
    }
    double max_tuples = 0.0;
    for (int i = 0; i < n; ++i) {
      max_tuples = std::max(max_tuples, node_tuples[static_cast<size_t>(i)]);
      join_probes += node_probes[static_cast<size_t>(i)];
    }
    stats.cpu_seconds += max_tuples / hw.join_tuples_per_sec;
    return out;
  };

  // Only the root's row count is read.
  DistRelation result = exec(plan.root.get(), {});

  stats.rows_out = result.TotalRows();
  double out_bytes = static_cast<double>(stats.rows_out) *
                     query.output_fraction * result.width;
  stats.output_seconds = out_bytes / hw.network_bytes_per_sec +
                         static_cast<double>(stats.rows_out) /
                             (n * hw.join_tuples_per_sec);

  double total = stats.scan_seconds + stats.net_seconds + stats.cpu_seconds +
                 stats.output_seconds;
  // Deterministic measurement noise per (query, design key).
  uint64_t noise_seed = HashCombine(
      HashCombine(config_.seed, HashString(query.name)), design_key);
  Rng noise_rng(noise_seed);
  double factor = 1.0 + config_.noise_stddev * noise_rng.Gaussian();
  factor = std::clamp(factor, 0.5, 1.5);
  stats.seconds = total * factor;
  return stats;
}

QueryRunStats ClusterDatabase::ExecuteQuery(const workload::QuerySpec& query,
                                            EvalContext* ctx) const {
  return ExecuteQueries({QueryRun{&query, deployed_key_hash_}}, ctx).front();
}

std::vector<QueryRunStats> ClusterDatabase::ExecuteQueries(
    const std::vector<QueryRun>& runs, EvalContext* ctx) const {
  LPA_CHECK(runs.empty() || deployed_.has_value());
  ThreadPool* pool = ctx != nullptr ? ctx->pool() : nullptr;
  const size_t count = runs.size();
  // Plans first, in batch order on this thread: the plan cache and the
  // planner's memo grow in the same order at any thread count, and their
  // long-lived entries stay off the pool threads' heaps.
  std::vector<std::shared_ptr<const costmodel::QueryPlan>> plans(count);
  for (size_t i = 0; i < count; ++i) plans[i] = PlanFor(*runs[i].query);
  std::vector<QueryRunStats> stats(count);
  std::vector<ExecTally> tallies(count);
  const bool side_by_side = pool != nullptr && count > 1;
  if (side_by_side) {
    // One region with a chunk per participant; each participant takes the
    // next query from the cursor until none is left, so a thread that drew
    // short queries keeps going while another runs a long one. Every query
    // writes only its own slots, so which thread ran it never shows.
    std::atomic<size_t> cursor{0};
    const size_t participants =
        std::min(count, static_cast<size_t>(pool->num_workers()) + 1);
    pool->ParallelFor(participants, 1, [&](size_t, size_t) {
      for (size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
           i < count; i = cursor.fetch_add(1, std::memory_order_relaxed)) {
        stats[i] = RunQuery(*runs[i].query, *plans[i], runs[i].design_key,
                            nullptr, &tallies[i]);
      }
    });
  } else {
    for (size_t i = 0; i < count; ++i) {
      stats[i] = RunQuery(*runs[i].query, *plans[i], runs[i].design_key, pool,
                          &tallies[i]);
    }
  }
  auto& em = EngineMetrics::Get();
  if (side_by_side) em.parallel_chunks.Add(count);
  for (size_t i = 0; i < count; ++i) {
    const QueryRunStats& s = stats[i];
    const ExecTally& t = tallies[i];
    em.queries_executed.Add();
    em.rows_out.Add(s.rows_out);
    em.bytes_shuffled.Add(s.bytes_shuffled);
    em.bytes_broadcast.Add(s.bytes_broadcast);
    em.cpu_seconds.AddSeconds(s.cpu_seconds);
    em.join_probes.Add(t.join_probes);
    if (t.parallel_chunks > 0) em.parallel_chunks.Add(t.parallel_chunks);
    if (t.encoded_exchanged > 0) {
      em.encoded_bytes_exchanged.Add(t.encoded_exchanged);
    }
    em.query_seconds.Observe(s.seconds);
  }
  return stats;
}

std::string ClusterDatabase::Explain(const workload::QuerySpec& query) const {
  LPA_CHECK(deployed_.has_value());
  auto plan = PlanFor(query);
  auto stats = ExecuteQuery(query);
  std::ostringstream os;
  os << "EXPLAIN " << query.name << " (deployed: "
     << deployed_->PhysicalDesignKey() << ")\n";
  os << plan->ToString(schema(), query);
  os << "measured: " << stats.seconds << "s total (scan " << stats.scan_seconds
     << "s, net " << stats.net_seconds << "s, cpu " << stats.cpu_seconds
     << "s, output " << stats.output_seconds << "s), " << stats.rows_out
     << " result rows, " << stats.bytes_shuffled << " bytes shuffled\n";
  return os.str();
}

double ClusterDatabase::ExecuteWorkload(const workload::Workload& workload,
                                        EvalContext* ctx) const {
  const auto& freqs = workload.frequencies();
  std::vector<QueryRun> runs;
  for (int i = 0; i < workload.num_queries(); ++i) {
    if (freqs[static_cast<size_t>(i)] > 0.0) {
      runs.push_back({&workload.query(i), deployed_key_hash_});
    }
  }
  const std::vector<QueryRunStats> stats = ExecuteQueries(runs, ctx);
  double total = 0.0;
  size_t k = 0;
  for (int i = 0; i < workload.num_queries(); ++i) {
    const double f = freqs[static_cast<size_t>(i)];
    if (f > 0.0) total += f * stats[k++].seconds;
  }
  return total;
}

}  // namespace lpa::engine
