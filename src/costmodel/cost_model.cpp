#include "costmodel/cost_model.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <sstream>

#include "telemetry/registry.h"
#include "util/logging.h"

namespace lpa::costmodel {

namespace {

/// DP-search counters; accumulated locally per search and flushed once so
/// the inner enumeration loops stay atomic-free.
struct CostModelMetrics {
  telemetry::Counter& plans;
  telemetry::Counter& dp_subsets;
  telemetry::Counter& dp_splits;
  telemetry::Counter& pareto_entries;

  static CostModelMetrics& Get() {
    auto& reg = telemetry::MetricsRegistry::Global();
    static CostModelMetrics* m = new CostModelMetrics{
        reg.GetCounter("costmodel.plans.count"),
        reg.GetCounter("costmodel.dp_subsets.count"),
        reg.GetCounter("costmodel.dp_splits.count"),
        reg.GetCounter("costmodel.pareto_entries.count")};
    return *m;
  }
};

using partition::PartitioningState;
using schema::ColumnRef;
using workload::QuerySpec;

/// Partitioning property of an intermediate result: replicated everywhere,
/// or hash-partitioned on an equivalence class of join columns. The class is
/// a mask of the query-local column ids PlanSearch assigns; `distinct` prices
/// the skew of the partitioning but is not part of the class key.
struct Prop {
  bool replicated = false;
  uint64_t cols = 0;
  int64_t distinct = 1;
};

/// One Pareto entry of the DP table: a plan for a table subset with a given
/// output partitioning property.
struct Entry {
  double cost = 0.0;   // accumulated net + cpu seconds (scans added later)
  double card = 0.0;   // estimated output rows
  double width = 0.0;  // output row width in bytes
  /// Exchange-priced row width: encoded bytes/row when the model carries
  /// measured compression ratios, else equal to `width`. Shipping costs use
  /// this; output costs keep the logical `width` (results are decoded).
  double xwidth = 0.0;
  /// Bytes multiplier when this subplan is shipped over an exchange. For a
  /// base table under an engine without predicate pushdown below exchanges
  /// (Postgres-XL-like), the *unfiltered* table is shipped: factor = 1/sel.
  double ship = 1.0;
  Prop prop;
  // Provenance for plan reconstruction: the input subsets and their entries'
  // arena indices.
  uint32_t lset = 0, rset = 0;
  uint32_t lentry = 0, rentry = 0;
  int predicate = -1;
  JoinStrategy strategy = JoinStrategy::kCoLocated;
  int align_eq = 0;
  double net_s = 0.0, cpu_s = 0.0;  // this join's own cost split
};

/// A join equality oriented for a split: `left` is the column bit on the
/// split's left side.
struct OrientedEquality {
  uint64_t left = 0, right = 0;
  int64_t key_distinct = 0;  // min of the two columns' distinct counts
  double key_skew = 1.0;     // SkewFactor(key_distinct, nodes)
  int index = 0;             // into JoinPredicate::equalities
};

struct PredicateInfo {
  int index = 0;              // into QuerySpec::joins
  uint32_t lbit = 0, rbit = 0;  // query-local bits of the two tables
  /// Denominator of the join-cardinality estimate. For a (possibly
  /// composite) equi-join we use max over the two endpoint tables T of
  /// min(prod of the distinct counts of T's key columns, |T|): exact for
  /// single-column FK joins, and for composite keys it identifies the side
  /// on which the key is (closest to) unique.
  double denominator = 1.0;
  /// The equalities oriented for a split whose left side holds the
  /// predicate's left table ([0]) or its right table ([1]).
  std::vector<OrientedEquality> oriented[2];
  /// Symmetric repartitioning uses the first equality with the most distinct
  /// key values (the least skewed).
  int best_eq = 0;
};

class PlanSearch {
 public:
  PlanSearch(const CostModel& model, const QuerySpec& query,
             const PartitioningState& state)
      : model_(model),
        schema_(model.schema()),
        hw_(model.hardware()),
        query_(query),
        state_(state) {
    const int k = query.num_tables();
    LPA_CHECK(k >= 1 && k <= QuerySpec::kMaxTables);
    for (const auto& join : query.joins) {
      PredicateInfo info;
      info.index = static_cast<int>(preds_.size());
      info.lbit = 1u << LocalOf(join.left_table());
      info.rbit = 1u << LocalOf(join.right_table());
      double prod_l = 1.0, prod_r = 1.0;
      int64_t best_distinct = -1;
      for (size_t i = 0; i < join.equalities.size(); ++i) {
        const auto& eq = join.equalities[i];
        int64_t dl = schema_.column(eq.left).distinct_count;
        int64_t dr = schema_.column(eq.right).distinct_count;
        prod_l = std::min(prod_l * static_cast<double>(dl), 1e30);
        prod_r = std::min(prod_r * static_cast<double>(dr), 1e30);
        int64_t key = std::min(dl, dr);
        OrientedEquality o{ColumnBit(eq.left), ColumnBit(eq.right), key,
                           SkewFactor(key, hw_.num_nodes), static_cast<int>(i)};
        info.oriented[0].push_back(o);
        std::swap(o.left, o.right);
        info.oriented[1].push_back(o);
        if (o.key_distinct > best_distinct) {
          best_distinct = o.key_distinct;
          info.best_eq = o.index;
        }
      }
      double rows_l =
          static_cast<double>(schema_.table(join.left_table()).row_count);
      double rows_r =
          static_cast<double>(schema_.table(join.right_table()).row_count);
      info.denominator =
          std::max(std::min(prod_l, rows_l), std::min(prod_r, rows_r));
      info.denominator = std::max(info.denominator, 1.0);
      preds_.push_back(std::move(info));
    }
    factors_.assign(preds_.size() * static_cast<size_t>(k + 1),
                    std::numeric_limits<double>::quiet_NaN());
    buckets_.resize(size_t{1} << k);
  }

  /// Runs the DP; the plan tree is built only when `with_tree` is set.
  QueryPlan Run(bool with_tree) {
    const int k = query_.num_tables();
    const uint32_t full = (1u << k) - 1;
    // Base relations.
    for (int i = 0; i < k; ++i) {
      buckets_[1u << i] = {Size(), Size() + 1};
      arena_.push_back(BaseEntry(i));
    }
    // Connected-subgraph DP in ascending mask order: every proper submask is
    // numerically smaller, so its entries are already final, and each mask's
    // entries are appended to the arena contiguously.
    uint64_t subsets = 0, splits = 0;
    for (uint32_t mask = 1; mask <= full; ++mask) {
      const int joined = std::popcount(mask);
      if (joined < 2) continue;
      ++subsets;
      buckets_[mask].begin = Size();
      uint32_t lowest = mask & (~mask + 1);
      // Enumerate splits; anchoring the lowest bit on the left halves the
      // enumeration without losing plans (strategies cover both sides).
      for (uint32_t sub = (mask - 1) & mask; sub; sub = (sub - 1) & mask) {
        if (!(sub & lowest)) continue;
        uint32_t other = mask ^ sub;
        const Bucket lb = buckets_[sub], rb = buckets_[other];
        if (lb.empty() || rb.empty()) continue;
        // The first connecting predicate drives alignment decisions; extra
        // ones (cyclic join graphs) only tighten cardinality.
        const PredicateInfo* prime = nullptr;
        split_factors_.clear();
        for (const auto& p : preds_) {
          if (((sub & p.lbit) && (other & p.rbit)) ||
              ((sub & p.rbit) && (other & p.lbit))) {
            if (prime == nullptr) prime = &p;
            split_factors_.push_back(JoinFactor(p, joined));
          }
        }
        if (prime == nullptr) continue;
        ++splits;
        for (uint32_t li = lb.begin; li < lb.end; ++li) {
          for (uint32_t ri = rb.begin; ri < rb.end; ++ri) {
            EmitJoins(mask, sub, other, li, ri, *prime);
          }
        }
      }
      buckets_[mask].end = Size();
    }
    const Bucket top = buckets_[full];
    LPA_CHECK(!top.empty());  // guaranteed: join graph is connected
    if (subsets > 0) {  // a single scan enumerates no joins
      auto& cm = CostModelMetrics::Get();
      cm.dp_subsets.Add(subsets);
      cm.dp_splits.Add(splits);
      cm.pareto_entries.Add(arena_.size());
    }
    // Pick the cheapest full plan and assemble the QueryPlan.
    uint32_t best = top.begin;
    for (uint32_t i = top.begin + 1; i < top.end; ++i) {
      if (arena_[i].cost < arena_[best].cost) best = i;
    }
    QueryPlan plan;
    if (with_tree) plan.root = Reconstruct(full, best);
    const Entry& e = arena_[best];
    AccumulateJoinCosts(full, best, &plan);
    plan.scan_seconds = ScanSeconds();
    double out_rows = e.card * query_.output_fraction;
    plan.output_seconds = out_rows * e.width / hw_.network_bytes_per_sec +
                          e.card / (hw_.num_nodes * hw_.join_tuples_per_sec);
    return plan;
  }

 private:
  /// The entries of one table subset: arena indices [begin, end).
  struct Bucket {
    uint32_t begin = 0, end = 0;
    bool empty() const { return begin == end; }
  };

  uint32_t Size() const { return static_cast<uint32_t>(arena_.size()); }

  int LocalOf(schema::TableId table) const {
    for (int i = 0; i < query_.num_tables(); ++i) {
      if (query_.scans[static_cast<size_t>(i)].table == table) return i;
    }
    LPA_CHECK(false);  // Validate: joins reference scanned tables
    return -1;
  }

  /// The query-local bit of a column, assigned on first use.
  uint64_t ColumnBit(const ColumnRef& ref) {
    auto it = std::find(columns_.begin(), columns_.end(), ref);
    if (it == columns_.end()) {
      LPA_CHECK(columns_.size() < size_t{QuerySpec::kMaxPlanColumns});
      it = columns_.insert(it, ref);
    }
    return uint64_t{1} << (it - columns_.begin());
  }

  /// CardinalityScale(query, p, joined) / p.denominator, memoized per search.
  double JoinFactor(const PredicateInfo& p, int joined) {
    const int slot = p.index * (query_.num_tables() + 1) + joined;
    double& f = factors_[static_cast<size_t>(slot)];
    if (std::isnan(f)) {
      f = model_.CardinalityScale(query_, p.index, joined) / p.denominator;
    }
    return f;
  }

  Entry BaseEntry(int local) {
    const auto& scan = query_.scans[static_cast<size_t>(local)];
    const auto& table = schema_.table(scan.table);
    Entry e;
    e.card = static_cast<double>(table.row_count) * scan.selectivity;
    e.width = static_cast<double>(table.row_width_bytes());
    e.xwidth = model_.ExchangeRowBytes(scan.table);
    if (!hw_.pushdown_filters && scan.selectivity < 1.0) {
      e.ship = 1.0 / scan.selectivity;
    }
    const auto& tp = state_.table_partition(scan.table);
    if (tp.replicated) {
      e.prop.replicated = true;
    } else {
      e.prop.cols = ColumnBit(ColumnRef{scan.table, tp.column});
      e.prop.distinct =
          table.columns[static_cast<size_t>(tp.column)].distinct_count;
    }
    return e;
  }

  void EmitJoins(uint32_t mask, uint32_t sub, uint32_t other, uint32_t li,
                 uint32_t ri, const PredicateInfo& prime) {
    // Copies: inserting into the arena may reallocate it.
    const Entry L = arena_[li];
    const Entry R = arena_[ri];
    const int n = hw_.num_nodes;
    const double bw = hw_.exchange_bytes_per_sec();
    const double rate = hw_.join_tuples_per_sec;

    // Join cardinality: FK-style estimate per connecting predicate, most
    // selective equality dominating (composite keys carry functional
    // dependencies), scaled by the (possibly noisy) CardinalityScale hook.
    double card = L.card * R.card;
    for (double factor : split_factors_) card *= factor;
    card = std::max(card, 1.0);
    double width = L.width + R.width;
    double xwidth = L.xwidth + R.xwidth;
    double bytes_l = L.card * L.xwidth * L.ship;
    double bytes_r = R.card * R.xwidth * R.ship;
    const auto& oriented = prime.oriented[(sub & prime.lbit) ? 0 : 1];

    double skew_l = L.prop.replicated ? 1.0 : SkewFactor(L.prop.distinct, n);
    double skew_r = R.prop.replicated ? 1.0 : SkewFactor(R.prop.distinct, n);

    auto emit = [&](JoinStrategy strategy, int align_eq, double net_s,
                    double cpu_s, const Prop& prop) {
      Entry e;
      e.cost = L.cost + R.cost + net_s + cpu_s;
      e.card = card;
      e.width = width;
      e.xwidth = xwidth;
      e.prop = prop;
      e.lset = sub;
      e.rset = other;
      e.lentry = li;
      e.rentry = ri;
      e.predicate = prime.index;
      e.strategy = strategy;
      e.align_eq = align_eq;
      e.net_s = net_s;
      e.cpu_s = cpu_s;
      Insert(mask, e);
    };

    // --- Replication-based locality -------------------------------------
    if (L.prop.replicated && R.prop.replicated) {
      // Both replicated: the join is computed redundantly on one node.
      double cpu = (L.card + R.card + card) / rate;
      emit(JoinStrategy::kCoLocated, 0, 0.0, cpu, Prop{true});
      return;  // no cheaper alternative exists
    }
    if (L.prop.replicated || R.prop.replicated) {
      const Entry& part = L.prop.replicated ? R : L;
      double skew = L.prop.replicated ? skew_r : skew_l;
      double cpu = (L.card + R.card + card) * skew / (n * rate);
      emit(JoinStrategy::kCoLocated, 0, 0.0, cpu, part.prop);
      return;  // shipping data cannot beat a free local join
    }

    // --- Co-located: both sides aligned on some equality ----------------
    for (const auto& eq : oriented) {
      if ((L.prop.cols & eq.left) && (R.prop.cols & eq.right)) {
        double skew = std::max(skew_l, skew_r);
        double cpu = (L.card + R.card + card) * skew / (n * rate);
        Prop prop{false, L.prop.cols | R.prop.cols,
                  std::max(L.prop.distinct, R.prop.distinct)};
        emit(JoinStrategy::kCoLocated, eq.index, 0.0, cpu, prop);
        return;  // dominated alternatives not worth emitting
      }
    }

    // --- Broadcast one side ----------------------------------------------
    {
      double net = bytes_l * (n - 1) / (n * bw);
      double cpu = (L.card + (R.card + card) * skew_r / n) / rate;
      emit(JoinStrategy::kBroadcastLeft, 0, net, cpu, R.prop);
    }
    {
      double net = bytes_r * (n - 1) / (n * bw);
      double cpu = (R.card + (L.card + card) * skew_l / n) / rate;
      emit(JoinStrategy::kBroadcastRight, 0, net, cpu, L.prop);
    }

    // --- Directed repartitioning: one side already aligned ---------------
    for (const auto& eq : oriented) {
      if (R.prop.cols & eq.right) {  // move L to R
        double net = bytes_l * (n - 1) / (static_cast<double>(n) * n * bw);
        double cpu = (L.card + R.card + card) * std::max(eq.key_skew, skew_r) /
                     (n * rate);
        Prop prop = R.prop;
        prop.cols |= eq.left | eq.right;
        emit(JoinStrategy::kRepartitionLeft, eq.index, net, cpu, prop);
      }
      if (L.prop.cols & eq.left) {  // move R to L
        double net = bytes_r * (n - 1) / (static_cast<double>(n) * n * bw);
        double cpu = (L.card + R.card + card) * std::max(eq.key_skew, skew_l) /
                     (n * rate);
        Prop prop = L.prop;
        prop.cols |= eq.left | eq.right;
        emit(JoinStrategy::kRepartitionRight, eq.index, net, cpu, prop);
      }
    }

    // --- Symmetric repartitioning on the least-skewed equality -----------
    {
      const auto& eq = oriented[static_cast<size_t>(prime.best_eq)];
      double net = (bytes_l + bytes_r) * (n - 1) / (static_cast<double>(n) * n * bw);
      double cpu = (L.card + R.card + card) * eq.key_skew / (n * rate);
      emit(JoinStrategy::kRepartitionBoth, eq.index, net, cpu,
           Prop{false, eq.left | eq.right, eq.key_distinct});
    }
  }

  /// Keeps the cheaper entry per property class (replicated, column mask)
  /// of the subset under construction, whose entries end the arena.
  void Insert(uint32_t mask, const Entry& entry) {
    for (uint32_t i = buckets_[mask].begin; i < Size(); ++i) {
      Entry& existing = arena_[i];
      if (existing.prop.replicated == entry.prop.replicated &&
          existing.prop.cols == entry.prop.cols) {
        if (entry.cost < existing.cost) existing = entry;
        return;
      }
    }
    arena_.push_back(entry);
  }

  std::unique_ptr<PlanNode> Reconstruct(uint32_t mask, uint32_t idx) const {
    const Entry& e = arena_[idx];
    auto node = std::make_unique<PlanNode>();
    node->est_card = e.card;
    if (std::popcount(mask) == 1) {
      int local = std::countr_zero(mask);
      node->table = query_.scans[static_cast<size_t>(local)].table;
      return node;
    }
    node->predicate = e.predicate;
    node->strategy = e.strategy;
    node->align_equality = e.align_eq;
    node->left = Reconstruct(e.lset, e.lentry);
    node->right = Reconstruct(e.rset, e.rentry);
    return node;
  }

  /// Sums the join costs of the plan rooted at `idx` in post-order.
  void AccumulateJoinCosts(uint32_t mask, uint32_t idx, QueryPlan* plan) const {
    const Entry& e = arena_[idx];
    if (std::popcount(mask) == 1) return;
    AccumulateJoinCosts(e.lset, e.lentry, plan);
    AccumulateJoinCosts(e.rset, e.rentry, plan);
    plan->net_seconds += e.net_s;
    plan->cpu_seconds += e.cpu_s;
  }

  double ScanSeconds() const {
    double total = 0.0;
    const int n = hw_.num_nodes;
    for (const auto& scan : query_.scans) {
      const auto& table = schema_.table(scan.table);
      double bytes = static_cast<double>(table.total_bytes());
      const auto& tp = state_.table_partition(scan.table);
      if (tp.replicated) {
        // Every node holds (and for a join must scan) the full copy; the
        // scan is not distributed. This is the replicate-vs-partition
        // tradeoff of Exp 5.
        total += bytes * hw_.disk_scan_factor / hw_.scan_bytes_per_sec;
      } else {
        double skew = SkewFactor(
            table.columns[static_cast<size_t>(tp.column)].distinct_count, n);
        total += bytes * hw_.disk_scan_factor * skew /
                 (n * hw_.scan_bytes_per_sec);
      }
    }
    return total;
  }

  const CostModel& model_;
  const schema::Schema& schema_;
  const HardwareProfile& hw_;
  const QuerySpec& query_;
  const PartitioningState& state_;
  std::vector<PredicateInfo> preds_;
  std::vector<ColumnRef> columns_;  // query-local column id -> column
  /// JoinFactor memo, indexed by predicate * (k + 1) + joined; NaN = unset.
  std::vector<double> factors_;
  /// JoinFactor of every predicate connecting the current split.
  std::vector<double> split_factors_;
  std::vector<Bucket> buckets_;  // indexed by table-subset mask
  std::vector<Entry> arena_;
};

void CollectStrategies(const PlanNode* node, std::vector<JoinStrategy>* out) {
  if (node == nullptr || node->is_scan()) return;
  CollectStrategies(node->left.get(), out);
  CollectStrategies(node->right.get(), out);
  out->push_back(node->strategy);
}

void RenderNode(const PlanNode* node, const schema::Schema& schema,
                const QuerySpec& query, int depth, std::ostringstream* os) {
  for (int i = 0; i < depth; ++i) *os << "  ";
  if (node->is_scan()) {
    *os << "scan " << schema.table(node->table).name << " (card "
        << node->est_card << ")\n";
    return;
  }
  const auto& eq =
      query.joins[static_cast<size_t>(node->predicate)]
          .equalities[static_cast<size_t>(node->align_equality)];
  *os << JoinStrategyName(node->strategy) << " on "
      << schema.table(eq.left.table).name << "." << schema.column(eq.left).name
      << "=" << schema.table(eq.right.table).name << "."
      << schema.column(eq.right).name << " (card " << node->est_card << ")\n";
  RenderNode(node->left.get(), schema, query, depth + 1, os);
  RenderNode(node->right.get(), schema, query, depth + 1, os);
}

}  // namespace

const char* JoinStrategyName(JoinStrategy s) {
  switch (s) {
    case JoinStrategy::kCoLocated: return "co-located";
    case JoinStrategy::kBroadcastLeft: return "broadcast-left";
    case JoinStrategy::kBroadcastRight: return "broadcast-right";
    case JoinStrategy::kRepartitionLeft: return "repartition-left";
    case JoinStrategy::kRepartitionRight: return "repartition-right";
    case JoinStrategy::kRepartitionBoth: return "repartition-both";
  }
  return "?";
}

std::vector<JoinStrategy> QueryPlan::JoinStrategies() const {
  std::vector<JoinStrategy> out;
  CollectStrategies(root.get(), &out);
  return out;
}

std::string QueryPlan::ToString(const schema::Schema& schema,
                                const workload::QuerySpec& query) const {
  std::ostringstream os;
  RenderNode(root.get(), schema, query, 0, &os);
  return os.str();
}

double SkewFactor(int64_t distinct, int nodes) {
  if (distinct <= 0) distinct = 1;
  double d = static_cast<double>(distinct);
  double n = static_cast<double>(nodes);
  double factor = 1.0 + std::sqrt(2.0 * std::log(n) * n / d);
  return std::min(factor, n);
}

CostModel::CostModel(const schema::Schema* schema, HardwareProfile hardware)
    : schema_(schema), hardware_(hardware) {}

double CostModel::CardinalityScale(const workload::QuerySpec&, int, int) const {
  return 1.0;
}

double CostModel::DesignCostScale(const workload::QuerySpec&,
                                  const partition::PartitioningState&) const {
  return 1.0;
}

double CostModel::QueryCost(const workload::QuerySpec& query,
                            const partition::PartitioningState& state) const {
  CostModelMetrics::Get().plans.Add();
  PlanSearch search(*this, query, state);
  return search.Run(/*with_tree=*/false).total_seconds() *
         DesignCostScale(query, state);
}

QueryPlan CostModel::PlanQuery(const workload::QuerySpec& query,
                               const partition::PartitioningState& state) const {
  CostModelMetrics::Get().plans.Add();
  return PlanSearch(*this, query, state).Run(/*with_tree=*/true);
}

double CostModel::WorkloadCost(const workload::Workload& workload,
                               const partition::PartitioningState& state) const {
  double total = 0.0;
  for (int i = 0; i < workload.num_queries(); ++i) {
    double f = workload.frequencies()[static_cast<size_t>(i)];
    if (f <= 0.0) continue;
    total += f * QueryCost(workload.query(i), state);
  }
  return total;
}

double CostModel::RepartitioningCost(
    const partition::PartitioningState& from,
    const partition::PartitioningState& to) const {
  double total = 0.0;
  const int n = hardware_.num_nodes;
  const double bw = hardware_.network_bytes_per_sec;
  for (schema::TableId t : from.DiffTables(to)) {
    const auto& table = schema_->table(t);
    double bytes = static_cast<double>(table.total_bytes());
    // Shipped bytes are encoded when the model carries compression ratios;
    // the disk rewrite below always works on decoded tuples.
    double ship_bytes =
        encoded_row_bytes_.empty()
            ? bytes
            : static_cast<double>(table.row_count) * ExchangeRowBytes(t);
    const auto& target = to.table_partition(t);
    if (target.replicated) {
      // Every node must receive the full table.
      total += ship_bytes * (n - 1) / (n * bw);
    } else {
      total += ship_bytes * (n - 1) / (static_cast<double>(n) * n * bw);
    }
    // Rewrite cost on the receiving side.
    total += bytes * hardware_.disk_scan_factor / (n * hardware_.scan_bytes_per_sec);
  }
  return total;
}

}  // namespace lpa::costmodel
