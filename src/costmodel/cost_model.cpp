#include "costmodel/cost_model.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
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

/// Partitioning property of an intermediate result: replicated everywhere
/// (no columns), or hash-partitioned on an equivalence class of join
/// columns. The class is a mask of the query-local column ids PlanSearch
/// assigns, never empty for a partitioned result; `skew` prices the
/// imbalance of the partitioning but is not part of the class key.
struct Prop {
  uint64_t cols = 0;
  /// SkewFactor of the partitioning key's distinct count (1 when
  /// replicated), computed once, when the property is created.
  double skew = 1.0;

  bool replicated() const { return cols == 0; }
};

/// One Pareto entry of the DP table: a plan for a table subset with a given
/// output partitioning property, packed to 96 bytes.
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
  double net_s = 0.0, cpu_s = 0.0;  // this join's own cost split
  Prop prop;
  // Provenance for plan reconstruction: the input entries' arena indices
  // and their subsets.
  uint32_t lentry = 0, rentry = 0;
  uint16_t lset = 0, rset = 0;
  int16_t predicate = -1;
  uint8_t align_eq = 0;
  JoinStrategy strategy = JoinStrategy::kCoLocated;
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

/// The entries of one table subset: arena indices [begin, end).
struct Bucket {
  uint32_t begin = 0, end = 0;
  bool empty() const { return begin == end; }
};

/// A slot of the per-subset property-class index: the class's column mask
/// and its entry's position among the subset's entries. A slot belongs to
/// the subset under construction iff its stamp is current.
struct ClassSlot {
  uint64_t cols = 0;
  uint32_t stamp = 0;
  uint32_t pos = 0;
};

/// Everything a search allocates. Each thread keeps one and reuses it, so a
/// search on a warm thread allocates nothing.
struct PlanScratch {
  std::vector<PredicateInfo> preds;
  std::vector<ColumnRef> columns;  // query-local column id -> column
  /// JoinFactor memo, indexed by predicate * (k + 1) + joined; NaN = unset.
  std::vector<double> factors;
  /// JoinFactor of every predicate connecting the current split.
  std::vector<double> split_factors;
  std::vector<Bucket> buckets;  // indexed by table-subset mask
  /// Per query-local table, the bits of the tables a predicate joins it to.
  std::vector<uint32_t> adjacent;
  std::vector<Entry> arena;
  /// Entries of the subset under construction, appended to the arena once
  /// the subset is done, so the input entries never move while it is built.
  std::vector<Entry> pending;
  std::vector<ClassSlot> index;  // open addressing, power-of-two size
  uint32_t stamp = 0;
  bool in_use = false;
};

/// The calling thread's PlanScratch, held for one search. Searches do not
/// nest: `CardinalityScale` overrides must not plan.
class ScratchLease {
 public:
  ScratchLease() {
    thread_local PlanScratch local;
    LPA_CHECK(!local.in_use);
    local.in_use = true;
    scratch_ = &local;
  }
  ~ScratchLease() { scratch_->in_use = false; }
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  PlanScratch* get() const { return scratch_; }

 private:
  PlanScratch* scratch_ = nullptr;
};

/// Seconds to scan every table of `query` once under `state`. PlanSearch
/// adds it to every plan, so it is also the floor of every plan's cost.
double ScanSeconds(const schema::Schema& schema, const HardwareProfile& hw,
                   const QuerySpec& query, const PartitioningState& state) {
  double total = 0.0;
  const int n = hw.num_nodes;
  for (const auto& scan : query.scans) {
    const auto& table = schema.table(scan.table);
    double bytes = static_cast<double>(table.total_bytes());
    const auto& tp = state.table_partition(scan.table);
    if (tp.replicated) {
      // Every node holds (and for a join must scan) the full copy; the
      // scan is not distributed. This is the replicate-vs-partition
      // tradeoff of Exp 5.
      total += bytes * hw.disk_scan_factor / hw.scan_bytes_per_sec;
    } else {
      double skew = SkewFactor(
          table.columns[static_cast<size_t>(tp.column)].distinct_count, n);
      total += bytes * hw.disk_scan_factor * skew / (n * hw.scan_bytes_per_sec);
    }
  }
  return total;
}

class PlanSearch {
 public:
  PlanSearch(const CostModel& model, const QuerySpec& query,
             const PartitioningState& state, PlanScratch* scratch)
      : model_(model),
        schema_(model.schema()),
        hw_(model.hardware()),
        query_(query),
        state_(state),
        s_(*scratch),
        arena_(scratch->arena) {
    const int k = query.num_tables();
    LPA_CHECK(k >= 1 && k <= QuerySpec::kMaxTables);
    LPA_CHECK(query.joins.size() <= size_t{INT16_MAX});  // Entry::predicate
    s_.columns.clear();
    s_.adjacent.assign(static_cast<size_t>(k), 0);
    s_.preds.resize(query.joins.size());
    for (size_t p = 0; p < query.joins.size(); ++p) {
      const auto& join = query.joins[p];
      PredicateInfo& info = s_.preds[p];
      info.index = static_cast<int>(p);
      info.lbit = 1u << LocalOf(join.left_table());
      info.rbit = 1u << LocalOf(join.right_table());
      s_.adjacent[static_cast<size_t>(std::countr_zero(info.lbit))] |=
          info.rbit;
      s_.adjacent[static_cast<size_t>(std::countr_zero(info.rbit))] |=
          info.lbit;
      info.oriented[0].clear();
      info.oriented[1].clear();
      info.best_eq = 0;
      double prod_l = 1.0, prod_r = 1.0;
      int64_t best_distinct = -1;
      LPA_CHECK(join.equalities.size() <= 256);  // Entry::align_eq
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
    }
    s_.factors.assign(s_.preds.size() * static_cast<size_t>(k + 1),
                      std::numeric_limits<double>::quiet_NaN());
    s_.buckets.resize(size_t{1} << k);
    arena_.clear();
    if (s_.index.empty()) s_.index.resize(32);
  }

  /// Runs the DP; the plan tree is built only when `with_tree` is set.
  QueryPlan Run(bool with_tree) {
    const int k = query_.num_tables();
    const uint32_t full = (1u << k) - 1;
    // Base relations.
    for (int i = 0; i < k; ++i) {
      s_.buckets[1u << i] = {Size(), Size() + 1};
      arena_.push_back(BaseEntry(i));
    }
    // Connected-subgraph DP in ascending mask order: every proper submask is
    // numerically smaller, so its entries are already final, and each mask's
    // entries are appended to the arena contiguously. A subset the joins do
    // not connect has no entries: no split of it has a joining predicate.
    uint64_t subsets = 0, splits = 0;
    for (uint32_t mask = 1; mask <= full; ++mask) {
      const int joined = std::popcount(mask);
      if (joined < 2) continue;
      ++subsets;
      if (!Connected(mask)) {
        s_.buckets[mask] = {Size(), Size()};
        continue;
      }
      BeginSubset();
      const uint32_t lowest = mask & (~mask + 1);
      const uint32_t rest = mask ^ lowest;
      // Enumerate splits in descending order of the left side; anchoring
      // the lowest bit on the left halves the enumeration without losing
      // plans (strategies cover both sides).
      uint32_t left = rest;
      do {
        left = (left - 1) & rest;
        const uint32_t sub = lowest | left;
        const uint32_t other = mask ^ sub;
        const Bucket lb = s_.buckets[sub], rb = s_.buckets[other];
        if (lb.empty() || rb.empty()) continue;
        // The first connecting predicate drives alignment decisions; extra
        // ones (cyclic join graphs) only tighten cardinality.
        const PredicateInfo* prime = nullptr;
        s_.split_factors.clear();
        for (const auto& p : s_.preds) {
          if (((sub & p.lbit) && (other & p.rbit)) ||
              ((sub & p.rbit) && (other & p.lbit))) {
            if (prime == nullptr) prime = &p;
            s_.split_factors.push_back(JoinFactor(p, joined));
          }
        }
        if (prime == nullptr) continue;
        ++splits;
        for (uint32_t li = lb.begin; li < lb.end; ++li) {
          for (uint32_t ri = rb.begin; ri < rb.end; ++ri) {
            EmitJoins(sub, other, li, ri, *prime);
          }
        }
      } while (left != 0);
      s_.buckets[mask] = {Size(),
                          Size() + static_cast<uint32_t>(s_.pending.size())};
      arena_.insert(arena_.end(), s_.pending.begin(), s_.pending.end());
    }
    const Bucket top = s_.buckets[full];
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
    plan.scan_seconds = ScanSeconds(schema_, hw_, query_, state_);
    double out_rows = e.card * query_.output_fraction;
    plan.output_seconds = out_rows * e.width / hw_.network_bytes_per_sec +
                          e.card / (hw_.num_nodes * hw_.join_tuples_per_sec);
    return plan;
  }

 private:
  uint32_t Size() const { return static_cast<uint32_t>(arena_.size()); }

  /// Whether the joins connect the tables of `mask`.
  bool Connected(uint32_t mask) const {
    uint32_t reached = mask & (~mask + 1);
    uint32_t frontier = reached;
    while (frontier != 0) {
      uint32_t next = 0;
      for (uint32_t f = frontier; f != 0; f &= f - 1) {
        next |= s_.adjacent[static_cast<size_t>(std::countr_zero(f))];
      }
      frontier = next & mask & ~reached;
      reached |= frontier;
    }
    return reached == mask;
  }

  int LocalOf(schema::TableId table) const {
    for (int i = 0; i < query_.num_tables(); ++i) {
      if (query_.scans[static_cast<size_t>(i)].table == table) return i;
    }
    LPA_CHECK(false);  // Validate: joins reference scanned tables
    return -1;
  }

  /// The query-local bit of a column, assigned on first use.
  uint64_t ColumnBit(const ColumnRef& ref) {
    auto& columns = s_.columns;
    auto it = std::find(columns.begin(), columns.end(), ref);
    if (it == columns.end()) {
      LPA_CHECK(columns.size() < size_t{QuerySpec::kMaxPlanColumns});
      it = columns.insert(it, ref);
    }
    return uint64_t{1} << (it - columns.begin());
  }

  /// CardinalityScale(query, p, joined) / p.denominator, memoized per search.
  double JoinFactor(const PredicateInfo& p, int joined) {
    const int slot = p.index * (query_.num_tables() + 1) + joined;
    double& f = s_.factors[static_cast<size_t>(slot)];
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
    if (!tp.replicated) {
      e.prop.cols = ColumnBit(ColumnRef{scan.table, tp.column});
      e.prop.skew = SkewFactor(
          table.columns[static_cast<size_t>(tp.column)].distinct_count,
          hw_.num_nodes);
    }
    return e;
  }

  void EmitJoins(uint32_t sub, uint32_t other, uint32_t li, uint32_t ri,
                 const PredicateInfo& prime) {
    // New entries go to s_.pending, so the arena (and L, R) stay put.
    const Entry& L = arena_[li];
    const Entry& R = arena_[ri];
    const int n = hw_.num_nodes;
    const double bw = hw_.exchange_bytes_per_sec();
    const double rate = hw_.join_tuples_per_sec;

    // Join cardinality: FK-style estimate per connecting predicate, most
    // selective equality dominating (composite keys carry functional
    // dependencies), scaled by the (possibly noisy) CardinalityScale hook.
    double card = L.card * R.card;
    for (double factor : s_.split_factors) card *= factor;
    card = std::max(card, 1.0);
    const double width = L.width + R.width;
    const double xwidth = L.xwidth + R.xwidth;
    const double bytes_l = L.card * L.xwidth * L.ship;
    const double bytes_r = R.card * R.xwidth * R.ship;
    const auto& oriented = prime.oriented[(sub & prime.lbit) ? 0 : 1];

    const double skew_l = L.prop.skew;
    const double skew_r = R.prop.skew;

    auto emit = [&](JoinStrategy strategy, int align_eq, double net_s,
                    double cpu_s, const Prop& prop) {
      const double cost = L.cost + R.cost + net_s + cpu_s;
      Entry* e = Claim(prop, cost);
      if (e == nullptr) return;
      *e = Entry{cost,
                 card,
                 width,
                 xwidth,
                 1.0,
                 net_s,
                 cpu_s,
                 prop,
                 li,
                 ri,
                 static_cast<uint16_t>(sub),
                 static_cast<uint16_t>(other),
                 static_cast<int16_t>(prime.index),
                 static_cast<uint8_t>(align_eq),
                 strategy};
    };

    // --- Replication-based locality -------------------------------------
    if (L.prop.replicated() && R.prop.replicated()) {
      // Both replicated: the join is computed redundantly on one node.
      double cpu = (L.card + R.card + card) / rate;
      emit(JoinStrategy::kCoLocated, 0, 0.0, cpu, Prop{});
      return;  // no cheaper alternative exists
    }
    if (L.prop.replicated() || R.prop.replicated()) {
      const Entry& part = L.prop.replicated() ? R : L;
      double skew = L.prop.replicated() ? skew_r : skew_l;
      double cpu = (L.card + R.card + card) * skew / (n * rate);
      emit(JoinStrategy::kCoLocated, 0, 0.0, cpu, part.prop);
      return;  // shipping data cannot beat a free local join
    }

    // --- Co-located: both sides aligned on some equality ----------------
    for (const auto& eq : oriented) {
      if ((L.prop.cols & eq.left) && (R.prop.cols & eq.right)) {
        double skew = std::max(skew_l, skew_r);
        double cpu = (L.card + R.card + card) * skew / (n * rate);
        // SkewFactor falls monotonically with the distinct count, so the
        // smaller skew is that of the larger distinct count, bit for bit.
        Prop prop{L.prop.cols | R.prop.cols, std::min(skew_l, skew_r)};
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
           Prop{eq.left | eq.right, eq.key_skew});
    }
  }

  /// Starts the subset under construction: no entries, no classes.
  void BeginSubset() {
    s_.pending.clear();
    if (++s_.stamp == 0) {  // wrapped: no slot may look current
      for (ClassSlot& slot : s_.index) slot.stamp = 0;
      s_.stamp = 1;
    }
  }

  static size_t SlotOf(uint64_t cols, size_t slots) {
    return static_cast<size_t>((cols * 0x9E3779B97F4A7C15ULL) >> 32) &
           (slots - 1);
  }

  /// Keeps the cheaper entry per property class (column mask; empty when
  /// replicated) of the subset under construction. Returns where to write
  /// an entry of class `prop` costing `cost`: a new entry for a class not
  /// seen yet, the class's entry when `cost` is strictly lower, else null.
  /// Classes keep their first-seen order, as with a scan of the subset's
  /// entries.
  Entry* Claim(const Prop& prop, double cost) {
    auto& index = s_.index;
    auto& pending = s_.pending;
    for (size_t i = SlotOf(prop.cols, index.size());;
         i = (i + 1) & (index.size() - 1)) {
      ClassSlot& slot = index[i];
      if (slot.stamp != s_.stamp) {
        slot = {prop.cols, s_.stamp, static_cast<uint32_t>(pending.size())};
        pending.emplace_back();
        if (pending.size() * 2 > index.size()) GrowIndex();
        return &pending.back();
      }
      if (slot.cols == prop.cols) {
        Entry& existing = pending[slot.pos];
        return cost < existing.cost ? &existing : nullptr;
      }
    }
  }

  /// Doubles the class index, re-inserting the current subset's classes.
  void GrowIndex() {
    std::vector<ClassSlot> old;
    old.swap(s_.index);
    s_.index.assign(old.size() * 2, ClassSlot{});
    const uint32_t stamp = s_.stamp;
    for (const ClassSlot& slot : old) {
      if (slot.stamp != stamp) continue;
      size_t i = SlotOf(slot.cols, s_.index.size());
      while (s_.index[i].stamp == stamp) i = (i + 1) & (s_.index.size() - 1);
      s_.index[i] = slot;
    }
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

  const CostModel& model_;
  const schema::Schema& schema_;
  const HardwareProfile& hw_;
  const QuerySpec& query_;
  const PartitioningState& state_;
  PlanScratch& s_;
  std::vector<Entry>& arena_;
};

/// One search on the calling thread's scratch.
QueryPlan Plan(const CostModel& model, const QuerySpec& query,
               const PartitioningState& state, bool with_tree) {
  CostModelMetrics::Get().plans.Add();
  ScratchLease scratch;
  return PlanSearch(model, query, state, scratch.get()).Run(with_tree);
}

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
  return Plan(*this, query, state, /*with_tree=*/false).total_seconds() *
         DesignCostScale(query, state);
}

double CostModel::QueryCostFloor(const workload::QuerySpec& query,
                                 const partition::PartitioningState& state) const {
  return ScanSeconds(*schema_, hardware_, query, state) *
         DesignCostScale(query, state);
}

QueryPlan CostModel::PlanQuery(const workload::QuerySpec& query,
                               const partition::PartitioningState& state) const {
  return Plan(*this, query, state, /*with_tree=*/true);
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
