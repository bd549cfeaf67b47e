#include "costmodel/cost_model.h"

#include <gtest/gtest.h>

#include <bit>

#include "costmodel/noisy_model.h"
#include "partition/actions.h"
#include "partition/partition_state.h"
#include "schema/catalogs.h"
#include "telemetry/registry.h"
#include "util/hash.h"
#include "workload/benchmarks.h"

namespace lpa::costmodel {
namespace {

using partition::EdgeSet;
using partition::PartitioningState;

class SsbCostModelTest : public ::testing::Test {
 protected:
  SsbCostModelTest()
      : schema_(schema::MakeSsbSchema()),
        workload_(workload::MakeSsbWorkload(schema_)),
        edges_(EdgeSet::Extract(schema_, workload_)),
        model_(&schema_, HardwareProfile::InMemory10G()) {}

  PartitioningState Initial() const {
    return PartitioningState::Initial(&schema_, &edges_);
  }

  schema::Schema schema_;
  workload::Workload workload_;
  EdgeSet edges_;
  CostModel model_;
};

TEST_F(SsbCostModelTest, CostsArePositiveAndFinite) {
  auto s0 = Initial();
  for (const auto& q : workload_.queries()) {
    double c = model_.QueryCost(q, s0);
    EXPECT_GT(c, 0.0) << q.name;
    EXPECT_LT(c, 1e6) << q.name;
  }
}

TEST_F(SsbCostModelTest, CoPartitioningBeatsShuffling) {
  // q3.1 joins lineorder with customer: co-partitioning on the custkey edge
  // must be cheaper than the initial design (lineorder partitioned by its
  // PK, so the customer join repartitions data).
  auto s0 = Initial();
  auto co = Initial();
  schema::TableId lo = schema_.TableIndex("lineorder");
  schema::TableId cust = schema_.TableIndex("customer");
  ASSERT_TRUE(co.PartitionBy(lo, schema_.table(lo).ColumnIndex("lo_custkey")).ok());
  ASSERT_TRUE(co.PartitionBy(cust, schema_.table(cust).ColumnIndex("c_custkey")).ok());
  const auto& q31 = workload_.query(6);
  ASSERT_EQ(q31.name, "q3.1");
  EXPECT_LT(model_.QueryCost(q31, co), model_.QueryCost(q31, s0));
}

TEST_F(SsbCostModelTest, ReplicatingDimensionsEliminatesJoinShuffles) {
  auto all_rep = Initial();
  for (schema::TableId t = 0; t < schema_.num_tables(); ++t) {
    if (!schema_.table(t).is_fact) {
      ASSERT_TRUE(all_rep.Replicate(t).ok());
    }
  }
  for (const auto& q : workload_.queries()) {
    auto plan = model_.PlanQuery(q, all_rep);
    for (JoinStrategy s : plan.JoinStrategies()) {
      EXPECT_EQ(s, JoinStrategy::kCoLocated) << q.name;
    }
    EXPECT_DOUBLE_EQ(plan.net_seconds, 0.0) << q.name;
  }
}

TEST_F(SsbCostModelTest, ReplicatedFactTableIsAbsurdlyExpensiveToScan) {
  // Replicating the 600M-row fact table forces every node to scan the full
  // copy: strictly worse than any partitioned design for flight-1 queries.
  auto s0 = Initial();
  auto rep_fact = Initial();
  ASSERT_TRUE(rep_fact.Replicate(schema_.TableIndex("lineorder")).ok());
  const auto& q11 = workload_.query(0);
  EXPECT_GT(model_.QueryCost(q11, rep_fact), model_.QueryCost(q11, s0));
}

TEST_F(SsbCostModelTest, WorkloadCostWeighsFrequencies) {
  auto s0 = Initial();
  ASSERT_TRUE(workload_
                  .SetFrequencies(workload::OverRepresentedFrequencies(
                      workload_.num_queries(), 0, 0.0, 1.0))
                  .ok());
  double only_q11 = model_.WorkloadCost(workload_, s0);
  EXPECT_NEAR(only_q11, model_.QueryCost(workload_.query(0), s0), 1e-9);
  workload_.SetUniformFrequencies();
  double uniform = model_.WorkloadCost(workload_, s0);
  EXPECT_GT(uniform, only_q11);
}

TEST_F(SsbCostModelTest, PlanTreeCoversAllTablesOnce) {
  auto s0 = Initial();
  for (const auto& q : workload_.queries()) {
    auto plan = model_.PlanQuery(q, s0);
    // Count leaves.
    std::vector<const PlanNode*> stack{plan.root.get()};
    int leaves = 0;
    while (!stack.empty()) {
      const PlanNode* n = stack.back();
      stack.pop_back();
      if (n->is_scan()) {
        ++leaves;
        EXPECT_TRUE(q.References(n->table));
      } else {
        stack.push_back(n->left.get());
        stack.push_back(n->right.get());
      }
    }
    EXPECT_EQ(leaves, q.num_tables()) << q.name;
    EXPECT_EQ(static_cast<int>(plan.JoinStrategies().size()), q.num_tables() - 1)
        << q.name;
  }
}

TEST_F(SsbCostModelTest, RepartitioningCostTracksDiff) {
  auto a = Initial();
  auto b = Initial();
  EXPECT_DOUBLE_EQ(model_.RepartitioningCost(a, b), 0.0);
  ASSERT_TRUE(b.Replicate(schema_.TableIndex("date")).ok());
  double small = model_.RepartitioningCost(a, b);
  EXPECT_GT(small, 0.0);
  auto c = b;
  schema::TableId lo = schema_.TableIndex("lineorder");
  ASSERT_TRUE(c.PartitionBy(lo, schema_.table(lo).ColumnIndex("lo_custkey")).ok());
  double big = model_.RepartitioningCost(a, c);
  EXPECT_GT(big, small);  // moving the fact table dominates
}

TEST_F(SsbCostModelTest, FasterNetworkNeverIncreasesCost) {
  CostModel slow(&schema_, HardwareProfile::InMemory06G());
  auto s0 = Initial();
  for (const auto& q : workload_.queries()) {
    EXPECT_LE(model_.QueryCost(q, s0), slow.QueryCost(q, s0) + 1e-9) << q.name;
  }
}

TEST(SkewFactorTest, Behaviour) {
  EXPECT_GT(SkewFactor(10, 6), 1.5);          // district-id style keys skew
  EXPECT_LT(SkewFactor(1'000, 6), 1.3);       // compound key fixes it
  EXPECT_NEAR(SkewFactor(3'000'000, 6), 1.0, 0.01);
  EXPECT_LE(SkewFactor(1, 6), 6.0);           // capped at node count
  EXPECT_GE(SkewFactor(1, 6), 4.0);           // single-value keys are terrible
}

TEST(MicroCostModelTest, ReplicateVsPartitionCrossoverWithBandwidth) {
  // Exp 5: with a fast interconnect partitioning B wins (distributed scan);
  // with a slow one replication wins (no shuffle).
  auto schema = schema::MakeMicroSchema();
  auto wl = workload::MakeMicroWorkload(schema);
  auto edges = EdgeSet::Extract(schema, wl);
  schema::TableId a = schema.TableIndex("A");
  schema::TableId b = schema.TableIndex("B");
  schema::TableId c = schema.TableIndex("C");

  auto base = PartitioningState::Initial(&schema, &edges);
  // A co-partitioned with C in both designs (C is much larger than B).
  ASSERT_TRUE(base.PartitionBy(a, schema.table(a).ColumnIndex("a_c_id")).ok());
  ASSERT_TRUE(base.PartitionBy(c, schema.table(c).ColumnIndex("c_id")).ok());
  auto b_part = base;
  ASSERT_TRUE(b_part.PartitionBy(b, schema.table(b).ColumnIndex("b_id")).ok());
  auto b_rep = base;
  ASSERT_TRUE(b_rep.Replicate(b).ok());

  CostModel fast(&schema, HardwareProfile::InMemory10G());
  CostModel slow(&schema, HardwareProfile::InMemory06G());
  const auto& q_ab = wl.query(0);
  ASSERT_EQ(q_ab.name, "a_join_b");
  EXPECT_LT(fast.QueryCost(q_ab, b_part), fast.QueryCost(q_ab, b_rep));
  EXPECT_GT(slow.QueryCost(q_ab, b_part), slow.QueryCost(q_ab, b_rep));
}

TEST(MicroCostModelTest, SlowerComputeShrinksReplicationBenefit) {
  auto schema = schema::MakeMicroSchema();
  auto wl = workload::MakeMicroWorkload(schema);
  auto edges = EdgeSet::Extract(schema, wl);
  schema::TableId a = schema.TableIndex("A");
  schema::TableId b = schema.TableIndex("B");
  schema::TableId c = schema.TableIndex("C");
  auto base = PartitioningState::Initial(&schema, &edges);
  ASSERT_TRUE(base.PartitionBy(a, schema.table(a).ColumnIndex("a_c_id")).ok());
  ASSERT_TRUE(base.PartitionBy(c, schema.table(c).ColumnIndex("c_id")).ok());
  auto b_part = base;
  ASSERT_TRUE(b_part.PartitionBy(b, schema.table(b).ColumnIndex("b_id")).ok());
  auto b_rep = base;
  ASSERT_TRUE(b_rep.Replicate(b).ok());

  const auto& q_ab = wl.query(0);
  CostModel std_slow_net(&schema, HardwareProfile::InMemory06G());
  CostModel weak_slow_net(
      &schema, HardwareProfile::SlowerCompute10G().WithBandwidthGbps(0.6));
  double gap_standard = std_slow_net.QueryCost(q_ab, b_part) -
                        std_slow_net.QueryCost(q_ab, b_rep);
  double gap_weak = weak_slow_net.QueryCost(q_ab, b_part) -
                    weak_slow_net.QueryCost(q_ab, b_rep);
  EXPECT_GT(gap_standard, 0.0);  // replication wins on the slow network
  EXPECT_GT(gap_weak, 0.0);      // still wins on weaker compute...
  EXPECT_LT(gap_weak, gap_standard);  // ...but by less (Fig 8b)
}

class TpcchCostModelTest : public ::testing::Test {
 protected:
  TpcchCostModelTest()
      : schema_(schema::MakeTpcchSchema()),
        workload_(workload::MakeTpcchWorkload(schema_)),
        edges_(EdgeSet::Extract(schema_, workload_)),
        model_(&schema_, HardwareProfile::InMemory10G()) {}

  schema::Schema schema_;
  workload::Workload workload_;
  EdgeSet edges_;
  CostModel model_;
};

TEST_F(TpcchCostModelTest, CompoundKeyMitigatesSkew) {
  // Partitioning order/orderline by the 10-valued district id is skewed;
  // the (warehouse, district) compound with 1000 values is not. Both
  // co-locate the order-orderline join, so the compound must cost less.
  auto by_district = PartitioningState::Initial(&schema_, &edges_);
  schema::TableId order = schema_.TableIndex("order");
  schema::TableId ol = schema_.TableIndex("orderline");
  ASSERT_TRUE(
      by_district.PartitionBy(order, schema_.table(order).ColumnIndex("o_d_id")).ok());
  ASSERT_TRUE(
      by_district.PartitionBy(ol, schema_.table(ol).ColumnIndex("ol_d_id")).ok());
  auto by_compound = PartitioningState::Initial(&schema_, &edges_);
  ASSERT_TRUE(
      by_compound.PartitionBy(order, schema_.table(order).ColumnIndex("o_wd_id")).ok());
  ASSERT_TRUE(
      by_compound.PartitionBy(ol, schema_.table(ol).ColumnIndex("ol_wd_id")).ok());
  // q12 is the plain order-orderline join.
  const auto& q12 = workload_.query(11);
  ASSERT_EQ(q12.name, "q12");
  auto plan_d = model_.PlanQuery(q12, by_district);
  auto plan_c = model_.PlanQuery(q12, by_compound);
  ASSERT_EQ(plan_d.JoinStrategies()[0], JoinStrategy::kCoLocated);
  ASSERT_EQ(plan_c.JoinStrategies()[0], JoinStrategy::kCoLocated);
  EXPECT_LT(plan_c.total_seconds(), plan_d.total_seconds());
}

TEST_F(TpcchCostModelTest, DistrictCoPartitioningBeatsMisalignedDesign) {
  // Co-partitioning customer/order/orderline by the compound district key
  // makes q18 (the 3-way chain) fully local and must beat a design where
  // orderline is partitioned by item (every q18 join shuffles).
  auto s0 = PartitioningState::Initial(&schema_, &edges_);
  auto misaligned = s0;
  {
    schema::TableId ol = schema_.TableIndex("orderline");
    ASSERT_TRUE(
        misaligned.PartitionBy(ol, schema_.table(ol).ColumnIndex("ol_i_id")).ok());
  }
  auto district = s0;
  for (const char* spec :
       {"customer:c_wd_id", "order:o_wd_id", "orderline:ol_wd_id"}) {
    std::string str(spec);
    auto pos = str.find(':');
    schema::TableId t = schema_.TableIndex(str.substr(0, pos));
    ASSERT_TRUE(
        district.PartitionBy(t, schema_.table(t).ColumnIndex(str.substr(pos + 1)))
            .ok());
  }
  const auto& q18 = workload_.query(17);
  ASSERT_EQ(q18.name, "q18");
  EXPECT_LT(model_.QueryCost(q18, district), model_.QueryCost(q18, misaligned));
  auto plan = model_.PlanQuery(q18, district);
  for (JoinStrategy s : plan.JoinStrategies()) {
    EXPECT_EQ(s, JoinStrategy::kCoLocated);
  }
}

TEST_F(TpcchCostModelTest, AllQueriesPlanUnderArbitraryDesigns) {
  Rng rng(5);
  partition::ActionSpace actions(&schema_, &edges_);
  auto s = PartitioningState::Initial(&schema_, &edges_);
  for (int step = 0; step < 50; ++step) {
    auto legal = actions.LegalActions(s);
    ASSERT_FALSE(legal.empty());
    ASSERT_TRUE(actions
                    .Apply(legal[static_cast<size_t>(rng.UniformInt(
                               0, static_cast<int64_t>(legal.size()) - 1))],
                           &s)
                    .ok());
    const auto& q = workload_.query(static_cast<int>(
        rng.UniformInt(0, workload_.num_queries() - 1)));
    double c = model_.QueryCost(q, s);
    EXPECT_GT(c, 0.0);
    EXPECT_TRUE(std::isfinite(c));
  }
}

/// Property sweep: transitively equivalent partition classes still co-locate.
TEST_F(TpcchCostModelTest, TransitiveCoLocationThroughJoinChain) {
  // customer, order, orderline, neworder all on the compound district key:
  // q3's three chained joins are all co-located even though the plan may
  // join them in any order.
  auto district = PartitioningState::Initial(&schema_, &edges_);
  for (const char* spec : {"customer:c_wd_id", "order:o_wd_id",
                           "orderline:ol_wd_id", "neworder:no_wd_id"}) {
    std::string str(spec);
    auto pos = str.find(':');
    schema::TableId t = schema_.TableIndex(str.substr(0, pos));
    ASSERT_TRUE(
        district.PartitionBy(t, schema_.table(t).ColumnIndex(str.substr(pos + 1)))
            .ok());
  }
  const auto& q3 = workload_.query(2);
  ASSERT_EQ(q3.name, "q03");
  auto plan = model_.PlanQuery(q3, district);
  for (JoinStrategy s : plan.JoinStrategies()) {
    EXPECT_EQ(s, JoinStrategy::kCoLocated);
  }
  EXPECT_DOUBLE_EQ(plan.net_seconds, 0.0);
}

class TpcdsCostModelTest : public ::testing::Test {
 protected:
  TpcdsCostModelTest()
      : schema_(schema::MakeTpcdsSchema()),
        workload_(workload::MakeTpcdsWorkload(schema_)),
        edges_(EdgeSet::Extract(schema_, workload_)),
        model_(&schema_, HardwareProfile::DiskBased10G()) {}

  schema::Schema schema_;
  workload::Workload workload_;
  EdgeSet edges_;
  CostModel model_;
};

TEST_F(TpcdsCostModelTest, ItemCoPartitioningHelpsFactFactJoins) {
  // The paper's key TPC-DS finding: co-partitioning the fact tables by item
  // makes the sales-returns joins local. The date-dimension heuristic
  // cannot: sales ship on the sold date but returns on the returned date,
  // so the fact-fact join must shuffle.
  auto s0 = PartitioningState::Initial(&schema_, &edges_);
  auto by_date = s0;
  for (const char* spec :
       {"store_sales:ss_sold_date_sk", "store_returns:sr_returned_date_sk",
        "catalog_sales:cs_sold_date_sk", "catalog_returns:cr_returned_date_sk",
        "web_sales:ws_sold_date_sk", "web_returns:wr_returned_date_sk"}) {
    std::string str(spec);
    auto pos = str.find(':');
    schema::TableId t = schema_.TableIndex(str.substr(0, pos));
    ASSERT_TRUE(
        by_date.PartitionBy(t, schema_.table(t).ColumnIndex(str.substr(pos + 1)))
            .ok());
  }
  auto by_item = s0;
  for (const char* spec :
       {"store_sales:ss_item_sk", "store_returns:sr_item_sk",
        "catalog_sales:cs_item_sk", "catalog_returns:cr_item_sk",
        "web_sales:ws_item_sk", "web_returns:wr_item_sk", "item:i_item_sk"}) {
    std::string str(spec);
    auto pos = str.find(':');
    schema::TableId t = schema_.TableIndex(str.substr(0, pos));
    ASSERT_TRUE(
        by_item.PartitionBy(t, schema_.table(t).ColumnIndex(str.substr(pos + 1)))
            .ok());
  }
  double better = 0, worse = 0;
  for (const auto& q : workload_.queries()) {
    // Family 5 queries join sales with returns.
    bool fact_fact = q.num_tables() >= 2 &&
                     q.References(schema_.TableIndex("store_sales")) &&
                     q.References(schema_.TableIndex("store_returns"));
    if (!fact_fact) continue;
    double cd = model_.QueryCost(q, by_date);
    double ci = model_.QueryCost(q, by_item);
    if (ci < cd) {
      better += 1;
    } else {
      worse += 1;
    }
  }
  EXPECT_GT(better, 0);
  EXPECT_DOUBLE_EQ(worse, 0);
}

// --- Golden planner digests --------------------------------------------------
//
// Every query of a workload under 20 seeded random legal designs, priced by
// the exact model and by a NoisyOptimizerModel with depth noise, the
// independence assumption and design noise on. The digest covers the
// QueryCost bits, every PlanQuery node (table or predicate, strategy,
// alignment equality, est_card bits), the cost breakdown bits, and the
// deltas of the DP counters. Any change to the join enumeration order, the
// Pareto pruning or a floating-point expression of the planner moves it.

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

uint64_t DigestPlanNode(const PlanNode& node, uint64_t h) {
  if (node.is_scan()) {
    h = HashCombine(h, static_cast<uint64_t>(node.table));
  } else {
    h = DigestPlanNode(*node.left, h);
    h = DigestPlanNode(*node.right, h);
    h = HashCombine(h, static_cast<uint64_t>(node.predicate));
    h = HashCombine(h, static_cast<uint64_t>(node.strategy));
    h = HashCombine(h, static_cast<uint64_t>(node.align_equality));
  }
  return HashCombine(h, Bits(node.est_card));
}

uint64_t PlannerDigest(const schema::Schema& schema,
                       const workload::Workload& wl, HardwareProfile hw) {
  auto edges = EdgeSet::Extract(schema, wl);
  partition::ActionSpace actions(&schema, &edges);
  CostModel exact(&schema, hw);
  NoisyOptimizerModel noisy(&schema, hw, /*depth_sigma=*/0.5, /*seed=*/4242,
                            /*use_independence_assumption=*/true,
                            /*design_sigma=*/0.8);
  auto& reg = telemetry::MetricsRegistry::Global();
  const telemetry::Counter* counters[] = {
      &reg.GetCounter("costmodel.plans.count"),
      &reg.GetCounter("costmodel.dp_subsets.count"),
      &reg.GetCounter("costmodel.dp_splits.count"),
      &reg.GetCounter("costmodel.pareto_entries.count")};
  Rng rng(2024);
  auto s = PartitioningState::Initial(&schema, &edges);
  uint64_t h = 0;
  for (int design = 0; design < 20; ++design) {
    for (int step = 0; step < 3; ++step) {
      auto legal = actions.LegalActions(s);
      EXPECT_TRUE(actions
                      .Apply(legal[static_cast<size_t>(rng.UniformInt(
                                 0, static_cast<int64_t>(legal.size()) - 1))],
                             &s)
                      .ok());
    }
    for (const CostModel* model : {static_cast<const CostModel*>(&exact),
                                   static_cast<const CostModel*>(&noisy)}) {
      for (const auto& q : wl.queries()) {
        uint64_t before[4];
        for (int c = 0; c < 4; ++c) before[c] = counters[c]->value();
        double cost = model->QueryCost(q, s);
        QueryPlan plan = model->PlanQuery(q, s);
        EXPECT_EQ(cost, plan.total_seconds() * model->DesignCostScale(q, s))
            << q.name;
        h = HashCombine(h, Bits(cost));
        h = DigestPlanNode(*plan.root, h);
        for (double v : {plan.scan_seconds, plan.net_seconds, plan.cpu_seconds,
                         plan.output_seconds}) {
          h = HashCombine(h, Bits(v));
        }
        for (int c = 0; c < 4; ++c) {
          h = HashCombine(h, counters[c]->value() - before[c]);
        }
      }
    }
  }
  return h;
}

TEST(GoldenPlannerTest, Ssb) {
  auto schema = schema::MakeSsbSchema();
  auto wl = workload::MakeSsbWorkload(schema);
  EXPECT_EQ(PlannerDigest(schema, wl, HardwareProfile::InMemory10G()),
            2280240100276509987ULL);
}

TEST(GoldenPlannerTest, Tpcch) {
  auto schema = schema::MakeTpcchSchema();
  auto wl = workload::MakeTpcchWorkload(schema);
  EXPECT_EQ(PlannerDigest(schema, wl, HardwareProfile::DiskBased10G()),
            13161657916345513029ULL);
}

TEST(GoldenPlannerTest, Tpcds) {
  auto schema = schema::MakeTpcdsSchema();
  auto wl = workload::MakeTpcdsWorkload(schema);
  EXPECT_EQ(PlannerDigest(schema, wl, HardwareProfile::DiskBased10G()),
            10764521289868905755ULL);
}

TEST(GoldenPlannerTest, TpcchCyclicJoinGraphs) {
  // Cycles and repeated predicates: several predicates can connect one
  // split, and each scales the join cardinality.
  auto schema = schema::MakeTpcchSchema();
  std::vector<workload::QuerySpec> queries;
  queries.push_back(workload::QueryBuilder(&schema, "triangle")
                        .Scan("customer", 0.2)
                        .Scan("order")
                        .Scan("orderline", 0.5)
                        .Join("customer", "c_id", "order", "o_c_id")
                        .AndJoin("customer", "c_wd_id", "order", "o_wd_id")
                        .Join("order", "o_id", "orderline", "ol_o_id")
                        .Join("orderline", "ol_wd_id", "customer", "c_wd_id")
                        .Build());
  queries.push_back(workload::QueryBuilder(&schema, "item_cycle")
                        .Scan("order")
                        .Scan("orderline")
                        .Scan("stock", 0.3)
                        .Scan("item")
                        .Join("order", "o_id", "orderline", "ol_o_id")
                        .Join("orderline", "ol_i_id", "stock", "s_i_id")
                        .Join("stock", "s_i_id", "item", "i_id")
                        .Join("item", "i_id", "orderline", "ol_i_id")
                        .Build());
  queries.push_back(workload::QueryBuilder(&schema, "repeated")
                        .Scan("order", 0.1)
                        .Scan("orderline")
                        .Join("order", "o_id", "orderline", "ol_o_id")
                        .Join("order", "o_wd_id", "orderline", "ol_wd_id")
                        .Build());
  workload::Workload wl(std::move(queries));
  EXPECT_EQ(PlannerDigest(schema, wl, HardwareProfile::DiskBased10G()),
            14503564455443025155ULL);
}

TEST(GoldenPlannerTest, Micro) {
  auto schema = schema::MakeMicroSchema();
  auto wl = workload::MakeMicroWorkload(schema);
  EXPECT_EQ(PlannerDigest(schema, wl, HardwareProfile::InMemory06G()),
            6641927585625123212ULL);
}

// QueryCostFloor is what the DP designer's clamped bounds skip plans by; it
// must never exceed QueryCost, bit for bit, for any query or design, under
// the exact model and under a noisy model whose DesignCostScale != 1.
void ExpectFloorNeverExceedsCost(const schema::Schema& schema,
                                 const workload::Workload& wl,
                                 HardwareProfile hw, uint64_t seed) {
  auto edges = EdgeSet::Extract(schema, wl);
  partition::ActionSpace actions(&schema, &edges);
  CostModel exact(&schema, hw);
  NoisyOptimizerModel noisy(&schema, hw, /*depth_sigma=*/0.5, /*seed=*/4242,
                            /*use_independence_assumption=*/true,
                            /*design_sigma=*/0.8);
  Rng rng(seed);
  auto s = PartitioningState::Initial(&schema, &edges);
  int below = 0, checked = 0;
  for (int design = 0; design < 40; ++design) {
    auto legal = actions.LegalActions(s);
    ASSERT_TRUE(actions
                    .Apply(legal[static_cast<size_t>(rng.UniformInt(
                               0, static_cast<int64_t>(legal.size()) - 1))],
                           &s)
                    .ok());
    for (const CostModel* model : {static_cast<const CostModel*>(&exact),
                                   static_cast<const CostModel*>(&noisy)}) {
      for (const auto& q : wl.queries()) {
        const double floor = model->QueryCostFloor(q, s);
        const double cost = model->QueryCost(q, s);
        EXPECT_GT(floor, 0.0) << q.name;
        EXPECT_LE(floor, cost) << q.name << " design " << design;
        below += floor < cost;
        ++checked;
      }
    }
  }
  // Joins cost something, so the floor is strictly below on most queries.
  EXPECT_GT(below, checked / 2);
}

TEST(QueryCostFloorTest, NeverExceedsQueryCost) {
  {
    auto schema = schema::MakeSsbSchema();
    ExpectFloorNeverExceedsCost(schema, workload::MakeSsbWorkload(schema),
                                HardwareProfile::InMemory10G(), 11);
  }
  {
    auto schema = schema::MakeTpcchSchema();
    ExpectFloorNeverExceedsCost(schema, workload::MakeTpcchWorkload(schema),
                                HardwareProfile::DiskBased10G(), 12);
  }
  {
    auto schema = schema::MakeTpcdsSchema();
    ExpectFloorNeverExceedsCost(schema, workload::MakeTpcdsWorkload(schema),
                                HardwareProfile::DiskBased10G(), 13);
  }
}

TEST_F(TpcdsCostModelTest, FullWorkloadCostFiniteUnderManyDesigns) {
  Rng rng(17);
  partition::ActionSpace actions(&schema_, &edges_);
  auto s = PartitioningState::Initial(&schema_, &edges_);
  workload_.SetUniformFrequencies();
  for (int i = 0; i < 5; ++i) {
    auto legal = actions.LegalActions(s);
    ASSERT_TRUE(actions
                    .Apply(legal[static_cast<size_t>(rng.UniformInt(
                               0, static_cast<int64_t>(legal.size()) - 1))],
                           &s)
                    .ok());
    double c = model_.WorkloadCost(workload_, s);
    EXPECT_TRUE(std::isfinite(c));
    EXPECT_GT(c, 0.0);
  }
}

}  // namespace
}  // namespace lpa::costmodel
