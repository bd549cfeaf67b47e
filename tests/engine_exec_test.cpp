#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "costmodel/noisy_model.h"
#include "engine/cluster.h"
#include "engine/join_table.h"
#include "schema/catalogs.h"
#include "telemetry/registry.h"
#include "util/eval_context.h"
#include "workload/benchmarks.h"

namespace lpa::engine {
namespace {

using costmodel::CostModel;
using costmodel::HardwareProfile;
using costmodel::JoinStrategy;
using costmodel::NoisyOptimizerModel;
using partition::EdgeSet;
using partition::PartitioningState;

// Exact-equality helper: the pool-parallel engine promises *bit-identical*
// QueryRunStats at every thread count, so every double is compared with
// EXPECT_EQ (no tolerance) on purpose.
void ExpectIdentical(const QueryRunStats& a, const QueryRunStats& b,
                     const std::string& label) {
  EXPECT_EQ(a.seconds, b.seconds) << label;
  EXPECT_EQ(a.scan_seconds, b.scan_seconds) << label;
  EXPECT_EQ(a.net_seconds, b.net_seconds) << label;
  EXPECT_EQ(a.cpu_seconds, b.cpu_seconds) << label;
  EXPECT_EQ(a.output_seconds, b.output_seconds) << label;
  EXPECT_EQ(a.rows_out, b.rows_out) << label;
  EXPECT_EQ(a.bytes_shuffled, b.bytes_shuffled) << label;
  EXPECT_EQ(a.bytes_broadcast, b.bytes_broadcast) << label;
}

uint64_t CounterValue(const char* name) {
  return telemetry::MetricsRegistry::Global().GetCounter(name).value();
}

storage::GenerationConfig GenConfig(double fraction) {
  storage::GenerationConfig config;
  config.fraction = fraction;
  config.small_table_threshold = 300;
  config.seed = 5;
  return config;
}

class SsbExecTest : public ::testing::Test {
 protected:
  SsbExecTest()
      : schema_(schema::MakeSsbSchema()),
        workload_(workload::MakeSsbWorkload(schema_)),
        edges_(EdgeSet::Extract(schema_, workload_)),
        // A noisy planner (so the stats-epoch cache key is exercised) and a
        // noisy engine clock (so the noise path is under the bit-identity
        // microscope too).
        planner_(&schema_, HardwareProfile::DiskBased10G(), 0.5, 4242, false,
                 0.8),
        cluster_(storage::Database::Generate(schema_, workload_,
                                             GenConfig(5e-4)),
                 EngineConfig{HardwareProfile::DiskBased10G(), 0.02, 7},
                 &planner_) {}

  PartitioningState Initial() const {
    return PartitioningState::Initial(&schema_, &edges_);
  }

  // Designs spanning the interesting layouts: hash-everywhere, co-located
  // fact-dim, replicated dimensions, fully replicated, and misaligned keys.
  std::vector<PartitioningState> Designs() const {
    std::vector<PartitioningState> designs;
    schema::TableId lo = schema_.TableIndex("lineorder");
    schema::TableId cust = schema_.TableIndex("customer");
    designs.push_back(Initial());
    {
      auto s = Initial();
      EXPECT_TRUE(
          s.PartitionBy(lo, schema_.table(lo).ColumnIndex("lo_custkey")).ok());
      EXPECT_TRUE(
          s.PartitionBy(cust, schema_.table(cust).ColumnIndex("c_custkey"))
              .ok());
      designs.push_back(s);
    }
    {
      auto s = Initial();
      for (schema::TableId t = 0; t < schema_.num_tables(); ++t) {
        if (t != lo) {
          EXPECT_TRUE(s.Replicate(t).ok());
        }
      }
      designs.push_back(s);
    }
    {
      auto s = Initial();
      for (schema::TableId t = 0; t < schema_.num_tables(); ++t) {
        EXPECT_TRUE(s.Replicate(t).ok());
      }
      designs.push_back(s);
    }
    {
      // Misaligned: the fact is partitioned on the date key, so the
      // customer/supplier/part joins all need an exchange.
      auto s = Initial();
      EXPECT_TRUE(
          s.PartitionBy(lo, schema_.table(lo).ColumnIndex("lo_orderdate"))
              .ok());
      designs.push_back(s);
    }
    return designs;
  }

  schema::Schema schema_;
  workload::Workload workload_;
  EdgeSet edges_;
  NoisyOptimizerModel planner_;
  ClusterDatabase cluster_;
};

TEST_F(SsbExecTest, StatsBitIdenticalAcrossThreadCounts) {
  EvalContext ctx2(2, 11);
  EvalContext ctx8(8, 12);
  auto designs = Designs();
  for (size_t d = 0; d < designs.size(); ++d) {
    cluster_.ApplyDesign(designs[d]);
    for (const auto& q : workload_.queries()) {
      auto serial = cluster_.ExecuteQuery(q);
      auto two = cluster_.ExecuteQuery(q, &ctx2);
      auto eight = cluster_.ExecuteQuery(q, &ctx8);
      std::string label = "design " + std::to_string(d) + " " + q.name;
      ExpectIdentical(serial, two, label + " @2");
      ExpectIdentical(serial, eight, label + " @8");
    }
  }
}

TEST_F(SsbExecTest, WorkloadBitIdenticalAcrossThreadCounts) {
  EvalContext ctx2(2, 21);
  EvalContext ctx8(8, 22);
  for (const auto& design : Designs()) {
    cluster_.ApplyDesign(design);
    double serial = cluster_.ExecuteWorkload(workload_);
    // EXPECT_EQ on doubles is exact comparison — intentional.
    EXPECT_EQ(serial, cluster_.ExecuteWorkload(workload_, &ctx2));
    EXPECT_EQ(serial, cluster_.ExecuteWorkload(workload_, &ctx8));
  }
}

TEST_F(SsbExecTest, PlanCacheHitsOnRepeatAndSurvivesDesignSwitch) {
  auto s0 = Initial();
  auto co = Designs()[1];
  cluster_.ApplyDesign(s0);
  const auto& q = workload_.query(6);

  auto first = cluster_.ExecuteQuery(q);
  uint64_t hits0 = CounterValue("engine.plan_cache_hits.count");
  uint64_t misses0 = CounterValue("engine.plan_cache_misses.count");
  auto second = cluster_.ExecuteQuery(q);
  EXPECT_EQ(CounterValue("engine.plan_cache_hits.count"), hits0 + 1);
  EXPECT_EQ(CounterValue("engine.plan_cache_misses.count"), misses0);
  ExpectIdentical(first, second, "repeat execution");

  // A different design misses (different fingerprint)...
  cluster_.ApplyDesign(co);
  cluster_.ExecuteQuery(q);
  EXPECT_EQ(CounterValue("engine.plan_cache_misses.count"), misses0 + 1);
  // ...and flipping back hits again: entries are keyed, not wiped, on
  // ApplyDesign, so A/B design comparisons stay cached.
  cluster_.ApplyDesign(s0);
  uint64_t hits1 = CounterValue("engine.plan_cache_hits.count");
  auto third = cluster_.ExecuteQuery(q);
  EXPECT_EQ(CounterValue("engine.plan_cache_hits.count"), hits1 + 1);
  ExpectIdentical(first, third, "design flip round-trip");
}

TEST_F(SsbExecTest, BulkAppendInvalidatesPlanCache) {
  cluster_.ApplyDesign(Initial());
  const auto& q = workload_.query(3);
  cluster_.ExecuteQuery(q);
  uint64_t inval0 = CounterValue("engine.plan_cache_invalidations.count");
  uint64_t misses0 = CounterValue("engine.plan_cache_misses.count");
  cluster_.BulkAppend(0.25, 3);
  EXPECT_EQ(CounterValue("engine.plan_cache_invalidations.count"), inval0 + 1);
  // Re-planning must happen (the data distribution changed even if the
  // planner's statistics were not refreshed).
  cluster_.ExecuteQuery(q);
  EXPECT_EQ(CounterValue("engine.plan_cache_misses.count"), misses0 + 1);
}

TEST_F(SsbExecTest, StatsEpochRefreshMissesPlanCache) {
  // Exp 3a's mechanism: after a bulk update the simulated ANALYZE bumps the
  // optimizer's statistics epoch, which must defeat the plan cache so new
  // (possibly different) plans are picked up.
  cluster_.ApplyDesign(Initial());
  const auto& q = workload_.query(6);
  cluster_.ExecuteQuery(q);
  uint64_t hits0 = CounterValue("engine.plan_cache_hits.count");
  uint64_t misses0 = CounterValue("engine.plan_cache_misses.count");
  cluster_.ExecuteQuery(q);
  EXPECT_EQ(CounterValue("engine.plan_cache_hits.count"), hits0 + 1);
  planner_.set_stats_epoch(planner_.stats_epoch() + 1);
  cluster_.ExecuteQuery(q);
  EXPECT_EQ(CounterValue("engine.plan_cache_misses.count"), misses0 + 1);
}

TEST_F(SsbExecTest, BulkAppendedClusterMatchesFreshClusterBitExactly) {
  // Appending data and then executing must behave exactly like a fresh
  // cluster that took the same append — the plan cache must not leak stale
  // state across the data change, and neither may a layout the cluster
  // held before it.
  const auto designs = Designs();
  const PartitioningState& co = designs[1];
  const PartitioningState& misaligned = designs[4];
  for (const auto& design : {co, misaligned, Initial()}) {
    cluster_.ApplyDesign(design);
    for (const auto& q : workload_.queries()) cluster_.ExecuteQuery(q);
  }
  cluster_.BulkAppend(0.25, 3);

  ClusterDatabase fresh(
      storage::Database::Generate(schema_, workload_, GenConfig(5e-4)),
      EngineConfig{HardwareProfile::DiskBased10G(), 0.02, 7}, &planner_);
  fresh.ApplyDesign(Initial());
  fresh.BulkAppend(0.25, 3);

  EvalContext ctx8(8, 31);
  for (const auto& q : workload_.queries()) {
    ExpectIdentical(cluster_.ExecuteQuery(q), fresh.ExecuteQuery(q),
                    "appended vs fresh " + q.name);
    ExpectIdentical(cluster_.ExecuteQuery(q, &ctx8), fresh.ExecuteQuery(q),
                    "appended@8 vs fresh " + q.name);
  }

  // Go back to layouts the appended cluster held before the append; the
  // fresh cluster never held them.
  for (const auto& design : {co, misaligned}) {
    EXPECT_EQ(cluster_.ApplyDesign(design), fresh.ApplyDesign(design));
    for (schema::TableId t = 0; t < schema_.num_tables(); ++t) {
      for (int node = 0; node < cluster_.num_nodes(); ++node) {
        const storage::TableData* got = cluster_.shard(t, node);
        const storage::TableData* want = fresh.shard(t, node);
        ASSERT_EQ(got == nullptr, want == nullptr);
        if (got != nullptr) {
          EXPECT_EQ(got->num_rows(), want->num_rows());
        }
      }
    }
    for (const auto& q : workload_.queries()) {
      ExpectIdentical(cluster_.ExecuteQuery(q), fresh.ExecuteQuery(q),
                      "revisited vs fresh " + q.name);
      ExpectIdentical(cluster_.ExecuteQuery(q, &ctx8), fresh.ExecuteQuery(q),
                      "revisited@8 vs fresh " + q.name);
    }
  }
}

TEST(TpcchExecTest, EveryJoinStrategyBitIdenticalAcrossThreadCounts) {
  // TPC-CH with order/orderline partitioned on non-join keys makes the
  // planner use all six join strategies somewhere in the workload (verified
  // by the coverage assertion below), so the 1/2/8-thread comparison
  // exercises every execution branch: co-located, one-sided and two-sided
  // repartitioning, and both broadcast orientations.
  auto schema = schema::MakeTpcchSchema();
  auto wl = workload::MakeTpcchWorkload(schema);
  auto edges = EdgeSet::Extract(schema, wl);
  CostModel planner(&schema, HardwareProfile::InMemory10G());
  storage::GenerationConfig config;
  config.fraction = 1e-3;
  config.small_table_threshold = 300;
  config.seed = 13;
  ClusterDatabase cluster(storage::Database::Generate(schema, wl, config),
                          EngineConfig{HardwareProfile::InMemory10G(), 0.0, 5},
                          &planner);
  auto design = PartitioningState::Initial(&schema, &edges);
  schema::TableId order = schema.TableIndex("order");
  schema::TableId ol = schema.TableIndex("orderline");
  ASSERT_TRUE(
      design.PartitionBy(order, schema.table(order).ColumnIndex("o_c_id"))
          .ok());
  ASSERT_TRUE(
      design.PartitionBy(ol, schema.table(ol).ColumnIndex("ol_i_id")).ok());

  std::set<JoinStrategy> seen;
  for (const auto& q : wl.queries()) {
    for (JoinStrategy s : planner.PlanQuery(q, design).JoinStrategies()) {
      seen.insert(s);
    }
  }
  EXPECT_EQ(seen.size(), 6u) << "workload no longer covers every strategy";

  cluster.ApplyDesign(design);
  EvalContext ctx2(2, 41);
  EvalContext ctx8(8, 42);
  for (const auto& q : wl.queries()) {
    auto serial = cluster.ExecuteQuery(q);
    ExpectIdentical(serial, cluster.ExecuteQuery(q, &ctx2), q.name + " @2");
    ExpectIdentical(serial, cluster.ExecuteQuery(q, &ctx8), q.name + " @8");
  }
}

TEST(TpcchExecTest, BatchMatchesEachQueryRunAfterItsOwnDeployment) {
  // The online environment's walk: deploy each query's tables in turn (the
  // rest of the design stays as deployed), then execute the queries as one
  // batch, each under the design key its own deployment left. Every query
  // must measure exactly as ExecuteQuery did right after that deployment,
  // serially and side by side on 2 and 8 threads.
  auto schema = schema::MakeTpcchSchema();
  auto wl = workload::MakeTpcchWorkload(schema);
  auto edges = EdgeSet::Extract(schema, wl);
  NoisyOptimizerModel planner(&schema, HardwareProfile::DiskBased10G(), 0.05,
                              43, false);
  storage::GenerationConfig config;
  config.fraction = 1e-3;
  config.small_table_threshold = 300;
  config.seed = 13;
  ClusterDatabase cluster(
      storage::Database::Generate(schema, wl, config),
      EngineConfig{HardwareProfile::DiskBased10G(), 0.02, 5}, &planner);
  const auto initial = PartitioningState::Initial(&schema, &edges);
  auto target = initial;
  schema::TableId order = schema.TableIndex("order");
  schema::TableId ol = schema.TableIndex("orderline");
  schema::TableId item = schema.TableIndex("item");
  ASSERT_TRUE(
      target.PartitionBy(order, schema.table(order).ColumnIndex("o_c_id"))
          .ok());
  ASSERT_TRUE(
      target.PartitionBy(ol, schema.table(ol).ColumnIndex("ol_i_id")).ok());
  ASSERT_TRUE(target.Replicate(item).ok());

  cluster.ApplyDesign(initial);
  std::vector<QueryRun> runs;
  std::vector<QueryRunStats> want;
  std::set<uint64_t> keys;
  for (const auto& q : wl.queries()) {
    auto design = cluster.deployed_design()->table_partitions();
    for (schema::TableId t : q.tables()) {
      design[static_cast<size_t>(t)] = target.table_partition(t);
    }
    cluster.ApplyDesign(PartitioningState::FromDesign(&schema, &edges, design));
    runs.push_back({&q, cluster.deployed_design_key()});
    keys.insert(cluster.deployed_design_key());
    want.push_back(cluster.ExecuteQuery(q));
  }
  ASSERT_GE(keys.size(), 2u) << "every query ran under one design key";
  // The deployed design's own key measures some queries differently.
  size_t differ = 0;
  for (size_t i = 0; i < runs.size(); ++i) {
    if (cluster.ExecuteQuery(*runs[i].query).seconds != want[i].seconds) {
      ++differ;
    }
  }
  EXPECT_GT(differ, 0u);

  EvalContext ctx1(1, 51);
  EvalContext ctx2(2, 52);
  EvalContext ctx8(8, 53);
  for (EvalContext* ctx : {&ctx1, &ctx2, &ctx8}) {
    const std::string at = " @" + std::to_string(ctx->threads());
    const std::vector<QueryRunStats> got = cluster.ExecuteQueries(runs, ctx);
    ASSERT_EQ(got.size(), runs.size());
    for (size_t i = 0; i < runs.size(); ++i) {
      ExpectIdentical(want[i], got[i], runs[i].query->name + at);
    }
    // A batch of one: the per-node fan-out inside the query.
    ExpectIdentical(want.back(), cluster.ExecuteQueries({runs.back()}, ctx)[0],
                    runs.back().query->name + " alone" + at);
  }
}

// ---------------------------------------------------------------------------
// Compressed storage (docs/INTERNALS.md §11): the encoded engine must be
// bit-identical to the uncompressed engine, while resident memory shrinks.
// ---------------------------------------------------------------------------

class EncodedExecTest : public SsbExecTest {
 protected:
  ClusterDatabase MakeCluster(bool encode, bool price_encoded) {
    EngineConfig config{HardwareProfile::DiskBased10G(), 0.02, 7, encode,
                        price_encoded};
    return ClusterDatabase(
        storage::Database::Generate(schema_, workload_, GenConfig(5e-4)),
        config, &planner_);
  }
};

TEST_F(EncodedExecTest, EncodedMatchesUncompressedBitExactly) {
  // The compression smoke: encode, query, compare against the uncompressed
  // cluster with exact EXPECT_EQ on every QueryRunStats field, serial and
  // pooled. Any lossy encoding, wrong gather order, or accounting drift
  // fails here.
  ClusterDatabase encoded = MakeCluster(/*encode=*/true, false);
  ClusterDatabase plain = MakeCluster(/*encode=*/false, false);
  EvalContext ctx2(2, 51);
  EvalContext ctx8(8, 52);
  for (const auto& design : Designs()) {
    encoded.ApplyDesign(design);
    plain.ApplyDesign(design);
    for (const auto& q : workload_.queries()) {
      auto want = plain.ExecuteQuery(q);
      ExpectIdentical(want, encoded.ExecuteQuery(q), "encoded " + q.name);
      ExpectIdentical(want, encoded.ExecuteQuery(q, &ctx2),
                      "encoded@2 " + q.name);
      ExpectIdentical(want, encoded.ExecuteQuery(q, &ctx8),
                      "encoded@8 " + q.name);
    }
  }
}

TEST_F(EncodedExecTest, ResidentMemoryShrinksAtLeast2x) {
  ClusterDatabase encoded = MakeCluster(true, false);
  ClusterDatabase plain = MakeCluster(false, false);
  encoded.ApplyDesign(Initial());
  plain.ApplyDesign(Initial());
  EXPECT_EQ(encoded.storage_raw_bytes(), plain.storage_raw_bytes());
  EXPECT_GE(static_cast<double>(encoded.storage_raw_bytes()),
            2.0 * static_cast<double>(encoded.storage_resident_bytes()));
  // The uncompressed cluster holds (at least) its raw bytes.
  EXPECT_GE(plain.storage_resident_bytes(), plain.storage_raw_bytes());
  // Encoded widths reflect the measured ratio; the big fact table must
  // compress well below its logical width.
  schema::TableId lo = schema_.TableIndex("lineorder");
  EXPECT_LT(encoded.EncodedRowBytes(lo),
            0.5 * schema_.table(lo).row_width_bytes());
  EXPECT_EQ(plain.EncodedRowBytes(lo), schema_.table(lo).row_width_bytes());
}

TEST_F(EncodedExecTest, EncodedPricingShrinksExchangeAccounting) {
  // price_encoded_bytes is the intentional re-pricing: shuffles and
  // broadcasts ship measured encoded bytes, so bytes_shuffled and
  // net_seconds drop versus logical-width pricing. Results (rows_out) are
  // unchanged — only the cost landscape moves.
  ClusterDatabase priced = MakeCluster(true, /*price_encoded=*/true);
  ClusterDatabase unpriced = MakeCluster(true, false);
  auto misaligned = Designs()[4];  // fact on date key: exchanges everywhere
  priced.ApplyDesign(misaligned);
  unpriced.ApplyDesign(misaligned);
  uint64_t enc0 = CounterValue("engine.encoded_bytes_exchanged.bytes");
  bool saw_exchange = false;
  for (const auto& q : workload_.queries()) {
    auto cheap = priced.ExecuteQuery(q);
    auto full = unpriced.ExecuteQuery(q);
    EXPECT_EQ(cheap.rows_out, full.rows_out) << q.name;
    if (full.bytes_shuffled > 0) {
      saw_exchange = true;
      EXPECT_LT(cheap.bytes_shuffled, full.bytes_shuffled) << q.name;
      EXPECT_LT(cheap.net_seconds, full.net_seconds) << q.name;
    }
  }
  EXPECT_TRUE(saw_exchange);
  EXPECT_GT(CounterValue("engine.encoded_bytes_exchanged.bytes"), enc0);
}

TEST_F(EncodedExecTest, CostModelEncodedPricingFollowsEngine) {
  // Feeding ClusterDatabase::EncodedRowBytes into the cost model re-prices
  // the planner's exchanges the same direction as the engine's.
  ClusterDatabase encoded = MakeCluster(true, false);
  encoded.ApplyDesign(Initial());
  CostModel raw_model(&schema_, HardwareProfile::DiskBased10G());
  CostModel enc_model(&schema_, HardwareProfile::DiskBased10G());
  std::vector<double> widths;
  for (schema::TableId t = 0; t < schema_.num_tables(); ++t) {
    widths.push_back(encoded.EncodedRowBytes(t));
  }
  enc_model.set_encoded_row_bytes(widths);
  auto misaligned = Designs()[4];
  double raw_cost = raw_model.WorkloadCost(workload_, misaligned);
  double enc_cost = enc_model.WorkloadCost(workload_, misaligned);
  EXPECT_LT(enc_cost, raw_cost);
  // Repartitioning ships encoded bytes too.
  EXPECT_LT(enc_model.RepartitioningCost(Initial(), misaligned),
            raw_model.RepartitioningCost(Initial(), misaligned));
  // An unset model is untouched by the new field (bit-identical pricing).
  CostModel raw_model2(&schema_, HardwareProfile::DiskBased10G());
  EXPECT_EQ(raw_model2.WorkloadCost(workload_, misaligned), raw_cost);
}

TEST_F(EncodedExecTest, BulkAppendReencodesAndKeepsPlanFlipBehavior) {
  // Exp 3a's sequence on a compressed cluster: BulkAppend thaws, appends,
  // redistributes, re-seals — the plan cache invalidation (plan-flip
  // mechanism) and the >=2x compression must both survive.
  ClusterDatabase encoded = MakeCluster(true, false);
  encoded.ApplyDesign(Initial());
  const auto& q = workload_.query(3);
  encoded.ExecuteQuery(q);
  uint64_t inval0 = CounterValue("engine.plan_cache_invalidations.count");
  encoded.BulkAppend(0.25, 3);
  EXPECT_EQ(CounterValue("engine.plan_cache_invalidations.count"), inval0 + 1);
  EXPECT_GE(static_cast<double>(encoded.storage_raw_bytes()),
            2.0 * static_cast<double>(encoded.storage_resident_bytes()));
  // And the appended encoded cluster still matches an appended plain one.
  ClusterDatabase plain = MakeCluster(false, false);
  plain.ApplyDesign(Initial());
  plain.BulkAppend(0.25, 3);
  for (const auto& qq : workload_.queries()) {
    ExpectIdentical(plain.ExecuteQuery(qq), encoded.ExecuteQuery(qq),
                    "post-append " + qq.name);
  }
}

TEST_F(EncodedExecTest, KeptLayoutsStayResidentAndMoveBackIn) {
  // Leaving a partition column keeps its sealed shards, which count as
  // resident; going back moves them in without building anything, and the
  // move is priced as a fresh cluster prices the same move.
  ClusterDatabase encoded = MakeCluster(true, false);
  const PartitioningState initial = Initial();
  const PartitioningState misaligned = Designs()[4];
  const auto changed = misaligned.DiffTables(initial);
  ASSERT_FALSE(changed.empty());
  encoded.ApplyDesign(initial);
  const size_t resident0 = encoded.storage_resident_bytes();
  const size_t raw0 = encoded.storage_raw_bytes();
  const uint64_t built0 = CounterValue("engine.layouts_built.count");
  const uint64_t reused0 = CounterValue("engine.layouts_reused.count");

  encoded.ApplyDesign(misaligned);
  EXPECT_EQ(CounterValue("engine.layouts_built.count"),
            built0 + changed.size());
  size_t added_resident = 0;
  size_t added_raw = 0;
  for (schema::TableId t : changed) {
    for (int node = 0; node < encoded.num_nodes(); ++node) {
      ASSERT_NE(encoded.shard(t, node), nullptr);
      added_resident += encoded.shard(t, node)->resident_bytes();
      added_raw += encoded.shard(t, node)->raw_bytes();
    }
  }
  EXPECT_EQ(encoded.storage_resident_bytes(), resident0 + added_resident);
  EXPECT_EQ(encoded.storage_raw_bytes(), raw0 + added_raw);

  const double back = encoded.ApplyDesign(initial);
  EXPECT_EQ(CounterValue("engine.layouts_built.count"),
            built0 + changed.size());
  EXPECT_EQ(CounterValue("engine.layouts_reused.count"),
            reused0 + changed.size());
  EXPECT_EQ(encoded.storage_resident_bytes(), resident0 + added_resident);
  EXPECT_EQ(encoded.storage_raw_bytes(), raw0 + added_raw);

  ClusterDatabase fresh = MakeCluster(true, false);
  fresh.ApplyDesign(misaligned);
  EXPECT_EQ(back, fresh.ApplyDesign(initial));
  for (const auto& q : workload_.queries()) {
    ExpectIdentical(fresh.ExecuteQuery(q), encoded.ExecuteQuery(q),
                    "moved back " + q.name);
  }
}

TEST(NoisyMemoTest, WarmFromEightThreadsMatchesFreshModel) {
  // The depth-noise memo is shared by every thread that plans; its factors
  // must equal a cold model's for every (query, join, joined tables) of
  // TPC-CH, before and after a statistics refresh.
  const auto schema = schema::MakeTpcchSchema();
  const auto wl = workload::MakeTpcchWorkload(schema);
  const HardwareProfile hw = HardwareProfile::DiskBased10G();
  struct Input {
    int query, join, joined;
  };
  std::vector<Input> inputs;
  for (int q = 0; q < wl.num_queries(); ++q) {
    const auto& query = wl.query(q);
    for (int j = 0; j < static_cast<int>(query.joins.size()); ++j) {
      for (int joined = 2; joined <= query.num_tables(); ++joined) {
        inputs.push_back({q, j, joined});
      }
    }
  }
  NoisyOptimizerModel warm(&schema, hw, 0.5, 4242, false, 0.8);
  auto warm_up = [&] {
    std::vector<std::thread> threads;
    for (int k = 0; k < 8; ++k) {
      threads.emplace_back([&, k] {
        // Each thread walks the inputs from its own offset, so first uses
        // race across threads.
        for (size_t i = 0; i < inputs.size(); ++i) {
          const Input& in = inputs[(i + static_cast<size_t>(k) * 37) %
                                   inputs.size()];
          warm.CardinalityScale(wl.query(in.query), in.join, in.joined);
        }
      });
    }
    for (auto& t : threads) t.join();
  };
  for (int epoch : {0, 1}) {
    warm.set_stats_epoch(epoch);
    warm_up();
    NoisyOptimizerModel fresh(&schema, hw, 0.5, 4242, false, 0.8);
    fresh.set_stats_epoch(epoch);
    NoisyOptimizerModel other_epoch(&schema, hw, 0.5, 4242, false, 0.8);
    other_epoch.set_stats_epoch(1 - epoch);
    size_t flipped = 0;
    for (const Input& in : inputs) {
      const auto& query = wl.query(in.query);
      const double want = fresh.CardinalityScale(query, in.join, in.joined);
      EXPECT_EQ(warm.CardinalityScale(query, in.join, in.joined), want)
          << query.name << " join " << in.join << " joined " << in.joined
          << " epoch " << epoch;
      if (other_epoch.CardinalityScale(query, in.join, in.joined) != want) {
        ++flipped;
      }
    }
    EXPECT_GT(flipped, 0u) << "the epoch flip changed no factor";
  }
}

TEST(JoinTableTest, FindsAllDuplicatesAndCountsProbes) {
  JoinTable jt;
  uint64_t probes = 0;
  jt.Reset(5);
  EXPECT_GE(jt.capacity(), 16u);  // power-of-two floor
  // Three keys; key 7 inserted three times, and two keys that collide modulo
  // any small power of two (high bits differ only).
  jt.Insert(7, 0, &probes);
  jt.Insert(7, 1, &probes);
  jt.Insert(7, 2, &probes);
  jt.Insert(9, 3, &probes);
  jt.Insert(7 + (uint64_t{1} << 40), 4, &probes);
  EXPECT_EQ(jt.size(), 5u);

  std::set<uint32_t> rows;
  for (uint32_t e = jt.Find(7, &probes); e != JoinTable::kNone;
       e = jt.entry(e).next) {
    rows.insert(jt.entry(e).row);
  }
  EXPECT_EQ(rows, (std::set<uint32_t>{0, 1, 2}));
  EXPECT_EQ(jt.Find(12345, &probes), JoinTable::kNone);
  EXPECT_GT(probes, 0u);

  uint32_t e4 = jt.Find(7 + (uint64_t{1} << 40), &probes);
  ASSERT_NE(e4, JoinTable::kNone);
  EXPECT_EQ(jt.entry(e4).row, 4u);
  EXPECT_EQ(jt.entry(e4).next, JoinTable::kNone);
}

}  // namespace
}  // namespace lpa::engine
