// Cross-module integration tests: the full advisor pipeline (offline train
// -> online refine -> suggest -> deploy -> measure) on small testbeds, plus
// end-to-end invariants that span cost model, engine, and RL.

#include <gtest/gtest.h>

#include "advisor/advisor.h"
#include "advisor/advisor_handle.h"
#include "advisor/committee.h"
#include "baselines/heuristics.h"
#include "baselines/optimizer_designer.h"
#include "costmodel/noisy_model.h"
#include "engine/cluster.h"
#include "rl/online_env.h"
#include "schema/catalogs.h"
#include "sql/parser.h"
#include "workload/benchmarks.h"

namespace lpa {
namespace {

using costmodel::HardwareProfile;
using partition::PartitioningState;

storage::GenerationConfig SmallGen(double fraction) {
  storage::GenerationConfig gen;
  gen.fraction = fraction;
  gen.small_table_threshold = 64;
  gen.seed = 42;
  return gen;
}

TEST(IntegrationTest, MicroEndToEndPipeline) {
  // Full pipeline on the micro schema: offline train on the cost model,
  // online refine on a sampled cluster, suggest, deploy on the "full"
  // cluster, and verify the suggestion beats the initial design.
  schema::Schema schema = schema::MakeMicroSchema();
  workload::Workload workload = workload::MakeMicroWorkload(schema);
  workload.SetUniformFrequencies();
  costmodel::CostModel cm(&schema, HardwareProfile::InMemory06G());
  costmodel::NoisyOptimizerModel planner(&schema, HardwareProfile::InMemory06G(),
                                         0.15, 43, false);

  engine::EngineConfig engine_config;
  engine_config.hardware = HardwareProfile::InMemory06G();
  engine_config.seed = 5;
  auto full_db = storage::Database::Generate(schema, workload, SmallGen(5e-5));
  engine::ClusterDatabase full(full_db, engine_config, &planner);
  engine::ClusterDatabase sample(full_db.Sample(0.3, 64, 9), engine_config,
                                 &planner);

  advisor::AdvisorConfig config;
  config.offline_episodes = 120;
  config.online_episodes = 40;
  config.dqn.tmax = 8;
  config.dqn.FitEpsilonSchedule(config.offline_episodes);
  config.seed = 7;
  advisor::PartitioningAdvisor advisor(&schema, workload, config);
  advisor.TrainOffline(&cm);

  auto p_offline =
      advisor.Suggest(std::vector<double>(2, 1.0)).best_state;
  auto scale = rl::ComputeScaleFactors(&full, &sample, workload, p_offline);
  rl::OnlineEnv env(&sample, &advisor.workload(), scale, rl::OnlineEnvOptions{});
  advisor.TrainOnline(&env);
  auto result = advisor.Suggest(std::vector<double>(2, 1.0), &env);

  full.ApplyDesign(result.best_state);
  double suggested = full.ExecuteWorkload(workload);
  full.ApplyDesign(PartitioningState::Initial(&schema, &advisor.edges()));
  double initial = full.ExecuteWorkload(workload);
  EXPECT_LT(suggested, initial);
}

TEST(IntegrationTest, SqlWorkloadThroughWholeStack) {
  // SQL text -> parser -> advisor -> engine measurement.
  schema::Schema schema = schema::MakeSsbSchema();
  auto queries = sql::ParseScript(
      "SELECT SUM(lo_payload) FROM lineorder l, customer c "
      "WHERE l.lo_custkey = c.c_custkey AND c.c_region = 1 GROUP BY c_region;"
      "SELECT COUNT(lo_key) FROM lineorder l, date d "
      "WHERE l.lo_orderdate = d.d_datekey AND d.d_year = 1994 GROUP BY d_year;",
      schema, "sqlq");
  ASSERT_TRUE(queries.ok()) << queries.status().ToString();
  workload::Workload workload(std::move(*queries));
  workload.SetUniformFrequencies();

  costmodel::CostModel cm(&schema, HardwareProfile::DiskBased10G());
  advisor::AdvisorConfig config;
  config.offline_episodes = 80;
  config.dqn.tmax = 8;
  config.dqn.FitEpsilonSchedule(config.offline_episodes);
  advisor::PartitioningAdvisor advisor(&schema, workload, config);
  advisor.TrainOffline(&cm);
  auto suggestion = advisor.Suggest(std::vector<double>(2, 1.0));

  // The suggestion must co-locate or localize the custkey join: measure it.
  engine::EngineConfig engine_config;
  engine_config.hardware = HardwareProfile::DiskBased10G();
  engine_config.seed = 5;
  engine::ClusterDatabase cluster(
      storage::Database::Generate(schema, workload, SmallGen(2e-4)),
      engine_config, &cm);
  cluster.ApplyDesign(suggestion.best_state);
  double suggested = cluster.ExecuteWorkload(workload);
  cluster.ApplyDesign(PartitioningState::Initial(&schema, &advisor.edges()));
  double initial = cluster.ExecuteWorkload(workload);
  EXPECT_LE(suggested, initial * 1.02);
}

TEST(IntegrationTest, CostModelAndEngineAgreeOnDesignOrdering) {
  // Property: for clearly separated designs (all-shuffling vs all-local),
  // the analytic model and the engine must order them identically.
  schema::Schema schema = schema::MakeSsbSchema();
  workload::Workload workload = workload::MakeSsbWorkload(schema);
  workload.SetUniformFrequencies();
  auto edges = partition::EdgeSet::Extract(schema, workload);
  costmodel::CostModel cm(&schema, HardwareProfile::DiskBased10G());
  engine::EngineConfig engine_config;
  engine_config.hardware = HardwareProfile::DiskBased10G();
  engine_config.seed = 5;
  engine::ClusterDatabase cluster(
      storage::Database::Generate(schema, workload, SmallGen(2e-4)),
      engine_config, &cm);

  auto good = PartitioningState::Initial(&schema, &edges);
  schema::TableId lo = schema.TableIndex("lineorder");
  ASSERT_TRUE(good.PartitionBy(lo, schema.table(lo).ColumnIndex("lo_custkey")).ok());
  for (const char* dim : {"customer", "supplier", "part", "date"}) {
    schema::TableId t = schema.TableIndex(dim);
    if (dim == std::string("customer")) continue;  // co-partitioned side
    ASSERT_TRUE(good.Replicate(t).ok());
  }
  auto bad = PartitioningState::Initial(&schema, &edges);  // all shuffles

  double cm_good = cm.WorkloadCost(workload, good);
  double cm_bad = cm.WorkloadCost(workload, bad);
  cluster.ApplyDesign(good);
  double engine_good = cluster.ExecuteWorkload(workload);
  cluster.ApplyDesign(bad);
  double engine_bad = cluster.ExecuteWorkload(workload);
  EXPECT_LT(cm_good, cm_bad);
  EXPECT_LT(engine_good, engine_bad);
}

TEST(IntegrationTest, HeuristicsAreValidDeployableDesigns) {
  // Every baseline design must deploy and execute on every schema/engine.
  for (const char* name : {"ssb", "tpcch"}) {
    schema::Schema schema = name == std::string("ssb")
                                ? schema::MakeSsbSchema()
                                : schema::MakeTpcchSchema();
    workload::Workload workload = name == std::string("ssb")
                                      ? workload::MakeSsbWorkload(schema)
                                      : workload::MakeTpcchWorkload(schema);
    workload.SetUniformFrequencies();
    auto edges = partition::EdgeSet::Extract(schema, workload);
    costmodel::NoisyOptimizerModel noisy(&schema, HardwareProfile::DiskBased10G());
    costmodel::CostModel cm(&schema, HardwareProfile::DiskBased10G());
    engine::EngineConfig engine_config;
    engine_config.hardware = HardwareProfile::DiskBased10G();
    engine_config.seed = 5;
    engine::ClusterDatabase cluster(
        storage::Database::Generate(schema, workload, SmallGen(2e-4)),
        engine_config, &cm);
    baselines::OptimizerDesignerConfig designer;
    designer.random_restarts = 1;
    for (const auto& design :
         {baselines::HeuristicA(schema, workload, edges),
          baselines::HeuristicB(schema, workload, edges),
          baselines::MinimizeOptimizerCost(schema, workload, edges, noisy,
                                           designer)}) {
      cluster.ApplyDesign(design);
      double t = cluster.ExecuteWorkload(workload);
      EXPECT_GT(t, 0.0) << name;
      EXPECT_TRUE(std::isfinite(t)) << name;
    }
  }
}

TEST(IntegrationTest, OnlineCacheConsistentWithDirectMeasurement) {
  // Property behind the Query Runtime Cache (Sec 4.2): a query's measured
  // runtime depends only on the design of the tables it references — so a
  // cached value must equal a fresh measurement under any design that
  // agrees on those tables.
  schema::Schema schema = schema::MakeSsbSchema();
  workload::Workload workload = workload::MakeSsbWorkload(schema);
  auto edges = partition::EdgeSet::Extract(schema, workload);
  costmodel::CostModel cm(&schema, HardwareProfile::DiskBased10G());
  engine::EngineConfig engine_config;
  engine_config.hardware = HardwareProfile::DiskBased10G();
  engine_config.seed = 5;
  engine::ClusterDatabase cluster(
      storage::Database::Generate(schema, workload, SmallGen(1e-4)),
      engine_config, &cm);
  rl::OnlineEnv env(&cluster, &workload, {}, rl::OnlineEnvOptions{});

  auto a = PartitioningState::Initial(&schema, &edges);
  double first = env.QueryCost(0, a, 1.0);  // q1.1: lineorder x date
  // Change `part` only; q1.1's cached runtime must be returned and match a
  // cache-less re-execution.
  auto b = a;
  ASSERT_TRUE(b.Replicate(schema.TableIndex("part")).ok());
  double cached = env.QueryCost(0, b, 1.0);
  EXPECT_DOUBLE_EQ(first, cached);

  rl::OnlineEnvOptions no_cache;
  no_cache.use_runtime_cache = false;
  rl::OnlineEnv fresh_env(&cluster, &workload, {}, no_cache);
  double fresh = fresh_env.QueryCost(0, b, 1.0);
  EXPECT_NEAR(cached, fresh, cached * 1e-9);
}

TEST(IntegrationTest, CommitteeNeverWorseThanReferencesOnProbes) {
  schema::Schema schema = schema::MakeSsbSchema();
  workload::Workload workload = workload::MakeSsbWorkload(schema);
  costmodel::CostModel cm(&schema, HardwareProfile::DiskBased10G());
  advisor::AdvisorConfig config;
  config.offline_episodes = 60;
  config.dqn.tmax = 10;
  config.dqn.FitEpsilonSchedule(config.offline_episodes);
  advisor::PartitioningAdvisor advisor(&schema, workload, config);
  advisor.TrainOffline(&cm);
  advisor::CommitteeConfig cc;
  cc.expert_episodes = 10;
  advisor::SubspaceCommittee committee(&advisor, advisor.offline_env(), cc);

  Rng rng(77);
  for (int i = 0; i < 3; ++i) {
    auto freqs = workload::SampleUniformFrequencies(13, &rng);
    int k = committee.AssignSubspace(freqs, advisor.offline_env());
    auto suggestion = committee.Suggest(freqs, advisor.offline_env());
    double ref_cost = advisor.offline_env()->WorkloadCost(
        committee.reference_partitionings()[static_cast<size_t>(k)], freqs);
    // The expert's rollout visits states at least as good as... the rollout
    // may or may not pass the reference; assert it stays within 2x of it (a
    // sanity bound, not a tight one).
    EXPECT_LT(suggestion.best_cost, ref_cost * 2.0);
  }
}

// --- Planner limits at the API boundary ---------------------------------------

/// Tables t0..t{n-1}, each with a key `id` and four columns c0..c3.
schema::Schema WideSchema(int n) {
  schema::Schema schema("wide");
  for (int i = 0; i < n; ++i) {
    schema::Table t;
    t.name = "t" + std::to_string(i);
    t.row_count = 1000;
    t.primary_key = 0;
    t.columns.push_back(schema::MakeColumn("id", 1000, 8, true));
    for (int c = 0; c < 4; ++c) {
      t.columns.push_back(schema::MakeColumn("c" + std::to_string(c), 100, 8, true));
    }
    schema.AddTable(std::move(t));
  }
  return schema;
}

/// Chain join over t0..t{n-1}: t{i} joins t{i+1} on c0..c{eqs-1}, so every
/// table contributes `eqs` distinct join columns.
workload::QuerySpec ChainQuery(int n, int eqs) {
  workload::QuerySpec q;
  q.name = "chain" + std::to_string(n) + "x" + std::to_string(eqs);
  for (int i = 0; i < n; ++i) q.scans.push_back(workload::TableScan{i, 1.0});
  for (int i = 0; i + 1 < n; ++i) {
    workload::JoinPredicate join;
    for (int c = 1; c <= eqs; ++c) {
      join.equalities.push_back(workload::JoinEquality{{i, c}, {i + 1, c}});
    }
    q.joins.push_back(std::move(join));
  }
  return q;
}

TEST(PlannerLimitsTest, ValidateRejectsQueriesBeyondThePlannerMasks) {
  schema::Schema schema = WideSchema(17);
  EXPECT_EQ(ChainQuery(17, 1).Validate(schema).code(),
            Status::Code::kInvalidArgument);
  // 16 tables with 4 join columns each: 16 + 64 > 64 column ids.
  EXPECT_EQ(ChainQuery(16, 4).Validate(schema).code(),
            Status::Code::kInvalidArgument);
  // 16 + 48 fills the column mask exactly, and the planner accepts it.
  workload::Workload wl({ChainQuery(16, 3)});
  ASSERT_TRUE(wl.Validate(schema).ok());
  auto edges = partition::EdgeSet::Extract(schema, wl);
  costmodel::CostModel model(&schema, HardwareProfile::InMemory10G());
  double cost =
      model.QueryCost(wl.query(0), PartitioningState::Initial(&schema, &edges));
  EXPECT_TRUE(std::isfinite(cost));
  EXPECT_GT(cost, 0.0);
}

TEST(PlannerLimitsTest, OversizedQueryIsRejectedAndTheHandleKeepsServing) {
  schema::Schema schema = WideSchema(17);
  std::string sql = "SELECT * FROM t0";
  for (int i = 1; i < 17; ++i) sql += ", t" + std::to_string(i);
  for (int i = 0; i + 1 < 17; ++i) {
    sql += (i == 0 ? " WHERE " : " AND ");
    sql += "t" + std::to_string(i) + ".c0 = t" + std::to_string(i + 1) + ".c0";
  }
  auto parsed = sql::ParseQuery(sql, schema, "wide");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), Status::Code::kInvalidArgument);

  costmodel::CostModel model(&schema, HardwareProfile::InMemory10G());
  advisor::AdvisorConfig config;
  config.seed = 3;
  AdvisorHandle handle(&schema, workload::Workload({ChainQuery(3, 1)}), config);
  ASSERT_TRUE(handle.BindCostModel(&model).ok());
  auto added = handle.AddQueries({ChainQuery(17, 1)});
  ASSERT_FALSE(added.ok());
  EXPECT_EQ(added.status().code(), Status::Code::kInvalidArgument);
  SuggestRequest request;
  request.frequencies = {1.0};
  auto suggestion = handle.Suggest(request);
  ASSERT_TRUE(suggestion.ok()) << suggestion.status().ToString();
  EXPECT_TRUE(std::isfinite(suggestion->best_cost));
}

}  // namespace
}  // namespace lpa
