// Component microbenchmarks (google-benchmark): throughput guardrails for
// the library's hot paths — cost-model planning, the DP designer,
// featurization, NN forward/train, engine execution, data generation and
// sealing, warm per-step workload pricing — plus three kernels, each a
// single-iteration benchmark that --benchmark_filter selects like any other
// (BM_StorageKernel, BM_EngineKernel, BM_TrainingKernel): a storage kernel
// measuring encode/decode throughput and per-column compression
// (BENCH_storage.json), an engine kernel measuring pool-parallel
// ExecuteWorkload scaling with bit-identity checks plus the
// compressed-storage footprint (BENCH_engine.json), and the training kernel
// (BENCH_training.json).

#include <benchmark/benchmark.h>

#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>

#include "advisor/serialization.h"
#include "advisor/workload_monitor.h"
#include "baselines/dp_baseline.h"
#include "bench_common.h"
#include "costmodel/cost_model.h"
#include "costmodel/noisy_model.h"
#include "sql/ddl.h"
#include "sql/parser.h"
#include "engine/cluster.h"
#include "nn/mlp.h"
#include "partition/actions.h"
#include "partition/featurizer.h"
#include "rl/dqn.h"
#include "rl/offline_env.h"
#include "rl/online_env.h"
#include "schema/catalogs.h"
#include "storage/database.h"
#include "storage/encoded_column.h"
#include "util/eval_context.h"
#include "util/rng.h"
#include "workload/benchmarks.h"

namespace lpa {
namespace {

struct SsbFixture {
  SsbFixture()
      : schema(schema::MakeSsbSchema()),
        wl(workload::MakeSsbWorkload(schema)),
        edges(partition::EdgeSet::Extract(schema, wl)),
        model(&schema, costmodel::HardwareProfile::DiskBased10G()),
        state(partition::PartitioningState::Initial(&schema, &edges)) {}

  schema::Schema schema;
  workload::Workload wl;
  partition::EdgeSet edges;
  costmodel::CostModel model;
  partition::PartitioningState state;
};

SsbFixture& Ssb() {
  static SsbFixture fixture;
  return fixture;
}

void BM_CostModelPlanSsbQuery(benchmark::State& s) {
  auto& f = Ssb();
  const auto& q = f.wl.query(10);  // q4.1: all five tables
  for (auto _ : s) {
    benchmark::DoNotOptimize(f.model.QueryCost(q, f.state));
  }
}
BENCHMARK(BM_CostModelPlanSsbQuery);

void BM_CostModelPlanTpcdsQuery(benchmark::State& s) {
  static schema::Schema schema = schema::MakeTpcdsSchema();
  static workload::Workload wl = workload::MakeTpcdsWorkload(schema);
  static partition::EdgeSet edges = partition::EdgeSet::Extract(schema, wl);
  static costmodel::CostModel model(&schema,
                                    costmodel::HardwareProfile::DiskBased10G());
  static auto state = partition::PartitioningState::Initial(&schema, &edges);
  const auto& q = wl.query(53);  // 6-table demographic query
  for (auto _ : s) {
    benchmark::DoNotOptimize(model.QueryCost(q, state));
  }
}
BENCHMARK(BM_CostModelPlanTpcdsQuery);

struct TpcchFixture {
  TpcchFixture()
      : schema(schema::MakeTpcchSchema()),
        wl(workload::MakeTpcchWorkload(schema)),
        edges(partition::EdgeSet::Extract(schema, wl)),
        model(&schema, costmodel::HardwareProfile::DiskBased10G()),
        // The engine's runtime planner (bench_common.h's planner_model).
        planner(&schema, costmodel::HardwareProfile::DiskBased10G(),
                /*depth_sigma=*/0.05, /*seed=*/2,
                /*use_independence_assumption=*/false),
        state(partition::PartitioningState::Initial(&schema, &edges)) {
    for (int i = 1; i < wl.num_queries(); ++i) {
      if (wl.query(i).num_tables() > wl.query(largest).num_tables()) largest = i;
    }
  }

  schema::Schema schema;
  workload::Workload wl;
  partition::EdgeSet edges;
  costmodel::CostModel model;
  costmodel::NoisyOptimizerModel planner;
  partition::PartitioningState state;
  int largest = 0;  // the query with the most tables
};

TpcchFixture& Tpcch() {
  static TpcchFixture fixture;
  return fixture;
}

void BM_CostModelPlanTpcchQuery(benchmark::State& s) {
  auto& f = Tpcch();
  const auto& q = f.wl.query(f.largest);
  for (auto _ : s) {
    benchmark::DoNotOptimize(f.model.QueryCost(q, f.state));
  }
}
BENCHMARK(BM_CostModelPlanTpcchQuery);

void BM_CostModelPlanNoisyTpcchQuery(benchmark::State& s) {
  // The engine plans with PlanQuery, so this one builds the plan tree.
  auto& f = Tpcch();
  const auto& q = f.wl.query(f.largest);
  for (auto _ : s) {
    benchmark::DoNotOptimize(f.planner.PlanQuery(q, f.state));
  }
}
BENCHMARK(BM_CostModelPlanNoisyTpcchQuery);

void BM_DpDesignTpcch(benchmark::State& s) {
  // perfbench design_tpcch's DP designer: exact model, uniform mix, ε = 0.1
  // and the beam settings it uses above 8 tables. Each iteration starts
  // from an empty query-cost memo.
  auto& f = Tpcch();
  search::DpDesignerConfig config;
  config.epsilon = 0.1;
  config.max_frontier = 128;
  config.max_bound_enum = 512;
  const std::vector<double> uniform(static_cast<size_t>(f.wl.num_queries()),
                                    1.0);
  for (auto _ : s) {
    search::DpResult r =
        baselines::DpDesign(f.schema, f.wl, f.edges, f.model, uniform, config);
    benchmark::DoNotOptimize(r.best_cost);
  }
}
BENCHMARK(BM_DpDesignTpcch)->Unit(benchmark::kMillisecond);

// Warm per-step pricing, as an offline training step pays it: a seeded
// random walk of 512 actions from s0, each visited state priced through
// OfflineEnv::WorkloadCost under one sampled mix. The walk is priced once
// before timing, so each timed pass probes a warm memo and never plans.
// Items are steps.
template <typename Fixture>
void OfflineEnvStepCost(benchmark::State& s, Fixture& f) {
  partition::ActionSpace actions(&f.schema, &f.edges);
  Rng rng(42);
  std::vector<partition::PartitioningState> walk;
  partition::PartitioningState state =
      partition::PartitioningState::Initial(&f.schema, &f.edges);
  for (int i = 0; i < 512; ++i) {
    std::vector<int> legal = actions.LegalActions(state);
    int action = legal[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(legal.size()) - 1))];
    LPA_CHECK(actions.Apply(action, &state).ok());
    walk.push_back(state);
  }
  const std::vector<double> freqs =
      workload::SampleUniformFrequencies(f.wl.num_queries(), &rng);
  rl::OfflineEnv env(&f.model, &f.wl);
  for (const auto& st : walk) env.WorkloadCost(st, freqs);
  for (auto _ : s) {
    for (const auto& st : walk) {
      benchmark::DoNotOptimize(env.WorkloadCost(st, freqs));
    }
  }
  s.SetItemsProcessed(s.iterations() * static_cast<int64_t>(walk.size()));
}

void BM_OfflineEnvStepCostSsb(benchmark::State& s) {
  OfflineEnvStepCost(s, Ssb());
}
BENCHMARK(BM_OfflineEnvStepCostSsb);

void BM_OfflineEnvStepCostTpcch(benchmark::State& s) {
  OfflineEnvStepCost(s, Tpcch());
}
BENCHMARK(BM_OfflineEnvStepCostTpcch);

void BM_FeaturizerEncodeState(benchmark::State& s) {
  auto& f = Ssb();
  partition::Featurizer featurizer(&f.schema, &f.edges, f.wl.num_queries());
  std::vector<double> freqs(static_cast<size_t>(f.wl.num_queries()), 1.0);
  for (auto _ : s) {
    benchmark::DoNotOptimize(featurizer.EncodeState(f.state, freqs));
  }
}
BENCHMARK(BM_FeaturizerEncodeState);

void BM_LegalActions(benchmark::State& s) {
  auto& f = Ssb();
  partition::ActionSpace actions(&f.schema, &f.edges);
  for (auto _ : s) {
    benchmark::DoNotOptimize(actions.LegalActions(f.state));
  }
}
BENCHMARK(BM_LegalActions);

void BM_MlpForward128x64(benchmark::State& s) {
  nn::MlpConfig config;
  config.input_dim = 64;
  config.hidden = {128, 64};
  config.output_dim = 32;
  nn::Mlp mlp(config);
  nn::Matrix x(32, 64, 0.1);
  for (auto _ : s) {
    benchmark::DoNotOptimize(mlp.Forward(x));
  }
}
BENCHMARK(BM_MlpForward128x64);

/// One DQN minibatch step (batch 32) on a replay of 64 copies of the
/// initial state's transition, with the learner's products on a pool of
/// `threads` threads (1 = serial).
template <class Fixture>
void DqnTrainStep(benchmark::State& s, Fixture& f, int threads) {
  partition::ActionSpace actions(&f.schema, &f.edges);
  partition::Featurizer featurizer(&f.schema, &f.edges, f.wl.num_queries());
  rl::DqnConfig config;
  config.tmax = 16;
  rl::DqnAgent agent(&featurizer, &actions, config);
  std::vector<double> freqs(static_cast<size_t>(f.wl.num_queries()), 1.0);
  auto enc = featurizer.EncodeState(f.state, freqs);
  auto legal = actions.LegalActions(f.state);
  for (int i = 0; i < 64; ++i) {
    agent.Observe(rl::Transition{enc, legal[0], -1.0, enc, legal});
  }
  EvalContext ctx(threads);
  Rng rng(3);
  for (auto _ : s) {
    benchmark::DoNotOptimize(agent.TrainStep(&rng, ctx.pool()));
  }
}

// SSB: 31 -> 128 -> 64 -> 22.
void BM_DqnTrainStep(benchmark::State& s) { DqnTrainStep(s, Ssb(), 1); }
BENCHMARK(BM_DqnTrainStep);

void BM_DqnTrainStepPool4(benchmark::State& s) { DqnTrainStep(s, Ssb(), 4); }
BENCHMARK(BM_DqnTrainStepPool4);

// TPC-CH: 76 -> 128 -> 64 -> 70.
void BM_DqnTrainStepTpcch(benchmark::State& s) { DqnTrainStep(s, Tpcch(), 1); }
BENCHMARK(BM_DqnTrainStepTpcch);

void BM_DqnTrainStepTpcchPool4(benchmark::State& s) {
  DqnTrainStep(s, Tpcch(), 4);
}
BENCHMARK(BM_DqnTrainStepTpcchPool4);

/// One serial TPC-CH minibatch step (batch 32) over a replay of 5,400
/// transitions built the way EpisodeTrainer::Train builds them: 150 episodes
/// of 36 steps (perfbench refine_tpcch's 75 offline plus 75 online), each
/// under its own sampled frequency mix, with seeded uniform legal actions
/// and seeded rewards. Unlike DqnTrainStep's 64 copies of one transition,
/// every minibatch gathers 32 different rows from the whole buffer.
void BM_DqnTrainStepTpcchReplay(benchmark::State& s) {
  auto& f = Tpcch();
  partition::ActionSpace actions(&f.schema, &f.edges);
  partition::Featurizer featurizer(&f.schema, &f.edges, f.wl.num_queries());
  rl::DqnConfig config;
  config.tmax = 36;
  rl::DqnAgent agent(&featurizer, &actions, config);
  Rng walk(17);
  for (int e = 0; e < 150; ++e) {
    const std::vector<double> freqs =
        workload::SampleUniformFrequencies(f.wl.num_queries(), &walk);
    partition::PartitioningState state = f.state;
    std::vector<double> enc = featurizer.EncodeState(state, freqs);
    std::vector<int> legal = actions.LegalActions(state);
    for (int t = 0; t < config.tmax; ++t) {
      const int action = legal[static_cast<size_t>(
          walk.UniformInt(0, static_cast<int64_t>(legal.size()) - 1))];
      LPA_CHECK(actions.Apply(action, &state).ok());
      std::vector<double> next_enc = featurizer.EncodeState(state, freqs);
      std::vector<int> next_legal = actions.LegalActions(state);
      agent.Observe(rl::Transition{std::move(enc), action,
                                   walk.Uniform(-1.0, 1.0), next_enc,
                                   next_legal});
      enc = std::move(next_enc);
      legal = std::move(next_legal);
    }
  }
  Rng rng(3);
  for (auto _ : s) {
    benchmark::DoNotOptimize(agent.TrainStep(&rng));
  }
}
BENCHMARK(BM_DqnTrainStepTpcchReplay);

/// perfbench serve_ssb's design phase: the 64-episode SSB model (tmax 16)
/// trained offline on the exact in-memory cost model, with `threads`
/// threads, from a fresh advisor per iteration. Unlike DqnTrainStep, its
/// minibatches come from real replay contents.
void TrainOfflineSsb(benchmark::State& s, int threads) {
  auto& f = Ssb();
  static const costmodel::CostModel model(
      &f.schema, bench::ProfileFor(bench::EngineKind::kInMemory));
  advisor::AdvisorConfig config;
  config.offline_episodes = 64;
  config.dqn.tmax = 16;
  config.dqn.FitEpsilonSchedule(config.offline_episodes);
  config.seed = 42;
  for (auto _ : s) {
    advisor::PartitioningAdvisor advisor(&f.schema, f.wl, config);
    EvalContext ctx(threads, 42);
    benchmark::DoNotOptimize(advisor.TrainOffline(&model, nullptr, &ctx));
  }
}

void BM_TrainOfflineSsb(benchmark::State& s) { TrainOfflineSsb(s, 1); }
BENCHMARK(BM_TrainOfflineSsb)->Unit(benchmark::kMillisecond);

void BM_TrainOfflineSsbPool4(benchmark::State& s) { TrainOfflineSsb(s, 4); }
BENCHMARK(BM_TrainOfflineSsbPool4)->Unit(benchmark::kMillisecond);

void BM_EngineExecuteQuery(benchmark::State& s) {
  auto& f = Ssb();
  storage::GenerationConfig gen;
  gen.fraction = 2e-4;
  gen.seed = 5;
  static engine::ClusterDatabase cluster(
      storage::Database::Generate(f.schema, f.wl, gen),
      engine::EngineConfig{costmodel::HardwareProfile::DiskBased10G(), 0.0, 5},
      &f.model);
  cluster.ApplyDesign(f.state);
  const auto& q = f.wl.query(6);  // q3.1
  for (auto _ : s) {
    benchmark::DoNotOptimize(cluster.ExecuteQuery(q));
  }
}
BENCHMARK(BM_EngineExecuteQuery);

void BM_GenerateSsbDatabase(benchmark::State& s) {
  auto& f = Ssb();
  storage::GenerationConfig gen;
  gen.fraction = 1e-4;
  gen.seed = 5;
  for (auto _ : s) {
    benchmark::DoNotOptimize(storage::Database::Generate(f.schema, f.wl, gen));
  }
}
BENCHMARK(BM_GenerateSsbDatabase);

/// Seals the SSB fact table at serve_ssb's fraction (600k rows) from plain
/// columns: the master seal that dominates the testbed's set-up.
void BM_SealSsbFactTable(benchmark::State& s) {
  auto& f = Ssb();
  storage::GenerationConfig gen;
  gen.fraction = bench::DefaultFraction("ssb");
  gen.small_table_threshold = 64;
  gen.seed = 5;
  const storage::Database db = storage::Database::Generate(f.schema, f.wl, gen);
  const storage::TableData& fact = db.table(f.schema.TableIndex("lineorder"));
  for (auto _ : s) {
    s.PauseTiming();
    storage::TableData table = fact;
    s.ResumeTiming();
    table.Seal();
    benchmark::DoNotOptimize(table);
  }
  s.SetBytesProcessed(static_cast<int64_t>(s.iterations()) *
                      static_cast<int64_t>(fact.raw_bytes()));
}
BENCHMARK(BM_SealSsbFactTable)->Unit(benchmark::kMillisecond);

/// A cold repartition of the SSB fact table from its key to lo_custkey: each
/// iteration deploys the initial design on a fresh cluster outside the
/// timer, then times the move to a layout the cluster has never held.
void BM_RepartitionFactTable(benchmark::State& s) {
  auto& f = Ssb();
  storage::GenerationConfig gen;
  gen.fraction = 2e-4;
  gen.seed = 5;
  const storage::Database db = storage::Database::Generate(f.schema, f.wl, gen);
  auto a = partition::PartitioningState::Initial(&f.schema, &f.edges);
  auto b = a;
  schema::TableId lo = f.schema.TableIndex("lineorder");
  LPA_CHECK(b.PartitionBy(lo, f.schema.table(lo).ColumnIndex("lo_custkey")).ok());
  for (auto _ : s) {
    s.PauseTiming();
    engine::ClusterDatabase cluster(
        db,
        engine::EngineConfig{costmodel::HardwareProfile::DiskBased10G(), 0.0,
                             5},
        &f.model);
    cluster.ApplyDesign(a);
    s.ResumeTiming();
    benchmark::DoNotOptimize(cluster.ApplyDesign(b));
  }
}
BENCHMARK(BM_RepartitionFactTable);

/// perfbench refine_tpcch's online environment: the TPC-CH testbed at its
/// bench fraction (disk profile, data seed 42), its 20% sample, the
/// engine's runtime planner, and the per-query scale factors measured under
/// the initial design.
struct OnlineTpcchFixture {
  OnlineTpcchFixture()
      : schema(schema::MakeTpcchSchema()),
        wl(workload::MakeTpcchWorkload(schema)),
        edges(partition::EdgeSet::Extract(schema, wl)),
        hw(costmodel::HardwareProfile::DiskBased10G()),
        planner(&schema, hw, /*depth_sigma=*/0.05, /*seed=*/43,
                /*use_independence_assumption=*/false) {
    wl.SetUniformFrequencies();
    storage::GenerationConfig gen;
    gen.fraction = bench::DefaultFraction("tpcch");
    gen.small_table_threshold = 64;
    gen.seed = 42;
    storage::Database full_db = storage::Database::Generate(schema, wl, gen);
    sample.emplace(full_db.Sample(0.2, 64, 7));
    engine::ClusterDatabase full(std::move(full_db), Config(42), &planner);
    engine::ClusterDatabase sampled(*sample, Config(43), &planner);
    scale = rl::ComputeScaleFactors(
        &full, &sampled, wl,
        partition::PartitioningState::Initial(&schema, &edges));
    steps = Sequence(96, 2024);
  }

  engine::EngineConfig Config(uint64_t seed) const {
    engine::EngineConfig config;
    config.hardware = hw;
    config.seed = seed;
    return config;
  }

  /// The seeded sequence of tests/online_golden_test.cpp: one table changes
  /// per step (three on every seventh), every fourth step reverts the
  /// previous change, and each step draws a uniform mix.
  std::vector<std::pair<partition::PartitioningState, std::vector<double>>>
  Sequence(int count, uint64_t seed) const {
    Rng rng(seed);
    std::vector<partition::TablePartition> design =
        partition::PartitioningState::Initial(&schema, &edges)
            .table_partitions();
    schema::TableId last_table = -1;
    partition::TablePartition last_before;
    std::vector<std::pair<partition::PartitioningState, std::vector<double>>>
        out;
    for (int step = 0; step < count; ++step) {
      if (step % 4 == 3 && last_table >= 0) {
        design[static_cast<size_t>(last_table)] = last_before;
        last_table = -1;
      } else {
        const int changes = step % 7 == 0 ? 3 : 1;
        for (int k = 0; k < changes; ++k) {
          const auto t = static_cast<schema::TableId>(
              rng.UniformInt(0, schema.num_tables() - 1));
          std::vector<partition::TablePartition> fresh;
          const partition::TablePartition& now = design[static_cast<size_t>(t)];
          if (!now.replicated) fresh.push_back({true, -1});
          const auto& columns = schema.table(t).columns;
          for (size_t c = 0; c < columns.size(); ++c) {
            partition::TablePartition option{false,
                                             static_cast<schema::ColumnId>(c)};
            if (columns[c].partitionable && option != now) {
              fresh.push_back(option);
            }
          }
          if (fresh.empty()) continue;
          last_table = t;
          last_before = now;
          design[static_cast<size_t>(t)] = fresh[static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(fresh.size()) - 1))];
        }
      }
      out.emplace_back(
          partition::PartitioningState::FromDesign(&schema, &edges, design),
          workload::SampleUniformFrequencies(wl.num_queries(), &rng));
    }
    return out;
  }

  schema::Schema schema;
  workload::Workload wl;
  partition::EdgeSet edges;
  costmodel::HardwareProfile hw;
  costmodel::NoisyOptimizerModel planner;
  std::optional<storage::Database> sample;
  std::vector<double> scale;
  std::vector<std::pair<partition::PartitioningState, std::vector<double>>>
      steps;
};

OnlineTpcchFixture& OnlineTpcch() {
  static OnlineTpcchFixture fixture;
  return fixture;
}

/// Replays the seeded online sequence (96 designs, 440 executed queries)
/// through a fresh OnlineEnv on a fresh sampled cluster and planner per
/// iteration, built outside the timer; even steps call WorkloadCost, odd
/// steps QueryCost per query. The engine runs on `threads` threads.
void OnlineEnvTpcchSample(benchmark::State& s, int threads) {
  auto& f = OnlineTpcch();
  EvalContext ctx(threads, 11);
  size_t executed = 0;
  for (auto _ : s) {
    s.PauseTiming();
    auto planner = std::make_unique<costmodel::NoisyOptimizerModel>(
        &f.schema, f.hw, 0.05, 43, false);
    auto cluster = std::make_unique<engine::ClusterDatabase>(
        *f.sample, f.Config(43), planner.get());
    rl::OnlineEnv env(cluster.get(), &f.wl, f.scale, rl::OnlineEnvOptions{});
    env.set_exec_context(threads > 1 ? &ctx : nullptr);
    s.ResumeTiming();
    double total = 0.0;
    for (size_t i = 0; i < f.steps.size(); ++i) {
      const auto& [state, mix] = f.steps[i];
      if (i % 2 == 0) {
        total += env.WorkloadCost(state, mix);
        continue;
      }
      for (int q = 0; q < f.wl.num_queries(); ++q) {
        const double freq = mix[static_cast<size_t>(q)];
        if (freq > 0.0) total += env.QueryCost(q, state, freq);
      }
    }
    benchmark::DoNotOptimize(total);
    executed = env.accounting().queries_executed;
    s.PauseTiming();
    env.set_exec_context(nullptr);
    cluster.reset();
    planner.reset();
    s.ResumeTiming();
  }
  s.counters["executed"] = static_cast<double>(executed);
}

void BM_OnlineEnvTpcchSample(benchmark::State& s) { OnlineEnvTpcchSample(s, 1); }
BENCHMARK(BM_OnlineEnvTpcchSample)->Unit(benchmark::kMillisecond);

void BM_OnlineEnvTpcchSamplePool4(benchmark::State& s) {
  OnlineEnvTpcchSample(s, 4);
}
BENCHMARK(BM_OnlineEnvTpcchSamplePool4)->Unit(benchmark::kMillisecond);

void BM_SqlParseQuery(benchmark::State& s) {
  auto& f = Ssb();
  const std::string sql =
      "SELECT SUM(lo_payload) FROM lineorder l, customer c, supplier su, date d "
      "WHERE l.lo_custkey = c.c_custkey AND l.lo_suppkey = su.s_suppkey "
      "AND l.lo_orderdate = d.d_datekey AND c.c_region = 1 AND su.s_nation = 7 "
      "GROUP BY d.d_year ORDER BY d.d_year LIMIT 100";
  for (auto _ : s) {
    benchmark::DoNotOptimize(sql::ParseQuery(sql, f.schema, "bench"));
  }
}
BENCHMARK(BM_SqlParseQuery);

void BM_DdlParseSchema(benchmark::State& s) {
  const std::string ddl =
      "CREATE TABLE region (r_id INT PRIMARY KEY, r_name VARCHAR(32)) ROWS 50;"
      "CREATE TABLE product (p_id INT PRIMARY KEY, "
      "p_region INT REFERENCES region(r_id), p_category INT DISTINCT 40, "
      "p_name VARCHAR(80)) ROWS 2000000;"
      "CREATE TABLE sales (s_id BIGINT PRIMARY KEY, "
      "s_product INT REFERENCES product(p_id), s_amount DECIMAL(10,2)) "
      "FACT ROWS 400000000;";
  for (auto _ : s) {
    benchmark::DoNotOptimize(sql::ParseDdl(ddl));
  }
}
BENCHMARK(BM_DdlParseSchema);

void BM_ClassifyQueryInstance(benchmark::State& s) {
  auto& f = Ssb();
  advisor::QueryClassifier classifier(&f.wl);
  Rng rng(3);
  auto instance = workload::MakeParameterizedSsbInstance(f.wl, 6, 0.3, &rng);
  for (auto _ : s) {
    benchmark::DoNotOptimize(classifier.Classify(instance));
  }
}
BENCHMARK(BM_ClassifyQueryInstance);

}  // namespace

// ---------------------------------------------------------------------------
// Storage kernel: encoding throughput and per-column compression.
//
// Part 1 times EncodedColumn encode/decode on synthetic columns shaped for
// each encoding (constant -> RLE, sorted -> FOR, low-cardinality -> Dict,
// random -> Plain) and reports MB/s over the *raw* byte volume plus the
// achieved compression ratio. Part 2 encodes every column of the SSB and
// TPC-CH testbed databases with the stats-driven chooser and reports the
// pick and ratio per column. Emits BENCH_storage.json.

void RunStorageKernel() {
  using storage::EncodedColumn;
  bench::BenchReport report("storage");
  report.set_seed(42);
  const size_t n =
      static_cast<size_t>(4 << 20) / static_cast<size_t>(bench::BenchScale());
  report.Note("storage_kernel_values", std::to_string(n));

  std::vector<std::pair<std::string, std::vector<int64_t>>> shapes;
  shapes.emplace_back("constant", std::vector<int64_t>(n, 42));
  {
    std::vector<int64_t> sorted(n);
    for (size_t i = 0; i < n; ++i) sorted[i] = 1000 + 3 * static_cast<int64_t>(i);
    shapes.emplace_back("sorted", std::move(sorted));
  }
  {
    Rng rng(42);
    std::vector<int64_t> lowcard(n);
    for (auto& v : lowcard) v = rng.UniformInt(0, 199) * 1'000'003;
    shapes.emplace_back("low-card", std::move(lowcard));
  }
  {
    std::vector<int64_t> random(n);
    for (size_t i = 0; i < n; ++i) {
      random[i] = static_cast<int64_t>(Hash64(i ^ 0xabcdef12345ULL));
    }
    shapes.emplace_back("random", std::move(random));
  }

  const double raw_mb = static_cast<double>(n) * 8.0 / (1024.0 * 1024.0);
  const int reps = 3;
  TablePrinter tput(
      {"shape", "encoding", "encode MB/s", "decode MB/s", "ratio"});
  for (const auto& [label, values] : shapes) {
    EncodedColumn col;
    auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r) {
      col = EncodedColumn::Encode(values);
      benchmark::DoNotOptimize(col);
    }
    auto t1 = std::chrono::steady_clock::now();
    std::vector<int64_t> decoded;
    for (int r = 0; r < reps; ++r) {
      decoded = col.Decode();
      benchmark::DoNotOptimize(decoded);
    }
    auto t2 = std::chrono::steady_clock::now();
    LPA_CHECK(decoded == values);  // lossless, always
    auto mbps = [&](std::chrono::steady_clock::duration d) {
      double secs = std::chrono::duration<double>(d).count() / reps;
      return FormatDouble(raw_mb / secs, 0);
    };
    tput.AddRow({label, storage::EncodingName(col.encoding()), mbps(t1 - t0),
                 mbps(t2 - t1),
                 FormatDouble(static_cast<double>(col.raw_bytes()) /
                                  static_cast<double>(col.encoded_bytes()),
                              1) +
                     "x"});
  }
  report.Table("Encoding throughput (over raw bytes) and compression ratio",
               tput);

  TablePrinter cols({"column", "rows", "encoding", "raw KB", "enc KB", "ratio"});
  for (const std::string& name : {std::string("ssb"), std::string("tpcch")}) {
    const auto schema = name == "ssb" ? schema::MakeSsbSchema()
                                      : schema::MakeTpcchSchema();
    const auto wl = name == "ssb" ? workload::MakeSsbWorkload(schema)
                                  : workload::MakeTpcchWorkload(schema);
    storage::GenerationConfig gen;
    gen.fraction = bench::DefaultFraction(name);
    gen.small_table_threshold = 64;
    gen.seed = 42;
    auto db = storage::Database::Generate(schema, wl, gen);
    size_t total_raw = 0, total_enc = 0;
    for (schema::TableId t = 0; t < schema.num_tables(); ++t) {
      const auto& table = schema.table(t);
      const auto& data = db.table(t);
      for (schema::ColumnId c = 0;
           c < static_cast<schema::ColumnId>(table.columns.size()); ++c) {
        auto col = EncodedColumn::Encode(data.column(c));
        total_raw += col.raw_bytes();
        total_enc += col.encoded_bytes();
        cols.AddRow(
            {name + "." + table.name + "." + table.columns[c].name,
             std::to_string(col.size()),
             storage::EncodingName(col.encoding()),
             FormatDouble(static_cast<double>(col.raw_bytes()) / 1024.0, 1),
             FormatDouble(static_cast<double>(col.encoded_bytes()) / 1024.0, 1),
             FormatDouble(static_cast<double>(col.raw_bytes()) /
                              static_cast<double>(col.encoded_bytes()),
                          1) +
                 "x"});
      }
      auto rid_col = EncodedColumn::Encode(data.rids());
      total_raw += rid_col.raw_bytes();
      total_enc += rid_col.encoded_bytes();
    }
    double ratio =
        static_cast<double>(total_raw) / static_cast<double>(total_enc);
    cols.AddRow({name + " TOTAL (incl. rids)", "",
                 "", FormatDouble(static_cast<double>(total_raw) / 1024.0, 1),
                 FormatDouble(static_cast<double>(total_enc) / 1024.0, 1),
                 FormatDouble(ratio, 2) + "x"});
    report.Note(name + "_compression_ratio", FormatDouble(ratio, 3));
  }
  report.Table("Per-column compression (chooser picks, testbed data)", cols);
}

// ---------------------------------------------------------------------------
// Engine kernel: pool-parallel ExecuteWorkload vs the serial path.
//
// Runs the full SSB workload on the materialized cluster at 1/2/8 threads,
// reporting wall-clock per workload pass and the speedup over serial. The
// per-query seconds digests MUST match across thread counts: the parallel
// engine is bit-identical by contract (order-fixed merges, forked RNG-free
// noise). Emits BENCH_engine.json.

void RunEngineKernel() {
  bench::BenchReport report("engine");
  report.set_seed(42);
  report.set_schema("ssb");
  report.set_engine_profile(bench::EngineName(bench::EngineKind::kDiskBased));
  auto tb = bench::MakeTestbed("ssb", bench::EngineKind::kDiskBased,
                               bench::DefaultFraction("ssb"));
  tb.cluster->ApplyDesign(tb.Initial());
  const int reps = std::max(2, 16 / bench::BenchScale());
  report.Note("engine_kernel_reps", std::to_string(reps));

  // Compressed-storage footprint of the deployed testbed (docs/INTERNALS.md
  // §11). The pre-compression engine measured 268.433 ms/workload serial on
  // this kernel (ROADMAP.md); the encoded engine must not regress it.
  {
    double resident = static_cast<double>(tb.cluster->storage_resident_bytes());
    double raw = static_cast<double>(tb.cluster->storage_raw_bytes());
    report.Note("storage_bytes_resident", FormatDouble(resident, 0));
    report.Note("storage_bytes_raw", FormatDouble(raw, 0));
    report.Note("storage_compression_ratio", FormatDouble(raw / resident, 3));
    report.Note("serial_ms_pre_compression_baseline", "268.433");
  }

  auto& reg = telemetry::MetricsRegistry::Global();
  uint64_t probes0 = reg.GetCounter("engine.join_probes.count").value();

  TablePrinter table({"threads", "ms/workload", "speedup", "per-query digest"});
  double serial_ms = 0.0;
  std::string serial_digest;
  for (int threads : {1, 2, 8}) {
    EvalContext ctx(threads, 7);
    EvalContext* pctx = threads > 1 ? &ctx : nullptr;
    // One warm-up pass so every mode times execution, not planning (the plan
    // cache is shared across modes anyway).
    tb.cluster->ExecuteWorkload(*tb.workload, pctx);
    std::vector<double> per_query;
    for (int i = 0; i < tb.workload->num_queries(); ++i) {
      per_query.push_back(
          tb.cluster->ExecuteQuery(tb.workload->query(i), pctx).seconds);
    }
    std::string digest = bench::RewardDigest(per_query);
    auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r) {
      benchmark::DoNotOptimize(tb.cluster->ExecuteWorkload(*tb.workload, pctx));
    }
    auto t1 = std::chrono::steady_clock::now();
    double ms =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
                .count()) /
        1000.0 / static_cast<double>(reps);
    if (threads == 1) {
      serial_ms = ms;
      serial_digest = digest;
      report.Note("serial_ms_per_workload", FormatDouble(ms, 3));
    }
    LPA_CHECK(digest == serial_digest);  // parallel must not change results
    table.AddRow({std::to_string(threads), FormatDouble(ms, 2),
                  FormatDouble(serial_ms / ms, 2) + "x", digest});
  }
  report.Table(
      "Engine kernel: ExecuteWorkload wall-clock vs threads "
      "(digests must be identical)",
      table);
  report.Note("join_probes",
              std::to_string(
                  reg.GetCounter("engine.join_probes.count").value() - probes0));
  report.Note(
      "plan_cache_hits",
      std::to_string(reg.GetCounter("engine.plan_cache_hits.count").value()));

  // Exchange-pricing sweep: the same testbed with price_encoded_bytes ships
  // measured encoded bytes instead of logical row widths. This intentionally
  // re-prices net_seconds / bytes_shuffled, so its digest is a *fresh
  // baseline* (recorded here), never compared against the raw-priced one.
  {
    auto priced = bench::MakeTestbed("ssb", bench::EngineKind::kDiskBased,
                                     bench::DefaultFraction("ssb"), 42, 0.02,
                                     /*encode_storage=*/true,
                                     /*price_encoded_bytes=*/true);
    priced.cluster->ApplyDesign(priced.Initial());
    TablePrinter pricing(
        {"pricing", "bytes shuffled", "simulated s", "per-query digest"});
    auto sweep = [&](engine::ClusterDatabase& cluster, const char* label) {
      uint64_t bytes = 0;
      double secs = 0.0;
      std::vector<double> per_query;
      for (int i = 0; i < tb.workload->num_queries(); ++i) {
        auto stats = cluster.ExecuteQuery(tb.workload->query(i));
        bytes += stats.bytes_shuffled;
        secs += stats.seconds;
        per_query.push_back(stats.seconds);
      }
      pricing.AddRow({label, std::to_string(bytes), FormatDouble(secs, 4),
                      bench::RewardDigest(per_query)});
      return bytes;
    };
    uint64_t raw_priced = sweep(*tb.cluster, "logical widths");
    uint64_t enc_priced = sweep(*priced.cluster, "encoded bytes");
    LPA_CHECK(enc_priced < raw_priced);  // compression must shrink exchanges
    report.Table(
        "Exchange pricing: logical row widths vs measured encoded bytes",
        pricing);
  }

  // Compression headroom: an encoded testbed materialized at 3x the fraction
  // still fits under the *uncompressed* testbed's resident footprint — the
  // same memory budget now holds a larger scale-factor slice.
  {
    auto plain = bench::MakeTestbed("ssb", bench::EngineKind::kDiskBased,
                                    bench::DefaultFraction("ssb"), 42, 0.02,
                                    /*encode_storage=*/false);
    auto big = bench::MakeTestbed("ssb", bench::EngineKind::kDiskBased,
                                  3.0 * bench::DefaultFraction("ssb"));
    plain.cluster->ApplyDesign(plain.Initial());
    big.cluster->ApplyDesign(big.Initial());
    schema::TableId lo = tb.schema->TableIndex("lineorder");
    auto mb = [](size_t bytes) {
      return FormatDouble(static_cast<double>(bytes) / (1024.0 * 1024.0), 2);
    };
    TablePrinter headroom(
        {"testbed", "fraction", "lineorder rows", "resident MB", "raw MB"});
    headroom.AddRow({"plain", FormatDouble(bench::DefaultFraction("ssb"), 4),
                     std::to_string(plain.cluster->TableRows(lo)),
                     mb(plain.cluster->storage_resident_bytes()),
                     mb(plain.cluster->storage_raw_bytes())});
    headroom.AddRow({"encoded 3x",
                     FormatDouble(3.0 * bench::DefaultFraction("ssb"), 4),
                     std::to_string(big.cluster->TableRows(lo)),
                     mb(big.cluster->storage_resident_bytes()),
                     mb(big.cluster->storage_raw_bytes())});
    LPA_CHECK(big.cluster->storage_resident_bytes() <
              plain.cluster->storage_resident_bytes());
    report.Note("headroom_3x_fits", "true");
    report.Table(
        "Compression headroom: 3x materialized fraction vs plain footprint",
        headroom);
  }
}

// ---------------------------------------------------------------------------
// Training kernel: the actor/learner rounds at 1/2/8 threads, and serial
// Train.
//
// Fixed 8 actor slots; the run digests — episode rewards AND the final
// serialized agent weights — MUST be bit-identical at every thread count
// (the slot count, never the thread count, fixes the episode mapping, RNG
// streams, and merge order). A serial Train row on the same 8-thread context
// keeps the comparison between the two schedules. Emits BENCH_training.json.

void RunTrainingKernel() {
  bench::BenchReport report("training");
  report.set_seed(42);
  report.set_schema("micro");
  report.set_engine_profile(bench::EngineName(bench::EngineKind::kInMemory));
  auto tb = bench::MakeTestbed("micro", bench::EngineKind::kInMemory,
                               bench::DefaultFraction("micro"));

  const int slots = 8;
  const int episodes = std::max(2 * slots, bench::Scaled(64));
  report.Note("actor_slots", std::to_string(slots));
  report.Note("episodes", std::to_string(episodes));
  // The sweep reports steps/sec per thread count; what it asserts is that
  // the rounds train the same bits at every count.
  report.Note("gates",
              "actor/learner reward and weight digests asserted equal at "
              "1/2/8 threads");

  // `actors` 0 runs serial Train.
  auto train = [&](int threads, int actors, rl::TrainingResult* out,
                   std::string* weights) {
    advisor::AdvisorConfig config;
    config.offline_episodes = episodes;
    config.dqn.tmax = 16;
    config.dqn.FitEpsilonSchedule(episodes);
    config.seed = 42;
    advisor::PartitioningAdvisor advisor(tb.schema.get(), *tb.workload,
                                         config);
    EvalContext ctx(threads, 7);
    auto t0 = std::chrono::steady_clock::now();
    *out = actors > 0 ? advisor.TrainOffline(tb.exact_model.get(), actors,
                                             nullptr, &ctx)
                      : advisor.TrainOffline(tb.exact_model.get(), nullptr,
                                             &ctx);
    auto t1 = std::chrono::steady_clock::now();
    std::ostringstream os;
    LPA_CHECK(advisor::SaveAgentSnapshot(*advisor.agent(), os).ok());
    *weights = os.str();
    return std::chrono::duration<double>(t1 - t0).count();
  };
  auto weight_digest = [](const std::string& snapshot) {
    std::ostringstream os;
    os << std::hex << std::hash<std::string>{}(snapshot);
    return os.str();
  };
  TablePrinter table({"threads", "schedule", "sec", "train steps",
                      "steps/sec", "reward digest", "weight digest"});
  auto add_row = [&](int threads, const std::string& schedule, double secs,
                     const rl::TrainingResult& result,
                     const std::string& rewards, const std::string& weights) {
    table.AddRow({std::to_string(threads), schedule, FormatDouble(secs, 3),
                  std::to_string(result.train_steps),
                  FormatDouble(static_cast<double>(result.train_steps) / secs,
                               1),
                  rewards, weights});
  };

  std::string base_rewards, base_weights;
  double rounds_secs = 0.0;
  for (int threads : {1, 2, 8}) {
    rl::TrainingResult result;
    std::string weights;
    rounds_secs = train(threads, slots, &result, &weights);
    std::string rd = bench::RewardDigest(result.episode_best_rewards);
    std::string wd = weight_digest(weights);
    if (threads == 1) {
      base_rewards = rd;
      base_weights = wd;
      report.Note("actor_learner_serial_sec", FormatDouble(rounds_secs, 3));
    }
    // The determinism contract: same slots, any thread count, same run.
    LPA_CHECK(rd == base_rewards);
    LPA_CHECK(wd == base_weights);
    add_row(threads, "actor/learner", rounds_secs, result, rd, wd);
  }
  report.Note("actor_learner_digests_identical", "true");
  // Training-throughput gauges as the 8-thread rounds left them.
  auto& reg = telemetry::MetricsRegistry::Global();
  report.Note("rl_train_steps_per_sec",
              FormatDouble(
                  reg.GetGauge("rl.train_steps_per_sec.value").value(), 1));
  report.Note("rl_actor_utilization",
              FormatDouble(reg.GetGauge("rl.actor_utilization.value").value(),
                           3));
  {
    rl::TrainingResult result;
    std::string weights;
    double secs = train(8, 0, &result, &weights);
    add_row(8, "serial Train", secs, result,
            bench::RewardDigest(result.episode_best_rewards),
            weight_digest(weights));
    report.Note("serial_train_sec", FormatDouble(secs, 3));
    report.Note("actor_learner_vs_train_speedup",
                FormatDouble(secs / rounds_secs, 2));
  }
  report.Table(
      "Training kernel: actor/learner rounds of 8 slots at 1/2/8 threads "
      "(digests must be identical) and serial Train at 8 threads",
      table);
}

void BM_StorageKernel(benchmark::State& s) {
  for (auto _ : s) RunStorageKernel();
}
BENCHMARK(BM_StorageKernel)->Iterations(1)->Unit(benchmark::kMillisecond);

void BM_EngineKernel(benchmark::State& s) {
  for (auto _ : s) RunEngineKernel();
}
BENCHMARK(BM_EngineKernel)->Iterations(1)->Unit(benchmark::kMillisecond);

void BM_TrainingKernel(benchmark::State& s) {
  for (auto _ : s) RunTrainingKernel();
}
BENCHMARK(BM_TrainingKernel)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace lpa

BENCHMARK_MAIN();
