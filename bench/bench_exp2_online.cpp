// Exp 2 (Fig 4a + Table 2): online refinement on TPC-CH / disk-based engine.
//
// Fig 4a: workload runtime of Heuristic (a)/(b), Minimum-Optimizer, the
// offline-trained agent, and the agent after online refinement on a sampled
// copy of the database.
//
// Table 2: (simulated) cluster time the online phase consumes under
// increasing sets of optimizations: none -> +runtime cache -> +lazy
// repartitioning -> +timeouts -> +offline bootstrap (Sec 4.2). Because our
// cluster clock is simulated, every configuration is actually run rather
// than counterfactually estimated.
//
//   $ bench_exp2_online [--threads N] [--seed N]
//
// --threads > 1 hands the execution engine a thread pool (see
// OnlineEnv::set_exec_context): every simulated query the online phase runs
// executes its scan / join / shuffle kernels pool-parallel. The pool never
// feeds the training RNG, so rewards — printed as a digest next to the
// wall-clock — are bit-identical at every --threads value. After Table 2 it
// prints a digest of every variant's exact accounting bits (simulated
// seconds, executed queries and cache hits).

#include <bit>
#include <chrono>
#include <cstdio>
#include <iostream>

#include "bench/bench_common.h"
#include "rl/online_env.h"
#include "util/cli.h"

namespace lpa::bench {
namespace {

struct OnlineSetup {
  Testbed tb;
  std::unique_ptr<engine::ClusterDatabase> sample_cluster;
  std::vector<double> scale_factors;
};

OnlineSetup MakeOnlineSetup(const partition::PartitioningState& p_offline) {
  OnlineSetup setup{MakeTestbed("tpcch", EngineKind::kDiskBased,
                                DefaultFraction("tpcch")),
                    nullptr,
                    {}};
  setup.tb.workload->SetUniformFrequencies();
  // The sampled database of Sec 4.2: 20% of rows, minimum 64 per table.
  storage::GenerationConfig gen;
  gen.fraction = DefaultFraction("tpcch");
  gen.small_table_threshold = 64;
  gen.seed = 42;
  auto full_db = storage::Database::Generate(*setup.tb.schema,
                                             *setup.tb.workload, gen);
  engine::EngineConfig config;
  config.hardware = ProfileFor(EngineKind::kDiskBased);
  config.noise_stddev = 0.02;
  config.seed = 43;
  setup.sample_cluster = std::make_unique<engine::ClusterDatabase>(
      full_db.Sample(0.2, 64, 7), config, setup.tb.planner_model.get());
  setup.scale_factors =
      rl::ComputeScaleFactors(setup.tb.cluster.get(), setup.sample_cluster.get(),
                              *setup.tb.workload, p_offline);
  return setup;
}

int Main(int argc, char** argv) {
  cli::CommonOptions common;
  cli::FlagParser parser;
  common.Register(&parser);
  std::string error;
  if (!parser.Parse(argc, argv, &error) || !common.Validate(&error)) {
    std::cerr << error << "\n" << parser.Usage(argv[0]);
    return 2;
  }

  BenchReport report("exp2_online");
  report.set_seed(42);
  report.set_schema("tpcch");
  report.set_engine_profile(EngineName(EngineKind::kDiskBased));
  report.Note("threads", std::to_string(common.threads));
  // The engine-side pool: accelerates simulated query execution without
  // touching any training RNG stream.
  EvalContext engine_ctx(common.threads, common.seed);
  // --- Offline phase ----------------------------------------------------
  Testbed tb =
      MakeTestbed("tpcch", EngineKind::kDiskBased, DefaultFraction("tpcch"));
  tb.workload->SetUniformFrequencies();
  auto advisor = TrainOfflineAdvisor(tb, 1200, 36);
  std::vector<double> uniform(static_cast<size_t>(tb.workload->num_queries()),
                              1.0);
  auto offline_result = advisor->Suggest(uniform);

  // --- Online phase -----------------------------------------------------
  OnlineSetup setup = MakeOnlineSetup(offline_result.best_state);
  rl::OnlineEnv online_env(setup.sample_cluster.get(), &advisor->workload(),
                           setup.scale_factors, rl::OnlineEnvOptions{});
  online_env.set_exec_context(&engine_ctx);
  advisor->mutable_workload().SetUniformFrequencies();
  advisor->mutable_config().online_episodes = Scaled(600);
  auto t0 = std::chrono::steady_clock::now();
  auto training = advisor->TrainOnline(&online_env);
  auto t1 = std::chrono::steady_clock::now();
  double train_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  std::cout << "online phase: " << FormatDouble(train_ms, 0) << " ms wall-clock"
            << " at --threads " << common.threads << ", reward digest "
            << RewardDigest(training.episode_best_rewards) << "\n";
  report.Note("online_train_wall_ms", FormatDouble(train_ms, 1));
  report.Note("online_reward_digest",
              RewardDigest(training.episode_best_rewards));
  auto online_result = advisor->Suggest(uniform, &online_env);

  auto heuristic_a = baselines::HeuristicA(*tb.schema, *tb.workload, *tb.edges);
  auto heuristic_b = baselines::HeuristicB(*tb.schema, *tb.workload, *tb.edges);
  baselines::OptimizerDesignerConfig designer;
  designer.random_restarts = 4;
  auto min_optimizer = baselines::MinimizeOptimizerCost(
      *tb.schema, *tb.workload, *tb.edges, *tb.noisy_model, designer);

  TablePrinter fig4a({"approach", "workload runtime", "vs RL online"});
  double t_online = tb.Measure(online_result.best_state);
  auto add = [&](const char* name, double t) {
    fig4a.AddRow({name, Secs(t), FormatDouble(t / t_online, 2) + "x"});
  };
  add("Heuristic (a)", tb.Measure(heuristic_a));
  add("Heuristic (b)", tb.Measure(heuristic_b));
  add("Minimum Optimizer", tb.Measure(min_optimizer));
  add("RL offline", tb.Measure(offline_result.best_state));
  add("RL online", t_online);
  report.Table(
      "Exp 2 / Fig 4a: online RL vs baselines (TPC-CH, disk-based engine)",
      fig4a);
  std::cout << "RL offline design: "
            << offline_result.best_state.PhysicalDesignKey() << "\n";
  std::cout << "RL online  design: "
            << online_result.best_state.PhysicalDesignKey() << "\n";

  // --- Table 2: training-time reduction of the optimizations -------------
  struct Variant {
    const char* name;
    rl::OnlineEnvOptions options;
    bool bootstrapped;
  };
  const Variant kVariants[] = {
      {"None", {false, false, false}, false},
      {"+ Runtime Cache", {true, false, false}, false},
      {"+ Lazy Repartitioning", {true, true, false}, false},
      {"+ Timeouts", {true, true, true}, false},
      {"+ Offline Phase", {true, true, true}, true},
  };

  TablePrinter table2({"Optimizations", "Training Time (sim. hours)",
                       "Speedup", "queries run", "cache hits"});
  double previous = 0.0;
  // Digest of every variant's exact accounting bits (the table prints four
  // digits); a change to the engine must leave it equal.
  uint64_t accounting_digest = 0x9e3779b97f4a7c15ULL;
  for (const auto& variant : kVariants) {
    OnlineSetup vsetup = MakeOnlineSetup(offline_result.best_state);
    rl::OnlineEnv env(vsetup.sample_cluster.get(), vsetup.tb.workload.get(),
                      vsetup.scale_factors, variant.options);
    env.set_exec_context(&engine_ctx);
    advisor::AdvisorConfig config;
    config.dqn.tmax = 36;
    // A cold agent needs the full schedule; the bootstrapped one refines.
    config.offline_episodes = Scaled(1200);
    config.online_episodes = variant.bootstrapped ? Scaled(300) : Scaled(600);
    config.dqn.FitEpsilonSchedule(config.online_episodes +
                                  (variant.bootstrapped ? config.offline_episodes : 0));
    config.seed = 77;
    advisor::PartitioningAdvisor agent(vsetup.tb.schema.get(),
                                       *vsetup.tb.workload, config);
    if (variant.bootstrapped) {
      agent.TrainOffline(vsetup.tb.exact_model.get());
      agent.TrainOnline(&env);
    } else {
      // Cold start: online training from scratch with full exploration.
      agent.agent()->set_epsilon(1.0);
      rl::FrequencySampler sampler = [&](Rng* rng) {
        return workload::SampleUniformFrequencies(
            vsetup.tb.workload->num_queries(), rng);
      };
      EvalContext train_ctx(/*threads=*/1, /*seed=*/5);
      agent.trainer().Train(agent.agent(), &env, sampler,
                            config.online_episodes, &train_ctx);
    }
    const auto& acc = env.accounting();
    for (double v : {acc.query_seconds, acc.repartition_seconds,
                     acc.timeout_saved_seconds}) {
      accounting_digest =
          HashCombine(accounting_digest, std::bit_cast<uint64_t>(v));
    }
    accounting_digest = HashCombine(accounting_digest, acc.queries_executed);
    accounting_digest = HashCombine(accounting_digest, acc.cache_hits);
    double hours = acc.total_seconds() / 3600.0;
    table2.AddRow({variant.name, FormatDouble(hours, 4),
                   previous > 0.0 ? FormatDouble(previous / hours, 1) + "x" : "-",
                   std::to_string(acc.queries_executed),
                   std::to_string(acc.cache_hits)});
    previous = hours;
  }
  report.Table(
      "Exp 2 / Table 2: online training time under cumulative optimizations",
      table2);
  char digest[17];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(accounting_digest));
  std::cout << "Table 2 accounting digest " << digest << "\n";
  report.Note("table2_accounting_digest", digest);
  return 0;
}

}  // namespace
}  // namespace lpa::bench

int main(int argc, char** argv) { return lpa::bench::Main(argc, argv); }
