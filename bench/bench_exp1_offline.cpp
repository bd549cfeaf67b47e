// Exp 1 (Fig 3 a-f): workload runtime of the partitionings suggested by
// Heuristic (a), Heuristic (b), the Minimum-Optimizer hill climber, the
// bounded-suboptimality DP designer (src/search/), and the offline-trained
// DRL advisor, on SSB / TPC-DS / TPC-CH for both engine profiles. Absolute
// seconds are simulated on the scaled-down testbed; the paper-relevant
// signal is the ordering and the relative factors.
//
//   $ bench_exp1_offline [--threads N] [--seed N] [--baseline all|dp]
//                        [--epsilon E] [--epsilon-sweep]
//
// Besides the Fig 3 table the bench self-verifies the search subsystem and
// exits non-zero on violation:
//  - on the micro schema the DP designer's cost is checked against full
//    enumeration: exactly equal at ε = 0, within (1+ε) otherwise, with the
//    certified lower bound below the optimum (an ε sweep table shows the
//    pruning/merging behaviour);
//  - a pruned Suggest (SuggestOptions::prune_rollouts, ε = 0) must return
//    the bit-identical design as the unpruned one at 1, 2, and 8 threads
//    while skipping Q-network forward passes (rl.actions_pruned > 0, fewer
//    rl.q_evals).
//
// --baseline dp runs only those verification sections (the check.sh smoke);
// --threads > 1 runs the six (schema, engine) scenarios concurrently with
// per-scenario child seeds, so the printed digests are bit-identical at
// every --threads value. The gates assert digests and counters (the `gates`
// manifest note); wall-clock columns are reported.

#include <chrono>
#include <cmath>
#include <iostream>
#include <sstream>

#include "baselines/dp_baseline.h"
#include "bench/bench_common.h"
#include "search/dp_designer.h"
#include "util/cli.h"

namespace lpa::bench {
namespace {

double TimedSeconds(const std::function<void()>& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count();
}

std::string FpHex(uint64_t fp) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fp));
  return std::string(buf);
}

std::string DesignDigest(const partition::PartitioningState& s) {
  return FpHex(s.DesignFingerprint());
}

uint64_t CounterValue(const char* name) {
  return telemetry::MetricsRegistry::Global().GetCounter(name).value();
}

struct Scenario {
  const char* name;
  EngineKind kind;
  int episodes;  // 600 for SSB, 1200 for TPC-DS / TPC-CH (Table 1)
  int tmax;
};

struct ScenarioResult {
  std::vector<std::string> summary_row;
  /// One row per baseline: design wall-clock + design digest (+ notes).
  std::vector<std::vector<std::string>> baseline_rows;
  std::string log;
};

ScenarioResult RunScenario(const Scenario& scenario, double dp_epsilon,
                           EvalContext* ctx) {
  ScenarioResult out;
  std::ostringstream log;
  Testbed tb = MakeTestbed(scenario.name, scenario.kind,
                           DefaultFraction(scenario.name));
  tb.workload->SetUniformFrequencies();

  partition::PartitioningState heuristic_a = tb.Initial();
  partition::PartitioningState heuristic_b = tb.Initial();
  partition::PartitioningState min_optimizer = tb.Initial();
  double s_a = TimedSeconds([&] {
    heuristic_a = baselines::HeuristicA(*tb.schema, *tb.workload, *tb.edges);
  });
  double s_b = TimedSeconds([&] {
    heuristic_b = baselines::HeuristicB(*tb.schema, *tb.workload, *tb.edges);
  });
  double s_opt = TimedSeconds([&] {
    baselines::OptimizerDesignerConfig designer;
    designer.random_restarts = 2;
    min_optimizer = baselines::MinimizeOptimizerCost(
        *tb.schema, *tb.workload, *tb.edges, *tb.noisy_model, designer);
  });

  // Bounded-suboptimality DP against the exact model (the "modern search,
  // accurate estimates" anchor). Large schemas run beam-limited — the
  // certificate column records whether the (1+ε) bound still holds.
  search::DpDesignerConfig dp_config;
  dp_config.epsilon = dp_epsilon;
  if (tb.schema->num_tables() > 8) {
    dp_config.max_frontier = 128;
    dp_config.max_bound_enum = 512;
  }
  search::DpResult dp{tb.Initial()};
  double s_dp = TimedSeconds([&] {
    dp = baselines::DpDesign(*tb.schema, *tb.workload, *tb.edges,
                             *tb.exact_model, dp_config);
  });

  advisor::AdvisorConfig config;
  config.offline_episodes = Scaled(scenario.episodes);
  config.dqn.tmax = scenario.tmax;
  config.dqn.FitEpsilonSchedule(config.offline_episodes);
  advisor::PartitioningAdvisor advisor(tb.schema.get(), *tb.workload, config);
  rl::TrainingResult training;
  rl::InferenceResult rl{tb.Initial(), 0.0, {}};
  double s_rl = TimedSeconds([&] {
    training = advisor.TrainOffline(tb.exact_model.get(), nullptr, ctx);
    std::vector<double> uniform(
        static_cast<size_t>(tb.workload->num_queries()), 1.0);
    rl = advisor.Suggest(uniform, ctx);
  });

  double t_a = tb.Measure(heuristic_a);
  double t_b = tb.Measure(heuristic_b);
  double t_opt = tb.Measure(min_optimizer);
  double t_dp = tb.Measure(dp.best_state);
  double t_rl = tb.Measure(rl.best_state);

  out.summary_row = {scenario.name,
                     EngineName(scenario.kind),
                     Secs(t_a),
                     Secs(t_b),
                     Secs(t_opt),
                     Secs(t_dp),
                     Secs(t_rl),
                     FormatDouble(std::min({t_a, t_b, t_opt, t_dp}) / t_rl, 2) +
                         "x",
                     RewardDigest(training.episode_best_rewards)};

  auto row = [&](const char* baseline, double design_seconds,
                 const partition::PartitioningState& design,
                 const std::string& notes) {
    out.baseline_rows.push_back({scenario.name, EngineName(scenario.kind),
                                 baseline, Secs(design_seconds),
                                 DesignDigest(design), notes});
  };
  row("Heuristic (a)", s_a, heuristic_a, "");
  row("Heuristic (b)", s_b, heuristic_b, "");
  row("Minimum Optimizer", s_opt, min_optimizer, "hill climb, noisy estimates");
  {
    std::ostringstream notes;
    notes << "eps=" << FormatDouble(dp_epsilon, 2)
          << (dp.certified ? " certified" : " beam (certificate voided)")
          << ", expanded=" << dp.nodes_expanded << ", pruned="
          << dp.nodes_pruned << ", merged=" << dp.nodes_merged;
    row("DP (exact model)", s_dp, dp.best_state, notes.str());
  }
  row("RL (offline)", s_rl, rl.best_state,
      "train+suggest, reward digest " +
          RewardDigest(training.episode_best_rewards));

  log << "[" << scenario.name << " / " << EngineName(scenario.kind)
      << "] RL design: " << rl.best_state.PhysicalDesignKey() << "\n"
      << "[" << scenario.name << " / " << EngineName(scenario.kind)
      << "] DP design: " << dp.best_state.PhysicalDesignKey() << "\n";
  out.log = log.str();
  return out;
}

/// Micro-schema verification: DP vs full enumeration across an ε sweep.
/// Appends human-readable failure descriptions to `failures`.
void VerifyDpOnMicro(double epsilon, bool extended_sweep, uint64_t seed,
                     BenchReport* report,
                     std::vector<std::string>* failures) {
  Testbed tb =
      MakeTestbed("micro", EngineKind::kDiskBased, DefaultFraction("micro"),
                  seed);
  tb.workload->SetUniformFrequencies();
  const std::vector<double>& freqs = tb.workload->frequencies();
  auto query_cost = [&](int j, const partition::PartitioningState& s) {
    return tb.exact_model->QueryCost(tb.workload->query(j), s);
  };
  auto opt = search::ExhaustiveOptimum(*tb.schema, *tb.workload, *tb.edges,
                                       query_cost, freqs);
  if (!opt.has_value()) {
    failures->push_back("micro design space exceeded the enumeration cap");
    return;
  }
  std::cout << "\n[search] micro exhaustive optimum: cost "
            << FormatDouble(opt->second, 6) << ", design "
            << opt->first.PhysicalDesignKey() << "\n";

  std::vector<double> sweep = {0.0, epsilon};
  if (extended_sweep) sweep = {0.0, 0.02, 0.05, 0.1, 0.25, 0.5};
  TablePrinter table({"epsilon", "dp cost", "cost / opt", "certified LB",
                      "certified", "expanded", "pruned", "merged", "windows",
                      "design time"});
  for (double eps : sweep) {
    search::DpDesignerConfig dp_config;
    dp_config.epsilon = eps;
    search::DpResult dp{tb.Initial()};
    double seconds = TimedSeconds([&] {
      dp = baselines::DpDesign(*tb.schema, *tb.workload, *tb.edges,
                               *tb.exact_model, dp_config);
    });
    double ratio = dp.best_cost / opt->second;
    table.AddRow({FormatDouble(eps, 2), FormatDouble(dp.best_cost, 6),
                  FormatDouble(ratio, 6), FormatDouble(dp.certified_lower_bound, 6),
                  dp.certified ? "yes" : "no", std::to_string(dp.nodes_expanded),
                  std::to_string(dp.nodes_pruned),
                  std::to_string(dp.nodes_merged),
                  std::to_string(dp.cost_windows), Secs(seconds)});
    if (!dp.certified) {
      failures->push_back("micro DP at eps=" + FormatDouble(eps, 2) +
                          " lost its certificate (frontier overflow)");
    }
    if (dp.best_cost > (1.0 + eps) * opt->second * (1.0 + 1e-9)) {
      failures->push_back(
          "micro DP at eps=" + FormatDouble(eps, 2) + " returned cost " +
          FormatDouble(dp.best_cost, 6) + " > (1+eps) * optimum " +
          FormatDouble(opt->second, 6));
    }
    if (eps == 0.0 && dp.best_cost != opt->second) {
      failures->push_back("micro DP at eps=0 is not exactly optimal: " +
                          FormatDouble(dp.best_cost, 9) + " vs " +
                          FormatDouble(opt->second, 9));
    }
    if (dp.certified &&
        dp.certified_lower_bound > opt->second * (1.0 + 1e-9)) {
      failures->push_back("micro DP certified lower bound " +
                          FormatDouble(dp.certified_lower_bound, 6) +
                          " exceeds the optimum " +
                          FormatDouble(opt->second, 6));
    }
  }
  report->Table(
      "Design search verification: DP vs exhaustive enumeration (micro "
      "schema, exact cost model)",
      table);
}

/// Pruned vs unpruned Suggest at 1/2/8 threads: identical suggested design,
/// fewer Q-network forward passes, rl.actions_pruned > 0.
void VerifyPrunedSuggest(uint64_t seed, BenchReport* report,
                         std::vector<std::string>* failures) {
  Testbed tb =
      MakeTestbed("micro", EngineKind::kDiskBased, DefaultFraction("micro"),
                  seed);
  tb.workload->SetUniformFrequencies();

  advisor::AdvisorConfig config;
  config.offline_episodes = Scaled(120);
  config.dqn.tmax = 8;
  config.dqn.FitEpsilonSchedule(config.offline_episodes);
  config.seed = seed;
  advisor::PartitioningAdvisor advisor(tb.schema.get(), *tb.workload, config);
  {
    EvalContext train_ctx(/*threads=*/1, HashCombine(seed, 0x5ea9c4ULL));
    advisor.TrainOffline(tb.exact_model.get(), nullptr, &train_ctx);
  }
  std::vector<double> uniform(static_cast<size_t>(tb.workload->num_queries()),
                              1.0);

  TablePrinter table({"threads", "q_evals unpruned", "q_evals pruned",
                      "actions_pruned", "eval_prunes", "cutoffs",
                      "identical design"});
  std::string reference_digest;
  const int kThreadCounts[] = {1, 2, 8};
  for (int threads : kThreadCounts) {
    const uint64_t ctx_seed = HashCombine(seed, 0x517ULL);
    EvalContext unpruned_ctx(threads, ctx_seed);
    uint64_t q0 = CounterValue("rl.q_evals.count");
    auto unpruned = advisor.Suggest(uniform, &unpruned_ctx);
    uint64_t q_unpruned = CounterValue("rl.q_evals.count") - q0;

    EvalContext pruned_ctx(threads, ctx_seed);
    uint64_t q1 = CounterValue("rl.q_evals.count");
    uint64_t a1 = CounterValue("rl.actions_pruned.count");
    uint64_t e1 = CounterValue("rl.eval_prunes.count");
    uint64_t c1 = CounterValue("rl.rollout_cutoffs.count");
    advisor::SuggestOptions options;
    options.prune_rollouts = true;
    options.prune_epsilon = 0.0;
    auto pruned = advisor.Suggest(uniform, options, &pruned_ctx);
    uint64_t q_pruned = CounterValue("rl.q_evals.count") - q1;
    uint64_t actions_pruned = CounterValue("rl.actions_pruned.count") - a1;
    uint64_t eval_prunes = CounterValue("rl.eval_prunes.count") - e1;
    uint64_t cutoffs = CounterValue("rl.rollout_cutoffs.count") - c1;

    bool identical = pruned.best_state.SameDesign(unpruned.best_state) &&
                     pruned.best_cost == unpruned.best_cost &&
                     pruned.actions == unpruned.actions;
    table.AddRow({std::to_string(threads), std::to_string(q_unpruned),
                  std::to_string(q_pruned), std::to_string(actions_pruned),
                  std::to_string(eval_prunes), std::to_string(cutoffs),
                  identical ? "yes" : "NO"});

    std::string digest = DesignDigest(pruned.best_state);
    if (reference_digest.empty()) reference_digest = digest;
    if (!identical) {
      failures->push_back("pruned Suggest diverged from unpruned at " +
                          std::to_string(threads) + " threads");
    }
    if (digest != reference_digest) {
      failures->push_back("pruned Suggest design differs across thread "
                          "counts (" + std::to_string(threads) + " threads)");
    }
    if (actions_pruned == 0) {
      failures->push_back("pruned Suggest at " + std::to_string(threads) +
                          " threads pruned no actions (rl.actions_pruned)");
    }
    if (q_pruned >= q_unpruned) {
      failures->push_back("pruned Suggest at " + std::to_string(threads) +
                          " threads did not reduce Q evaluations (" +
                          std::to_string(q_pruned) + " vs " +
                          std::to_string(q_unpruned) + ")");
    }
  }
  report->Table(
      "Action-space pruning verification: pruned vs unpruned Suggest "
      "(micro schema, prune_epsilon=0; digests must match and pruning must "
      "cut Q evaluations)",
      table);
}

int Main(int argc, char** argv) {
  cli::CommonOptions common;
  cli::FlagParser parser;
  common.Register(&parser);
  std::string baseline_filter = "all";
  double epsilon = 0.1;
  bool epsilon_sweep = false;
  parser.AddString("baseline", "all = full Fig 3 run; dp = only the search "
                   "verification sections (fast smoke)", &baseline_filter);
  parser.AddDouble("epsilon", "DP suboptimality slack for the scenario runs "
                   "and the verification gate", &epsilon);
  parser.AddBool("epsilon-sweep", "extended epsilon sweep on the micro "
                 "verification", &epsilon_sweep);
  std::string error;
  if (!parser.Parse(argc, argv, &error) || !common.Validate(&error)) {
    std::cerr << error << "\n" << parser.Usage(argv[0]);
    return 2;
  }
  if (baseline_filter != "all" && baseline_filter != "dp") {
    std::cerr << "--baseline must be 'all' or 'dp'\n" << parser.Usage(argv[0]);
    return 2;
  }

  BenchReport report("exp1_offline");
  report.set_seed(common.seed);
  report.set_schema("ssb,tpcds,tpcch");
  report.set_engine_profile("disk-based + in-memory");
  report.Note("threads", std::to_string(common.threads));
  report.Note("baseline_filter", baseline_filter);
  report.Note("dp_epsilon", FormatDouble(epsilon, 3));
  report.Note("gates",
              "digests and counters asserted; wall-clock and scaling "
              "reported");

  std::vector<std::string> failures;
  VerifyDpOnMicro(epsilon, epsilon_sweep, common.seed, &report, &failures);
  VerifyPrunedSuggest(common.seed, &report, &failures);

  if (baseline_filter == "all") {
    const Scenario kScenarios[] = {
        {"ssb", EngineKind::kDiskBased, 600, 20},
        {"ssb", EngineKind::kInMemory, 600, 20},
        {"tpcds", EngineKind::kDiskBased, 1200, 48},
        {"tpcds", EngineKind::kInMemory, 1200, 48},
        {"tpcch", EngineKind::kDiskBased, 1200, 36},
        {"tpcch", EngineKind::kInMemory, 1200, 36},
    };
    constexpr size_t kNumScenarios =
        sizeof(kScenarios) / sizeof(kScenarios[0]);

    TablePrinter summary({"schema", "engine", "Heuristic (a)", "Heuristic (b)",
                          "Minimum Optimizer", "DP (exact)", "RL (offline)",
                          "best-baseline / RL", "reward digest"});
    TablePrinter baselines_table({"schema", "engine", "baseline",
                                  "design time", "design digest", "notes"});

    // One owning context; each scenario trains on a child context borrowing
    // the same pool. Child seeds depend only on (base seed, scenario index),
    // never on completion order, so results match the serial run exactly.
    EvalContext root(common.threads, common.seed);
    std::vector<ScenarioResult> results(kNumScenarios);
    auto run_one = [&](size_t i) {
      EvalContext child(root.pool(),
                        HashCombine(common.seed, static_cast<uint64_t>(i)));
      results[i] = RunScenario(kScenarios[i], epsilon, &child);
    };
    if (root.pool() != nullptr) {
      root.pool()->ParallelForEach(kNumScenarios, 1, run_one);
    } else {
      for (size_t i = 0; i < kNumScenarios; ++i) run_one(i);
    }

    for (const auto& result : results) {
      std::cout << result.log;
      summary.AddRow(result.summary_row);
      for (const auto& row : result.baseline_rows) {
        baselines_table.AddRow(row);
      }
    }
    report.Table(
        "Exp 1 / Fig 3: offline RL vs baselines (workload runtime, "
        "simulated seconds; scaled-down testbed)",
        summary);
    report.Table(
        "Per-baseline design wall-clock and design digests (wall-clock "
        "informational; digests stable across --threads)",
        baselines_table);
  }

  if (!failures.empty()) {
    std::cerr << "\nVERIFICATION FAILURES:\n";
    for (const auto& f : failures) std::cerr << "  - " << f << "\n";
    return 1;
  }
  std::cout << "\nAll search/pruning verification gates passed.\n";
  return 0;
}

}  // namespace
}  // namespace lpa::bench

int main(int argc, char** argv) { return lpa::bench::Main(argc, argv); }
