// Tests of the autopilot subsystem: the three drift detectors (stability
// under noise, detection latency, hysteresis, cooldown), the AdvisorHandle
// lifecycle API's status contracts, the closed loop end to end per drift
// scenario (detection + recovery), the automatic rollback protocol, and
// zero-drop serving across an autopilot-driven hot swap.

#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "advisor/advisor_handle.h"
#include "autopilot/autopilot.h"
#include "autopilot/scenarios.h"
#include "rl/offline_env.h"
#include "schema/catalogs.h"
#include "serving/server.h"
#include "telemetry/registry.h"
#include "util/cli.h"
#include "util/rng.h"
#include "workload/benchmarks.h"

namespace lpa::autopilot {
namespace {

using advisor::AdvisorConfig;
using advisor::AdvisorHandle;
using advisor::SuggestRequest;
using advisor::TrainSpec;
using costmodel::CostModel;
using costmodel::HardwareProfile;

WorkloadSample Sample(std::vector<double> frequencies, double cost = -1.0) {
  WorkloadSample sample;
  sample.frequencies = std::move(frequencies);
  sample.observed_cost = cost;
  return sample;
}

std::vector<double> L1(std::vector<double> v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  if (sum > 0.0) {
    for (double& x : v) x /= sum;
  }
  return v;
}

// ---------------------------------------------------------------------------
// DriftMonitor

TEST(DriftMonitorTest, StableJitteredWorkloadNeverTriggers) {
  DriftMonitor monitor;
  Rng rng(3);
  for (int t = 0; t < 300; ++t) {
    WorkloadSample sample;
    sample.frequencies = {1.0 * rng.Uniform(0.95, 1.05),
                          0.08 * rng.Uniform(0.95, 1.05)};
    sample.observed_cost = 1.0 * rng.Uniform(0.95, 1.05);
    DriftVerdict verdict = monitor.Observe(sample);
    ASSERT_FALSE(verdict.triggered())
        << "tick " << t << ": " << verdict.reason;
  }
  EXPECT_LT(monitor.mix_distance(), 0.1);
}

TEST(DriftMonitorTest, MixFlipFiresWithinPatienceWindow) {
  DriftMonitorConfig config;
  DriftMonitor monitor(config);
  for (int t = 0; t < 10; ++t) {
    monitor.Observe(Sample({1.0, 0.08}));
  }
  std::optional<int> fired;
  for (int t = 0; t < 10; ++t) {
    DriftVerdict verdict = monitor.Observe(Sample({0.05, 1.0}));
    if (verdict.triggered()) {
      EXPECT_EQ(verdict.kind, DriftKind::kMixShift);
      EXPECT_GT(verdict.magnitude, config.mix_trigger);
      fired = t;
      break;
    }
  }
  ASSERT_TRUE(fired.has_value());
  // Needs `mix_patience` consecutive over-trigger ticks, no more than a
  // couple extra for the EWMA to cross.
  EXPECT_GE(*fired, config.mix_patience - 1);
  EXPECT_LE(*fired, config.mix_patience + 2);
}

TEST(DriftMonitorTest, HysteresisBandHoldsWithoutFiring) {
  // A mix wobbling inside (clear, trigger) must neither fire nor reset on
  // its own; pushing clearly above trigger afterwards fires.
  DriftMonitorConfig config;
  DriftMonitor monitor(config);
  for (int t = 0; t < 10; ++t) monitor.Observe(Sample({1.0, 1.0}));
  // TV between {0.5,0.5} and {0.62,0.38} is 0.12: inside the band.
  for (int t = 0; t < 50; ++t) {
    DriftVerdict verdict = monitor.Observe(Sample({1.3, 0.8}));
    ASSERT_FALSE(verdict.triggered()) << "tick " << t;
  }
  bool fired = false;
  for (int t = 0; t < 10; ++t) {
    if (monitor.Observe(Sample({1.0, 0.05})).triggered()) {
      fired = true;
      break;
    }
  }
  EXPECT_TRUE(fired);
}

TEST(DriftMonitorTest, SustainedCostInflationFiresCusum) {
  DriftMonitorConfig config;
  DriftMonitor monitor(config);
  // Stable mix; cost 1.0 during the baseline window, then 1.5 sustained.
  for (int t = 0; t < config.cost_baseline_ticks + 2; ++t) {
    ASSERT_FALSE(
        monitor.Observe(Sample({1.0, 1.0}, 1.0))
            .triggered());
  }
  std::optional<DriftVerdict> fired;
  for (int t = 0; t < 10; ++t) {
    DriftVerdict verdict =
        monitor.Observe(Sample({1.0, 1.0}, 1.5));
    if (verdict.triggered()) {
      fired = verdict;
      break;
    }
  }
  ASSERT_TRUE(fired.has_value());
  EXPECT_EQ(fired->kind, DriftKind::kCostInflation);
  EXPECT_GT(fired->magnitude, config.cusum_threshold);
}

TEST(DriftMonitorTest, CostNoiseUnderSlackNeverFires) {
  DriftMonitor monitor;
  Rng rng(5);
  for (int t = 0; t < 300; ++t) {
    ASSERT_FALSE(monitor.Observe(Sample({1.0, 1.0}, rng.Uniform(0.95, 1.07)))
                     .triggered())
        << "tick " << t;
  }
}

TEST(DriftMonitorTest, SchemaChangeSurvivesCooldownAndThenFires) {
  DriftMonitorConfig config;
  DriftMonitor monitor(config);
  schema::Schema schema = schema::MakeMicroSchema();
  workload::Workload workload = workload::MakeMicroWorkload(schema);
  for (int t = 0; t < 5; ++t) monitor.Observe(Sample({1.0, 1.0}));
  monitor.MarkAdapted();  // opens the cooldown window

  WorkloadSample with_new;
  with_new.frequencies = {1.0, 1.0, 1.0};
  with_new.new_queries.push_back(workload.query(0));
  DriftVerdict verdict = monitor.Observe(with_new);
  EXPECT_FALSE(verdict.triggered()) << "fired inside cooldown";

  // The pending queries are not lost: the verdict lands right after the
  // cooldown expires, even though no further new queries arrive.
  std::optional<DriftVerdict> fired;
  for (int t = 0; t < config.cooldown_ticks + 2; ++t) {
    verdict = monitor.Observe(Sample({1.0, 1.0, 1.0}));
    if (verdict.triggered()) {
      fired = verdict;
      break;
    }
  }
  ASSERT_TRUE(fired.has_value());
  EXPECT_EQ(fired->kind, DriftKind::kSchemaChange);
  EXPECT_EQ(fired->magnitude, 1.0);  // one pending query
}

TEST(DriftMonitorTest, MarkAdaptedRebaselinesTheMixDetector) {
  DriftMonitor monitor;
  for (int t = 0; t < 10; ++t) monitor.Observe(Sample({1.0, 0.08}));
  bool fired = false;
  for (int t = 0; t < 10; ++t) {
    if (monitor.Observe(Sample({0.05, 1.0})).triggered()) {
      fired = true;
      break;
    }
  }
  ASSERT_TRUE(fired);
  monitor.MarkAdapted();
  // The flipped mix is the new normal: no further verdicts, ever.
  for (int t = 0; t < 100; ++t) {
    ASSERT_FALSE(monitor.Observe(Sample({0.05, 1.0})).triggered())
        << "tick " << t;
  }
}

TEST(DriftMonitorTest, RecentMixesZeroPadToCurrentWidth) {
  DriftMonitor monitor;
  monitor.Observe(Sample({1.0, 1.0}));
  monitor.Observe(Sample({1.0, 1.0, 2.0, 2.0}));
  auto mixes = monitor.RecentMixes(8);
  ASSERT_EQ(mixes.size(), 2u);
  for (const auto& mix : mixes) EXPECT_EQ(mix.size(), 4u);
  EXPECT_EQ(mixes[0][2], 0.0);  // the older, narrower mix is padded
}

// ---------------------------------------------------------------------------
// AdvisorHandle lifecycle API

class AdvisorHandleTest : public ::testing::Test {
 protected:
  AdvisorHandleTest()
      : schema_(schema::MakeMicroSchema()),
        workload_(workload::MakeMicroWorkload(schema_)),
        model_(&schema_, HardwareProfile::DiskBased10G()) {}

  static AdvisorConfig FastConfig() {
    AdvisorConfig config;
    config.dqn.tmax = 8;
    config.offline_episodes = 8;
    config.dqn.FitEpsilonSchedule(config.offline_episodes);
    config.inference_extra_rollouts = 0;
    config.seed = 7;
    return config;
  }

  AdvisorHandle MakeHandle() {
    return AdvisorHandle(&schema_, workload_, FastConfig());
  }

  schema::Schema schema_;
  workload::Workload workload_;
  CostModel model_;
};

TEST_F(AdvisorHandleTest, OfflineTrainingWithoutCostModelIsInvalidArgument) {
  AdvisorHandle handle = MakeHandle();
  auto result = handle.Train(TrainSpec::Offline(nullptr));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kInvalidArgument);
  EXPECT_FALSE(handle.ready());
}

TEST_F(AdvisorHandleTest, OnlineTrainingWithoutEnvironmentIsInvalidArgument) {
  AdvisorHandle handle = MakeHandle();
  auto result = handle.Train(TrainSpec::Online(nullptr));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kInvalidArgument);
}

TEST_F(AdvisorHandleTest, IncrementalBeforeAnyEnvironmentIsFailedPrecondition) {
  AdvisorHandle handle = MakeHandle();
  auto result = handle.Train(TrainSpec::Incremental({0}));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kFailedPrecondition);
}

TEST_F(AdvisorHandleTest, IncrementalFocusOutOfRangeIsOutOfRange) {
  AdvisorHandle handle = MakeHandle();
  ASSERT_TRUE(handle.Train(TrainSpec::Offline(&model_)).ok());
  auto result =
      handle.Train(TrainSpec::Incremental({workload_.num_queries() + 3}, 2));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kOutOfRange);
}

TEST_F(AdvisorHandleTest, IncrementalWithoutFocusOrSamplerIsInvalidArgument) {
  AdvisorHandle handle = MakeHandle();
  ASSERT_TRUE(handle.Train(TrainSpec::Offline(&model_)).ok());
  auto result = handle.Train(TrainSpec::Incremental({}, 2));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kInvalidArgument);
}

TEST_F(AdvisorHandleTest, SuggestRejectsWrongFrequencyWidth) {
  AdvisorHandle handle = MakeHandle();
  ASSERT_TRUE(handle.Train(TrainSpec::Offline(&model_)).ok());
  SuggestRequest request;
  request.frequencies = {1.0, 1.0, 1.0};  // workload has 2 queries
  auto suggestion = handle.Suggest(request);
  ASSERT_FALSE(suggestion.ok());
  EXPECT_EQ(suggestion.status().code(), Status::Code::kInvalidArgument);
}

TEST_F(AdvisorHandleTest, RestoreRejectsGarbageAndHandleStaysUsable) {
  AdvisorHandle handle = MakeHandle();
  ASSERT_TRUE(handle.Train(TrainSpec::Offline(&model_)).ok());
  EXPECT_FALSE(handle.Restore("definitely not a snapshot").ok());
  SuggestRequest request;
  request.frequencies = {1.0, 1.0};
  EXPECT_TRUE(handle.Suggest(request).ok());
}

TEST_F(AdvisorHandleTest, SnapshotRestoreRoundtripServesIdenticalSuggestion) {
  AdvisorHandle trained = MakeHandle();
  ASSERT_TRUE(trained.Train(TrainSpec::Offline(&model_)).ok());
  SuggestRequest request;
  request.frequencies = {5.0, 1.0};
  auto expected = trained.Suggest(request);
  ASSERT_TRUE(expected.ok());

  auto snapshot = trained.Snapshot();
  ASSERT_TRUE(snapshot.ok());
  AdvisorHandle standby = MakeHandle();
  ASSERT_TRUE(standby.Restore(*snapshot).ok());
  EXPECT_FALSE(standby.ready());  // no pricing environment yet
  ASSERT_TRUE(standby.BindCostModel(&model_).ok());
  ASSERT_TRUE(standby.ready());

  auto served = standby.Suggest(request);
  ASSERT_TRUE(served.ok());
  EXPECT_EQ(served->actions, expected->actions);
  EXPECT_EQ(served->best_cost, expected->best_cost);
  EXPECT_EQ(served->best_state.PhysicalDesignKey(),
            expected->best_state.PhysicalDesignKey());
}

// ---------------------------------------------------------------------------
// Scenario plumbing

TEST(ScenariosTest, ParseRoundtripsEveryScenarioName) {
  for (ScenarioKind kind : AllScenarios()) {
    auto parsed = ParseScenario(ScenarioName(kind));
    ASSERT_TRUE(parsed.ok()) << ScenarioName(kind);
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_EQ(ParseScenario("full-moon").status().code(),
            Status::Code::kInvalidArgument);
}

TEST(ScenariosTest, FlagGroupParsesAndValidates) {
  cli::FlagParser parser;
  AutopilotOptions options;
  options.Register(&parser);
  const char* argv[] = {"prog", "--autopilot", "--drift-scenario=flash-crowd",
                        "--autopilot-ticks", "12"};
  std::string error;
  ASSERT_TRUE(parser.Parse(5, const_cast<char**>(argv), &error)) << error;
  EXPECT_TRUE(options.autopilot);
  EXPECT_EQ(options.drift_scenario, "flash-crowd");
  EXPECT_EQ(options.autopilot_ticks, 12);
  ASSERT_TRUE(options.Validate(&error)) << error;
  ASSERT_TRUE(options.Kind().ok());
  EXPECT_EQ(*options.Kind(), ScenarioKind::kFlashCrowd);

  options.drift_scenario = "nope";
  EXPECT_FALSE(options.Validate(&error));
}

TEST(ScenariosTest, SchemaChangeScenarioEmitsValidatingQueries) {
  schema::Schema schema = schema::MakeMicroSchema();
  workload::Workload workload = workload::MakeMicroWorkload(schema);
  DriftScenario scenario(ScenarioKind::kSchemaChange, &schema, &workload, 9);
  int new_queries = 0;
  for (int t = 0; t < scenario.default_ticks(); ++t) {
    ScenarioTick tick = scenario.Next();
    for (const auto& q : tick.new_queries) {
      EXPECT_TRUE(q.Validate(schema).ok()) << q.name;
      ++new_queries;
    }
    EXPECT_EQ(tick.mix.size(),
              static_cast<size_t>(workload.num_queries() + new_queries));
  }
  EXPECT_EQ(new_queries, 2);
  EXPECT_EQ(scenario.drift_events(), 1);
}

// ---------------------------------------------------------------------------
// Closed loop end to end (micro testbed)

class AutopilotTest : public ::testing::Test {
 protected:
  AutopilotTest()
      : schema_(schema::MakeMicroSchema()),
        workload_(workload::MakeMicroWorkload(schema_)),
        model_(&schema_, HardwareProfile::DiskBased10G()),
        contended_model_(&schema_, ContendedProfile()) {}

  /// A noisy neighbor steals compute and IO, not just wire bandwidth — the
  /// slowdown hits even perfectly co-located designs.
  static HardwareProfile ContendedProfile() {
    HardwareProfile p = HardwareProfile::DiskBased10G();
    p.scan_bytes_per_sec *= 0.5;
    p.join_tuples_per_sec *= 0.5;
    p.shuffle_bytes_per_sec *= 0.5;
    return p;
  }

  static AdvisorConfig FastConfig() {
    AdvisorConfig config;
    config.dqn.tmax = 8;
    config.offline_episodes = 24;
    config.dqn.FitEpsilonSchedule(config.offline_episodes);
    config.inference_extra_rollouts = 0;
    config.seed = 7;
    return config;
  }

  /// Incumbent specialized for the scenario's "day" mix, so genuine drift
  /// leaves real adaptation headroom.
  AdvisorHandle TrainedIncumbent() {
    AdvisorHandle handle(&schema_, workload_, FastConfig());
    TrainSpec spec = TrainSpec::Offline(&model_);
    const int m = workload_.num_queries();
    spec.sampler = [m](Rng* rng) {
      std::vector<double> mix(static_cast<size_t>(m), 0.0);
      mix[0] = 1.0;
      for (int i = 1; i < m; ++i) {
        mix[static_cast<size_t>(i)] = rng->Uniform(0.02, 0.15);
      }
      return mix;
    };
    EXPECT_TRUE(handle.Train(spec).ok());
    return handle;
  }

  static AutopilotConfig TestLoopConfig() {
    AutopilotConfig config;
    config.retrain.episodes = 16;
    config.retrain.swap_margin = 0.005;
    config.retrain.seed = 11;
    return config;
  }

  struct RunResult {
    RetrainController::Counters counters;
    std::vector<TickOutcome::Action> actions;
    std::vector<DriftKind> verdicts;
    double deployed_final_cost = 0.0;
    double original_final_cost = 0.0;
    uint64_t final_version = 0;
    std::string original_key;
    std::string final_key;
  };

  /// Drives one scenario through a fresh autopilot; costs the deployed and
  /// the original (pre-drift) designs under the final mix + model.
  RunResult RunScenario(ScenarioKind kind, AutopilotConfig config,
                        serving::ModelRegistry* registry = nullptr,
                        int ticks = 0) {
    Autopilot autopilot(TrainedIncumbent(), &model_, std::move(config));
    if (registry != nullptr) autopilot.AddTarget(registry);
    DriftScenario scenario(kind, &schema_, &workload_, /*seed=*/13);
    ScenarioTick first = scenario.Next();
    EXPECT_TRUE(autopilot.Start(first.mix).ok());
    RunResult result;
    result.original_key = autopilot.deployed_design().PhysicalDesignKey();
    partition::PartitioningState original = autopilot.deployed_design();

    const CostModel* active_model = &model_;
    std::vector<double> mix = first.mix;
    const int total = ticks > 0 ? ticks : scenario.default_ticks();
    for (int t = 1; t < total; ++t) {
      ScenarioTick tick = scenario.Next();
      mix = tick.mix;
      if (tick.contention_begins) {
        active_model = &contended_model_;
        autopilot.UpdateCostModel(active_model);
      }
      WorkloadSample sample;
      sample.frequencies = tick.mix;
      sample.new_queries = tick.new_queries;
      sample.observed_cost =
          DesignCost(autopilot, autopilot.deployed_design(), tick.mix,
                     active_model);
      auto outcome = autopilot.Tick(sample);
      if (!outcome.ok()) {
        ADD_FAILURE() << "tick " << t << ": " << outcome.status().ToString();
        break;
      }
      result.actions.push_back(outcome->action);
      if (outcome->verdict.triggered()) {
        result.verdicts.push_back(outcome->verdict.kind);
      }
    }
    result.counters = autopilot.counters();
    result.deployed_final_cost =
        DesignCost(autopilot, autopilot.deployed_design(), mix, active_model);
    result.original_final_cost = DesignCost(autopilot, original, mix,
                                            active_model);
    result.final_key = autopilot.deployed_design().PhysicalDesignKey();
    if (registry != nullptr) result.final_version = registry->current_version();
    return result;
  }

  /// Frequency-weighted cost of `design` under the L1-normalized mix,
  /// priced over the autopilot's current workload.
  double DesignCost(Autopilot& autopilot,
                    const partition::PartitioningState& design,
                    const std::vector<double>& mix, const CostModel* model) {
    const workload::Workload* wl =
        &autopilot.controller().incumbent().advisor().workload();
    rl::OfflineEnv env(model, wl);
    std::vector<double> padded = L1(mix);
    padded.resize(static_cast<size_t>(wl->num_queries()), 0.0);
    return env.WorkloadCost(design, padded);
  }

  static int Count(const std::vector<TickOutcome::Action>& actions,
                   TickOutcome::Action wanted) {
    return static_cast<int>(std::count(actions.begin(), actions.end(), wanted));
  }

  schema::Schema schema_;
  workload::Workload workload_;
  CostModel model_;
  CostModel contended_model_;
};

TEST_F(AutopilotTest, StableWorkloadNeverRetrainsOrSwaps) {
  auto& false_swaps =
      telemetry::MetricsRegistry::Global().GetGauge("autopilot.false_swaps");
  false_swaps.Set(0.0);
  RunResult result = RunScenario(ScenarioKind::kStable, TestLoopConfig(),
                                 /*registry=*/nullptr, /*ticks=*/80);
  EXPECT_EQ(result.counters.retrains, 0u);
  EXPECT_EQ(result.counters.swaps, 0u);
  EXPECT_EQ(result.counters.rollbacks, 0u);
  EXPECT_TRUE(result.verdicts.empty());
  EXPECT_EQ(result.final_key, result.original_key);
  EXPECT_EQ(false_swaps.value(), 0.0);
}

TEST_F(AutopilotTest, FlashCrowdIsDetectedAndRecovered) {
  serving::ModelRegistry registry;
  RunResult result =
      RunScenario(ScenarioKind::kFlashCrowd, TestLoopConfig(), &registry);
  ASSERT_GE(result.counters.retrains, 1u);
  ASSERT_FALSE(result.verdicts.empty());
  // The mix flip surfaces through whichever detector crosses first: the TV
  // statistic, or the cost CUSUM (the day design is genuinely mispriced
  // under the flash mix). Either way it is detected.
  EXPECT_TRUE(result.verdicts.front() == DriftKind::kMixShift ||
              result.verdicts.front() == DriftKind::kCostInflation)
      << DriftKindName(result.verdicts.front());
  // Recovery: the closed loop must end no worse than the frozen pre-drift
  // design under the drifted mix, and strictly better after a swap.
  EXPECT_LE(result.deployed_final_cost, result.original_final_cost * 1.0001);
  if (result.counters.swaps > 0) {
    EXPECT_LT(result.deployed_final_cost, result.original_final_cost);
    EXPECT_GE(result.final_version, 2u);  // initial publish + >= 1 swap
  }
  EXPECT_EQ(result.counters.rollbacks, 0u);
}

TEST_F(AutopilotTest, DiurnalOscillationAdaptsOnTransitions) {
  RunResult result = RunScenario(ScenarioKind::kDiurnal, TestLoopConfig());
  EXPECT_GE(result.counters.retrains, 1u);
  EXPECT_FALSE(result.verdicts.empty());
  EXPECT_LE(result.deployed_final_cost, result.original_final_cost * 1.0001);
}

TEST_F(AutopilotTest, SchemaChangeAbsorbsQueriesAndFocusRetrains) {
  AutopilotConfig config = TestLoopConfig();
  Autopilot autopilot(TrainedIncumbent(), &model_, config);
  DriftScenario scenario(ScenarioKind::kSchemaChange, &schema_, &workload_, 13);
  ScenarioTick first = scenario.Next();
  ASSERT_TRUE(autopilot.Start(first.mix).ok());
  const int base_m = workload_.num_queries();

  bool saw_schema_verdict = false;
  for (int t = 1; t < scenario.default_ticks(); ++t) {
    ScenarioTick tick = scenario.Next();
    WorkloadSample sample;
    sample.frequencies = tick.mix;
    sample.new_queries = tick.new_queries;
    auto outcome = autopilot.Tick(sample);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    if (outcome->verdict.kind == DriftKind::kSchemaChange) {
      saw_schema_verdict = true;
    }
  }
  EXPECT_TRUE(saw_schema_verdict);
  EXPECT_GE(autopilot.counters().retrains, 1u);
  // The incumbent's workload grew by the two absorbed templates.
  EXPECT_EQ(
      autopilot.controller().incumbent().advisor().workload().num_queries(),
      base_m + 2);
}

TEST_F(AutopilotTest, NoisyNeighborFiresCostInflation) {
  RunResult result =
      RunScenario(ScenarioKind::kNoisyNeighbor, TestLoopConfig());
  ASSERT_FALSE(result.verdicts.empty());
  EXPECT_EQ(result.verdicts.front(), DriftKind::kCostInflation);
  EXPECT_GE(result.counters.retrains, 1u);
  EXPECT_LE(result.deployed_final_cost, result.original_final_cost * 1.0001);
}

TEST_F(AutopilotTest, ForcedRegressionRollsBackToTheIncumbent) {
  auto& false_swaps =
      telemetry::MetricsRegistry::Global().GetGauge("autopilot.false_swaps");
  false_swaps.Set(0.0);
  serving::ModelRegistry registry;
  AutopilotConfig config = TestLoopConfig();
  // Chaos drill: disable the holdout gate and sabotage the candidate with
  // the naive initial design, so the swap is guaranteed to regress.
  config.retrain.validation_gate = false;
  config.retrain.candidate_override =
      [](AdvisorHandle& candidate) -> std::optional<partition::PartitioningState> {
    return partition::PartitioningState::Initial(
        &candidate.advisor().schema(), &candidate.advisor().edges());
  };
  RunResult result =
      RunScenario(ScenarioKind::kForcedRegression, config, &registry);
  ASSERT_GE(result.counters.swaps, 1u);
  ASSERT_GE(result.counters.rollbacks, 1u);
  // Probation restored the pre-drift incumbent design and republished.
  EXPECT_EQ(result.final_key, result.original_key);
  EXPECT_GE(result.final_version, 3u);  // initial + bad swap + rollback
  EXPECT_GE(false_swaps.value(), 1.0);
  EXPECT_EQ(result.deployed_final_cost, result.original_final_cost);
}

TEST_F(AutopilotTest, AsyncRetrainSwapsUnderLiveServingWithZeroDrops) {
  serving::ModelRegistry registry;
  AutopilotConfig config = TestLoopConfig();
  config.retrain.async = true;
  Autopilot autopilot(TrainedIncumbent(), &model_, config);
  autopilot.AddTarget(&registry);
  DriftScenario scenario(ScenarioKind::kFlashCrowd, &schema_, &workload_, 13);
  ScenarioTick first = scenario.Next();
  ASSERT_TRUE(autopilot.Start(first.mix).ok());
  ASSERT_EQ(registry.current_version(), 1u);

  serving::ServerConfig server_config;
  server_config.worker_threads = 2;
  serving::AdvisorServer server(&registry, server_config);
  ASSERT_TRUE(server.Start().ok());

  // Serve a burst against the registry on every control-loop tick; the
  // async retrain trains + validates + swaps underneath the traffic.
  int extra = 0;
  while (extra < 40) {
    ScenarioTick tick = scenario.Next();
    WorkloadSample sample;
    sample.frequencies = tick.mix;
    sample.observed_cost = DesignCost(autopilot, autopilot.deployed_design(),
                                      tick.mix, &model_);
    std::vector<std::future<serving::SuggestResponse>> futures;
    for (int i = 0; i < 3; ++i) {
      futures.push_back(server.SubmitAsync({1.0, 1.0}));
    }
    auto outcome = autopilot.Tick(sample);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    for (auto& future : futures) {
      serving::SuggestResponse response = future.get();
      ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    }
    // Keep ticking a while after the loop settles so probation closes and
    // late futures drain.
    if (autopilot.counters().retrains >= 1 && !autopilot.controller().busy()) {
      ++extra;
    }
  }
  server.Stop();

  EXPECT_GE(autopilot.counters().retrains, 1u);
  auto stats = server.stats();
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.completed, stats.submitted);  // zero dropped across swaps
  if (autopilot.counters().swaps > 0) {
    EXPECT_GE(registry.current_version(), 2u);
  }
}

}  // namespace
}  // namespace lpa::autopilot
