// Autopilot scenario sweep: runs the closed loop (drift detection ->
// incremental retrain -> holdout validation -> hot swap -> probation) against
// the scripted drift scenarios and emits cost-vs-time recovery curves plus a
// per-scenario summary to BENCH_autopilot.json.
//
// Acceptance gates (the binary exits non-zero when violated):
//  - the stable control run performs zero swaps (no false positives),
//  - every drift event in the drifting scenarios is detected and recovered
//    (final autopilot cost <= the frozen pre-drift design's cost),
//  - the forced-regression drill exercises >= 1 automatic rollback and ends
//    back on the incumbent design.
//
// The gates are correctness counters (detections, swaps, rollbacks,
// recovery ratios); wall-clock times are reported. LPA_BENCH_SCALE shortens
// the training budgets.

#include <algorithm>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "advisor/advisor_handle.h"
#include "autopilot/autopilot.h"
#include "autopilot/scenario_driver.h"
#include "autopilot/scenarios.h"
#include "bench/bench_common.h"
#include "serving/model_registry.h"
#include "util/cli.h"

namespace lpa::bench {
namespace {

using autopilot::ApplyScenarioOverrides;
using autopilot::Autopilot;
using autopilot::AutopilotConfig;
using autopilot::ContendedProfile;
using autopilot::DriftScenario;
using autopilot::ObservedMixCost;
using autopilot::ScenarioKind;
using autopilot::ScenarioTick;
using autopilot::TickOutcome;
using autopilot::WorkloadSample;

struct ScenarioResult {
  ScenarioKind kind = ScenarioKind::kStable;
  int ticks = 0;
  int drift_events = 0;
  /// Ticks from the first drift onset to the first detector verdict
  /// (-1: no drift injected / never detected).
  int detection_latency = -1;
  autopilot::RetrainController::Counters counters;
  double autopilot_final = 0.0;  ///< deployed design cost at the last tick
  double frozen_final = 0.0;    ///< pre-drift design frozen for the whole run
  bool recovered_every_event = true;
  bool ended_on_original_design = false;
  TablePrinter curve{
      {"tick", "phase", "autopilot cost", "frozen cost", "action"}};
};

ScenarioResult RunScenario(ScenarioKind kind, const Testbed& tb,
                           const cli::CommonOptions& common, int ticks) {
  ScenarioResult result;
  result.kind = kind;

  // Incumbent specialized for the scenario's "day" era, so drift leaves
  // genuine adaptation headroom (a uniformly trained advisor would already
  // be near-optimal everywhere on small testbeds).
  advisor::AdvisorConfig config;
  config.dqn.tmax = 16;
  config.offline_episodes = Scaled(96);
  config.dqn.FitEpsilonSchedule(config.offline_episodes);
  config.seed = common.seed;
  AdvisorHandle incumbent(tb.schema.get(), *tb.workload, config);
  advisor::TrainSpec spec = advisor::TrainSpec::Offline(tb.exact_model.get());
  const int m = tb.workload->num_queries();
  spec.sampler = [m](Rng* rng) {
    std::vector<double> mix(static_cast<size_t>(m), 0.0);
    for (int i = 0; i < m; ++i) {
      mix[static_cast<size_t>(i)] =
          i < m / 2 ? 1.0 : rng->Uniform(0.02, 0.15);
    }
    return mix;
  };
  auto trained = incumbent.Train(spec);
  if (!trained.ok()) {
    std::cerr << "incumbent training failed: " << trained.status().ToString()
              << "\n";
    return result;
  }

  AutopilotConfig loop;
  loop.retrain.episodes = Scaled(36);
  loop.retrain.swap_margin = 0.005;
  loop.retrain.threads = common.threads;
  loop.retrain.seed = common.seed + 17;
  // Forced-regression: bypass the holdout gate and sabotage the candidate
  // with the naive initial design so probation must roll back.
  ApplyScenarioOverrides(kind, &loop);

  costmodel::CostModel contended(
      tb.schema.get(), ContendedProfile(tb.exact_model->hardware()));
  Autopilot pilot(std::move(incumbent), tb.exact_model.get(), loop);
  serving::ModelRegistry registry;
  pilot.AddTarget(&registry);

  DriftScenario scenario(kind, tb.schema.get(), tb.workload.get(),
                         common.seed + 23);
  ScenarioTick first = scenario.Next();
  Status started = pilot.Start(first.mix);
  if (!started.ok()) {
    std::cerr << "Start failed: " << started.ToString() << "\n";
    return result;
  }
  const partition::PartitioningState frozen = pilot.deployed_design();
  const std::string original_key = frozen.PhysicalDesignKey();

  const costmodel::CostModel* active_model = tb.exact_model.get();
  const int total = ticks > 0 ? ticks : scenario.default_ticks();
  result.ticks = total;
  int first_onset = -1;
  int first_verdict = -1;
  int last_onset = -1;
  std::vector<double> mix = first.mix;

  for (int t = 1; t < total; ++t) {
    ScenarioTick tick = scenario.Next();
    mix = tick.mix;
    if (tick.contention_begins) {
      active_model = &contended;
      pilot.UpdateCostModel(active_model);
    }
    const workload::Workload* live_workload =
        &pilot.controller().incumbent().advisor().workload();
    double autopilot_cost = ObservedMixCost(active_model, live_workload,
                                    pilot.deployed_design(), tick.mix);
    double frozen_cost =
        ObservedMixCost(active_model, live_workload, frozen, tick.mix);
    if (tick.drift_onset) {
      if (first_onset < 0) first_onset = t;
      last_onset = t;
    }

    WorkloadSample sample;
    sample.frequencies = tick.mix;
    sample.new_queries = tick.new_queries;
    sample.observed_cost = autopilot_cost;
    auto outcome = pilot.Tick(sample);
    if (!outcome.ok()) {
      std::cerr << "tick " << t << " failed: " << outcome.status().ToString()
                << "\n";
      break;
    }
    if (outcome->verdict.triggered() && first_verdict < 0 && first_onset >= 0) {
      first_verdict = t;
    }

    const char* phase = last_onset < 0 ? "pre-drift" : "post-drift";
    result.curve.AddRow({std::to_string(t), phase, Secs(autopilot_cost),
                         Secs(frozen_cost),
                         autopilot::TickActionName(outcome->action)});
  }

  result.drift_events = scenario.drift_events();
  result.detection_latency =
      (first_onset >= 0 && first_verdict >= 0) ? first_verdict - first_onset
                                               : -1;
  result.counters = pilot.counters();
  const workload::Workload* live_workload =
      &pilot.controller().incumbent().advisor().workload();
  result.autopilot_final =
      ObservedMixCost(active_model, live_workload, pilot.deployed_design(), mix);
  result.frozen_final = ObservedMixCost(active_model, live_workload, frozen, mix);
  // Recovery: the loop must end no worse than the frozen pre-drift design
  // under the drifted conditions (same final mix and pricing, so the
  // per-tick jitter cancels out of the comparison).
  if (result.drift_events > 0) {
    result.recovered_every_event =
        result.autopilot_final <= result.frozen_final * 1.0001;
  }
  result.ended_on_original_design =
      pilot.deployed_design().PhysicalDesignKey() == original_key;
  return result;
}

int Main(int argc, char** argv) {
  cli::FlagParser parser;
  cli::CommonOptions common;
  autopilot::AutopilotOptions options;
  options.drift_scenario = "all";  // the sweep default
  std::string schema_name = "ssb";
  common.Register(&parser);
  options.Register(&parser);
  parser.AddString("schema", "benchmark schema: ssb|tpcds|tpcch|micro",
                   &schema_name);
  parser.ParseOrExit(argc, argv);
  std::string error;
  if (!common.Validate(&error)) {
    std::cerr << error << "\n";
    return 2;
  }
  if (options.drift_scenario != "all" && !options.Validate(&error)) {
    std::cerr << error << "\n";
    return 2;
  }

  BenchReport report("autopilot");
  report.set_seed(common.seed);
  report.set_schema(schema_name);
  report.set_engine_profile(EngineName(EngineKind::kDiskBased));
  report.Note("gates",
              "correctness counters asserted: detections, swaps, rollbacks, "
              "recovery ratios");
  Testbed tb = MakeTestbed(schema_name, EngineKind::kDiskBased,
                           DefaultFraction(schema_name), common.seed);

  std::vector<ScenarioKind> kinds;
  if (options.drift_scenario == "all") {
    kinds = autopilot::AllScenarios();
  } else {
    kinds.push_back(*options.Kind());
  }

  TablePrinter summary({"scenario", "ticks", "drift events", "detect lat.",
                        "retrains", "swaps", "rollbacks", "autopilot cost",
                        "frozen cost", "recovered"});
  bool ok = true;
  auto& false_swaps =
      telemetry::MetricsRegistry::Global().GetGauge("autopilot.false_swaps");
  false_swaps.Set(0.0);

  for (ScenarioKind kind : kinds) {
    std::cout << "\n[autopilot] scenario " << ScenarioName(kind) << "...\n";
    ScenarioResult r =
        RunScenario(kind, tb, common, options.autopilot_ticks);
    report.Record(std::string("recovery curve: ") + ScenarioName(kind),
                  r.curve);
    std::string recovered =
        r.drift_events == 0 ? "n/a" : (r.recovered_every_event ? "yes" : "NO");
    summary.AddRow({ScenarioName(kind), std::to_string(r.ticks),
                    std::to_string(r.drift_events),
                    r.detection_latency < 0
                        ? "-"
                        : std::to_string(r.detection_latency),
                    std::to_string(r.counters.retrains),
                    std::to_string(r.counters.swaps),
                    std::to_string(r.counters.rollbacks), Secs(r.autopilot_final),
                    Secs(r.frozen_final), recovered});

    switch (kind) {
      case ScenarioKind::kStable:
        if (r.counters.swaps != 0 || r.counters.retrains != 0) {
          std::cerr << "[autopilot] FAIL: stable control swapped/retrained\n";
          ok = false;
        }
        if (false_swaps.value() != 0.0) {
          std::cerr << "[autopilot] FAIL: false_swaps gauge nonzero on "
                       "stable control\n";
          ok = false;
        }
        break;
      case ScenarioKind::kForcedRegression:
        if (r.counters.rollbacks < 1) {
          std::cerr << "[autopilot] FAIL: forced regression never rolled "
                       "back\n";
          ok = false;
        }
        if (!r.ended_on_original_design) {
          std::cerr << "[autopilot] FAIL: rollback did not restore the "
                       "incumbent design\n";
          ok = false;
        }
        break;
      default:
        if (r.drift_events > 0 &&
            (r.detection_latency < 0 || !r.recovered_every_event)) {
          std::cerr << "[autopilot] FAIL: " << ScenarioName(kind)
                    << " not detected+recovered\n";
          ok = false;
        }
        break;
    }
  }

  report.Table("Autopilot scenario sweep (closed-loop drift response)",
               summary);
  std::cout << (ok ? "\n[autopilot] acceptance: PASS\n"
                   : "\n[autopilot] acceptance: FAIL\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace lpa::bench

int main(int argc, char** argv) { return lpa::bench::Main(argc, argv); }
