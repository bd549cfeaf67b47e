// The production loop of Fig 1: a trained advisor deployed as a service —
// now behind the serving subsystem. The advisor is trained once, snapshotted,
// and published to a ModelRegistry; an AdvisorServer with a worker pool
// answers Suggest requests. The workload monitor watches executed queries,
// and when the mix drifts the service is asked (concurrently, as a real
// service would be) for a new design. Between the two workload eras a
// snapshot-reloaded model is hot-swapped in under load — in-flight
// requests finish on the old version, none are dropped.
// A final act runs the same stack multi-tenant: three regional tenants
// sharing a base model behind a two-shard consistent-hash fleet, with a
// tenant-scoped hot swap that moves only one tenant to the new version.
//
//   $ ./build/examples/advisor_service [--threads N] [--seed N]
//       [--profile disk|memory] [--metrics] [--metrics-json=out.json]
//
// --threads sets both the training evaluation threads and the server's
// worker pool. --metrics prints the telemetry counters (including
// serving.*); --metrics-json writes them as JSON.
//
// --autopilot inserts a third act between the eras and the fleet: a
// snapshot-restored standby becomes the incumbent of the closed-loop
// autopilot, which takes over the live registry. While concurrent callers
// keep hitting the running server, the loop ticks through the scripted
// --drift-scenario — detects the drift, retrains in the background,
// validates, hot-swaps, and (in the forced-regression drill) rolls back —
// with every in-flight request finishing on the version it started with.

#include <algorithm>
#include <future>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "advisor/advisor.h"
#include "advisor/advisor_handle.h"
#include "advisor/serialization.h"
#include "advisor/workload_monitor.h"
#include "autopilot/autopilot.h"
#include "autopilot/scenario_driver.h"
#include "autopilot/scenarios.h"
#include "engine/cluster.h"
#include "fleet/router.h"
#include "fleet/tenant_directory.h"
#include "schema/catalogs.h"
#include "serving/model_registry.h"
#include "serving/server.h"
#include "telemetry/registry.h"
#include "util/cli.h"
#include "workload/benchmarks.h"

int main(int argc, char** argv) {
  using namespace lpa;

  cli::CommonOptions common;
  common.seed = 9;  // this example's historical fixed seed
  autopilot::AutopilotOptions autopilot_options;
  cli::FlagParser parser;
  common.Register(&parser);
  autopilot_options.Register(&parser);
  parser.ParseOrExit(argc, argv);
  std::string error;
  if (!common.Validate(&error) || !autopilot_options.Validate(&error)) {
    std::cerr << error << "\n" << parser.Usage(argv[0]);
    return 2;
  }

  schema::Schema schema = schema::MakeSsbSchema();
  workload::Workload workload = workload::MakeSsbWorkload(schema);
  const int m = workload.num_queries();
  costmodel::HardwareProfile profile =
      common.profile == "disk" ? costmodel::HardwareProfile::DiskBased10G()
                               : costmodel::HardwareProfile::InMemory10G();
  costmodel::CostModel cost_model(&schema, profile);

  // --- Train once (offline; Fig 1 step 1) --------------------------------
  advisor::AdvisorConfig config;
  config.offline_episodes = 300;
  config.dqn.tmax = 16;
  config.dqn.FitEpsilonSchedule(config.offline_episodes);
  config.seed = common.seed;
  auto advisor = std::make_unique<advisor::PartitioningAdvisor>(
      &schema, workload, config);
  EvalContext ctx(common.threads, common.seed);
  std::cout << "training advisor (" << common.threads << " thread(s))...\n";
  advisor->TrainOffline(&cost_model, nullptr, &ctx);

  // Snapshot the trained agent — the artifact a training pipeline would ship
  // to serving, and what the era-2 hot swap below reloads.
  std::stringstream snapshot;
  if (Status st = advisor::SaveAgentSnapshot(*advisor->agent(), snapshot);
      !st.ok()) {
    std::cerr << "snapshot error: " << st.ToString() << "\n";
    return 1;
  }
  const std::string snapshot_bytes = snapshot.str();

  // --- Publish + start the serving layer ---------------------------------
  serving::ModelRegistry registry;
  // Suggested states reference their model's internal edge set, so keep
  // every published version alive for as long as its designs may be in use.
  std::vector<std::shared_ptr<serving::ServingModel>> pinned_models;
  pinned_models.push_back(std::make_shared<serving::ServingModel>(
      std::move(advisor), &cost_model));
  uint64_t version = registry.Publish(pinned_models.back());
  serving::ServerConfig server_config;
  server_config.worker_threads = common.threads;
  serving::AdvisorServer server(&registry, server_config);
  if (Status st = server.Start(); !st.ok()) {
    std::cerr << "server start error: " << st.ToString() << "\n";
    return 1;
  }
  std::cout << "serving model v" << version << " ("
            << server_config.worker_threads << " worker(s))\n";

  // --- Deploy on the cluster (Fig 1 step 3) ------------------------------
  storage::GenerationConfig gen;
  gen.fraction = 5e-4;
  gen.seed = common.seed;
  engine::EngineConfig engine_config;
  engine_config.hardware = profile;
  engine_config.seed = common.seed;
  engine::ClusterDatabase cluster(
      storage::Database::Generate(schema, workload, gen), engine_config,
      &cost_model);

  advisor::MonitorConfig monitor_config;
  monitor_config.decay = 0.995;
  monitor_config.retrigger_threshold = 0.6;
  advisor::WorkloadMonitor monitor(&workload, monitor_config);

  partition::EdgeSet edges = partition::EdgeSet::Extract(schema, workload);
  auto current = partition::PartitioningState::Initial(&schema, &edges);
  cluster.ApplyDesign(current);

  // --- Serve two workload eras -------------------------------------------
  // Era 1: flight-1 reporting dominates; era 2: drill-downs over part and
  // supplier take over. Before era 2 the registry hot-swaps in a model
  // reloaded from the snapshot, as a retraining pipeline would.
  struct Era {
    const char* label;
    std::vector<int> hot_queries;
    bool swap_model;
  };
  const Era kEras[] = {
      {"era 1: date-range reporting", {0, 1, 2}, false},
      {"era 2: part/supplier drill-downs", {3, 4, 5, 10, 11, 12}, true}};
  Rng rng(4);
  for (const auto& era : kEras) {
    std::cout << "\n=== " << era.label << " ===\n";
    if (era.swap_model) {
      std::istringstream snap(snapshot_bytes);
      auto reloaded = serving::ServingModel::FromSnapshot(
          &schema, workload, config, &cost_model, snap);
      if (!reloaded.ok()) {
        std::cerr << "hot-swap load error: " << reloaded.status().ToString()
                  << "\n";
        return 1;
      }
      pinned_models.push_back(*reloaded);
      version = registry.Publish(pinned_models.back());
      std::cout << "hot-swapped serving model to v" << version
                << " (in-flight requests finish on the old version)\n";
    }
    for (int i = 0; i < 400; ++i) {
      int hot_index = static_cast<int>(rng.UniformInt(
          0, static_cast<int64_t>(era.hot_queries.size()) - 1));
      int slot = rng.Bernoulli(0.8)
                     ? era.hot_queries[static_cast<size_t>(hot_index)]
                     : static_cast<int>(rng.UniformInt(0, m - 1));
      monitor.ObserveSlot(slot);
    }
    std::cout << "observed " << monitor.observations() << " queries so far; "
              << (monitor.SuggestionStale() ? "mix drifted -> re-advise"
                                            : "mix stable") << "\n";
    if (!monitor.SuggestionStale()) continue;

    // Ask the service. A real deployment has many concurrent callers, so
    // submit a few jittered variants of the mix alongside the canonical one
    // — the server's workers roll them out concurrently.
    auto freqs = monitor.CurrentFrequencies();
    std::future<serving::SuggestResponse> canonical =
        server.SubmitAsync(freqs);
    std::vector<std::future<serving::SuggestResponse>> jittered;
    for (int i = 0; i < 5; ++i) {
      std::vector<double> variant = freqs;
      for (double& f : variant) f *= rng.Uniform(0.9, 1.1);
      jittered.push_back(server.SubmitAsync(std::move(variant)));
    }
    serving::SuggestResponse response = canonical.get();
    for (auto& future : jittered) future.get();
    if (!response.status.ok()) {
      std::cerr << "suggest error: " << response.status.ToString() << "\n";
      return 1;
    }
    std::cout << "suggestion served by model v" << response.model_version
              << " in " << response.latency_seconds * 1e3 << "ms\n";

    double move_seconds = cluster.ApplyDesign(response.result->best_state);
    current = response.result->best_state;
    monitor.MarkSuggested();

    workload::Workload era_workload = workload;
    (void)era_workload.SetFrequencies(freqs);
    std::cout << "redeployed: " << current.PhysicalDesignKey() << "\n";
    std::cout << "data movement took " << move_seconds
              << "s (simulated); workload now runs in "
              << cluster.ExecuteWorkload(era_workload) << "s\n";
  }

  // --- Autopilot act (--autopilot): the closed loop takes over ------------
  // A snapshot-restored standby becomes the incumbent; the autopilot
  // publishes into the SAME registry the running server serves, so every
  // detector-driven swap below lands under live concurrent traffic.
  if (autopilot_options.autopilot) {
    autopilot::ScenarioKind kind = *autopilot_options.Kind();  // validated
    std::cout << "\n=== autopilot: scenario "
              << autopilot::ScenarioName(kind) << " ===\n";
    AdvisorHandle standby(&schema, workload, config);
    if (Status st = standby.Restore(snapshot_bytes); !st.ok()) {
      std::cerr << "standby restore error: " << st.ToString() << "\n";
      return 1;
    }
    if (Status st = standby.BindCostModel(&cost_model); !st.ok()) {
      std::cerr << "standby bind error: " << st.ToString() << "\n";
      return 1;
    }

    autopilot::AutopilotConfig loop;
    // Synchronous retrain: the verdict tick blocks until the candidate is
    // trained, validated, and swapped — while the requests submitted just
    // below are in flight on the server (lpa_loadgen --autopilot exercises
    // the async flavor under sustained traffic).
    loop.retrain.async = false;
    loop.retrain.episodes = 24;  // snappy demo-scale retrains
    loop.retrain.seed = common.seed + 17;
    autopilot::ApplyScenarioOverrides(kind, &loop);
    autopilot::Autopilot pilot(std::move(standby), &cost_model, loop);
    pilot.AddTarget(&registry);
    if (Status st = pilot.Start(monitor.CurrentFrequencies()); !st.ok()) {
      std::cerr << "autopilot start error: " << st.ToString() << "\n";
      return 1;
    }
    std::cout << "autopilot deployed its incumbent as v"
              << registry.current_version() << "\n";

    autopilot::ScenarioDriver driver(&pilot, kind, common.seed + 23);
    const int ticks = autopilot_options.autopilot_ticks > 0
                          ? autopilot_options.autopilot_ticks
                          : driver.default_ticks();
    const std::vector<double> base_mix = monitor.CurrentFrequencies();
    auto tick_once = [&]() -> bool {
      // Concurrent callers during the control tick: they ride any swap on
      // the RCU guarantee.
      std::vector<std::future<serving::SuggestResponse>> inflight;
      for (int i = 0; i < 3; ++i) {
        std::vector<double> variant = base_mix;
        for (double& f : variant) f *= rng.Uniform(0.9, 1.1);
        inflight.push_back(server.SubmitAsync(std::move(variant)));
      }
      auto outcome = driver.Step(&std::cout);
      for (auto& future : inflight) {
        serving::SuggestResponse response = future.get();
        if (!response.status.ok()) {
          std::cerr << "suggest error during autopilot: "
                    << response.status.ToString() << "\n";
          return false;
        }
      }
      return outcome.ok();
    };
    for (int t = 0; t < ticks; ++t) {
      if (!tick_once()) return 1;
    }
    // Let a still-running background retrain land before the curtain.
    for (int t = 0; t < 30 && (pilot.controller().busy() ||
                               pilot.controller().in_probation());
         ++t) {
      if (!tick_once()) return 1;
    }
    const auto& counters = pilot.counters();
    std::cout << "autopilot: " << driver.drift_events()
              << " drift event(s), " << counters.retrains << " retrain(s), "
              << counters.swaps << " swap(s), " << counters.rollbacks
              << " rollback(s); serving model now v"
              << registry.current_version() << "\n";
  }

  server.Stop();
  auto stats = server.stats();
  std::cout << "\nserver: " << stats.submitted << " submitted, "
            << stats.completed << " completed, " << stats.rejected
            << " rejected, " << stats.shed << " shed, " << stats.failed
            << " failed\n";

  // --- Multi-tenant fleet: the same stack at cloud scale ------------------
  // Three regional tenants share the current base model — one ServingModel
  // instance, one copy of its weights — behind a two-shard consistent-hash
  // fleet. Then only the EU tenant hot-swaps:
  // its namespace moves to v2 while the others keep serving v1.
  std::cout << "\n=== multi-tenant fleet (3 tenants, 2 shards) ===\n";
  fleet::TenantDirectory directory;
  const std::vector<std::string> tenants = {"tenant-eu", "tenant-us",
                                            "tenant-ap"};
  directory.PublishShared(tenants, pinned_models.back());

  fleet::FleetConfig fleet_config;
  fleet_config.shards = 2;
  fleet_config.server.worker_threads = std::max(1, common.threads);
  fleet::FleetRouter router(&directory, fleet_config);
  if (Status st = router.Start(); !st.ok()) {
    std::cerr << "fleet start error: " << st.ToString() << "\n";
    return 1;
  }
  std::cout << "tenant -> shard:";
  for (const auto& tenant : tenants) {
    std::cout << " " << tenant << "->s" << router.ShardOf(tenant);
  }
  std::cout << "\n";

  auto fleet_round = [&](const char* label) {
    std::vector<std::future<serving::SuggestResponse>> futures;
    for (const auto& tenant : tenants) {
      std::vector<double> variant = monitor.CurrentFrequencies();
      for (double& f : variant) f *= rng.Uniform(0.9, 1.1);
      futures.push_back(router.SubmitAsync(tenant, std::move(variant)));
    }
    std::cout << label << ":";
    for (size_t i = 0; i < tenants.size(); ++i) {
      serving::SuggestResponse response = futures[i].get();
      if (response.status.ok()) {
        std::cout << " " << tenants[i] << "=v" << response.model_version;
      } else {
        std::cout << " " << tenants[i] << "=" << response.status.ToString();
      }
    }
    std::cout << "\n";
  };
  fleet_round("round 1 (shared base model)");

  {
    std::istringstream snap(snapshot_bytes);
    auto reloaded = serving::ServingModel::FromSnapshot(
        &schema, workload, config, &cost_model, snap);
    if (!reloaded.ok()) {
      std::cerr << "tenant hot-swap load error: "
                << reloaded.status().ToString() << "\n";
      return 1;
    }
    pinned_models.push_back(*reloaded);
    uint64_t eu_version =
        directory.Find("tenant-eu")->Publish(pinned_models.back());
    std::cout << "hot-swapped tenant-eu only -> v" << eu_version
              << " (other tenants untouched)\n";
  }
  fleet_round("round 2 (after EU-only swap)");

  router.Stop();
  for (const auto& tenant : tenants) {
    fleet::TenantStats tenant_stats = router.tenant_stats(tenant);
    std::cout << tenant << ": " << tenant_stats.submitted << " submitted, "
              << tenant_stats.completed << " completed (model v"
              << directory.Find(tenant)->current_version() << ")\n";
  }

  if (common.metrics || !common.metrics_json.empty()) {
    auto manifest = telemetry::RunManifest::Make("advisor_service");
    manifest.seed = common.seed;
    manifest.engine_profile = common.profile == "disk"
                                  ? "disk-based (Postgres-XL-like)"
                                  : "in-memory";
    manifest.schema = "ssb";
    manifest.Set("threads", std::to_string(common.threads));
    auto& registry_metrics = telemetry::MetricsRegistry::Global();
    if (common.metrics) std::cout << "\n" << registry_metrics.ToTable();
    if (!common.metrics_json.empty()) {
      Status st = registry_metrics.WriteJsonFile(common.metrics_json, manifest);
      if (!st.ok()) {
        std::cerr << "metrics write error: " << st.ToString() << "\n";
        return 1;
      }
      std::cout << "wrote metrics to " << common.metrics_json << "\n";
    }
  }
  return 0;
}
