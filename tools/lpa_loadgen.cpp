// Load generator for the serving subsystem: trains a small advisor, wraps
// it as a servable model, and replays workload-frequency traffic through
// serving::RunLoadgen at one or more worker-thread counts, reporting
// p50/p95/p99 latency, throughput, and rejected/shed counts per sweep point
// (table + BENCH_serving.json via bench::BenchReport).
//
//   $ ./build/tools/lpa_loadgen --workers 1,2,8 --duration 5 --hotswap
//   $ ./build/tools/lpa_loadgen --mode open --qps 200 --deadline 0.05
//
// The traffic goes to one serving::AdvisorServer unless --tenants N (> 0) is
// given; then it goes to a fleet::FleetRouter: N tenants with
// Zipf-distributed popularity are sharded across --shards AdvisorServer
// instances, sharing --model-pool base models (tenant i serves pool model
// i mod K). --quota-rate/--quota-burst meter every tenant's admission with a
// token bucket; --hotswap republishes the hottest tenants' models at
// halftime. Per-tenant p50/p95/p99 and fairness counters go to
// BENCH_serving.json; stdout shows the sweep plus the hottest tenants.
// Both targets take --mode closed or open.
//
//   $ ./build/tools/lpa_loadgen --schema micro --tenants 100 --shards 4
//                               --quota-rate 200 --quota-burst 50 --hotswap
//
// --hotswap publishes a snapshot-restored model version halfway through
// each run; completed requests are then accounted per model version and the
// tool verifies none were dropped during the swap. The tool exits non-zero
// if any correctness counter is violated (submitted != quota_rejected +
// completed + rejected + shed + failed in the aggregate or for a tenant, a
// failed request, per-version counts that do not sum to the completed
// total, client counts that disagree with the server's or the router's own,
// or a token-bucket quota violation); the latency and throughput of each
// worker count are reported. An open-loop request's latency counts from its
// due time on the schedule, and the sweep reports how far behind that
// schedule the dispatcher ran (max_late).
//
// --autopilot (single-server only; supersedes --hotswap) hands the
// registry to the closed-loop autopilot instead: a control thread ticks the
// scripted --drift-scenario while the load generator hammers the server, so
// every hot swap is detector-driven — trained, validated, and published
// live under traffic. The per-version completion counts then show requests
// migrating across autopilot-published versions with zero drops; a stable
// scenario that swaps fails the run (false positive).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "advisor/advisor_handle.h"
#include "advisor/serialization.h"
#include "autopilot/autopilot.h"
#include "autopilot/scenario_driver.h"
#include "autopilot/scenarios.h"
#include "bench/bench_common.h"
#include "fleet/router.h"
#include "fleet/tenant_directory.h"
#include "serving/loadgen.h"
#include "serving/model_registry.h"
#include "serving/server.h"
#include "util/cli.h"

namespace {

std::vector<int> ParseWorkerList(const std::string& spec, std::string* error) {
  std::vector<int> workers;
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    try {
      int w = std::stoi(item);
      if (w < 1) throw std::invalid_argument("non-positive");
      workers.push_back(w);
    } catch (const std::exception&) {
      *error = "--workers expects a comma-separated list of positive "
               "integers, got '" + spec + "'";
      return {};
    }
  }
  if (workers.empty()) *error = "--workers list is empty";
  return workers;
}

std::string Ms(double seconds) {
  return lpa::FormatDouble(seconds * 1e3, 3) + "ms";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lpa;

  cli::CommonOptions common;
  std::string schema_name = "ssb";
  std::string workers_spec = "1,2,8";
  std::string mode = "closed";
  int episodes = 40;
  int clients = 4;
  int queue_capacity = 256;
  double qps = 100.0;
  double duration = 5.0;
  double deadline = 0.0;
  bool hotswap = false;
  int tenants = 0;
  double zipf = 1.2;
  int shards = 4;
  int model_pool = 1;
  double quota_rate = 0.0;
  double quota_burst = 0.0;

  autopilot::AutopilotOptions autopilot_options;

  cli::FlagParser parser;
  common.Register(&parser);
  autopilot_options.Register(&parser);
  parser.AddString("schema", "ssb|tpcds|tpcch|micro", &schema_name);
  parser.AddInt("episodes", "offline training episodes", &episodes);
  parser.AddString("workers", "comma list of worker-thread counts",
                   &workers_spec);
  parser.AddString("mode", "closed|open", &mode);
  parser.AddInt("clients", "closed-loop concurrent clients", &clients);
  parser.AddDouble("qps", "open-loop target arrival rate", &qps);
  parser.AddDouble("duration", "seconds per sweep point", &duration);
  parser.AddInt("queue-capacity", "bounded request queue size",
                &queue_capacity);
  parser.AddDouble("deadline", "per-request deadline seconds (0 = none)",
                   &deadline);
  parser.AddBool("hotswap", "publish a new model version at halftime",
                 &hotswap);
  parser.AddInt("tenants", "multi-tenant fleet mode: tenant count (0 = off)",
                &tenants);
  parser.AddDouble("zipf", "tenant-popularity Zipf exponent", &zipf);
  parser.AddInt("shards", "fleet mode: AdvisorServer shard count", &shards);
  parser.AddInt("model-pool", "fleet mode: distinct shared base models",
                &model_pool);
  parser.AddDouble("quota-rate", "fleet mode: per-tenant tokens per second",
                   &quota_rate);
  parser.AddDouble("quota-burst",
                   "fleet mode: per-tenant burst (0 = unlimited)",
                   &quota_burst);
  parser.ParseOrExit(argc, argv);
  std::string error;
  if (!common.Validate(&error) || !autopilot_options.Validate(&error)) {
    std::cerr << error << "\n" << parser.Usage(argv[0]);
    return 2;
  }
  if (mode != "closed" && mode != "open") {
    std::cerr << "--mode must be closed or open\n";
    return 2;
  }
  if (tenants > 0 && (shards < 1 || model_pool < 1)) {
    std::cerr << "--shards and --model-pool must be >= 1\n";
    return 2;
  }
  if (autopilot_options.autopilot && tenants > 0) {
    std::cerr << "--autopilot runs single-tenant (drop --tenants)\n";
    return 2;
  }
  if (autopilot_options.autopilot && hotswap) {
    std::cerr << "--autopilot supersedes --hotswap: the autopilot decides "
                 "when to publish\n";
    return 2;
  }
  std::vector<int> worker_counts = ParseWorkerList(workers_spec, &error);
  if (worker_counts.empty()) {
    std::cerr << error << "\n";
    return 2;
  }
  const bool fleet_mode = tenants > 0;

  bench::BenchReport report("serving");
  report.set_seed(common.seed);
  report.set_schema(schema_name);
  auto kind = common.profile == "disk" ? bench::EngineKind::kDiskBased
                                       : bench::EngineKind::kInMemory;
  report.set_engine_profile(bench::EngineName(kind));
  report.Note("mode", mode);
  report.Note("hotswap", hotswap ? "yes" : "no");
  report.Note("hardware_threads",
              std::to_string(std::thread::hardware_concurrency()));
  if (fleet_mode) {
    report.Note("tenants", std::to_string(tenants));
    report.Note("shards", std::to_string(shards));
    report.Note("model_pool", std::to_string(model_pool));
    report.Note("zipf_theta", FormatDouble(zipf, 2));
    report.Note("quota_rate", FormatDouble(quota_rate, 1));
    report.Note("quota_burst", FormatDouble(quota_burst, 1));
  }
  // The sweep reports latency and throughput per worker count; what it
  // asserts, at every count, are the correctness counters.
  report.Note("gates",
              "correctness counters asserted: zero drops, quota "
              "enforcement, per-version accounting");

  // --- Train once, snapshot, publish (Fig 1: train, then serve) ----------
  bench::Testbed tb = bench::MakeTestbed(
      schema_name, kind, bench::DefaultFraction(schema_name), common.seed);
  const int num_queries = tb.workload->num_queries();

  advisor::AdvisorConfig config;
  config.offline_episodes = bench::Scaled(episodes);
  config.dqn.tmax = 16;
  config.dqn.FitEpsilonSchedule(config.offline_episodes);
  config.seed = common.seed;
  std::cerr << "training advisor (" << config.offline_episodes
            << " episodes, " << common.threads << " thread(s))...\n";
  auto advisor = std::make_unique<advisor::PartitioningAdvisor>(
      tb.schema.get(), *tb.workload, config);
  EvalContext ctx(common.threads, common.seed);
  advisor->TrainOffline(tb.exact_model.get(), nullptr, &ctx);

  std::stringstream snapshot;
  if (Status st = advisor::SaveAgentSnapshot(*advisor->agent(), snapshot);
      !st.ok()) {
    std::cerr << "snapshot error: " << st.ToString() << "\n";
    return 1;
  }
  const std::string snapshot_bytes = snapshot.str();

  auto load_model = [&]() -> std::shared_ptr<serving::ServingModel> {
    std::istringstream snap(snapshot_bytes);
    auto model = serving::ServingModel::FromSnapshot(
        tb.schema.get(), *tb.workload, config, tb.exact_model.get(), snap);
    if (!model.ok()) {
      std::cerr << "model load failed: " << model.status().ToString() << "\n";
      return nullptr;
    }
    return *model;
  };

  // Fleet mode: K distinct base models; tenant i serves pool model i mod K,
  // so each pool group shares one ServingModel instance.
  std::vector<std::shared_ptr<serving::ServingModel>> pool;
  std::vector<std::string> tenant_names;
  // Single server: one registry. With --autopilot it belongs to the closed
  // loop: the trained advisor becomes the incumbent (the AdvisorHandle
  // migration-path constructor), Start publishes v1, and every later version
  // is a detector-driven swap published while the loadgen below is running.
  serving::ModelRegistry registry;
  std::unique_ptr<autopilot::Autopilot> pilot;
  std::unique_ptr<autopilot::ScenarioDriver> driver;
  autopilot::ScenarioKind scenario_kind = autopilot::ScenarioKind::kStable;
  if (fleet_mode) {
    for (int k = 0; k < model_pool; ++k) {
      auto model = load_model();
      if (model == nullptr) return 1;
      pool.push_back(std::move(model));
    }
    for (int t = 0; t < tenants; ++t) {
      tenant_names.push_back(fleet::TenantName(t));
    }
  } else if (autopilot_options.autopilot) {
    scenario_kind = *autopilot_options.Kind();  // validated above
    autopilot::AutopilotConfig loop;
    loop.retrain.async = true;  // Tick stays cheap; training off-thread
    loop.retrain.seed = common.seed + 17;
    autopilot::ApplyScenarioOverrides(scenario_kind, &loop);
    pilot = std::make_unique<autopilot::Autopilot>(
        AdvisorHandle(std::move(advisor)), tb.exact_model.get(), loop);
    pilot->AddTarget(&registry);
    if (Status st = pilot->Start(std::vector<double>(
            static_cast<size_t>(num_queries), 1.0));
        !st.ok()) {
      std::cerr << "autopilot start failed: " << st.ToString() << "\n";
      return 1;
    }
    driver = std::make_unique<autopilot::ScenarioDriver>(
        pilot.get(), scenario_kind, common.seed + 23);
    report.Note("autopilot", autopilot::ScenarioName(scenario_kind));
  } else {
    registry.Publish(std::make_shared<serving::ServingModel>(
        std::move(advisor), tb.exact_model.get()));
  }

  // --- Sweep worker-thread counts ----------------------------------------
  const bool open_loop = mode == "open";
  std::vector<std::string> columns = {
      "workers", "submitted", "quota_rej", "completed", "rejected", "shed",
      "p50",     "p95",       "p99",       "mean",      "throughput"};
  if (open_loop) columns.push_back("max_late");
  columns.push_back("versions");
  TablePrinter table(columns);
  bool counters_ok = true;
  for (int workers : worker_counts) {
    serving::ServerConfig server_config;
    server_config.worker_threads = workers;
    server_config.queue_capacity = static_cast<size_t>(queue_capacity);
    server_config.default_deadline_seconds = deadline;

    // The target (one server, or a router over a fresh tenant directory),
    // the callable the load generator sends through, and the hot swap.
    std::unique_ptr<serving::AdvisorServer> server;
    fleet::TenantDirectory directory;
    std::unique_ptr<fleet::FleetRouter> router;
    serving::SubmitFn submit;
    std::function<void()> at_halftime;
    Status started;
    if (fleet_mode) {
      std::vector<std::vector<std::string>> groups(pool.size());
      for (size_t t = 0; t < tenant_names.size(); ++t) {
        groups[t % pool.size()].push_back(tenant_names[t]);
      }
      for (size_t k = 0; k < pool.size(); ++k) {
        directory.PublishShared(groups[k], pool[k]);
      }
      fleet::FleetConfig fleet_config;
      fleet_config.shards = shards;
      fleet_config.server = server_config;
      fleet_config.default_quota = {quota_rate, quota_burst};
      router = std::make_unique<fleet::FleetRouter>(&directory, fleet_config);
      started = router->Start();
      submit = [&](int tenant, std::vector<double> mix, double deadline_s) {
        return router->SubmitAsync(tenant_names[static_cast<size_t>(tenant)],
                                   std::move(mix), deadline_s);
      };
      if (hotswap) {
        at_halftime = [&] {
          // Republish the hottest tenants only: tenant-scoped hot swaps
          // under the heaviest traffic, while the long tail keeps serving
          // its original version.
          int n = std::min(5, tenants);
          for (int t = 0; t < n; ++t) {
            auto model = load_model();
            if (model == nullptr) return;
            directory.Find(tenant_names[static_cast<size_t>(t)])
                ->Publish(std::move(model));
          }
          std::cerr << "  hot-swapped the " << n << " hottest tenant(s)\n";
        };
      }
    } else {
      server = std::make_unique<serving::AdvisorServer>(&registry,
                                                        server_config);
      started = server->Start();
      submit = [&](int, std::vector<double> mix, double deadline_s) {
        return server->SubmitAsync(std::move(mix), deadline_s);
      };
      if (hotswap) {
        at_halftime = [&] {
          auto model = load_model();
          if (model == nullptr) return;
          std::cerr << "  hot-swapped to model v"
                    << registry.Publish(std::move(model)) << "\n";
        };
      }
    }
    if (!started.ok()) {
      std::cerr << "start failed: " << started.ToString() << "\n";
      return 1;
    }

    serving::LoadgenOptions options;
    options.open_loop = open_loop;
    options.clients = clients;
    options.qps = qps;
    options.duration_seconds = duration;
    options.seed = HashCombine(common.seed, static_cast<uint64_t>(workers));
    options.num_queries = num_queries;
    options.tenants = std::max(1, tenants);
    options.zipf_theta = zipf;

    std::cerr << "loadgen: ";
    if (fleet_mode) {
      std::cerr << tenants << " tenant(s), " << shards << " shard(s), ";
    }
    std::cerr << workers << " worker(s)" << (fleet_mode ? "/shard, " : ", ")
              << mode << "-loop, " << duration << "s...\n";

    // The autopilot control plane ticks on its own thread while the
    // loadgen saturates the server — the swaps land mid-traffic, which is
    // the point.
    std::atomic<bool> control_stop{false};
    std::thread control;
    if (pilot != nullptr) {
      control = std::thread([&] {
        while (!control_stop.load(std::memory_order_acquire)) {
          auto outcome = driver->Step(&std::cerr);
          if (!outcome.ok()) {
            std::cerr << "autopilot tick failed: "
                      << outcome.status().ToString() << "\n";
            break;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
        }
      });
    }
    serving::LoadgenReport run =
        serving::RunLoadgen(submit, options, at_halftime);
    if (control.joinable()) {
      control_stop.store(true, std::memory_order_release);
      control.join();
    }

    // The target's own totals, in the load generator's buckets.
    fleet::TenantStats totals;
    uint64_t quota_violations = 0;
    if (router != nullptr) {
      router->Stop();
      totals = router->totals();
      quota_violations = router->quota_violations();
    } else {
      server->Stop();
      const serving::AdvisorServer::Stats s = server->stats();
      totals = {s.submitted, /*quota_rejected=*/0, s.completed,
                s.rejected,  s.shed,               s.failed};
    }

    std::string versions;
    for (const auto& [version, count] : run.completed_per_version) {
      if (!versions.empty()) versions += " ";
      versions += "v" + std::to_string(version) + ":" + std::to_string(count);
    }
    std::vector<std::string> row = {std::to_string(workers),
                                    std::to_string(run.submitted),
                                    std::to_string(run.quota_rejected),
                                    std::to_string(run.completed),
                                    std::to_string(run.rejected),
                                    std::to_string(run.shed),
                                    Ms(run.latency_p50),
                                    Ms(run.latency_p95),
                                    Ms(run.latency_p99),
                                    Ms(run.latency_mean),
                                    FormatDouble(run.throughput_qps, 1) + "/s"};
    if (open_loop) row.push_back(Ms(run.max_lateness_seconds));
    row.push_back(versions.empty() ? "-" : versions);
    table.AddRow(row);

    if (fleet_mode) {
      // Full per-tenant fairness table into BENCH_serving.json; stdout only
      // shows the Zipf head below.
      TablePrinter per_tenant({"tenant", "submitted", "quota_rej",
                               "completed", "rejected", "shed", "failed",
                               "p50", "p95", "p99"});
      TablePrinter head({"tenant", "submitted", "quota_rej", "completed",
                         "p50", "p99"});
      for (size_t t = 0; t < run.per_tenant.size(); ++t) {
        const serving::LoadgenReport& outcome = run.per_tenant[t];
        const bool served = outcome.completed > 0;
        per_tenant.AddRow(
            {tenant_names[t], std::to_string(outcome.submitted),
             std::to_string(outcome.quota_rejected),
             std::to_string(outcome.completed),
             std::to_string(outcome.rejected), std::to_string(outcome.shed),
             std::to_string(outcome.failed),
             served ? Ms(outcome.latency_p50) : "-",
             served ? Ms(outcome.latency_p95) : "-",
             served ? Ms(outcome.latency_p99) : "-"});
        if (t < 5) {
          head.AddRow({tenant_names[t], std::to_string(outcome.submitted),
                       std::to_string(outcome.quota_rejected),
                       std::to_string(outcome.completed),
                       served ? Ms(outcome.latency_p50) : "-",
                       served ? Ms(outcome.latency_p99) : "-"});
        }
      }
      report.Record("fleet per-tenant outcomes (workers=" +
                        std::to_string(workers) + ")",
                    per_tenant);
      std::cout << "\nhottest tenants (workers=" << workers << "):\n";
      head.Print();
    }

    const bool run_ok = run.CountersConsistent() && run.failed == 0 &&
                        quota_violations == 0 && totals.Settled() &&
                        totals.submitted == run.submitted &&
                        totals.quota_rejected == run.quota_rejected &&
                        totals.completed == run.completed &&
                        (!hotswap || !run.completed_per_version.empty());
    if (!run_ok) {
      std::cerr << "COUNTER VIOLATION at " << workers << " worker(s): "
                << "submitted=" << run.submitted
                << " quota_rejected=" << run.quota_rejected
                << " completed=" << run.completed
                << " rejected=" << run.rejected << " shed=" << run.shed
                << " failed=" << run.failed
                << "; target submitted=" << totals.submitted
                << " completed=" << totals.completed
                << " quota_violations=" << quota_violations << "\n";
      counters_ok = false;
    }
  }
  report.Table(std::string(fleet_mode ? "fleet" : "serving") +
                   " load sweep (latency = " +
                   (open_loop ? "due time" : "submit") + " to response)",
               table);

  if (pilot != nullptr) {
    const auto& c = pilot->counters();
    std::cout << "autopilot (" << autopilot::ScenarioName(scenario_kind)
              << "): " << driver->ticks() << " tick(s), "
              << driver->drift_events() << " drift event(s), " << c.retrains
              << " retrain(s), " << c.swaps << " swap(s), " << c.rollbacks
              << " rollback(s); registry at v" << registry.current_version()
              << "\n";
    report.Note("autopilot_ticks", std::to_string(driver->ticks()));
    report.Note("autopilot_swaps", std::to_string(c.swaps));
    report.Note("autopilot_rollbacks", std::to_string(c.rollbacks));
    // Timing-independent correctness: a stable workload must never swap.
    if (scenario_kind == autopilot::ScenarioKind::kStable && c.swaps > 0) {
      std::cerr << "COUNTER VIOLATION: " << c.swaps
                << " swap(s) on a stable workload (false positive)\n";
      counters_ok = false;
    }
  }
  if (common.metrics) {
    std::cout << "\n" << telemetry::MetricsRegistry::Global().ToTable();
  }
  report.Write();

  if (!counters_ok) {
    std::cerr << "FAILED: correctness counters violated\n";
    return 1;
  }
  if (fleet_mode) {
    std::cout << "OK: every request accounted for across " << tenants
              << " tenant(s), zero quota violations, zero dropped\n";
  } else {
    std::cout << "OK: every request accounted for (completed + rejected + "
                 "shed, zero dropped)\n";
  }
  return 0;
}
