// lpa_advise: command-line partitioning advisor.
//
// Reads a schema (CREATE TABLE dialect, see sql/ddl.h) and a SQL workload,
// trains the DRL advisor against the network-centric cost model, and prints
// the suggested physical design as ALTER TABLE statements.
//
//   $ lpa_advise --ddl schema.sql --workload workload.sql
//                [--profile disk|memory] [--nodes 6] [--episodes 400]
//                [--threads 1] [--mix 1,0.5,...] [--save agent.bin]
//                [--load agent.bin] [--seed 42] [--metrics]
//                [--metrics-json out.json]
//
// --engine is accepted as an alias of --profile. --threads > 1 runs the
// parallel evaluation engine; seeded results are identical at any count.
//
// With --load, training is skipped and the snapshot served directly.
// --metrics prints the telemetry table to stderr; --metrics-json
// additionally materializes a small cluster, measures the suggested design
// on it (so engine counters are populated), and writes metrics + manifest
// + the suggestion as JSON.
//
// --autopilot keeps going after the one-shot advice: the trained advisor
// becomes the incumbent of a closed-loop autopilot driven through the
// scripted --drift-scenario (see src/autopilot/scenarios.h), and the tool
// reports detections, retrains, hot swaps, rollbacks, and the final deployed
// design.
//
//   $ lpa_advise --ddl schema.sql --workload workload.sql
//                --autopilot --drift-scenario flash-crowd

#include <fstream>
#include <iostream>
#include <sstream>

#include "advisor/advisor_handle.h"
#include "autopilot/autopilot.h"
#include "autopilot/scenario_driver.h"
#include "autopilot/scenarios.h"
#include "engine/cluster.h"
#include "serving/model_registry.h"
#include "sql/ddl.h"
#include "sql/parser.h"
#include "storage/database.h"
#include "telemetry/registry.h"
#include "util/cli.h"

namespace {

struct Options {
  std::string ddl_path;
  std::string workload_path;
  lpa::cli::CommonOptions common;
  lpa::autopilot::AutopilotOptions autopilot;
  int nodes = 6;
  int episodes = 400;
  std::string mix;
  std::string save_path;
  std::string load_path;
};

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in.good()) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

std::vector<double> ParseMix(const std::string& mix, int m) {
  std::vector<double> freqs;
  std::stringstream ss(mix);
  std::string item;
  while (std::getline(ss, item, ',')) freqs.push_back(std::stod(item));
  freqs.resize(static_cast<size_t>(m), 0.0);
  return freqs;
}

void PrintDesign(const lpa::schema::Schema& schema,
                 const lpa::partition::PartitioningState& state) {
  for (lpa::schema::TableId t = 0; t < schema.num_tables(); ++t) {
    const auto& tp = state.table_partition(t);
    std::cout << "ALTER TABLE " << schema.table(t).name;
    if (tp.replicated) {
      std::cout << " REPLICATE;\n";
    } else {
      std::cout << " DISTRIBUTE BY HASH("
                << schema.table(t).columns[static_cast<size_t>(tp.column)].name
                << ");\n";
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lpa;

  Options options;
  cli::FlagParser parser;
  parser.AddString("ddl", "schema.sql", &options.ddl_path);
  parser.AddString("workload", "workload.sql", &options.workload_path);
  parser.AddInt("nodes", "cluster nodes", &options.nodes);
  parser.AddInt("episodes", "offline training episodes", &options.episodes);
  parser.AddString("mix", "f1,f2,...", &options.mix);
  parser.AddString("save", "agent snapshot out", &options.save_path);
  parser.AddString("load", "agent snapshot in", &options.load_path);
  options.common.Register(&parser);
  options.autopilot.Register(&parser);
  parser.AddAlias("engine", "profile");  // historical spelling
  std::string error;
  if (!parser.Parse(argc, argv, &error) || !options.common.Validate(&error) ||
      !options.autopilot.Validate(&error)) {
    std::cerr << error << "\n" << parser.Usage(argv[0]);
    return 2;
  }
  if (options.ddl_path.empty() || options.workload_path.empty()) {
    std::cerr << parser.Usage(argv[0]);
    return 2;
  }

  std::string ddl, workload_sql;
  if (!ReadFile(options.ddl_path, &ddl)) {
    std::cerr << "cannot read " << options.ddl_path << "\n";
    return 1;
  }
  if (!ReadFile(options.workload_path, &workload_sql)) {
    std::cerr << "cannot read " << options.workload_path << "\n";
    return 1;
  }

  auto schema = sql::ParseDdl(ddl);
  if (!schema.ok()) {
    std::cerr << "DDL error: " << schema.status().ToString() << "\n";
    return 1;
  }
  auto queries = sql::ParseScript(workload_sql, *schema);
  if (!queries.ok()) {
    std::cerr << "workload error: " << queries.status().ToString() << "\n";
    return 1;
  }
  workload::Workload workload(std::move(*queries));
  workload.SetUniformFrequencies();
  std::cerr << "schema: " << schema->num_tables() << " tables, workload: "
            << workload.num_queries() << " queries\n";

  costmodel::HardwareProfile profile =
      options.common.profile == "disk"
          ? costmodel::HardwareProfile::DiskBased10G()
          : costmodel::HardwareProfile::InMemory10G();
  profile = profile.WithNodes(options.nodes);
  costmodel::CostModel cost_model(&*schema, profile);

  advisor::AdvisorConfig config;
  config.offline_episodes = options.episodes;
  config.dqn.tmax = std::max(schema->num_tables() + 4, 12);
  config.dqn.FitEpsilonSchedule(config.offline_episodes);
  config.seed = options.common.seed;
  AdvisorHandle advisor(&*schema, workload, config);
  EvalContext ctx(options.common.threads, options.common.seed);

  if (!options.load_path.empty()) {
    std::string snapshot_bytes;
    if (!ReadFile(options.load_path, &snapshot_bytes)) {
      std::cerr << "cannot read " << options.load_path << "\n";
      return 1;
    }
    if (Status st = advisor.Restore(snapshot_bytes); !st.ok()) {
      std::cerr << "snapshot error: " << st.ToString() << "\n";
      return 1;
    }
    // The restored standby has no training environment yet: bind the pricing
    // model so Suggest (and any autopilot retrain) can run.
    if (Status st = advisor.BindCostModel(&cost_model); !st.ok()) {
      std::cerr << "bind error: " << st.ToString() << "\n";
      return 1;
    }
    std::cerr << "loaded agent snapshot from " << options.load_path << "\n";
  } else {
    std::cerr << "training (" << config.offline_episodes << " episodes, "
              << options.common.threads << " thread(s))...\n";
    auto trained = advisor.Train(TrainSpec::Offline(&cost_model), &ctx);
    if (!trained.ok()) {
      std::cerr << "training error: " << trained.status().ToString() << "\n";
      return 1;
    }
  }

  std::vector<double> mix =
      options.mix.empty()
          ? std::vector<double>(static_cast<size_t>(workload.num_queries()), 1.0)
          : ParseMix(options.mix, workload.num_queries());

  SuggestRequest request;
  request.frequencies = mix;
  auto suggested = advisor.Suggest(request, &ctx);
  if (!suggested.ok()) {
    std::cerr << "suggest error: " << suggested.status().ToString() << "\n";
    return 1;
  }
  rl::InferenceResult result = *suggested;

  PrintDesign(*schema, result.best_state);
  std::cerr << "estimated workload cost: " << result.best_cost << "s\n";

  double measured_seconds = -1.0;
  if (!options.common.metrics_json.empty()) {
    // Materialize a small cluster and measure the suggested design on it so
    // the exported metrics carry real engine counters, not just simulation.
    storage::GenerationConfig gen;
    gen.fraction = 1e-3;
    gen.small_table_threshold = 64;
    gen.seed = options.common.seed;
    engine::EngineConfig engine_config;
    engine_config.hardware = profile;
    engine_config.seed = options.common.seed;
    engine::ClusterDatabase cluster(
        storage::Database::Generate(*schema, workload, gen), engine_config,
        &cost_model);
    cluster.ApplyDesign(result.best_state);
    measured_seconds = cluster.ExecuteWorkload(workload);
    std::cerr << "measured workload runtime (materialized sample): "
              << measured_seconds << "s\n";
  }

  if (options.common.metrics || !options.common.metrics_json.empty()) {
    auto manifest = telemetry::RunManifest::Make("lpa_advise");
    manifest.seed = options.common.seed;
    manifest.engine_profile = options.common.profile;
    manifest.schema = options.ddl_path;
    manifest.Set("episodes", std::to_string(config.offline_episodes));
    manifest.Set("nodes", std::to_string(options.nodes));
    manifest.Set("threads", std::to_string(options.common.threads));
    auto& registry = telemetry::MetricsRegistry::Global();
    if (options.common.metrics) {
      std::cerr << "\n" << registry.ToTable();
    }
    if (!options.common.metrics_json.empty()) {
      telemetry::JsonWriter w;
      w.BeginObject();
      w.Key("estimated_cost_seconds").Number(result.best_cost);
      w.Key("measured_runtime_seconds").Number(measured_seconds);
      w.Key("design").BeginArray();
      for (schema::TableId t = 0; t < schema->num_tables(); ++t) {
        const auto& tp = result.best_state.table_partition(t);
        w.BeginObject().Key("table").String(schema->table(t).name);
        if (tp.replicated) {
          w.Key("replicated").Bool(true);
        } else {
          w.Key("replicated").Bool(false);
          w.Key("partition_column")
              .String(schema->table(t)
                          .columns[static_cast<size_t>(tp.column)]
                          .name);
        }
        w.EndObject();
      }
      w.EndArray().EndObject();
      Status st = registry.WriteJsonFile(options.common.metrics_json, manifest,
                                         w.str());
      if (!st.ok()) {
        std::cerr << "metrics write error: " << st.ToString() << "\n";
        return 1;
      }
      std::cerr << "wrote metrics to " << options.common.metrics_json << "\n";
    }
  }

  if (!options.save_path.empty()) {
    auto snapshot = advisor.Snapshot();
    if (!snapshot.ok()) {
      std::cerr << "snapshot save error: " << snapshot.status().ToString()
                << "\n";
      return 1;
    }
    std::ofstream out(options.save_path);
    out << *snapshot;
    if (!out.good()) {
      std::cerr << "cannot write " << options.save_path << "\n";
      return 1;
    }
    std::cerr << "saved agent snapshot to " << options.save_path << "\n";
  }

  // --- Closed-loop autopilot against the scripted drift scenario ----------
  if (options.autopilot.autopilot) {
    auto kind = options.autopilot.Kind();  // validated above
    autopilot::AutopilotConfig loop;
    loop.retrain.threads = options.common.threads;
    loop.retrain.seed = options.common.seed + 17;
    autopilot::ApplyScenarioOverrides(*kind, &loop);

    autopilot::Autopilot pilot(std::move(advisor), &cost_model, loop);
    serving::ModelRegistry registry;
    pilot.AddTarget(&registry);
    if (Status st = pilot.Start(mix); !st.ok()) {
      std::cerr << "autopilot start error: " << st.ToString() << "\n";
      return 1;
    }

    autopilot::ScenarioDriver driver(&pilot, *kind,
                                     options.common.seed + 23);
    const int ticks = options.autopilot.autopilot_ticks > 0
                          ? options.autopilot.autopilot_ticks
                          : driver.default_ticks();
    std::cerr << "autopilot: scenario " << autopilot::ScenarioName(*kind)
              << ", " << ticks << " tick(s)...\n";
    for (int t = 0; t < ticks; ++t) {
      auto outcome = driver.Step(&std::cerr);
      if (!outcome.ok()) {
        std::cerr << "autopilot tick error: " << outcome.status().ToString()
                  << "\n";
        return 1;
      }
    }
    const auto& counters = pilot.counters();
    std::cerr << "autopilot: " << driver.drift_events() << " drift event(s), "
              << counters.retrains << " retrain(s), " << counters.swaps
              << " swap(s), " << counters.rollbacks
              << " rollback(s); serving model v" << registry.current_version()
              << "; final deployed cost " << driver.deployed_cost() << "s\n";
    std::cout << "\n-- autopilot final deployed design --\n";
    PrintDesign(*schema, pilot.deployed_design());
  }
  return 0;
}
