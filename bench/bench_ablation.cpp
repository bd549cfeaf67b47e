// Ablations of the design choices DESIGN.md calls out:
//  1. Edge actions (Sec 3.2's co-partitioning shortcuts) on vs off.
//  2. Inference returning the best state on the trajectory vs the final
//     state (Sec 6).
// All on SSB / disk-based, where training is cheap.

#include <iostream>

#include "bench/bench_common.h"
#include "rl/offline_env.h"

namespace lpa::bench {
namespace {

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

void Main() {
  BenchReport report("ablation");
  report.set_seed(42);
  report.set_schema("ssb");
  report.set_engine_profile(EngineName(EngineKind::kDiskBased));
  Testbed tb = MakeTestbed("ssb", EngineKind::kDiskBased, DefaultFraction("ssb"));
  tb.workload->SetUniformFrequencies();
  const int m = tb.workload->num_queries();
  std::vector<double> uniform(static_cast<size_t>(m), 1.0);
  const int episodes = Scaled(400);

  // --- Ablation 1: edge actions --------------------------------------
  // Without edges the agent must reach co-partitionings through individual
  // per-table actions; the paper argues edges cut the exploration needed.
  {
    TablePrinter table({"episodes", "with edges (cost)", "without edges (cost)"});
    for (int budget : {episodes / 4, episodes / 2, episodes}) {
      std::vector<double> with_costs, without_costs;
      for (uint64_t seed = 1; seed <= 3; ++seed) {
        // With edges: the standard advisor.
        advisor::AdvisorConfig config;
        config.dqn.tmax = 16;
        config.offline_episodes = budget;
        config.dqn.FitEpsilonSchedule(budget);
        config.seed = seed;
        advisor::PartitioningAdvisor with_edges(tb.schema.get(), *tb.workload,
                                                config);
        with_edges.TrainOffline(tb.exact_model.get());
        with_costs.push_back(with_edges.Suggest(uniform).best_cost);

        // Without edges: an empty-workload edge extraction would still pick
        // up FK edges, so filter the action space by training against a
        // schema-only EdgeSet of size zero.
        workload::Workload no_join_wl;  // empty: no join equalities, no edges
        schema::Schema schema_copy = *tb.schema;
        // Drop FKs so EdgeSet::Extract finds nothing.
        schema::Schema bare("bare");
        for (const auto& t : schema_copy.tables()) bare.AddTable(t);
        advisor::PartitioningAdvisor no_edges(&bare, *tb.workload, config);
        rl::OfflineEnv env(tb.exact_model.get(), &no_edges.workload());
        no_edges.TrainOffline(tb.exact_model.get());
        without_costs.push_back(no_edges.Suggest(uniform).best_cost);
      }
      table.AddRow({std::to_string(budget), FormatDouble(Median(with_costs), 2),
                    FormatDouble(Median(without_costs), 2)});
    }
    report.Table(
        "Ablation 1: edge actions accelerate convergence (lower cost at "
        "equal budget is better)",
        table);
  }

  // --- Ablation 2: best-on-trajectory vs final-state inference -----------
  {
    auto advisor = TrainOfflineAdvisor(tb, 400, 16, 5);
    auto result = advisor->Suggest(uniform);
    // Re-derive the final state of the greedy rollout.
    auto state = tb.Initial();
    for (int action : result.actions) {
      LPA_CHECK(advisor->actions().Apply(action, &state).ok());
    }
    double final_cost =
        advisor->offline_env()->WorkloadCost(state, uniform);
    TablePrinter table({"inference rule", "suggested design cost"});
    table.AddRow({"best state on trajectory (Sec 6)",
                  FormatDouble(result.best_cost, 2)});
    table.AddRow({"final state of rollout", FormatDouble(final_cost, 2)});
    report.Table(
        "Ablation 2: the agent oscillates around the optimum; taking the "
        "best visited state is never worse",
        table);
  }
}

}  // namespace
}  // namespace lpa::bench

int main() { lpa::bench::Main(); }
