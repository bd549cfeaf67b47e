// Entry point of the repository benchmark; perfbench/run.py builds and runs
// it.
//
//   perfbench --workload design_tpcch|refine_tpcch|serve_ssb --seed N
//             --seconds S --trace 0|1
//   perfbench --selftest
//
// Prints the run's manifest and facts as text, then one JSON line:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// Exits 1 when an output check failed, 2 on bad usage.

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/perfbench.h"
#include "perfbench/traced_envs.h"
#include "partition/actions.h"
#include "telemetry/registry.h"
#include "util/stats.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace lpa::perfbench {

namespace {

bool Bits(double a, double b) { return std::memcmp(&a, &b, sizeof(a)) == 0; }

/// The percentile helper must be exact on a sample whose quantiles are
/// known in closed form.
void TestPercentiles(Report* r) {
  std::vector<double> ramp;
  for (int i = 100; i >= 0; --i) ramp.push_back(i);  // 0..100, unsorted
  r->Check(Quantile(ramp, 0.5) == 50.0, "p50 of 0..100 is not 50");
  r->Check(Quantile(ramp, 0.95) == 95.0, "p95 of 0..100 is not 95");
  r->Check(Quantile(ramp, 0.99) == 99.0, "p99 of 0..100 is not 99");
  r->Check(Quantile({4.0, 1.0, 3.0, 2.0}, 0.5) == 2.5,
           "p50 of {1,2,3,4} does not interpolate to 2.5");
  r->Check(Median({7.0}) == 7.0, "median of one sample");
}

/// The decorators must return bit-identical costs to the environments they
/// wrap: a seeded random walk over designs prices every state through a
/// decorated and a bare environment built from the same inputs.
void TestDecorators(Report* r) {
  constexpr uint64_t kSeed = 5;
  std::optional<storage::Database> sample_a, sample_b;
  TimedTestbed a = BuildTestbed("ssb", bench::EngineKind::kInMemory, kSeed,
                                &sample_a);
  TimedTestbed b = BuildTestbed("ssb", bench::EngineKind::kInMemory, kSeed,
                                &sample_b);
  const bench::Testbed& tb = a.tb;
  engine::EngineConfig config;
  config.hardware = bench::ProfileFor(bench::EngineKind::kInMemory);
  engine::ClusterDatabase cluster_a(std::move(*sample_a), config,
                                    a.tb.planner_model.get());
  engine::ClusterDatabase cluster_b(std::move(*sample_b), config,
                                    b.tb.planner_model.get());

  rl::OfflineEnv offline_inner(tb.exact_model.get(), tb.workload.get());
  rl::OfflineEnv offline_bare(tb.exact_model.get(), tb.workload.get());
  CostLayer layer;
  TimedCostEnv offline_timed(&offline_inner, &layer);
  rl::OnlineEnv online_inner(&cluster_a, a.tb.workload.get(), {}, {});
  rl::OnlineEnv online_bare(&cluster_b, b.tb.workload.get(), {}, {});
  TimedOnlineEnv online_timed(&online_inner);

  partition::ActionSpace actions(tb.schema.get(), tb.edges.get());
  partition::PartitioningState state = tb.Initial();
  Rng rng(kSeed);
  const int num_queries = tb.workload->num_queries();
  for (int step = 0; step < 40; ++step) {
    std::vector<int> legal = actions.LegalActions(state);
    int action = legal[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(legal.size()) - 1))];
    r->Check(actions.Apply(action, &state).ok(), "random walk: illegal action");
    std::vector<double> mix =
        workload::SampleUniformFrequencies(num_queries, &rng);
    for (int j = 0; j < num_queries; ++j) {
      r->Check(Bits(offline_timed.QueryCost(j, state, 1.0),
                    offline_bare.QueryCost(j, state, 1.0)),
               "TimedCostEnv::QueryCost differs from OfflineEnv's");
    }
    r->Check(Bits(offline_timed.WorkloadCost(state, mix),
                  offline_bare.WorkloadCost(state, mix)),
             "TimedCostEnv::WorkloadCost differs from OfflineEnv's");
    r->Check(Bits(online_timed.WorkloadCost(state, mix),
                  online_bare.WorkloadCost(state, mix)),
             "TimedOnlineEnv::WorkloadCost differs from OnlineEnv's");
  }
  r->Check(layer.plans + layer.hits > 0 && layer.plans > 0,
           "the cost layer booked no plans");
  r->Check(Bits(online_inner.accounting().total_seconds(),
                online_bare.accounting().total_seconds()),
           "the decorated online env ran a different cluster schedule");
}

void PrintJson(const Report& r) {
  telemetry::JsonWriter w;
  w.BeginObject();
  w.Key("correct").Bool(r.correct());
  w.Key("attempted").Number(r.attempted);
  w.Key("failed").Number(r.failed);
  w.Key("metrics").BeginObject();
  for (const Metric& m : r.metrics) {
    w.Key(m.name).BeginObject();
    w.Key("value").Number(m.value);
    w.Key("unit").String(m.unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  std::cout << w.str() << std::endl;
}

int Usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --workload design_tpcch|refine_tpcch|serve_ssb --seed N"
               " --seconds S --trace 0|1\n       "
            << argv0 << " --selftest\n";
  return 2;
}

int Main(int argc, char** argv) {
  Options o;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      selftest = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(argv[0]);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (!(o.seconds > 0.0)) return Usage(argv[0]);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage(argv[0]);
      o.trace = value == "1";
    } else {
      return Usage(argv[0]);
    }
    if (end != nullptr && *end != '\0') return Usage(argv[0]);
  }

  std::cout << "manifest nproc=" << std::thread::hardware_concurrency()
            << " compiler=\"" << PERFBENCH_COMPILER << "\" build_type="
            << PERFBENCH_BUILD_TYPE << " workload=" << o.workload
            << " seed=" << o.seed << " seconds=" << o.seconds
            << " trace=" << (o.trace ? 1 : 0) << "\n";
  Report r;
  if (selftest) {
    TestPercentiles(&r);
    TestDecorators(&r);
    r.attempted = 1;
  } else if (o.workload == "design_tpcch") {
    r = RunDesignTpcch(o);
  } else if (o.workload == "refine_tpcch") {
    r = RunRefineTpcch(o);
  } else if (o.workload == "serve_ssb") {
    r = RunServeSsb(o);
  } else {
    return Usage(argv[0]);
  }
  for (const auto& [key, value] : r.facts) {
    std::cout << "fact " << key << "=" << value << "\n";
  }
  for (const std::string& failure : r.failures) {
    std::cerr << "CHECK FAILED: " << failure << "\n";
  }
  if (!r.correct()) r.failed = r.attempted;
  PrintJson(r);
  return r.correct() ? 0 : 1;
}

}  // namespace

}  // namespace lpa::perfbench

int main(int argc, char** argv) { return lpa::perfbench::Main(argc, argv); }
