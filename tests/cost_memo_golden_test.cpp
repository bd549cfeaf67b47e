// Golden test of the callers that price whole workloads through the query
// cost memo. It pins the bits of
//  - serial EpisodeTrainer::Train: every episode's best reward and the final
//    agent snapshot, on TPC-CH with a 4-thread EvalContext and on SSB with
//    one thread;
//  - TrainActorLearner at 4 slots (SSB, 4 threads) and at 8 slots (TPC-CH,
//    4 threads);
//  - MinimizeOptimizerCost: the chosen design and its cost under the
//    estimator, on SSB and TPC-CH;
//  - ObservedMixCost, and one RetrainController holdout gate's candidate and
//    incumbent costs, then the probation window its swap opens (with a
//    cost-model update in the middle).
// A workload total is a frequency-weighted sum over queries in query order;
// any change to how it is reduced, or to which cost a query gets, moves a
// digest here.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "advisor/advisor.h"
#include "advisor/advisor_handle.h"
#include "advisor/serialization.h"
#include "autopilot/retrain_controller.h"
#include "autopilot/scenario_driver.h"
#include "baselines/optimizer_designer.h"
#include "costmodel/cost_model.h"
#include "costmodel/noisy_model.h"
#include "schema/catalogs.h"
#include "util/eval_context.h"
#include "util/hash.h"
#include "util/rng.h"
#include "workload/benchmarks.h"

namespace lpa {
namespace {

using costmodel::HardwareProfile;
using partition::PartitioningState;

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string Bits(double v) { return Hex(std::bit_cast<uint64_t>(v)); }

std::string DigestValues(const std::vector<double>& values) {
  uint64_t h = HashCombine(0, values.size());
  for (double v : values) h = HashCombine(h, std::bit_cast<uint64_t>(v));
  return Hex(h);
}

std::string SnapshotDigest(const rl::DqnAgent& agent) {
  std::ostringstream snapshot;
  EXPECT_TRUE(advisor::SaveAgentSnapshot(agent, snapshot).ok());
  return Hex(HashString(snapshot.str()));
}

struct Bench {
  explicit Bench(const std::string& name)
      : schema(name == "ssb" ? schema::MakeSsbSchema()
                             : schema::MakeTpcchSchema()),
        workload(name == "ssb" ? workload::MakeSsbWorkload(schema)
                               : workload::MakeTpcchWorkload(schema)),
        edges(partition::EdgeSet::Extract(schema, workload)),
        model(&schema, HardwareProfile::DiskBased10G()) {}

  schema::Schema schema;
  workload::Workload workload;
  partition::EdgeSet edges;
  costmodel::CostModel model;
};

advisor::AdvisorConfig TrainConfig(int tmax) {
  advisor::AdvisorConfig config;
  config.dqn.tmax = tmax;
  config.offline_episodes = 16;
  config.dqn.FitEpsilonSchedule(config.offline_episodes);
  config.seed = 31;
  return config;
}

/// "rewards=<digest> weights=<digest> steps=<n>" of one offline training run.
std::string TrainRecord(const std::string& name, int tmax, int threads,
                        int actors) {
  Bench b(name);
  advisor::PartitioningAdvisor advisor(&b.schema, b.workload,
                                       TrainConfig(tmax));
  EvalContext ctx(threads, /*seed=*/4242);
  rl::TrainingResult result;
  if (actors > 0) {
    result = advisor.TrainOffline(&b.model, actors, nullptr, &ctx);
  } else {
    result = advisor.TrainOffline(&b.model, nullptr, &ctx);
  }
  return "rewards=" + DigestValues(result.episode_best_rewards) +
         " norm=" + Bits(result.normalization) +
         " weights=" + SnapshotDigest(*advisor.agent()) +
         " steps=" + std::to_string(result.steps);
}

TEST(CostMemoGoldenTest, TrainTpcchOnFourThreads) {
  EXPECT_EQ(TrainRecord("tpcch", 14, 4, 0),
            "rewards=ee1383756acf1c0d norm=404055007535f6c0 "
            "weights=1ffd98925557bf6b steps=224");
}

TEST(CostMemoGoldenTest, TrainSsbSerial) {
  EXPECT_EQ(TrainRecord("ssb", 10, 1, 0),
            "rewards=729183383634a26c norm=406b73c1f4606414 "
            "weights=9dcfd724be158008 steps=160");
}

TEST(CostMemoGoldenTest, ActorLearnerSsbFourSlots) {
  EXPECT_EQ(TrainRecord("ssb", 10, 4, 4),
            "rewards=bba7d2c6febebf98 norm=406b73c1f4606414 "
            "weights=1eec48a2a7fd54fa steps=160");
}

// More slots than the context has threads: a round's slots queue on the pool.
TEST(CostMemoGoldenTest, ActorLearnerTpcchEightSlots) {
  EXPECT_EQ(TrainRecord("tpcch", 14, 4, 8),
            "rewards=6e0c77907e694481 norm=404055007535f6c0 "
            "weights=8e9047e8723679bd steps=224");
}

/// "fp=<design fingerprint> cost=<bits>" of the Minimum-Optimizer's design;
/// the cost is a plain query-order sum under the estimator.
std::string OptimizerRecord(const std::string& name) {
  Bench b(name);
  costmodel::NoisyOptimizerModel estimator(&b.schema,
                                           HardwareProfile::DiskBased10G());
  baselines::OptimizerDesignerConfig config;
  config.random_restarts = 2;
  PartitioningState design = baselines::MinimizeOptimizerCost(
      b.schema, b.workload, b.edges, estimator, config);
  const auto& freqs = b.workload.frequencies();
  double cost = 0.0;
  for (int j = 0; j < b.workload.num_queries(); ++j) {
    double f = freqs[static_cast<size_t>(j)];
    if (f <= 0.0) continue;
    cost += f * estimator.QueryCost(b.workload.query(j), design);
  }
  return "fp=" + Hex(design.DesignFingerprint()) + " cost=" + Bits(cost);
}

TEST(CostMemoGoldenTest, MinimizeOptimizerCostSsb) {
  EXPECT_EQ(OptimizerRecord("ssb"),
            "fp=5844eae7105c46fd cost=405649652ec231a9");
}

TEST(CostMemoGoldenTest, MinimizeOptimizerCostTpcch) {
  EXPECT_EQ(OptimizerRecord("tpcch"),
            "fp=12ac9531f680a657 cost=4034219a50641026");
}

TEST(CostMemoGoldenTest, ObservedMixCost) {
  Bench b("tpcch");
  Rng rng(808);
  std::vector<std::string> bits;
  PartitioningState design = PartitioningState::Initial(&b.schema, &b.edges);
  for (int i = 0; i < 3; ++i) {
    // A mix narrower than the workload is zero-padded; negative entries
    // count as zero.
    std::vector<double> mix = workload::SampleUniformFrequencies(
        b.workload.num_queries() - i, &rng);
    if (i == 2) mix[0] = -1.0;
    bits.push_back(Bits(
        autopilot::ObservedMixCost(&b.model, &b.workload, design, mix)));
    ASSERT_TRUE(design.Replicate(static_cast<schema::TableId>(i + 7)).ok());
  }
  EXPECT_EQ(bits[0] + " " + bits[1] + " " + bits[2],
            "3ff4393bb8cba4e9 3ffafb7141ad9b9e 4001953157d7faea");
}

/// Every cost the controller's gate and probation window report, as bits.
TEST(CostMemoGoldenTest, RetrainControllerGateAndProbation) {
  schema::Schema schema = schema::MakeMicroSchema();
  workload::Workload workload = workload::MakeMicroWorkload(schema);
  costmodel::CostModel model(&schema, HardwareProfile::DiskBased10G());
  HardwareProfile contended_profile = HardwareProfile::DiskBased10G();
  contended_profile.scan_bytes_per_sec *= 0.5;
  contended_profile.shuffle_bytes_per_sec *= 0.5;
  costmodel::CostModel contended(&schema, contended_profile);

  advisor::AdvisorConfig config;
  config.dqn.tmax = 8;
  config.offline_episodes = 24;
  config.dqn.FitEpsilonSchedule(config.offline_episodes);
  config.inference_extra_rollouts = 0;
  config.seed = 7;
  advisor::AdvisorHandle incumbent(&schema, workload, config);
  ASSERT_TRUE(incumbent.Train(advisor::TrainSpec::Offline(&model)).ok());

  const int m = workload.num_queries();
  std::vector<double> day(static_cast<size_t>(m), 0.05);
  day[0] = 1.0;
  std::vector<double> night(static_cast<size_t>(m), 0.05);
  night[static_cast<size_t>(m - 1)] = 1.0;

  autopilot::RetrainConfig rc;
  rc.episodes = 16;
  rc.validation_gate = false;  // swap, so that probation opens
  rc.probation_ticks = 3;
  rc.seed = 11;
  autopilot::RetrainController controller(std::move(incumbent), &model, rc);
  ASSERT_TRUE(controller.Deploy(day).ok());

  autopilot::DriftVerdict verdict;
  verdict.kind = autopilot::DriftKind::kMixShift;
  verdict.magnitude = 0.5;
  std::vector<std::vector<double>> holdout = {day, night, night};
  auto gate = controller.HandleDrift(verdict, holdout, night);
  ASSERT_TRUE(gate.ok()) << gate.status().ToString();
  std::string record = std::string(autopilot::TickActionName(gate->action)) +
                       " gate=" + Bits(gate->candidate_cost) + "/" +
                       Bits(gate->incumbent_cost);

  ASSERT_TRUE(controller.in_probation());
  EXPECT_FALSE(controller.StepProbation(night).has_value());
  controller.UpdateCostModel(&contended);
  EXPECT_FALSE(controller.StepProbation(day).has_value());
  auto closed = controller.StepProbation(night);
  ASSERT_TRUE(closed.has_value());
  record += std::string(" ") + autopilot::TickActionName(closed->action) +
            " probation=" + Bits(closed->candidate_cost) + "/" +
            Bits(closed->incumbent_cost);
  EXPECT_EQ(record,
            "swapped gate=401d24b958e7cb4c/4038fee3f5ca44d4 "
            "none probation=4025274c10b23185/4042adc53c98c7cd");
}

}  // namespace
}  // namespace lpa
