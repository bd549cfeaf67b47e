// Tests of the service-layer features around the core advisor: agent
// snapshots, the workload monitor / query classifier (Fig 1's "observed
// workload" loop), transition-cost-aware suggestions, and engine EXPLAIN.

#include <gtest/gtest.h>

#include <sstream>

#include "advisor/advisor.h"
#include "advisor/serialization.h"
#include "advisor/workload_monitor.h"
#include "engine/cluster.h"
#include "schema/catalogs.h"
#include "workload/benchmarks.h"

namespace lpa::advisor {
namespace {

using costmodel::HardwareProfile;

class FeaturesTest : public ::testing::Test {
 protected:
  FeaturesTest()
      : schema_(schema::MakeSsbSchema()),
        workload_(workload::MakeSsbWorkload(schema_)),
        model_(&schema_, HardwareProfile::DiskBased10G()) {}

  AdvisorConfig FastConfig() const {
    AdvisorConfig config;
    config.dqn.tmax = 10;
    config.offline_episodes = 60;
    config.dqn.FitEpsilonSchedule(config.offline_episodes);
    config.seed = 21;
    return config;
  }

  schema::Schema schema_;
  workload::Workload workload_;
  costmodel::CostModel model_;
};

TEST_F(FeaturesTest, AgentSnapshotRoundTrip) {
  PartitioningAdvisor advisor(&schema_, workload_, FastConfig());
  advisor.TrainOffline(&model_);
  std::vector<double> uniform(13, 1.0);
  auto before = advisor.Suggest(uniform);

  std::stringstream snapshot;
  ASSERT_TRUE(SaveAgentSnapshot(*advisor.agent(), snapshot).ok());

  // A fresh advisor (same schema/workload/config, untrained networks) loads
  // the snapshot and reproduces the suggestion.
  AdvisorConfig config = FastConfig();
  config.inference_extra_rollouts = 0;  // deterministic comparison
  PartitioningAdvisor restored(&schema_, workload_, config);
  ASSERT_TRUE(LoadAgentSnapshot(snapshot, restored.agent()).ok());
  // Give the restored advisor a simulation env (normally set by training).
  rl::OfflineEnv env(&model_, &restored.workload());
  auto after = restored.Suggest(uniform, &env);

  PartitioningAdvisor reference(&schema_, workload_, config);
  std::stringstream snapshot2;
  ASSERT_TRUE(advisor.agent()->Save(snapshot2).ok());
  ASSERT_TRUE(reference.agent()->Load(snapshot2).ok());
  rl::OfflineEnv env2(&model_, &reference.workload());
  auto again = reference.Suggest(uniform, &env2);
  EXPECT_EQ(after.best_state.PhysicalDesignKey(),
            again.best_state.PhysicalDesignKey());
  // The restored suggestion is at least as good as the design the trained
  // advisor picked with randomized rollouts was (greedy-only may differ
  // slightly but must stay in the same cost regime).
  EXPECT_LT(after.best_cost, before.best_cost * 1.3);
}

TEST_F(FeaturesTest, SnapshotRejectsMismatchedArchitecture) {
  PartitioningAdvisor advisor(&schema_, workload_, FastConfig());
  std::stringstream snapshot;
  ASSERT_TRUE(SaveAgentSnapshot(*advisor.agent(), snapshot).ok());

  // An advisor over a different schema must refuse the snapshot.
  schema::Schema other = schema::MakeTpcchSchema();
  workload::Workload other_wl = workload::MakeTpcchWorkload(other);
  PartitioningAdvisor mismatched(&other, other_wl, FastConfig());
  EXPECT_FALSE(LoadAgentSnapshot(snapshot, mismatched.agent()).ok());
}

TEST_F(FeaturesTest, SnapshotRejectsGarbage) {
  PartitioningAdvisor advisor(&schema_, workload_, FastConfig());
  std::stringstream garbage("not a snapshot");
  EXPECT_FALSE(LoadAgentSnapshot(garbage, advisor.agent()).ok());
}

TEST_F(FeaturesTest, SnapshotCarriesVersionedHeader) {
  PartitioningAdvisor advisor(&schema_, workload_, FastConfig());
  std::stringstream snapshot;
  ASSERT_TRUE(SaveAgentSnapshot(*advisor.agent(), snapshot).ok());

  // The stream leads with the magic word and the current format version.
  std::string magic;
  int version = -1;
  snapshot >> magic >> version;
  EXPECT_EQ(magic, kSnapshotMagic);
  EXPECT_EQ(version, kSnapshotFormatVersion);

  // And a full rewind still loads.
  snapshot.seekg(0);
  PartitioningAdvisor restored(&schema_, workload_, FastConfig());
  EXPECT_TRUE(LoadAgentSnapshot(snapshot, restored.agent()).ok());
}

TEST_F(FeaturesTest, SnapshotLoadsLegacyHeaderlessStream) {
  PartitioningAdvisor advisor(&schema_, workload_, FastConfig());
  // Pre-versioning snapshots were a bare agent dump ("dqn-agent ...").
  std::stringstream legacy;
  ASSERT_TRUE(advisor.agent()->Save(legacy).ok());
  PartitioningAdvisor restored(&schema_, workload_, FastConfig());
  EXPECT_TRUE(LoadAgentSnapshot(legacy, restored.agent()).ok());
}

TEST_F(FeaturesTest, SnapshotRejectsTruncatedStream) {
  PartitioningAdvisor advisor(&schema_, workload_, FastConfig());
  std::stringstream snapshot;
  ASSERT_TRUE(SaveAgentSnapshot(*advisor.agent(), snapshot).ok());
  std::string bytes = snapshot.str();
  std::stringstream truncated(bytes.substr(0, bytes.size() / 2));
  PartitioningAdvisor restored(&schema_, workload_, FastConfig());
  EXPECT_FALSE(LoadAgentSnapshot(truncated, restored.agent()).ok());
}

TEST_F(FeaturesTest, SnapshotRejectsUnsupportedFormatVersion) {
  PartitioningAdvisor advisor(&schema_, workload_, FastConfig());
  std::stringstream future(std::string(kSnapshotMagic) + " 99\nwhatever");
  Status status = LoadAgentSnapshot(future, advisor.agent());
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("version"), std::string::npos);
}

TEST_F(FeaturesTest, SnapshotRejectsMalformedNetworkHeaders) {
  // Network headers of a corrupt snapshot: a negative input width, a
  // negative hidden width and an absurd hidden-layer count. Each is refused
  // with InvalidArgument before the network is built, and the process (and
  // the agent) carry on.
  PartitioningAdvisor advisor(&schema_, workload_, FastConfig());
  for (const char* header :
       {"mlp -5 1 4 2 42", "mlp 3 1 -4 2 42", "mlp 3 4000000000000"}) {
    std::stringstream snapshot(std::string(kSnapshotMagic) +
                               " 1\ndqn-agent 0.5\n" + header + " 0 0 0\n");
    const Status status = LoadAgentSnapshot(snapshot, advisor.agent());
    EXPECT_EQ(status.code(), Status::Code::kInvalidArgument)
        << header << ": " << status.ToString();
    EXPECT_NE(status.message().find("mlp header"), std::string::npos)
        << header << ": " << status.ToString();
  }
  std::stringstream snapshot;
  ASSERT_TRUE(SaveAgentSnapshot(*advisor.agent(), snapshot).ok());
  EXPECT_TRUE(LoadAgentSnapshot(snapshot, advisor.agent()).ok());
}

TEST_F(FeaturesTest, SnapshotRefusesDivergedAgent) {
  // Adam moves each weight by about the learning rate per step, so this one
  // overflows the Q-network. Its snapshot is refused when taken, instead of
  // being written as one that no load would accept.
  AdvisorConfig config = FastConfig();
  config.dqn.learning_rate = 1e300;
  config.offline_episodes = 8;
  PartitioningAdvisor advisor(&schema_, workload_, config);
  advisor.TrainOffline(&model_);
  std::stringstream snapshot;
  const Status status = SaveAgentSnapshot(*advisor.agent(), snapshot);
  EXPECT_EQ(status.code(), Status::Code::kFailedPrecondition)
      << status.ToString();
  EXPECT_NE(status.message().find("non-finite weight"), std::string::npos)
      << status.ToString();
}

TEST_F(FeaturesTest, SnapshotRejectsEmptyStream) {
  PartitioningAdvisor advisor(&schema_, workload_, FastConfig());
  std::stringstream empty;
  EXPECT_FALSE(LoadAgentSnapshot(empty, advisor.agent()).ok());
}

TEST_F(FeaturesTest, ClassifierMatchesParameterizedInstances) {
  QueryClassifier classifier(&workload_);
  // A re-parameterized q1.1 (different selectivities, same structure) must
  // land in flight 1 — specifically the bucket with the closest profile.
  workload::QuerySpec instance = workload_.query(0);  // q1.1
  instance.name = "q1.1-new-params";
  instance.scans[0].selectivity = 0.13;  // near q1.1's 0.14
  instance.scans[1].selectivity = 1.0 / 7.5;
  EXPECT_EQ(classifier.Classify(instance), 0);

  // Sharpened parameters closest to q1.3's profile route there instead.
  instance.scans[0].selectivity = 0.019;
  instance.scans[1].selectivity = 1.0 / 380;
  EXPECT_EQ(classifier.Classify(instance), 2);
}

TEST_F(FeaturesTest, ClassifierRejectsUnknownStructures) {
  QueryClassifier classifier(&workload_);
  // customer-supplier join: no SSB query has this shape.
  workload::QuerySpec unknown;
  unknown.name = "unknown";
  unknown.scans = {workload::TableScan{schema_.TableIndex("customer"), 1.0},
                   workload::TableScan{schema_.TableIndex("supplier"), 1.0}};
  workload::JoinPredicate join;
  join.equalities.push_back(workload::JoinEquality{
      *schema_.Resolve("customer", "c_custkey"),
      *schema_.Resolve("supplier", "s_suppkey")});
  unknown.joins.push_back(join);
  EXPECT_EQ(classifier.Classify(unknown), -1);
}

TEST_F(FeaturesTest, MonitorTracksMixAndStaleness) {
  MonitorConfig config;
  config.decay = 1.0;  // plain counting for a deterministic test
  config.retrigger_threshold = 0.5;
  WorkloadMonitor monitor(&workload_, config);
  EXPECT_FALSE(monitor.SuggestionStale());  // nothing observed yet

  for (int i = 0; i < 8; ++i) monitor.ObserveSlot(0);
  for (int i = 0; i < 4; ++i) monitor.ObserveSlot(5);
  auto freqs = monitor.CurrentFrequencies();
  EXPECT_DOUBLE_EQ(freqs[0], 1.0);
  EXPECT_DOUBLE_EQ(freqs[5], 0.5);
  EXPECT_TRUE(monitor.SuggestionStale());  // never suggested
  monitor.MarkSuggested();
  EXPECT_FALSE(monitor.SuggestionStale());

  // Shift the mix decisively: staleness triggers.
  for (int i = 0; i < 60; ++i) monitor.ObserveSlot(9);
  EXPECT_TRUE(monitor.SuggestionStale());
}

TEST_F(FeaturesTest, MonitorCountsUnknownQueries) {
  WorkloadMonitor monitor(&workload_, MonitorConfig{});
  workload::QuerySpec unknown;
  unknown.name = "u";
  unknown.scans = {workload::TableScan{schema_.TableIndex("customer"), 1.0}};
  EXPECT_EQ(monitor.Observe(unknown), -1);
  EXPECT_EQ(monitor.unknown_queries(), 1u);
  EXPECT_GE(monitor.Observe(workload_.query(3)), 0);
  EXPECT_EQ(monitor.observations(), 2u);
}

TEST_F(FeaturesTest, MonitorDecayForgetsOldMixes) {
  MonitorConfig config;
  config.decay = 0.5;  // aggressive for the test
  WorkloadMonitor monitor(&workload_, config);
  for (int i = 0; i < 10; ++i) monitor.ObserveSlot(0);
  for (int i = 0; i < 10; ++i) monitor.ObserveSlot(1);
  auto freqs = monitor.CurrentFrequencies();
  EXPECT_DOUBLE_EQ(freqs[1], 1.0);
  EXPECT_LT(freqs[0], 0.01);  // ten halvings later, slot 0 is noise
}

TEST_F(FeaturesTest, TransitionCostAwareSuggestPrefersCheapMoves) {
  PartitioningAdvisor advisor(&schema_, workload_, FastConfig());
  advisor.TrainOffline(&model_);
  std::vector<double> uniform(13, 1.0);
  auto unconstrained = advisor.Suggest(uniform);

  // With an enormous transition weight, staying at the current design is
  // optimal: the suggestion must equal the deployed design.
  auto current = partition::PartitioningState::Initial(&schema_, &advisor.edges());
  auto pinned =
      advisor.SuggestWithTransitionCost(uniform, current, 1e9, &model_);
  EXPECT_TRUE(pinned.best_state.SameDesign(current));

  // With zero weight it reduces to the plain objective.
  auto free = advisor.SuggestWithTransitionCost(uniform, current, 0.0, &model_);
  EXPECT_LE(free.best_cost, unconstrained.best_cost * 1.2);
}

TEST_F(FeaturesTest, EngineExplainRendersPlanAndMeasurement) {
  storage::GenerationConfig gen;
  gen.fraction = 1e-4;
  gen.small_table_threshold = 64;
  gen.seed = 3;
  engine::EngineConfig config;
  config.hardware = HardwareProfile::DiskBased10G();
  config.seed = 3;
  engine::ClusterDatabase cluster(
      storage::Database::Generate(schema_, workload_, gen), config, &model_);
  auto edges = partition::EdgeSet::Extract(schema_, workload_);
  cluster.ApplyDesign(partition::PartitioningState::Initial(&schema_, &edges));
  std::string text = cluster.Explain(workload_.query(6));  // q3.1
  EXPECT_NE(text.find("EXPLAIN q3.1"), std::string::npos);
  EXPECT_NE(text.find("scan lineorder"), std::string::npos);
  EXPECT_NE(text.find("measured:"), std::string::npos);
  EXPECT_NE(text.find("bytes shuffled"), std::string::npos);
}

}  // namespace
}  // namespace lpa::advisor
