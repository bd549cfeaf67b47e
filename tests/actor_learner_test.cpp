// Tests for the actor/learner training rounds:
//  - ReplayBuffer ring eviction and sampling at capacity boundaries.
//  - TrainActorLearner digests (episode rewards and final weights)
//    bit-identical at 1/2/8 threads for a fixed slot count.
//  - AdvisorHandle TrainSpec actor-count routing and validation.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "advisor/advisor.h"
#include "advisor/advisor_handle.h"
#include "advisor/serialization.h"
#include "costmodel/cost_model.h"
#include "rl/replay.h"
#include "schema/catalogs.h"
#include "util/eval_context.h"
#include "workload/benchmarks.h"

namespace lpa::rl {
namespace {

using advisor::AdvisorConfig;
using advisor::PartitioningAdvisor;
using costmodel::HardwareProfile;

AdvisorConfig FastConfig() {
  AdvisorConfig config;
  config.dqn.tmax = 8;
  config.offline_episodes = 16;
  config.dqn.FitEpsilonSchedule(config.offline_episodes);
  config.inference_extra_rollouts = 0;
  config.seed = 11;
  return config;
}

Transition MakeTransition(int action_id) {
  Transition t;
  t.state_enc = {static_cast<double>(action_id), 1.0};
  t.action_id = action_id;
  t.reward = 0.5 * action_id;
  t.next_enc = {static_cast<double>(action_id) + 1.0, 1.0};
  t.next_legal = {0, action_id};
  return t;
}

// ---------------------------------------------------------------------------
// ReplayBuffer: ring eviction and sampling at capacity boundaries

TEST(ReplayBufferTest, FillsToCapacityThenEvictsOldest) {
  ReplayBuffer buffer(4);
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_EQ(buffer.capacity(), 4u);

  for (int i = 0; i < 4; ++i) buffer.Add(MakeTransition(i));
  EXPECT_EQ(buffer.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(buffer.at(i).action_id, static_cast<int>(i));
  }

  // One past capacity: the oldest transition (action 0) is overwritten in
  // place; size stays pinned at capacity.
  buffer.Add(MakeTransition(4));
  EXPECT_EQ(buffer.size(), 4u);
  EXPECT_EQ(buffer.at(0).action_id, 4);
  EXPECT_EQ(buffer.at(1).action_id, 1);

  // A full extra lap overwrites every slot again.
  for (int i = 5; i < 9; ++i) buffer.Add(MakeTransition(i));
  EXPECT_EQ(buffer.size(), 4u);
  std::vector<int> stored;
  for (size_t i = 0; i < buffer.size(); ++i) {
    stored.push_back(buffer.at(i).action_id);
  }
  EXPECT_EQ(stored, (std::vector<int>{8, 5, 6, 7}));
}

TEST(ReplayBufferTest, SampleAtExactCapacityBoundary) {
  ReplayBuffer buffer(3);
  for (int i = 0; i < 3; ++i) buffer.Add(MakeTransition(i));

  Rng rng(42);
  // Sampling is with replacement, so counts beyond size are legal.
  std::vector<size_t> sample = buffer.Sample(10, &rng);
  ASSERT_EQ(sample.size(), 10u);
  for (size_t row : sample) {
    ASSERT_LT(row, buffer.size());
    EXPECT_GE(buffer.at(row).action_id, 0);
    EXPECT_LT(buffer.at(row).action_id, 3);
  }

  // Seeded sampling is deterministic.
  Rng rng_a(7), rng_b(7);
  std::vector<size_t> a = buffer.Sample(6, &rng_a);
  std::vector<size_t> b = buffer.Sample(6, &rng_b);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(buffer.at(a[i]).action_id, buffer.at(b[i]).action_id);
  }
}

// ---------------------------------------------------------------------------
// TrainActorLearner: deterministic digests across thread counts

class ActorLearnerTrainingTest : public ::testing::Test {
 protected:
  struct Digest {
    std::vector<double> rewards;
    std::string weights;
    size_t train_steps = 0;
  };

  static Digest Train(int threads, int num_actors = 8) {
    schema::Schema schema = schema::MakeMicroSchema();
    workload::Workload workload = workload::MakeMicroWorkload(schema);
    costmodel::CostModel model(&schema, HardwareProfile::DiskBased10G());
    PartitioningAdvisor advisor(&schema, workload, FastConfig());
    EvalContext ctx(threads, /*seed=*/99);
    TrainingResult result = advisor.TrainOffline(&model, num_actors,
                                                 /*sampler=*/nullptr, &ctx);
    Digest digest;
    digest.rewards = result.episode_best_rewards;
    digest.train_steps = result.train_steps;
    std::ostringstream snapshot;
    EXPECT_TRUE(advisor::SaveAgentSnapshot(*advisor.agent(), snapshot).ok());
    digest.weights = snapshot.str();
    return digest;
  }
};

TEST_F(ActorLearnerTrainingTest, DeterministicModeBitIdenticalAcrossThreads) {
  Digest base = Train(1);
  ASSERT_EQ(base.rewards.size(), 16u);
  EXPECT_GT(base.train_steps, 0u);
  for (int threads : {2, 8}) {
    Digest other = Train(threads);
    EXPECT_EQ(other.rewards, base.rewards)
        << "episode rewards diverged at " << threads << " threads";
    EXPECT_EQ(other.weights, base.weights)
        << "final weights diverged at " << threads << " threads";
    EXPECT_EQ(other.train_steps, base.train_steps);
  }
}

TEST_F(ActorLearnerTrainingTest, DeterministicModeRepeatableAtFixedThreads) {
  Digest a = Train(2);
  Digest b = Train(2);
  EXPECT_EQ(a.rewards, b.rewards);
  EXPECT_EQ(a.weights, b.weights);
}

TEST_F(ActorLearnerTrainingTest, DigestsDependOnSlotCountNotThreads) {
  // Different logical slot counts are different (equally valid) trainings.
  Digest eight = Train(1, 8);
  Digest four = Train(1, 4);
  EXPECT_EQ(eight.rewards.size(), four.rewards.size());
  EXPECT_NE(eight.weights, four.weights);
}

TEST_F(ActorLearnerTrainingTest, SingleActorSingleThreadWorks) {
  Digest one = Train(1, 1);
  EXPECT_EQ(one.rewards.size(), 16u);
  EXPECT_GT(one.train_steps, 0u);
}

// ---------------------------------------------------------------------------
// AdvisorHandle: TrainSpec actor plumbing

class HandleActorsTest : public ::testing::Test {
 protected:
  HandleActorsTest()
      : schema_(schema::MakeMicroSchema()),
        workload_(workload::MakeMicroWorkload(schema_)),
        model_(&schema_, HardwareProfile::DiskBased10G()),
        handle_(&schema_, workload_, FastConfig()) {}

  schema::Schema schema_;
  workload::Workload workload_;
  costmodel::CostModel model_;
  advisor::AdvisorHandle handle_;
};

TEST_F(HandleActorsTest, OfflineActorsTrainsThroughPipeline) {
  advisor::TrainSpec spec;
  spec.cost_model = &model_;
  spec.actors = 4;
  spec.episodes = 8;
  EvalContext ctx(1, 5);
  Result<TrainingResult> result = handle_.Train(spec, &ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().episode_best_rewards.size(), 8u);
  EXPECT_GT(result.value().train_steps, 0u);
  EXPECT_TRUE(handle_.ready());
}

TEST_F(HandleActorsTest, RejectsZeroActors) {
  advisor::TrainSpec spec;
  spec.cost_model = &model_;
  spec.actors = 0;
  Result<TrainingResult> result = handle_.Train(spec);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kInvalidArgument);
}

TEST_F(HandleActorsTest, RejectsActorsOutsideOfflinePhase) {
  for (auto phase : {advisor::TrainSpec::Phase::kOnline,
                     advisor::TrainSpec::Phase::kIncremental}) {
    advisor::TrainSpec spec;
    spec.phase = phase;
    spec.actors = 2;
    Result<TrainingResult> result = handle_.Train(spec);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), Status::Code::kInvalidArgument);
  }
}

}  // namespace
}  // namespace lpa::rl
