// Tests for the actor/learner training pipeline (PR 9):
//  - ReplayBuffer ring eviction and sampling at capacity boundaries.
//  - ReplayShard SPSC push/pop semantics.
//  - ShardedReplayBuffer deterministic merge order (exact transition
//    sequences at 1/2/8 shards).
//  - TrainActorLearner deterministic-mode digests (episode rewards and
//    final weights) bit-identical at 1/2/8 threads for a fixed slot count.
//  - Fast mode end-to-end completion.
//  - AdvisorHandle TrainSpec actor-count routing and validation.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <thread>
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
// ReplayShard: SPSC ring semantics

TEST(ReplayShardTest, TryPushFailsWhenFullTryPopFailsWhenEmpty) {
  ReplayShard shard(2);
  Transition out;
  EXPECT_FALSE(shard.TryPop(&out));
  EXPECT_EQ(shard.size(), 0u);

  EXPECT_TRUE(shard.TryPush(MakeTransition(0)));
  EXPECT_TRUE(shard.TryPush(MakeTransition(1)));
  EXPECT_FALSE(shard.TryPush(MakeTransition(2)));  // full
  EXPECT_EQ(shard.size(), 2u);

  ASSERT_TRUE(shard.TryPop(&out));
  EXPECT_EQ(out.action_id, 0);  // FIFO
  EXPECT_TRUE(shard.TryPush(MakeTransition(2)));  // space freed
  ASSERT_TRUE(shard.TryPop(&out));
  EXPECT_EQ(out.action_id, 1);
  ASSERT_TRUE(shard.TryPop(&out));
  EXPECT_EQ(out.action_id, 2);
  EXPECT_FALSE(shard.TryPop(&out));
}

TEST(ReplayShardTest, ConcurrentProducerConsumerPreservesFifo) {
  ReplayShard shard(4);  // deliberately tiny: Push must wait on the consumer
  constexpr int kCount = 200;
  std::thread producer([&shard] {
    for (int i = 0; i < kCount; ++i) shard.Push(MakeTransition(i));
  });
  std::vector<int> seen;
  Transition out;
  while (static_cast<int>(seen.size()) < kCount) {
    if (shard.TryPop(&out)) {
      seen.push_back(out.action_id);
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  for (int i = 0; i < kCount; ++i) EXPECT_EQ(seen[static_cast<size_t>(i)], i);
  EXPECT_FALSE(shard.TryPop(&out));
}

// ---------------------------------------------------------------------------
// ShardedReplayBuffer: deterministic merge order

// Pushes `per_shard` transitions into each of `num_shards` shards with
// globally unique action ids, drains, and returns the merged id sequence.
std::vector<int> MergedSequence(int num_shards, int per_shard) {
  ShardedReplayBuffer shards(num_shards, static_cast<size_t>(per_shard));
  // Push in deliberately interleaved (round-robin) order to prove the merge
  // order comes from the slot index, not the push order.
  for (int t = 0; t < per_shard; ++t) {
    for (int s = 0; s < num_shards; ++s) {
      shards.Push(s, MakeTransition(s * 100 + t));
    }
  }
  std::vector<int> merged;
  size_t drained = shards.DrainOrdered(
      [&merged](Transition&& t) { merged.push_back(t.action_id); });
  EXPECT_EQ(drained, static_cast<size_t>(num_shards * per_shard));
  EXPECT_EQ(shards.TotalSize(), 0u);
  return merged;
}

TEST(ShardedReplayBufferTest, DrainOrderedMergesSlotsInOrder) {
  for (int num_shards : {1, 2, 8}) {
    std::vector<int> expected;
    for (int s = 0; s < num_shards; ++s) {
      for (int t = 0; t < 3; ++t) expected.push_back(s * 100 + t);
    }
    EXPECT_EQ(MergedSequence(num_shards, 3), expected)
        << "merge order wrong at " << num_shards << " shards";
  }
}

TEST(ShardedReplayBufferTest, DrainOrderedIsStableAcrossRepeats) {
  // Same pushes, same drain order — the exact sequence the deterministic
  // training mode relies on.
  std::vector<int> first = MergedSequence(8, 4);
  for (int repeat = 0; repeat < 3; ++repeat) {
    EXPECT_EQ(MergedSequence(8, 4), first);
  }
}

TEST(ShardedReplayBufferTest, DrainAvailableDeliversEverythingAtBarrier) {
  ShardedReplayBuffer shards(3, 8);
  for (int s = 0; s < 3; ++s) {
    for (int t = 0; t < 2; ++t) shards.Push(s, MakeTransition(s * 10 + t));
  }
  std::vector<int> merged;
  size_t drained = shards.DrainAvailable(
      [&merged](Transition&& t) { merged.push_back(t.action_id); });
  EXPECT_EQ(drained, 6u);
  // With no live producers DrainAvailable degenerates to the ordered drain.
  EXPECT_EQ(merged, (std::vector<int>{0, 1, 10, 11, 20, 21}));
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

  static Digest Train(int threads, ActorLearnerConfig::Mode mode,
                      int num_actors = 8) {
    schema::Schema schema = schema::MakeMicroSchema();
    workload::Workload workload = workload::MakeMicroWorkload(schema);
    costmodel::CostModel model(&schema, HardwareProfile::DiskBased10G());
    PartitioningAdvisor advisor(&schema, workload, FastConfig());
    EvalContext ctx(threads, /*seed=*/99);
    ActorLearnerConfig config;
    config.num_actors = num_actors;
    config.mode = mode;
    TrainingResult result = advisor.TrainOffline(&model, config,
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
  Digest base = Train(1, ActorLearnerConfig::Mode::kDeterministic);
  ASSERT_EQ(base.rewards.size(), 16u);
  EXPECT_GT(base.train_steps, 0u);
  for (int threads : {2, 8}) {
    Digest other = Train(threads, ActorLearnerConfig::Mode::kDeterministic);
    EXPECT_EQ(other.rewards, base.rewards)
        << "episode rewards diverged at " << threads << " threads";
    EXPECT_EQ(other.weights, base.weights)
        << "final weights diverged at " << threads << " threads";
    EXPECT_EQ(other.train_steps, base.train_steps);
  }
}

TEST_F(ActorLearnerTrainingTest, DeterministicModeRepeatableAtFixedThreads) {
  Digest a = Train(2, ActorLearnerConfig::Mode::kDeterministic);
  Digest b = Train(2, ActorLearnerConfig::Mode::kDeterministic);
  EXPECT_EQ(a.rewards, b.rewards);
  EXPECT_EQ(a.weights, b.weights);
}

TEST_F(ActorLearnerTrainingTest, DigestsDependOnSlotCountNotThreads) {
  // Different logical slot counts are different (equally valid) trainings.
  Digest eight = Train(1, ActorLearnerConfig::Mode::kDeterministic, 8);
  Digest four = Train(1, ActorLearnerConfig::Mode::kDeterministic, 4);
  EXPECT_EQ(eight.rewards.size(), four.rewards.size());
  EXPECT_NE(eight.weights, four.weights);
}

TEST_F(ActorLearnerTrainingTest, FastModeCompletesAndTrains) {
  Digest fast = Train(4, ActorLearnerConfig::Mode::kFast);
  EXPECT_EQ(fast.rewards.size(), 16u);
  EXPECT_GT(fast.train_steps, 0u);
  for (double r : fast.rewards) EXPECT_TRUE(std::isfinite(r));
}

TEST_F(ActorLearnerTrainingTest, SingleActorSingleThreadWorks) {
  Digest one = Train(1, ActorLearnerConfig::Mode::kDeterministic, 1);
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
