#include "rl/trainer.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <thread>

#include "rl/offline_env.h"
#include "rl/online_env.h"
#include "schema/catalogs.h"
#include "telemetry/registry.h"
#include "workload/benchmarks.h"

namespace lpa::rl {
namespace {

using costmodel::CostModel;
using costmodel::HardwareProfile;
using partition::ActionSpace;
using partition::EdgeSet;
using partition::Featurizer;
using partition::PartitioningState;

class SsbRlTest : public ::testing::Test {
 protected:
  SsbRlTest()
      : schema_(schema::MakeSsbSchema()),
        workload_(workload::MakeSsbWorkload(schema_)),
        edges_(EdgeSet::Extract(schema_, workload_)),
        actions_(&schema_, &edges_),
        featurizer_(&schema_, &edges_, workload_.num_queries()),
        // The disk-based profile has the most partitioning-sensitive cost
        // landscape (expensive row-shipping exchanges), which is what the
        // learning tests need.
        model_(&schema_, HardwareProfile::DiskBased10G()),
        env_(&model_, &workload_),
        trainer_(&schema_, &edges_, &actions_, &featurizer_) {}

  DqnConfig SmallConfig() const {
    DqnConfig config;
    config.tmax = 12;
    config.epsilon_decay = 0.96;
    config.seed = 3;
    return config;
  }

  schema::Schema schema_;
  workload::Workload workload_;
  EdgeSet edges_;
  ActionSpace actions_;
  Featurizer featurizer_;
  CostModel model_;
  OfflineEnv env_;
  EpisodeTrainer trainer_;
};

TEST_F(SsbRlTest, ReplayBufferRingSemantics) {
  ReplayBuffer buffer(4);
  for (int i = 0; i < 6; ++i) {
    Transition t;
    t.action_id = i;
    buffer.Add(std::move(t));
  }
  EXPECT_EQ(buffer.size(), 4u);
  Rng rng(1);
  auto sample = buffer.Sample(16, &rng);
  for (size_t row : sample) {
    EXPECT_GE(buffer.at(row).action_id, 2);  // 0 and 1 were evicted
  }
}

// ---------------------------------------------------------------------------
// Compact replay storage: every stored row decodes bit for bit

uint64_t BitsOf(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double FromBits(uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Row `row` of `buffer` holds exactly `want`, through at() and through the
/// accessors the learner decodes with.
void ExpectRow(const ReplayBuffer& buffer, size_t row, const Transition& want) {
  const Transition got = buffer.at(row);
  EXPECT_TRUE(SameBits(got.state_enc, want.state_enc)) << "row " << row;
  EXPECT_TRUE(SameBits(got.next_enc, want.next_enc)) << "row " << row;
  EXPECT_EQ(got.action_id, want.action_id) << "row " << row;
  EXPECT_EQ(BitsOf(got.reward), BitsOf(want.reward)) << "row " << row;
  EXPECT_EQ(got.next_legal, want.next_legal) << "row " << row;

  EXPECT_EQ(buffer.action_id(row), want.action_id);
  EXPECT_EQ(BitsOf(buffer.reward(row)), BitsOf(want.reward));
  ASSERT_EQ(buffer.state_dim(row), want.state_enc.size());
  ASSERT_EQ(buffer.next_dim(row), want.next_enc.size());
  // Decoding into a dirty destination overwrites every entry.
  const double garbage = FromBits(0x7ff80000deadbeefULL);
  std::vector<double> decoded(want.state_enc.size(), garbage);
  buffer.DecodeState(row, decoded.data());
  EXPECT_TRUE(SameBits(decoded, want.state_enc)) << "row " << row;
  decoded.assign(want.next_enc.size(), garbage);
  buffer.DecodeNextState(row, decoded.data());
  EXPECT_TRUE(SameBits(decoded, want.next_enc)) << "row " << row;
  std::vector<int> legal;
  buffer.ForEachNextLegal(row, [&legal](int a) { legal.push_back(a); });
  EXPECT_EQ(legal, want.next_legal) << "row " << row;
  EXPECT_EQ(buffer.next_legal_count(row), want.next_legal.size());
}

TEST(ReplayBufferCompactTest, SpecialValuesComeBackBitForBit) {
  const double inf = std::numeric_limits<double>::infinity();
  // Neither +0.0 nor +1.0, so all of these are stored by bit pattern.
  const std::vector<double> special = {
      -0.0,
      -1.0,
      inf,
      -inf,
      FromBits(0x7ff800000000c0deULL),  // quiet NaN with a payload
      FromBits(0xfff8000000000001ULL),  // negative NaN
      FromBits(0x7ff0000000000001ULL),  // signaling NaN pattern
      FromBits(0x0000000000000005ULL),  // subnormal
      0.375,
  };
  // 70 entries, so the ones bitset spans two words: a one-hot head in
  // [0, 40), a one in [64, 70), +0.0 and +1.0 mixed into the tail, and the
  // special values after them. The tail rotates from step 6 on, mid-episode.
  auto encode = [&special](int step) {
    std::vector<double> enc(70, 0.0);
    enc[static_cast<size_t>(step % 40)] = 1.0;
    enc[static_cast<size_t>(64 + step % 6)] = 1.0;
    enc[45] = 1.0;
    const size_t rotate = step < 6 ? 0 : 1;
    for (size_t i = 0; i < special.size(); ++i) {
      enc[50 + i] = special[(i + rotate) % special.size()];
    }
    return enc;
  };
  const std::vector<std::vector<int>> legal_lists = {
      {0, 3, 64, 69},                // ascending: a bitset
      {},                            // empty
      {5, 2, 9},                     // unordered: verbatim
      {4, 4},                        // duplicate: verbatim
      {-1, 3},                       // negative: verbatim
      {1'000'000},                   // ascending but sparse: verbatim
      {0, 1, 2, 3, 4, 5, 6, 7, 8},   // dense: a bitset
  };

  ReplayBuffer buffer(64);
  std::vector<Transition> added;
  for (int t = 0; t < 12; ++t) {
    Transition tr{encode(t), t,
                  special[static_cast<size_t>(t) % special.size()],
                  encode(t + 1),
                  legal_lists[static_cast<size_t>(t) % legal_lists.size()]};
    buffer.Add(tr);
    added.push_back(std::move(tr));
  }
  // A state of another width, and one with a single entry.
  added.push_back(Transition{{-0.0, 1.0, 0.0}, 7, 0.0, {FromBits(1)}, {2}});
  buffer.Add(added.back());
  ASSERT_EQ(buffer.size(), added.size());
  for (size_t i = 0; i < added.size(); ++i) ExpectRow(buffer, i, added[i]);
}

/// Reference model: the plain ring of transitions the buffer replaced.
class PlainRing {
 public:
  explicit PlainRing(size_t capacity) : capacity_(capacity) {}
  void Add(Transition t) {
    if (rows_.size() < capacity_) {
      rows_.push_back(std::move(t));
    } else {
      rows_[next_] = std::move(t);
      next_ = (next_ + 1) % capacity_;
    }
  }
  size_t Sample(Rng* rng) const {
    return static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(rows_.size()) - 1));
  }
  size_t size() const { return rows_.size(); }
  const Transition& at(size_t i) const { return rows_[i]; }

 private:
  size_t capacity_;
  size_t next_ = 0;
  std::vector<Transition> rows_;
};

TEST_F(SsbRlTest, ReplayBufferMatchesPlainRingUnderInterleavedEpisodes) {
  // Two walkers, each running 12-step episodes under its own frequency
  // mix; their transitions merge in runs of 1-4 steps, as the actor/learner
  // shards drain. Inside a run each s is the previous s' (shared); at a run
  // boundary it is not.
  struct Walker {
    PartitioningState state;
    std::vector<double> freqs;
    std::vector<double> enc;
    int step = 0;
  };
  auto transitions = [this](int count, uint64_t seed,
                            std::vector<size_t>* walker_of = nullptr) {
    Rng rng(seed);
    std::vector<Walker> walkers(2, Walker{PartitioningState::Initial(
                                              &schema_, &edges_),
                                          {}, {}, 12});
    std::vector<Transition> out;
    size_t w = 0;
    while (static_cast<int>(out.size()) < count) {
      w = 1 - w;
      const int run = static_cast<int>(rng.UniformInt(1, 4));
      Walker& walker = walkers[w];
      for (int r = 0; r < run && static_cast<int>(out.size()) < count; ++r) {
        if (walker.step == 12) {
          walker.state = PartitioningState::Initial(&schema_, &edges_);
          walker.freqs = workload::SampleUniformFrequencies(
              workload_.num_queries(), &rng);
          walker.enc = featurizer_.EncodeState(walker.state, walker.freqs);
          walker.step = 0;
        }
        const std::vector<int> legal = actions_.LegalActions(walker.state);
        const int action = legal[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(legal.size()) - 1))];
        EXPECT_TRUE(actions_.Apply(action, &walker.state).ok());
        std::vector<double> next =
            featurizer_.EncodeState(walker.state, walker.freqs);
        out.push_back(Transition{walker.enc, action, rng.Uniform(-1.0, 1.0),
                                 next, actions_.LegalActions(walker.state)});
        if (walker_of != nullptr) walker_of->push_back(w);
        walker.enc = std::move(next);
        ++walker.step;
      }
    }
    return out;
  };

  for (size_t capacity : {size_t{1}, size_t{7}, size_t{40}}) {
    SCOPED_TRACE(capacity);
    const std::vector<Transition> stream =
        transitions(static_cast<int>(3 * capacity + 5), 100 + capacity);
    PlainRing ring(capacity);
    ReplayBuffer buffer(capacity);
    Rng ring_rng(9), buffer_rng(9);
    std::vector<size_t> rows;
    for (const Transition& t : stream) {
      ring.Add(t);
      buffer.Add(t);
      ASSERT_EQ(buffer.size(), ring.size());
      buffer.Sample(4, &buffer_rng, &rows);
      ASSERT_EQ(rows.size(), 4u);
      for (size_t row : rows) {
        const size_t want = ring.Sample(&ring_rng);
        ASSERT_EQ(row, want);
        ExpectRow(buffer, row, ring.at(want));
      }
    }
    for (size_t i = 0; i < ring.size(); ++i) ExpectRow(buffer, i, ring.at(i));
  }

  // Without eviction, the same transitions take more room merged in runs
  // than episode by episode: a run boundary stores s again.
  std::vector<size_t> walker_of;
  const std::vector<Transition> stream = transitions(96, 5, &walker_of);
  ReplayBuffer merged(stream.size());
  ReplayBuffer grouped(stream.size());
  for (const Transition& t : stream) merged.Add(t);
  for (size_t w : {size_t{0}, size_t{1}}) {
    for (size_t i = 0; i < stream.size(); ++i) {
      if (walker_of[i] == w) grouped.Add(stream[i]);
    }
  }
  EXPECT_LT(grouped.stored_bytes(), merged.stored_bytes());
}

TEST(ReplayBufferCompactTest, TpcchEpisodeStoresUnderATenth) {
  const schema::Schema schema = schema::MakeTpcchSchema();
  const workload::Workload workload = workload::MakeTpcchWorkload(schema);
  const EdgeSet edges = EdgeSet::Extract(schema, workload);
  const ActionSpace actions(&schema, &edges);
  const Featurizer featurizer(&schema, &edges, workload.num_queries());
  ASSERT_EQ(featurizer.state_dim(), 76);

  // One 36-step episode as EpisodeTrainer::Train builds it.
  Rng rng(5);
  const std::vector<double> freqs =
      workload::SampleUniformFrequencies(workload.num_queries(), &rng);
  PartitioningState state = PartitioningState::Initial(&schema, &edges);
  std::vector<double> enc = featurizer.EncodeState(state, freqs);
  ReplayBuffer buffer(10'000);
  size_t plain_bytes = 0;
  for (int t = 0; t < 36; ++t) {
    const std::vector<int> legal = actions.LegalActions(state);
    const int action = legal[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(legal.size()) - 1))];
    ASSERT_TRUE(actions.Apply(action, &state).ok());
    Transition tr{enc, action, rng.Uniform(-1.0, 1.0),
                  featurizer.EncodeState(state, freqs),
                  actions.LegalActions(state)};
    plain_bytes += (tr.state_enc.size() + tr.next_enc.size()) * sizeof(double) +
                   tr.next_legal.size() * sizeof(int);
    buffer.Add(tr);
    enc = tr.next_enc;
  }
  EXPECT_LE(buffer.stored_bytes() * 10, plain_bytes)
      << buffer.stored_bytes() << " stored bytes for " << plain_bytes;

  // A training step publishes the size beside the row count.
  DqnAgent agent(&featurizer, &actions, DqnConfig{});
  agent.TrainStepFrom(buffer, &rng);
  auto& registry = telemetry::MetricsRegistry::Global();
  EXPECT_EQ(registry.GetGauge("rl.replay_size.count").value(), 36.0);
  EXPECT_EQ(registry.GetGauge("rl.replay_bytes.bytes").value(),
            static_cast<double>(buffer.stored_bytes()));
}

TEST_F(SsbRlTest, EpsilonGreedySelection) {
  DqnAgent agent(&featurizer_, &actions_, SmallConfig());
  auto s0 = PartitioningState::Initial(&schema_, &edges_);
  std::vector<double> freqs(13, 1.0);
  auto enc = featurizer_.EncodeState(s0, freqs);
  auto legal = actions_.LegalActions(s0);

  // epsilon = 0: deterministic greedy choice.
  agent.set_epsilon(0.0);
  Rng rng(7);
  int a1 = agent.SelectAction(enc, legal, agent.epsilon(), &rng);
  int a2 = agent.SelectAction(enc, legal, agent.epsilon(), &rng);
  EXPECT_EQ(a1, a2);
  EXPECT_EQ(a1, agent.GreedyAction(enc, legal));

  // epsilon = 1: exploration covers many actions.
  agent.set_epsilon(1.0);
  std::set<int> seen;
  for (int i = 0; i < 200; ++i) {
    seen.insert(agent.SelectAction(enc, legal, agent.epsilon(), &rng));
  }
  EXPECT_GT(seen.size(), legal.size() / 2);
}

TEST_F(SsbRlTest, EpsilonDecaySchedule) {
  DqnConfig config = SmallConfig();
  config.epsilon_decay = 0.5;
  config.epsilon_min = 0.1;
  DqnAgent agent(&featurizer_, &actions_, config);
  EXPECT_DOUBLE_EQ(agent.epsilon(), 1.0);
  agent.DecayEpsilon();
  EXPECT_DOUBLE_EQ(agent.epsilon(), 0.5);
  for (int i = 0; i < 10; ++i) agent.DecayEpsilon();
  EXPECT_DOUBLE_EQ(agent.epsilon(), 0.1);  // floors at epsilon_min
}

TEST_F(SsbRlTest, QValuesCoverLegalActions) {
  // Per-action Q values of the right arity.
  DqnAgent agent(&featurizer_, &actions_, SmallConfig());
  auto s0 = PartitioningState::Initial(&schema_, &edges_);
  std::vector<double> freqs(13, 1.0);
  auto enc = featurizer_.EncodeState(s0, freqs);
  auto legal = actions_.LegalActions(s0);
  auto q = agent.QValues(enc, legal);
  EXPECT_EQ(q.size(), legal.size());
  for (double v : q) EXPECT_TRUE(std::isfinite(v));
}

TEST_F(SsbRlTest, OfflineTrainingImprovesOnInitialDesign) {
  DqnConfig config = SmallConfig();
  DqnAgent agent(&featurizer_, &actions_, config);
  EvalContext ctx(/*threads=*/1, /*seed=*/11);
  auto sampler = [](Rng*) { return std::vector<double>(13, 1.0); };
  auto result = trainer_.Train(&agent, &env_, sampler, 60, &ctx);
  EXPECT_EQ(result.episode_best_rewards.size(), 60u);

  std::vector<double> uniform(13, 1.0);
  auto inference = trainer_.Infer(agent, &env_, uniform);
  double s0_cost =
      env_.WorkloadCost(PartitioningState::Initial(&schema_, &edges_), uniform);
  // The agent must find a design at least 20% better than per-PK hashing
  // (replicating the small dimensions alone achieves far more).
  EXPECT_LT(inference.best_cost, 0.8 * s0_cost);
}

TEST_F(SsbRlTest, TrainCountsItsOwnStepsWhileAnotherAgentTrains) {
  // train_steps counts the SGD steps of the agent being trained: every step
  // once the replay holds a full minibatch, whatever else trains meanwhile.
  auto sampler = [](Rng* rng) {
    return workload::SampleUniformFrequencies(13, rng);
  };
  auto train = [&](uint64_t seed) {
    DqnAgent agent(&featurizer_, &actions_, SmallConfig());
    EvalContext ctx(/*threads=*/1, seed);
    return trainer_.Train(&agent, &env_, sampler, 40, &ctx).train_steps;
  };
  const size_t expected = 40 * 12 - (DqnConfig{}.batch_size - 1);
  EXPECT_EQ(train(5), expected);
  size_t a = 0, b = 0;
  std::thread thread_a([&]() { a = train(5); });
  std::thread thread_b([&]() { b = train(6); });
  thread_a.join();
  thread_b.join();
  EXPECT_EQ(a, expected);
  EXPECT_EQ(b, expected);
}

TEST_F(SsbRlTest, InferenceReturnsBestOnTrajectoryNotLast) {
  DqnConfig config = SmallConfig();
  DqnAgent agent(&featurizer_, &actions_, config);
  std::vector<double> uniform(13, 1.0);
  // Even with an untrained agent, Infer must return the cheapest state it
  // visited (which is at least as good as any state on its rollout).
  auto result = trainer_.Infer(agent, &env_, uniform);
  EXPECT_EQ(static_cast<int>(result.actions.size()), config.tmax);
  double cost_of_best = env_.WorkloadCost(result.best_state, uniform);
  EXPECT_NEAR(cost_of_best, result.best_cost, 1e-9);
}

TEST_F(SsbRlTest, CacheMakesRepeatEvaluationsFree) {
  std::vector<double> uniform(13, 1.0);
  auto s0 = PartitioningState::Initial(&schema_, &edges_);
  env_.WorkloadCost(s0, uniform);
  size_t evals_before = env_.evaluations();
  size_t hits_before = env_.cache_hits();
  env_.WorkloadCost(s0, uniform);
  EXPECT_EQ(env_.evaluations(), evals_before + 13);
  EXPECT_EQ(env_.cache_hits(), hits_before + 13);
}

TEST_F(SsbRlTest, CacheKeyScopesToRelevantTables) {
  std::vector<double> uniform(13, 1.0);
  auto s0 = PartitioningState::Initial(&schema_, &edges_);
  env_.WorkloadCost(s0, uniform);
  // Changing only `part` must not invalidate q1.1 (lineorder-date).
  auto changed = s0;
  ASSERT_TRUE(changed.Replicate(schema_.TableIndex("part")).ok());
  size_t hits_before = env_.cache_hits();
  env_.QueryCost(0, changed, 1.0);  // q1.1
  EXPECT_EQ(env_.cache_hits(), hits_before + 1);
}

TEST_F(SsbRlTest, ZeroFrequencyQueriesAreSkipped) {
  auto s0 = PartitioningState::Initial(&schema_, &edges_);
  std::vector<double> only_q5(13, 0.0);
  only_q5[5] = 1.0;
  double cost = env_.WorkloadCost(s0, only_q5);
  EXPECT_NEAR(cost, env_.QueryCost(5, s0, 1.0), 1e-9);
}

TEST_F(SsbRlTest, ExtendStateInputsPreservesFunction) {
  DqnConfig config = SmallConfig();
  DqnAgent agent(&featurizer_, &actions_, config);
  auto s0 = PartitioningState::Initial(&schema_, &edges_);
  std::vector<double> freqs(13, 0.7);
  auto enc = featurizer_.EncodeState(s0, freqs);
  auto legal = actions_.LegalActions(s0);
  auto q_before = agent.QValues(enc, legal);

  Featurizer grown(&schema_, &edges_, 13 + 4);
  agent.ExtendStateInputs(4, &grown);
  auto enc_grown = grown.EncodeState(s0, freqs);
  auto q_after = agent.QValues(enc_grown, legal);
  for (size_t i = 0; i < q_before.size(); ++i) {
    EXPECT_NEAR(q_before[i], q_after[i], 1e-12);
  }
}

class OnlineEnvTest : public ::testing::Test {
 protected:
  OnlineEnvTest()
      : schema_(schema::MakeSsbSchema()),
        workload_(workload::MakeSsbWorkload(schema_)),
        edges_(EdgeSet::Extract(schema_, workload_)),
        planner_(&schema_, HardwareProfile::InMemory10G()) {}

  engine::ClusterDatabase MakeCluster(double fraction = 1e-4) {
    storage::GenerationConfig config;
    config.fraction = fraction;
    config.small_table_threshold = 200;
    config.seed = 5;
    return engine::ClusterDatabase(
        storage::Database::Generate(schema_, workload_, config),
        engine::EngineConfig{HardwareProfile::InMemory10G(), 0.0, 5},
        &planner_);
  }

  schema::Schema schema_;
  workload::Workload workload_;
  EdgeSet edges_;
  CostModel planner_;
};

TEST_F(OnlineEnvTest, RuntimeCacheAvoidsReexecution) {
  auto cluster = MakeCluster();
  OnlineEnv env(&cluster, &workload_, {}, OnlineEnvOptions{});
  auto s0 = PartitioningState::Initial(&schema_, &edges_);
  std::vector<double> uniform(13, 1.0);
  env.WorkloadCost(s0, uniform);
  size_t executed = env.accounting().queries_executed;
  EXPECT_EQ(executed, 13u);
  env.WorkloadCost(s0, uniform);
  EXPECT_EQ(env.accounting().queries_executed, executed);  // all hits
  EXPECT_EQ(env.accounting().cache_hits, 13u);
}

TEST_F(OnlineEnvTest, DisablingCacheReexecutesEverything) {
  auto cluster = MakeCluster();
  OnlineEnvOptions options;
  options.use_runtime_cache = false;
  OnlineEnv env(&cluster, &workload_, {}, options);
  auto s0 = PartitioningState::Initial(&schema_, &edges_);
  std::vector<double> uniform(13, 1.0);
  env.WorkloadCost(s0, uniform);
  env.WorkloadCost(s0, uniform);
  EXPECT_EQ(env.accounting().queries_executed, 26u);
  EXPECT_EQ(env.accounting().cache_hits, 0u);
}

TEST_F(OnlineEnvTest, LazyRepartitioningMovesOnlyQueriedTables) {
  auto lazy_cluster = MakeCluster();
  OnlineEnv lazy(&lazy_cluster, &workload_, {}, OnlineEnvOptions{});
  auto eager_cluster = MakeCluster();
  OnlineEnvOptions eager_options;
  eager_options.use_lazy_repartitioning = false;
  OnlineEnv eager(&eager_cluster, &workload_, {}, eager_options);

  auto s0 = PartitioningState::Initial(&schema_, &edges_);
  std::vector<double> only_q11(13, 0.0);
  only_q11[0] = 1.0;  // q1.1 touches lineorder and date only
  lazy.WorkloadCost(s0, only_q11);
  eager.WorkloadCost(s0, only_q11);

  // Now flip `part` (not referenced by q1.1): eager must pay, lazy must not.
  auto changed = s0;
  ASSERT_TRUE(changed.Replicate(schema_.TableIndex("part")).ok());
  double lazy_before = lazy.accounting().repartition_seconds;
  lazy.WorkloadCost(changed, only_q11);
  double eager_before = eager.accounting().repartition_seconds;
  eager.WorkloadCost(changed, only_q11);
  EXPECT_DOUBLE_EQ(lazy.accounting().repartition_seconds, lazy_before);
  EXPECT_GT(eager.accounting().repartition_seconds, eager_before);
}

TEST_F(OnlineEnvTest, ScaleFactorsInflateSampleRuntimes) {
  auto full = MakeCluster(2e-4);
  auto sample_cluster = MakeCluster(2e-4);
  auto s0 = PartitioningState::Initial(&schema_, &edges_);
  std::vector<double> s(13, 3.0);  // pretend the full DB is 3x slower
  OnlineEnv scaled(&sample_cluster, &workload_, s, OnlineEnvOptions{});
  OnlineEnv unscaled(&full, &workload_, {}, OnlineEnvOptions{});
  std::vector<double> uniform(13, 1.0);
  EXPECT_NEAR(scaled.WorkloadCost(s0, uniform),
              3.0 * unscaled.WorkloadCost(s0, uniform), 1e-6);
}

TEST_F(OnlineEnvTest, ComputeScaleFactorsFullVsSample) {
  auto full = MakeCluster(4e-4);
  auto small = MakeCluster(1e-4);
  auto s0 = PartitioningState::Initial(&schema_, &edges_);
  auto factors = ComputeScaleFactors(&full, &small, workload_, s0);
  ASSERT_EQ(factors.size(), 13u);
  // The full database is larger, so runtimes there are longer: S_i > 1 for
  // the fact-heavy queries.
  int greater = 0;
  for (double f : factors) greater += f > 1.0 ? 1 : 0;
  EXPECT_GE(greater, 10);
}

TEST_F(OnlineEnvTest, TimeoutsCutLongRuns) {
  auto cluster = MakeCluster();
  OnlineEnv env(&cluster, &workload_, {}, OnlineEnvOptions{});
  auto s0 = PartitioningState::Initial(&schema_, &edges_);
  std::vector<double> uniform(13, 1.0);
  double base = env.WorkloadCost(s0, uniform);
  // Pretend a fantastic design is known: every subsequent fresh execution
  // exceeds the budget and gets cut.
  env.SetBestKnownCost(base * 1e-6);
  auto expensive = s0;
  ASSERT_TRUE(expensive.Replicate(schema_.TableIndex("lineorder")).ok());
  double saved_before = env.accounting().timeout_saved_seconds;
  env.WorkloadCost(expensive, uniform);
  EXPECT_GT(env.accounting().timeout_saved_seconds, saved_before);
}

TEST_F(OnlineEnvTest, OnlineTrainingRunsEndToEnd) {
  auto cluster = MakeCluster();
  OnlineEnv env(&cluster, &workload_, {}, OnlineEnvOptions{});
  ActionSpace actions(&schema_, &edges_);
  Featurizer featurizer(&schema_, &edges_, workload_.num_queries());
  EpisodeTrainer trainer(&schema_, &edges_, &actions, &featurizer);
  DqnConfig config;
  config.tmax = 8;
  config.episodes = 5;
  config.seed = 9;
  DqnAgent agent(&featurizer, &actions, config);
  EvalContext ctx(/*threads=*/1, /*seed=*/13);
  auto sampler = [](Rng* r) { return workload::SampleUniformFrequencies(13, r); };
  auto result = trainer.Train(&agent, &env, sampler, 5, &ctx);
  EXPECT_EQ(result.episode_best_rewards.size(), 5u);
  EXPECT_GT(env.accounting().queries_executed, 0u);
  EXPECT_GT(env.accounting().cache_hits, 0u);
}

}  // namespace
}  // namespace lpa::rl
