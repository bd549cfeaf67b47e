// Golden test of the Q-network learner. It pins the bits of
//  - Mlp::Forward on a dense and a one-hot batch at the SSB (31-128-64-22)
//    and TPC-CH (76-128-64-70) network shapes, batched, single-row and on a
//    pool;
//  - every weight and bias of the Q and target networks, and every step's
//    loss, after DqnAgent::TrainStep runs at 1, 2, 4 and 8 threads (8 gives
//    more participants than a 4-core host has cores): multi-head agents on
//    both schemas (one of them at batch 256, so the learner's products split
//    across the pool, and one for 400 steps, past step 356 where Adam's
//    1 - beta1^t rounds to 1.0), and an agent whose learning rate overflows
//    its weights, which pins the bits of the infinite and NaN weights and
//    losses;
//  - the weights and losses of masked training steps on networks with no,
//    one and three hidden layers, at 1, 2, 4 and 8 threads;
//  - the learned cost model's predictions after its TrainMse regression.
// Any change to a GEMM, the Adam or Polyak update, or their floating-point
// order moves a digest, even when rewards and designs stay the same.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "baselines/learned_cost.h"
#include "costmodel/cost_model.h"
#include "nn/mlp.h"
#include "partition/actions.h"
#include "partition/featurizer.h"
#include "rl/dqn.h"
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

uint64_t DigestValues(const std::vector<double>& values, uint64_t h) {
  h = HashCombine(h, values.size());
  for (double v : values) h = HashCombine(h, std::bit_cast<uint64_t>(v));
  return h;
}

uint64_t DigestMatrix(const nn::Matrix& m, uint64_t h) {
  h = HashCombine(h, m.rows());
  return DigestValues(m.data(), h);
}

uint64_t DigestMlp(const nn::Mlp& mlp, uint64_t h) {
  for (size_t l = 0; l < mlp.num_layers(); ++l) {
    h = DigestMatrix(mlp.layer_weights(l), h);
    h = DigestMatrix(mlp.layer_bias(l), h);
  }
  return h;
}

// --- Mlp::Forward -----------------------------------------------------------

nn::Mlp MakeNet(int in, int out) {
  nn::MlpConfig config;
  config.input_dim = in;
  config.output_dim = out;
  config.seed = 17;
  return nn::Mlp(config);
}

/// Uniform values in [-1, 1) with exact zeros and negative zeros mixed in.
nn::Matrix DenseBatch(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  nn::Matrix x(rows, cols);
  for (double& v : x.data()) {
    const double u = rng.Uniform();
    v = u < 0.1 ? 0.0 : u < 0.15 ? -0.0 : rng.Uniform(-1.0, 1.0);
  }
  return x;
}

/// Rows of 0/1 with four ones each, like the featurizer's one-hot groups.
nn::Matrix OneHotBatch(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  nn::Matrix x(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (int i = 0; i < 4; ++i) {
      x.at(r, static_cast<size_t>(
                  rng.UniformInt(0, static_cast<int64_t>(cols) - 1))) = 1.0;
    }
  }
  return x;
}

/// Digest of the forward outputs of `x`, after checking that single-row and
/// 4-thread calls agree with the serial batched call bit for bit.
std::string ForwardDigest(const nn::Mlp& net, const nn::Matrix& x) {
  const nn::Matrix out = net.Forward(x);
  EvalContext ctx(4);
  EXPECT_EQ(net.Forward(x, ctx.pool()), out);
  for (size_t r = 0; r < x.rows(); r += 7) {
    std::vector<double> row(x.row(r), x.row(r) + x.cols());
    const std::vector<double> single = net.Forward(row);
    const std::vector<double> expect(out.row(r), out.row(r) + out.cols());
    EXPECT_EQ(single, expect) << "row " << r;
  }
  return Hex(DigestMatrix(out, 0));
}

TEST(LearnerGoldenTest, ForwardSsbShape) {
  const nn::Mlp net = MakeNet(31, 22);
  EXPECT_EQ(ForwardDigest(net, DenseBatch(32, 31, 1)), "3f6976aa9beddbea");
  EXPECT_EQ(ForwardDigest(net, OneHotBatch(32, 31, 2)), "fcc0c4aa6bc709ec");
  EXPECT_EQ(ForwardDigest(net, DenseBatch(300, 31, 3)), "09eaa37fec480382");
}

TEST(LearnerGoldenTest, ForwardTpcchShape) {
  const nn::Mlp net = MakeNet(76, 70);
  EXPECT_EQ(ForwardDigest(net, DenseBatch(32, 76, 4)), "f1047eb0e1ec6f53");
  EXPECT_EQ(ForwardDigest(net, OneHotBatch(32, 76, 5)), "082d24f7dd743dd6");
  EXPECT_EQ(ForwardDigest(net, OneHotBatch(300, 76, 6)), "b288c788a563c03d");
}

// --- DqnAgent::TrainStep ----------------------------------------------------

struct Testbed {
  Testbed(schema::Schema s,
          workload::Workload (*make_workload)(const schema::Schema&))
      : schema(std::move(s)),
        wl(make_workload(schema)),
        edges(partition::EdgeSet::Extract(schema, wl)),
        featurizer(&schema, &edges, wl.num_queries()),
        actions(&schema, &edges) {}

  schema::Schema schema;
  workload::Workload wl;
  partition::EdgeSet edges;
  partition::Featurizer featurizer;
  partition::ActionSpace actions;
};

/// Transitions of seeded random walks over legal actions, with seeded
/// rewards: real state encodings and legal sets, no cost model needed.
std::vector<rl::Transition> RandomWalks(const Testbed& bed, int walks,
                                        int steps, uint64_t seed) {
  Rng rng(seed);
  std::vector<rl::Transition> out;
  for (int w = 0; w < walks; ++w) {
    auto freqs = workload::SampleUniformFrequencies(bed.wl.num_queries(), &rng);
    auto state = PartitioningState::Initial(&bed.schema, &bed.edges);
    auto enc = bed.featurizer.EncodeState(state, freqs);
    auto legal = bed.actions.LegalActions(state);
    for (int s = 0; s < steps && !legal.empty(); ++s) {
      const int action = legal[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(legal.size()) - 1))];
      EXPECT_TRUE(bed.actions.Apply(action, &state).ok());
      auto next_enc = bed.featurizer.EncodeState(state, freqs);
      auto next_legal = bed.actions.LegalActions(state);
      out.push_back(rl::Transition{enc, action, rng.Uniform(-1.0, 1.0),
                                   next_enc, next_legal});
      enc = std::move(next_enc);
      legal = std::move(next_legal);
    }
  }
  return out;
}

struct TrainDigests {
  std::string q, target, losses;
  size_t nonfinite_weights = 0;  ///< in the Q network
  size_t nonfinite_losses = 0;
};

size_t CountNonFinite(const std::vector<double>& values) {
  size_t count = 0;
  for (double v : values) count += std::isfinite(v) ? 0 : 1;
  return count;
}

TrainDigests Train(const Testbed& bed, rl::DqnConfig config, int steps,
                   int threads) {
  config.seed = 29;
  rl::DqnAgent agent(&bed.featurizer, &bed.actions, config);
  for (auto& t : RandomWalks(bed, 24, 16, 31)) agent.Observe(std::move(t));
  EXPECT_GE(agent.replay_size(), static_cast<size_t>(config.batch_size));
  EvalContext ctx(threads);
  Rng rng(37);
  std::vector<double> losses;
  for (int s = 0; s < steps; ++s) {
    losses.push_back(agent.TrainStep(&rng, ctx.pool()));
  }
  size_t nonfinite_weights = 0;
  const nn::Mlp& q = agent.q_network();
  for (size_t l = 0; l < q.num_layers(); ++l) {
    nonfinite_weights += CountNonFinite(q.layer_weights(l).data()) +
                         CountNonFinite(q.layer_bias(l).data());
  }
  return {Hex(DigestMlp(agent.q_network(), 0)),
          Hex(DigestMlp(agent.target_network(), 0)),
          Hex(DigestValues(losses, 0)), nonfinite_weights,
          CountNonFinite(losses)};
}

/// Trains at every thread count and checks the digests; returns the serial
/// run's.
TrainDigests ExpectTrainDigests(const Testbed& bed,
                                const rl::DqnConfig& config, int steps,
                                const TrainDigests& golden) {
  TrainDigests serial;
  for (int threads : {1, 2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const TrainDigests got = Train(bed, config, steps, threads);
    EXPECT_EQ(got.q, golden.q);
    EXPECT_EQ(got.target, golden.target);
    EXPECT_EQ(got.losses, golden.losses);
    if (threads == 1) serial = got;
  }
  return serial;
}

TEST(LearnerGoldenTest, TrainStepSsbMultiHead) {
  const Testbed bed(schema::MakeSsbSchema(), workload::MakeSsbWorkload);
  ASSERT_EQ(bed.featurizer.state_dim(), 31);
  ASSERT_EQ(bed.actions.size(), 22);
  ExpectTrainDigests(bed, rl::DqnConfig{}, 200,
                     {"d0f9f93fffb53947", "a4510feb30f0ddd0",
                      "5dc6c40671c6fddb"});
}

TEST(LearnerGoldenTest, TrainStepTpcchMultiHead) {
  const Testbed bed(schema::MakeTpcchSchema(), workload::MakeTpcchWorkload);
  ASSERT_EQ(bed.featurizer.state_dim(), 76);
  ASSERT_EQ(bed.actions.size(), 70);
  ExpectTrainDigests(bed, rl::DqnConfig{}, 200,
                     {"9abdea1bd40dd7d5", "f38f020cb2838bb4",
                      "abd7d28708699a0d"});
}

TEST(LearnerGoldenTest, TrainStepSsbPastAdamWarmup) {
  const Testbed bed(schema::MakeSsbSchema(), workload::MakeSsbWorkload);
  ExpectTrainDigests(bed, rl::DqnConfig{}, 400,
                     {"d30eed025ebec506", "9afbef153cb74bea",
                      "dbdf7c4c7714c45f"});
}

TEST(LearnerGoldenTest, TrainStepDiverging) {
  // Adam moves every weight by about the learning rate per step, so a rate
  // of 1e200 overflows the activations within a few steps and then turns
  // the weights, the gradients and the losses into infinities and NaNs.
  const Testbed bed(schema::MakeTpcchSchema(), workload::MakeTpcchWorkload);
  rl::DqnConfig config;
  config.learning_rate = 1e200;
  const TrainDigests got = ExpectTrainDigests(
      bed, config, 12,
      {"8112e624ac48ed67", "6e7c537ff6f7a988", "7517c39055e83f9b"});
  EXPECT_GT(got.nonfinite_weights, 0u);
  EXPECT_GT(got.nonfinite_losses, 0u);
}

TEST(LearnerGoldenTest, TrainStepTpcchLargeBatch) {
  const Testbed bed(schema::MakeTpcchSchema(), workload::MakeTpcchWorkload);
  rl::DqnConfig config;
  config.batch_size = 256;
  ExpectTrainDigests(bed, config, 30,
                     {"327e0baa7ccce800", "e2c85bf5f25116a5",
                      "e8a39db741566e14"});
}

// --- Mlp::TrainMaskedMse at other depths ------------------------------------

/// Digest of the weights and losses of a network with `hidden` layers after
/// 40 masked steps on dense batches, on `threads` threads. Wide enough that
/// a pool splits the step.
std::string MaskedDigest(const std::vector<int>& hidden, int threads) {
  nn::MlpConfig config;
  config.input_dim = 96;
  config.hidden = hidden;
  config.output_dim = 40;
  config.seed = 19;
  nn::Mlp net(config);
  EvalContext ctx(threads);
  Rng rng(23);
  std::vector<double> losses;
  for (int s = 0; s < 40; ++s) {
    const nn::Matrix x = DenseBatch(64, 96, 100 + static_cast<uint64_t>(s));
    std::vector<int> head(64);
    std::vector<double> target(64);
    for (size_t r = 0; r < head.size(); ++r) {
      head[r] = static_cast<int>(rng.UniformInt(0, 39));
      target[r] = rng.Uniform(-2.0, 2.0);
    }
    losses.push_back(net.TrainMaskedMse(x, head, target, 1e-3, ctx.pool()));
  }
  return Hex(DigestValues(losses, DigestMlp(net, 0)));
}

TEST(LearnerGoldenTest, TrainMaskedMseOtherDepths) {
  for (int threads : {1, 2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(MaskedDigest({}, threads), "1dea90aa39b3fb08");
    EXPECT_EQ(MaskedDigest({48}, threads), "536ccd0ab8815041");
    EXPECT_EQ(MaskedDigest({200, 32, 16}, threads), "0ca64fea6edbe4b4");
  }
}

// --- LearnedCostAdvisor -----------------------------------------------------

TEST(LearnerGoldenTest, LearnedCostModelAfterTrainMse) {
  const Testbed bed(schema::MakeSsbSchema(), workload::MakeSsbWorkload);
  costmodel::CostModel model(&bed.schema, HardwareProfile::DiskBased10G());
  baselines::LearnedCostConfig config;
  config.offline_minibatches = 150;
  config.seed = 41;
  baselines::LearnedCostAdvisor advisor(&bed.schema, &bed.edges, &bed.wl,
                                        &bed.featurizer, config);
  Rng rng(43);
  advisor.TrainOffline(model, &rng);
  std::vector<double> predictions;
  auto state = PartitioningState::Initial(&bed.schema, &bed.edges);
  for (int s = 0; s < 24; ++s) {
    const auto legal = bed.actions.LegalActions(state);
    ASSERT_FALSE(legal.empty());
    ASSERT_TRUE(bed.actions
                    .Apply(legal[static_cast<size_t>(rng.UniformInt(
                               0, static_cast<int64_t>(legal.size()) - 1))],
                           &state)
                    .ok());
    predictions.push_back(advisor.Predict(
        state, workload::SampleUniformFrequencies(bed.wl.num_queries(), &rng)));
  }
  EXPECT_EQ(Hex(DigestValues(predictions, 0)), "49dc60af983cf832");
}

}  // namespace
}  // namespace lpa
