// Golden test of the Sec 6 inference rollout behind every entry point that
// runs it: PartitioningAdvisor::Suggest (plain, extra rollouts at 1/2/8
// threads, pruned, transition-cost aware, against the online environment),
// AdvisorHandle over a restored snapshot, the subspace committee and the
// serving model. Each call's design fingerprint, best-cost bits and greedy
// actions, its inference counter deltas, and the next draw of the caller's
// RNG are pinned, so any rewrite of the rollout code must reproduce them
// bit for bit.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "advisor/advisor.h"
#include "advisor/advisor_handle.h"
#include "advisor/committee.h"
#include "advisor/serialization.h"
#include "engine/cluster.h"
#include "rl/online_env.h"
#include "schema/catalogs.h"
#include "serving/model_registry.h"
#include "telemetry/registry.h"
#include "util/rng.h"
#include "workload/benchmarks.h"

namespace lpa {
namespace {

using advisor::AdvisorConfig;
using advisor::PartitioningAdvisor;
using costmodel::HardwareProfile;

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Values of the inference counters, for per-call deltas.
struct InferenceCounters {
  static constexpr const char* kNames[] = {
      "rl.inference_rollouts.count", "rl.q_evals.count",
      "rl.actions_pruned.count", "rl.eval_prunes.count",
      "rl.rollout_cutoffs.count"};
  uint64_t values[5] = {};

  static InferenceCounters Now() {
    InferenceCounters c;
    auto& reg = telemetry::MetricsRegistry::Global();
    for (size_t i = 0; i < 5; ++i) {
      c.values[i] = reg.GetCounter(kNames[i]).value();
    }
    return c;
  }
};

/// The result of one call: design fingerprint, best-cost bits, actions.
std::string ResultRecord(const rl::InferenceResult& r) {
  std::string s = "fp=" + Hex(r.best_state.DesignFingerprint()) +
                  " cost=" + Hex(Bits(r.best_cost)) + " actions=";
  for (size_t i = 0; i < r.actions.size(); ++i) {
    if (i > 0) s += ",";
    s += std::to_string(r.actions[i]);
  }
  return s;
}

/// The result, the counter deltas since `before`, and the next draw of the
/// caller's context RNG.
std::string Record(const rl::InferenceResult& r,
                   const InferenceCounters& before, EvalContext* ctx) {
  InferenceCounters after = InferenceCounters::Now();
  std::string s = ResultRecord(r) + " counters=";
  for (size_t i = 0; i < 5; ++i) {
    if (i > 0) s += ",";
    s += std::to_string(after.values[i] - before.values[i]);
  }
  return s + " rng=" + Hex(ctx->rng()->generator()());
}

std::string AccountingRecord(const rl::OnlineAccounting& a) {
  return "query_s=" + Hex(Bits(a.query_seconds)) +
         " repartition_s=" + Hex(Bits(a.repartition_seconds)) +
         " executed=" + std::to_string(a.queries_executed) +
         " hits=" + std::to_string(a.cache_hits) +
         " saved_s=" + Hex(Bits(a.timeout_saved_seconds));
}

class InferenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    schema_ = new schema::Schema(schema::MakeSsbSchema());
    workload_ = new workload::Workload(workload::MakeSsbWorkload(*schema_));
    model_ = new costmodel::CostModel(schema_, HardwareProfile::DiskBased10G());
    advisor_ = new PartitioningAdvisor(schema_, *workload_, Config());
    EvalContext train_ctx(1, 2101);
    advisor_->TrainOffline(model_, nullptr, &train_ctx);
    std::stringstream snapshot;
    ASSERT_TRUE(advisor::SaveAgentSnapshot(*advisor_->agent(), snapshot).ok());
    snapshot_ = new std::string(snapshot.str());
  }

  static void TearDownTestSuite() {
    delete snapshot_;
    delete advisor_;
    delete model_;
    delete workload_;
    delete schema_;
  }

  static AdvisorConfig Config() {
    AdvisorConfig config;
    config.dqn.tmax = 10;
    config.offline_episodes = 60;
    config.dqn.FitEpsilonSchedule(config.offline_episodes);
    config.seed = 21;
    return config;
  }

  /// A seeded mix; distinct seeds give distinct calls distinct mixes.
  static std::vector<double> Mix(uint64_t seed) {
    Rng rng(seed);
    return workload::SampleUniformFrequencies(workload_->num_queries(), &rng);
  }

  /// A small sampled cluster behind a fresh online environment.
  struct OnlineTestbed {
    OnlineTestbed() {
      storage::GenerationConfig gen;
      gen.fraction = 1e-4;
      gen.seed = 5;
      engine::EngineConfig engine;
      engine.hardware = HardwareProfile::DiskBased10G();
      engine.seed = 5;
      cluster = std::make_unique<engine::ClusterDatabase>(
          storage::Database::Generate(*schema_, *workload_, gen), engine,
          model_);
      env = std::make_unique<rl::OnlineEnv>(cluster.get(), workload_,
                                            std::vector<double>{},
                                            rl::OnlineEnvOptions{});
    }
    std::unique_ptr<engine::ClusterDatabase> cluster;
    std::unique_ptr<rl::OnlineEnv> env;
  };

  static schema::Schema* schema_;
  static workload::Workload* workload_;
  static costmodel::CostModel* model_;
  static PartitioningAdvisor* advisor_;
  static std::string* snapshot_;
};

schema::Schema* InferenceTest::schema_ = nullptr;
workload::Workload* InferenceTest::workload_ = nullptr;
costmodel::CostModel* InferenceTest::model_ = nullptr;
PartitioningAdvisor* InferenceTest::advisor_ = nullptr;
std::string* InferenceTest::snapshot_ = nullptr;

TEST_F(InferenceTest, GoldenSuggestWithExtraRollouts) {
  const std::string expected =
      "fp=a89b5457e16186e5 cost=40530e7d2bf3e684 "
      "actions=12,1,10,2,1,2,1,2,1,2 counters=5,43,0,0,0 "
      "rng=aeb1e2f0d32bfab9";
  for (int threads : {1, 2, 8}) {
    EvalContext ctx(threads, 3101);
    auto before = InferenceCounters::Now();
    auto result = advisor_->Suggest(Mix(1), &ctx);
    EXPECT_EQ(Record(result, before, &ctx), expected) << threads << " threads";
  }
}

TEST_F(InferenceTest, GoldenSuggestWithoutExtraRollouts) {
  advisor_->mutable_config().inference_extra_rollouts = 0;
  EvalContext ctx(2, 3102);
  auto before = InferenceCounters::Now();
  auto result = advisor_->Suggest(Mix(2), &ctx);
  advisor_->mutable_config().inference_extra_rollouts =
      Config().inference_extra_rollouts;
  EXPECT_EQ(Record(result, before, &ctx),
            "fp=78fcd791d2bfcaf5 cost=4057bd08a78d6854 "
            "actions=1,12,0,1,0,1,0,1,0,1 counters=1,10,0,0,0 "
            "rng=0a48a84fbfa87c72");
}

TEST_F(InferenceTest, GoldenPrunedSuggest) {
  const std::string expected[] = {
      "fp=78fcd791d2bfcaf5 cost=405a6fbf4f676ca2 "
      "actions=1,2,1,2,1,2,1,2,1,2 counters=5,19,338,1,0 "
      "rng=e43e884017219c63",
      "fp=78fcd791d2bfcaf5 cost=405a6fbf4f676ca2 "
      "actions=1,2,1,2,1,2,1,2,1,2 counters=5,17,338,2,2 "
      "rng=e43e884017219c63"};
  for (int e = 0; e < 2; ++e) {
    advisor::SuggestOptions options;
    options.prune_rollouts = true;
    options.prune_epsilon = e == 0 ? 0.0 : 0.1;
    for (int threads : {1, 4}) {
      EvalContext ctx(threads, 3103);
      auto before = InferenceCounters::Now();
      auto result = advisor_->Suggest(Mix(3), options, &ctx);
      EXPECT_EQ(Record(result, before, &ctx), expected[e])
          << "prune_epsilon " << options.prune_epsilon << ", " << threads
          << " threads";
    }
  }
}

TEST_F(InferenceTest, GoldenSuggestWithTransitionCost) {
  auto deployed =
      partition::PartitioningState::Initial(schema_, &advisor_->edges());
  EvalContext ctx(4, 3104);
  auto before = InferenceCounters::Now();
  auto result =
      advisor_->SuggestWithTransitionCost(Mix(4), deployed, 0.05, model_, &ctx);
  EXPECT_EQ(Record(result, before, &ctx),
            "fp=e665188ab041f350 cost=405980c8f32430b9 "
            "actions=1,13,2,1,2,1,2,1,2,1 counters=5,46,0,0,0 "
            "rng=3cfb5589c8261781");
}

TEST_F(InferenceTest, GoldenHandleOverRestoredSnapshot) {
  AdvisorHandle handle(schema_, *workload_, Config());
  ASSERT_TRUE(handle.Restore(*snapshot_).ok());
  ASSERT_TRUE(handle.BindCostModel(model_).ok());

  SuggestRequest request;
  request.frequencies = Mix(5);
  EvalContext plain_ctx(4, 3105);
  auto before = InferenceCounters::Now();
  auto plain = handle.Suggest(request, &plain_ctx);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_EQ(Record(*plain, before, &plain_ctx),
            "fp=01425261c78a1eb4 cost=4052abd56c952aae "
            "actions=10,1,3,1,3,1,3,1,3,1 counters=5,47,0,0,0 "
            "rng=a1e896b236e4f172");

  auto deployed =
      partition::PartitioningState::Initial(schema_, &advisor_->edges());
  request.deployed = &deployed;
  request.transition_cost_weight = 0.05;
  EvalContext transition_ctx(4, 3106);
  before = InferenceCounters::Now();
  auto transition = handle.Suggest(request, &transition_ctx);
  ASSERT_TRUE(transition.ok()) << transition.status().ToString();
  EXPECT_EQ(Record(*transition, before, &transition_ctx),
            "fp=1a7091845e1cd0f2 cost=4052be3565a6c6c3 "
            "actions=10,1,3,1,3,1,3,1,3,1 counters=5,46,0,0,0 "
            "rng=0d7f6401abe1c760");
}

TEST_F(InferenceTest, GoldenSuggestAgainstOnlineEnv) {
  const std::string expected =
      "fp=b56218d736bcd968 cost=3f928d9f0975809a "
      "actions=1,0,1,0,1,0,1,0,1,0 counters=5,46,0,0,0 "
      "rng=2d2749daec7e4296";
  const std::string expected_accounting =
      "query_s=3fd12289850cdc7b repartition_s=3fd4169ec2974c8a executed=78 "
      "hits=585 saved_s=0000000000000000";
  for (int threads : {1, 4}) {
    OnlineTestbed testbed;
    EvalContext ctx(threads, 3107);
    auto before = InferenceCounters::Now();
    auto result = advisor_->Suggest(Mix(7), testbed.env.get(), &ctx);
    EXPECT_EQ(Record(result, before, &ctx), expected) << threads << " threads";
    EXPECT_EQ(AccountingRecord(testbed.env->accounting()), expected_accounting)
        << threads << " threads";
  }
}

TEST_F(InferenceTest, GoldenCommitteeSuggest) {
  advisor::CommitteeConfig config;
  config.expert_episodes = 6;
  EvalContext build_ctx(1, 3108);
  advisor::SubspaceCommittee committee(advisor_, advisor_->offline_env(),
                                       config, &build_ctx);
  EvalContext ctx(1, 3109);
  auto before = InferenceCounters::Now();
  auto result = committee.Suggest(Mix(9), advisor_->offline_env(), &ctx);
  EXPECT_EQ(Record(result, before, &ctx),
            "fp=38e6378e6f9a025f cost=40554b4408d26d55 "
            "actions=1,12,0,1,0,1,0,1,0,1 counters=5,47,0,0,0 "
            "rng=9fe99078d3be8098");
}

TEST_F(InferenceTest, GoldenServingModelSuggest) {
  std::istringstream snapshot(*snapshot_);
  auto model = serving::ServingModel::FromSnapshot(schema_, *workload_,
                                                   Config(), model_, snapshot);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_EQ(ResultRecord((*model)->Suggest(Mix(10))),
            "fp=b56218d736bcd968 cost=40596a889887e3e1 "
            "actions=2,1,2,1,2,1,2,1,2,1");
}

// The online environment deploys a design and fills its runtime cache on
// every priced state, so a transition-cost Suggest against it must run its
// extra rollouts one after another: 4 threads reproduce the 1-thread result
// and the same cluster accounting.
TEST_F(InferenceTest, TransitionCostSuggestOnOnlineEnvIsThreadCountInvariant) {
  AdvisorHandle handle(schema_, *workload_, Config());
  ASSERT_TRUE(handle.Restore(*snapshot_).ok());
  ASSERT_TRUE(handle.BindCostModel(model_).ok());
  auto deployed =
      partition::PartitioningState::Initial(schema_, &advisor_->edges());
  std::string reference;
  std::string reference_accounting;
  for (int threads : {1, 4}) {
    OnlineTestbed testbed;
    SuggestRequest request;
    request.frequencies = Mix(11);
    request.env = testbed.env.get();
    request.deployed = &deployed;
    request.transition_cost_weight = 0.05;
    EvalContext ctx(threads, 3111);
    auto result = handle.Suggest(request, &ctx);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    std::string record = ResultRecord(*result);
    std::string accounting = AccountingRecord(testbed.env->accounting());
    if (threads == 1) {
      reference = record;
      reference_accounting = accounting;
      continue;
    }
    EXPECT_EQ(record, reference) << threads << " threads";
    EXPECT_EQ(accounting, reference_accounting) << threads << " threads";
  }
}

}  // namespace
}  // namespace lpa
