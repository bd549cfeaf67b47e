// Tests for the parallel evaluation engine: ThreadPool scheduling,
// EvalContext RNG forking, end-to-end determinism of seeded training across
// thread counts, TPC-CH pricing from pool threads against the serial bits,
// the DQN learner step on a busy or shared pool, the sharded
// cost cache, and the shared CLI flag parser.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <condition_variable>
#include <cstring>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "advisor/advisor.h"
#include "costmodel/cost_cache.h"
#include "costmodel/noisy_model.h"
#include "partition/actions.h"
#include "rl/dqn.h"
#include "rl/offline_env.h"
#include "schema/catalogs.h"
#include "telemetry/registry.h"
#include "util/cli.h"
#include "util/eval_context.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/benchmarks.h"

namespace lpa {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> touched(kN);
  pool.ParallelFor(kN, 7, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      touched[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(touched[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, NestedParallelForCompletes) {
  // A ParallelFor issued from inside a pool task must make progress even
  // when every worker is busy (caller-runs contract).
  ThreadPool pool(2);
  std::atomic<long> total{0};
  pool.ParallelForEach(4, 1, [&](size_t) {
    pool.ParallelFor(100, 10, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        total.fetch_add(static_cast<long>(i), std::memory_order_relaxed);
      }
    });
  });
  EXPECT_EQ(total.load(), 4 * (99 * 100 / 2));
}

TEST(ThreadPoolTest, ConcurrentCallersEachCoverTheirRange) {
  // More callers than the pool has region slots: every region still covers
  // its range exactly once, whether workers help or its caller runs it all.
  ThreadPool pool(3);
  constexpr int kCallers = 12;
  constexpr size_t kN = 64;
  std::vector<std::vector<int>> hits(kCallers, std::vector<int>(kN, 0));
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &hits, c]() {
      for (int round = 0; round < 200; ++round) {
        pool.ParallelFor(kN, 4, [&hits, c](size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) ++hits[c][i];
        });
      }
    });
  }
  for (auto& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) {
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[c][i], 200) << "caller " << c << " index " << i;
    }
  }
}

TEST(ThreadPoolTest, SubmitReturnsFutureValue) {
  ThreadPool pool(1);
  auto f = pool.Submit([] { return 41 + 1; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPoolTest, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_workers(), 0);
  std::vector<int> out(64, 0);
  pool.ParallelForEach(out.size(), 8, [&](size_t i) { out[i] = 1; });
  for (int v : out) EXPECT_EQ(v, 1);
}

// ---------------------------------------------------------------------------
// EvalContext

TEST(EvalContextTest, DefaultIsSerial) {
  EvalContext ctx;
  EXPECT_EQ(ctx.threads(), 1);
  EXPECT_EQ(ctx.pool(), nullptr);
  int ran = 0;
  ctx.ParallelForEach(5, 1, [&](size_t) { ++ran; });
  EXPECT_EQ(ran, 5);
}

TEST(EvalContextTest, ForkedStreamsIndependentOfFanOut) {
  // ForkRngs consumes exactly one master draw and derives sub-stream i from
  // (base, i) — so stream i is identical no matter how many siblings exist.
  EvalContext a(/*threads=*/1, /*seed=*/123);
  EvalContext b(/*threads=*/8, /*seed=*/123);
  auto ra = a.ForkRngs(3);
  auto rb = b.ForkRngs(8);
  for (size_t i = 0; i < ra.size(); ++i) {
    for (int draw = 0; draw < 16; ++draw) {
      EXPECT_EQ(ra[i].Uniform(), rb[i].Uniform());
    }
  }
  // The master streams advanced by the same single draw.
  EXPECT_EQ(a.rng()->Uniform(), b.rng()->Uniform());
}

TEST(EvalContextTest, ChildBorrowsPoolWithOwnStream) {
  EvalContext parent(/*threads=*/4, /*seed=*/1);
  EvalContext child(parent.pool(), /*seed=*/2);
  EXPECT_EQ(child.pool(), parent.pool());
  EXPECT_NE(child.rng()->Uniform(), parent.rng()->Uniform());
}

// ---------------------------------------------------------------------------
// End-to-end determinism: same seed => bit-identical training curve and the
// same suggested design at 1, 2, and 8 threads.

struct SeededRun {
  std::vector<double> rewards;
  std::string design;
  double best_cost = 0.0;
};

SeededRun TrainAndSuggest(int threads) {
  schema::Schema schema = schema::MakeSsbSchema();
  workload::Workload workload = workload::MakeSsbWorkload(schema);
  costmodel::CostModel model(&schema, costmodel::HardwareProfile::DiskBased10G());

  advisor::AdvisorConfig config;
  config.dqn.tmax = 10;
  config.dqn.epsilon_decay = 0.95;
  config.offline_episodes = 30;
  config.seed = 77;
  advisor::PartitioningAdvisor advisor(&schema, workload, config);

  EvalContext ctx(threads, /*seed=*/77);
  SeededRun run;
  run.rewards = advisor.TrainOffline(&model, nullptr, &ctx).episode_best_rewards;
  std::vector<double> uniform(
      static_cast<size_t>(workload.num_queries()), 1.0);
  auto result = advisor.Suggest(uniform, &ctx);
  run.design = result.best_state.PhysicalDesignKey();
  run.best_cost = result.best_cost;
  return run;
}

TEST(ParallelDeterminismTest, TrainingAndSuggestionIdenticalAcrossThreads) {
  SeededRun serial = TrainAndSuggest(1);
  ASSERT_EQ(serial.rewards.size(), 30u);
  for (int threads : {2, 8}) {
    SeededRun parallel = TrainAndSuggest(threads);
    ASSERT_EQ(parallel.rewards.size(), serial.rewards.size());
    for (size_t i = 0; i < serial.rewards.size(); ++i) {
      // Bitwise, not approximate: the determinism contract is exact.
      EXPECT_EQ(std::memcmp(&serial.rewards[i], &parallel.rewards[i],
                            sizeof(double)),
                0)
          << "episode " << i << " at threads=" << threads;
    }
    EXPECT_EQ(parallel.design, serial.design) << "threads=" << threads;
    EXPECT_EQ(parallel.best_cost, serial.best_cost) << "threads=" << threads;
  }
}

TEST(ParallelDeterminismTest, OfflineEnvParallelCostMatchesSerial) {
  schema::Schema schema = schema::MakeSsbSchema();
  workload::Workload workload = workload::MakeSsbWorkload(schema);
  costmodel::CostModel model(&schema, costmodel::HardwareProfile::DiskBased10G());
  auto edges = partition::EdgeSet::Extract(schema, workload);
  auto state = partition::PartitioningState::Initial(&schema, &edges);
  std::vector<double> freqs(static_cast<size_t>(workload.num_queries()), 1.0);

  rl::OfflineEnv serial_env(&model, &workload);
  double serial_cost = serial_env.WorkloadCost(state, freqs);

  rl::OfflineEnv parallel_env(&model, &workload);
  EvalContext ctx(/*threads=*/4, /*seed=*/1);
  double parallel_cost = parallel_env.WorkloadCost(state, freqs, &ctx);
  EXPECT_EQ(parallel_cost, serial_cost);

  // A repeated evaluation is served from the cache and stays identical.
  double cached_cost = parallel_env.WorkloadCost(state, freqs, &ctx);
  EXPECT_EQ(cached_cost, serial_cost);
  EXPECT_GT(parallel_env.cache_hits(), 0u);
}

// Every TPC-CH query priced from 4 pool threads through
// OfflineEnv::WorkloadCost, under seeded random designs, for the exact model
// and a NoisyOptimizerModel with the independence assumption on. Each
// worker plans queries of different sizes one after another on its own
// planner scratch; every per-query cost and every total must carry the
// serial bits.
TEST(ParallelDeterminismTest, PooledTpcchPricingMatchesSerialBits) {
  schema::Schema schema = schema::MakeTpcchSchema();
  workload::Workload workload = workload::MakeTpcchWorkload(schema);
  auto edges = partition::EdgeSet::Extract(schema, workload);
  partition::ActionSpace actions(&schema, &edges);
  const auto hw = costmodel::HardwareProfile::DiskBased10G();
  costmodel::CostModel exact(&schema, hw);
  costmodel::NoisyOptimizerModel noisy(&schema, hw, /*depth_sigma=*/0.5,
                                       /*seed=*/4242,
                                       /*use_independence_assumption=*/true);
  std::vector<double> freqs(static_cast<size_t>(workload.num_queries()), 1.0);
  for (const costmodel::CostModel* model :
       {static_cast<const costmodel::CostModel*>(&exact),
        static_cast<const costmodel::CostModel*>(&noisy)}) {
    rl::OfflineEnv pooled_env(model, &workload);
    EvalContext ctx(/*threads=*/4, /*seed=*/1);
    Rng rng(77);
    auto state = partition::PartitioningState::Initial(&schema, &edges);
    for (int design = 0; design < 12; ++design) {
      for (int step = 0; step < 2; ++step) {
        auto legal = actions.LegalActions(state);
        ASSERT_TRUE(actions
                        .Apply(legal[static_cast<size_t>(rng.UniformInt(
                                   0, static_cast<int64_t>(legal.size()) - 1))],
                               &state)
                        .ok());
      }
      double serial_total = 0.0;
      std::vector<double> serial(freqs.size());
      for (int j = 0; j < workload.num_queries(); ++j) {
        serial[static_cast<size_t>(j)] =
            model->QueryCost(workload.query(j), state);
        serial_total += serial[static_cast<size_t>(j)];
      }
      const double pooled_total = pooled_env.WorkloadCost(state, freqs, &ctx);
      EXPECT_EQ(std::bit_cast<uint64_t>(pooled_total),
                std::bit_cast<uint64_t>(serial_total))
          << "design " << design;
      for (int j = 0; j < workload.num_queries(); ++j) {
        // A cache hit: the cost a pool thread computed above.
        EXPECT_EQ(std::bit_cast<uint64_t>(pooled_env.QueryCost(j, state, 1.0)),
                  std::bit_cast<uint64_t>(serial[static_cast<size_t>(j)]))
            << "design " << design << " query " << j;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The DQN learner step on a busy or shared pool: its regions run every chunk
// that no worker claims on the caller, so the weights are the serial ones.

struct LearnerBed {
  LearnerBed()
      : schema(schema::MakeSsbSchema()),
        wl(workload::MakeSsbWorkload(schema)),
        edges(partition::EdgeSet::Extract(schema, wl)),
        featurizer(&schema, &edges, wl.num_queries()),
        actions(&schema, &edges) {}

  schema::Schema schema;
  workload::Workload wl;
  partition::EdgeSet edges;
  partition::Featurizer featurizer;
  partition::ActionSpace actions;
};

/// Digest of the Q and target weights and the losses after `steps` train
/// steps on `pool` (null = serial), from replay contents of seeded random
/// walks.
uint64_t TrainDigest(const LearnerBed& bed, uint64_t seed, int steps,
                     ThreadPool* pool) {
  rl::DqnConfig config;
  config.seed = seed;
  rl::DqnAgent agent(&bed.featurizer, &bed.actions, config);
  Rng walk(seed + 1);
  for (int w = 0; w < 8; ++w) {
    auto freqs = workload::SampleUniformFrequencies(bed.wl.num_queries(), &walk);
    auto state = partition::PartitioningState::Initial(&bed.schema, &bed.edges);
    auto enc = bed.featurizer.EncodeState(state, freqs);
    auto legal = bed.actions.LegalActions(state);
    for (int s = 0; s < 8 && !legal.empty(); ++s) {
      const int action = legal[static_cast<size_t>(
          walk.UniformInt(0, static_cast<int64_t>(legal.size()) - 1))];
      EXPECT_TRUE(bed.actions.Apply(action, &state).ok());
      auto next_enc = bed.featurizer.EncodeState(state, freqs);
      auto next_legal = bed.actions.LegalActions(state);
      agent.Observe(
          rl::Transition{enc, action, walk.Uniform(-1.0, 1.0), next_enc,
                         next_legal});
      enc = std::move(next_enc);
      legal = std::move(next_legal);
    }
  }
  Rng rng(seed + 2);
  uint64_t h = 0;
  for (int s = 0; s < steps; ++s) {
    h = HashCombine(h, std::bit_cast<uint64_t>(agent.TrainStep(&rng, pool)));
  }
  for (const nn::Mlp* net : {&agent.q_network(), &agent.target_network()}) {
    for (size_t l = 0; l < net->num_layers(); ++l) {
      for (const nn::Matrix* m : {&net->layer_weights(l), &net->layer_bias(l)}) {
        for (double v : m->data()) h = HashCombine(h, std::bit_cast<uint64_t>(v));
      }
    }
  }
  return h;
}

TEST(LearnerPoolTest, TrainStepCompletesWhileEveryWorkerIsBlocked) {
  const LearnerBed bed;
  const uint64_t serial = TrainDigest(bed, 5, 40, nullptr);
  EvalContext ctx(4);
  ThreadPool* pool = ctx.pool();
  const int workers = pool->num_workers();
  std::mutex mu;
  std::condition_variable cv;
  int started = 0;
  bool release = false;
  std::vector<std::future<void>> blocked;
  for (int w = 0; w < workers; ++w) {
    blocked.push_back(pool->Submit([&]() {
      std::unique_lock<std::mutex> lock(mu);
      ++started;
      cv.notify_all();
      cv.wait(lock, [&]() { return release; });
    }));
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&]() { return started == workers; });
  }
  EXPECT_EQ(TrainDigest(bed, 5, 40, pool), serial);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  for (auto& f : blocked) f.get();
  // The workers are free again and the pool still trains to the same bits.
  EXPECT_EQ(TrainDigest(bed, 5, 40, pool), serial);
}

TEST(LearnerPoolTest, ConcurrentAgentsOnChildContextsKeepTheirDigests) {
  const LearnerBed bed;
  const uint64_t serial_a = TrainDigest(bed, 11, 60, nullptr);
  const uint64_t serial_b = TrainDigest(bed, 12, 60, nullptr);
  ASSERT_NE(serial_a, serial_b);
  EvalContext parent(4, 1);
  EvalContext child_a(parent.pool(), 2);
  EvalContext child_b(parent.pool(), 3);
  uint64_t got_a = 0, got_b = 0;
  std::thread a([&]() { got_a = TrainDigest(bed, 11, 60, child_a.pool()); });
  std::thread b([&]() { got_b = TrainDigest(bed, 12, 60, child_b.pool()); });
  a.join();
  b.join();
  EXPECT_EQ(got_a, serial_a);
  EXPECT_EQ(got_b, serial_b);
}

// ---------------------------------------------------------------------------
// CostCache

TEST(CostCacheTest, MemoizesAndCountsStats) {
  costmodel::CostCache cache;
  int computes = 0;
  auto compute = [&] {
    ++computes;
    return 3.5;
  };
  EXPECT_EQ(cache.GetOrCompute(7u, compute), 3.5);
  EXPECT_EQ(cache.GetOrCompute(7u, compute), 3.5);
  EXPECT_EQ(computes, 1);
  auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(CostCacheTest, FullMemoRefusesInsertsAndKeepsAnswering) {
  using costmodel::CostCache;
  CostCache cache;
  auto& evictions = telemetry::MetricsRegistry::Global().GetCounter(
      "costmodel.cost_cache_evictions.count");
  const uint64_t evictions_before = evictions.value();
  auto value_of = [](uint64_t key) { return static_cast<double>(key) + 0.25; };

  // Keys 0, 1, 2, ... (0 is a key like any other), an eighth more than the
  // memo holds, so that every shard fills. A refused insert still answers
  // with the value it computed.
  const uint64_t num_keys = CostCache::kCapacity + CostCache::kCapacity / 8;
  uint64_t computes = 0;
  for (uint64_t key = 0; key < num_keys; ++key) {
    const double got = cache.GetOrCompute(key, [&] {
      ++computes;
      return value_of(key);
    });
    ASSERT_EQ(got, value_of(key)) << "key " << key;
  }
  EXPECT_EQ(computes, num_keys);
  EXPECT_EQ(cache.size(), CostCache::kCapacity);
  const uint64_t refused = num_keys - CostCache::kCapacity;
  EXPECT_EQ(evictions.value() - evictions_before, refused);

  // Stored keys hit; every refused key is computed again, answered, and
  // refused again. The memo does not grow.
  computes = 0;
  for (uint64_t key = 0; key < num_keys; ++key) {
    const double got = cache.GetOrCompute(key, [&] {
      ++computes;
      return value_of(key);
    });
    ASSERT_EQ(got, value_of(key)) << "key " << key;
    // No shard can be full before 16,384 keys went in.
    if (key < CostCache::kShardCapacity) {
      ASSERT_EQ(computes, 0u) << "key " << key;
    }
  }
  EXPECT_EQ(computes, refused);
  EXPECT_EQ(cache.size(), CostCache::kCapacity);
  EXPECT_EQ(evictions.value() - evictions_before, 2 * refused);
  const CostCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 2 * refused);
  EXPECT_EQ(stats.hits, CostCache::kCapacity);
  EXPECT_EQ(stats.misses, num_keys + refused);
}

TEST(CostCacheTest, ConcurrentGetOrComputeIsConsistent) {
  costmodel::CostCache cache;
  ThreadPool pool(4);
  std::atomic<int> computes{0};
  std::vector<double> results(256, 0.0);
  pool.ParallelForEach(results.size(), 1, [&](size_t i) {
    const uint64_t key = static_cast<uint64_t>(i % 8);
    results[i] = cache.GetOrCompute(key, [&] {
      computes.fetch_add(1, std::memory_order_relaxed);
      return static_cast<double>(i % 8) * 2.0;
    });
  });
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], static_cast<double>(i % 8) * 2.0);
  }
  // Concurrent misses on one key may duplicate the compute, but the cache
  // never holds more than the 8 distinct keys.
  EXPECT_EQ(cache.size(), 8u);
  EXPECT_GE(computes.load(), 8);
}

// ---------------------------------------------------------------------------
// CLI flag parsing

TEST(CliTest, ParsesBothFlagForms) {
  cli::FlagParser parser;
  int threads = 1;
  std::string profile = "disk";
  bool verbose = false;
  parser.AddInt("threads", "", &threads);
  parser.AddString("profile", "", &profile);
  parser.AddBool("verbose", "", &verbose);
  const char* argv[] = {"bin", "--threads", "8", "--profile=memory",
                        "--verbose"};
  std::string error;
  ASSERT_TRUE(parser.Parse(5, const_cast<char**>(argv), &error)) << error;
  EXPECT_EQ(threads, 8);
  EXPECT_EQ(profile, "memory");
  EXPECT_TRUE(verbose);
}

TEST(CliTest, AliasParsesButStaysHidden) {
  cli::FlagParser parser;
  std::string profile = "disk";
  parser.AddString("profile", "engine profile", &profile);
  parser.AddAlias("engine", "profile");
  const char* argv[] = {"bin", "--engine", "memory"};
  std::string error;
  ASSERT_TRUE(parser.Parse(3, const_cast<char**>(argv), &error)) << error;
  EXPECT_EQ(profile, "memory");
  EXPECT_EQ(parser.Usage("bin").find("--engine"), std::string::npos);
  EXPECT_NE(parser.Usage("bin").find("--profile"), std::string::npos);
}

TEST(CliTest, RejectsUnknownFlagMissingValueAndBadNumber) {
  cli::FlagParser parser;
  int threads = 1;
  parser.AddInt("threads", "", &threads);
  std::string error;

  const char* unknown[] = {"bin", "--bogus"};
  EXPECT_FALSE(parser.Parse(2, const_cast<char**>(unknown), &error));

  const char* missing[] = {"bin", "--threads"};
  EXPECT_FALSE(parser.Parse(2, const_cast<char**>(missing), &error));

  const char* bad[] = {"bin", "--threads", "lots"};
  EXPECT_FALSE(parser.Parse(3, const_cast<char**>(bad), &error));
}

TEST(CliTest, DoubleFlagRejectsNaNInfinityAndNegative) {
  cli::FlagParser parser;
  double epsilon = 0.25;
  parser.AddDouble("epsilon", "", &epsilon);
  std::string error;

  for (const char* value : {"nan", "NaN", "inf", "-inf", "-0.5", "1e999"}) {
    const char* argv[] = {"bin", "--epsilon", value};
    EXPECT_FALSE(parser.Parse(3, const_cast<char**>(argv), &error))
        << "accepted --epsilon " << value;
    EXPECT_NE(error.find("finite non-negative"), std::string::npos) << error;
    EXPECT_EQ(epsilon, 0.25) << "rejected parse must not clobber the output";
  }

  const char* ok[] = {"bin", "--epsilon", "0.125"};
  ASSERT_TRUE(parser.Parse(3, const_cast<char**>(ok), &error)) << error;
  EXPECT_EQ(epsilon, 0.125);
}

void RegisterThreadsFlagTwice() {
  cli::FlagParser parser;
  int a = 0;
  int b = 0;
  parser.AddInt("threads", "", &a);
  parser.AddInt("threads", "", &b);
}

void RegisterAliasWithoutTarget() {
  cli::FlagParser parser;
  parser.AddAlias("engine", "profile");  // target never registered
}

void ParseOrExitUnknownFlag() {
  cli::FlagParser parser;
  int threads = 1;
  parser.AddInt("threads", "", &threads);
  const char* argv[] = {"bin", "--bogus"};
  parser.ParseOrExit(2, const_cast<char**>(argv));
}

TEST(CliTest, DuplicateFlagRegistrationAborts) {
  // A silently shadowed flag would leave one registration dead; the parser
  // treats it as a programmer error and aborts at registration time.
  EXPECT_DEATH(RegisterThreadsFlagTwice(), "duplicate registration");
  EXPECT_DEATH(RegisterAliasWithoutTarget(), "targets unregistered");
}

TEST(CliTest, ParseOrExitPrintsUsageAndExitsNonZeroOnUnknownFlag) {
  EXPECT_EXIT(ParseOrExitUnknownFlag(), ::testing::ExitedWithCode(2),
              "usage: bin");

  // The happy path neither exits nor prints.
  cli::FlagParser parser;
  int threads = 1;
  parser.AddInt("threads", "", &threads);
  const char* argv[] = {"bin", "--threads", "6"};
  parser.ParseOrExit(3, const_cast<char**>(argv));
  EXPECT_EQ(threads, 6);
}

TEST(CliTest, CommonOptionsValidate) {
  cli::CommonOptions common;
  std::string error;
  EXPECT_TRUE(common.Validate(&error));

  common.threads = 0;
  EXPECT_FALSE(common.Validate(&error));
  common.threads = 4;
  common.profile = "floppy";
  EXPECT_FALSE(common.Validate(&error));
  common.profile = "memory";
  EXPECT_TRUE(common.Validate(&error));
}

}  // namespace
}  // namespace lpa
