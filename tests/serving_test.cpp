// Tests of the serving subsystem: the bounded request queue's admission and
// shutdown semantics, served suggestions bit-identical to serial inference
// at any worker count, admission control and deadline shedding in the
// server, RCU model hot-swap under concurrent load, and the load
// generator's request accounting and open-loop latency.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <limits>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "advisor/advisor.h"
#include "advisor/serialization.h"
#include "schema/catalogs.h"
#include "serving/loadgen.h"
#include "serving/model_registry.h"
#include "serving/request_queue.h"
#include "serving/server.h"
#include "telemetry/registry.h"
#include "workload/benchmarks.h"

namespace lpa::serving {
namespace {

using advisor::AdvisorConfig;
using advisor::PartitioningAdvisor;
using costmodel::HardwareProfile;

// ---------------------------------------------------------------------------
// BoundedQueue

TEST(BoundedQueueTest, AdmissionAndDrainSemantics) {
  BoundedQueue<int> queue(2);
  int a = 1, b = 2, c = 3;
  EXPECT_EQ(queue.TryPush(a), BoundedQueue<int>::PushResult::kOk);
  EXPECT_EQ(queue.TryPush(b), BoundedQueue<int>::PushResult::kOk);
  EXPECT_EQ(queue.TryPush(c), BoundedQueue<int>::PushResult::kFull);
  EXPECT_EQ(c, 3);  // rejected items are not moved from
  EXPECT_EQ(queue.size(), 2u);

  queue.Close();
  int d = 4;
  EXPECT_EQ(queue.TryPush(d), BoundedQueue<int>::PushResult::kClosed);

  // Queued items drain after close, then Pop signals exit.
  int out = 0;
  EXPECT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 2);
  EXPECT_FALSE(queue.Pop(&out));
}

TEST(BoundedQueueTest, CloseWakesBlockedConsumers) {
  BoundedQueue<int> queue(4);
  std::atomic<int> exited{0};
  std::vector<std::thread> consumers;
  for (int i = 0; i < 3; ++i) {
    consumers.emplace_back([&] {
      int out;
      while (queue.Pop(&out)) {
      }
      exited.fetch_add(1);
    });
  }
  // Consumers are parked on the empty queue; Close must wake all of them
  // (the test would hang here if a worker missed the wakeup).
  queue.Close();
  for (auto& consumer : consumers) consumer.join();
  EXPECT_EQ(exited.load(), 3);
}

TEST(BoundedQueueTest, DrainRemainingTakesLeftovers) {
  BoundedQueue<int> queue(4);
  int items[] = {1, 2, 3};
  for (int& item : items) queue.TryPush(item);
  queue.Close();
  std::vector<int> left = queue.DrainRemaining();
  EXPECT_EQ(left, (std::vector<int>{1, 2, 3}));
  int out;
  EXPECT_FALSE(queue.Pop(&out));
}

// ---------------------------------------------------------------------------
// Shared micro testbed (one tiny trained agent snapshot per suite)

class ServingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    schema_ = new schema::Schema(schema::MakeMicroSchema());
    workload_ = new workload::Workload(workload::MakeMicroWorkload(*schema_));
    model_ = new costmodel::CostModel(schema_, HardwareProfile::DiskBased10G());
    PartitioningAdvisor advisor(schema_, *workload_, FastConfig());
    advisor.TrainOffline(model_);
    std::stringstream snapshot;
    ASSERT_TRUE(advisor::SaveAgentSnapshot(*advisor.agent(), snapshot).ok());
    snapshot_ = new std::string(snapshot.str());
  }

  static void TearDownTestSuite() {
    delete snapshot_;
    delete model_;
    delete workload_;
    delete schema_;
  }

  static AdvisorConfig FastConfig() {
    AdvisorConfig config;
    config.dqn.tmax = 8;
    config.offline_episodes = 8;
    config.dqn.FitEpsilonSchedule(config.offline_episodes);
    config.inference_extra_rollouts = 0;  // the deterministic greedy rollout
    config.seed = 7;
    return config;
  }

  /// A snapshot-restored servable model (the hot-swap load path).
  static std::shared_ptr<ServingModel> MakeModel() {
    std::istringstream snapshot(*snapshot_);
    auto model = ServingModel::FromSnapshot(schema_, *workload_, FastConfig(),
                                            model_, snapshot);
    EXPECT_TRUE(model.ok()) << model.status().ToString();
    return *model;
  }

  /// The serial reference: a fresh advisor restored from the same snapshot,
  /// suggesting on the calling thread without a server.
  static rl::InferenceResult SerialSuggest(
      const std::vector<double>& frequencies) {
    PartitioningAdvisor advisor(schema_, *workload_, FastConfig());
    std::istringstream snapshot(*snapshot_);
    EXPECT_TRUE(advisor::LoadAgentSnapshot(snapshot, advisor.agent()).ok());
    rl::OfflineEnv env(model_, &advisor.workload());
    return advisor.Suggest(frequencies, &env);
  }

  static std::vector<double> Mix(int hot) {
    std::vector<double> frequencies(
        static_cast<size_t>(workload_->num_queries()), 1.0);
    frequencies[static_cast<size_t>(hot) % frequencies.size()] = 5.0;
    return frequencies;
  }

  static schema::Schema* schema_;
  static workload::Workload* workload_;
  static costmodel::CostModel* model_;
  static std::string* snapshot_;
};

schema::Schema* ServingTest::schema_ = nullptr;
workload::Workload* ServingTest::workload_ = nullptr;
costmodel::CostModel* ServingTest::model_ = nullptr;
std::string* ServingTest::snapshot_ = nullptr;

// ---------------------------------------------------------------------------
// Served inference bit-identity

TEST_F(ServingTest, ServedBitIdenticalToSerialAdvisorAtAnyWorkerCount) {
  constexpr int kRequests = 8;
  std::vector<rl::InferenceResult> expected;
  for (int i = 0; i < kRequests; ++i) expected.push_back(SerialSuggest(Mix(i)));

  // Serve the same mixes concurrently: with more workers than one, the
  // rollouts of different requests run at the same time on one model.
  for (int workers : {1, 2, 4, 8}) {
    SCOPED_TRACE(testing::Message() << workers << " worker(s)");
    ModelRegistry registry;
    registry.Publish(MakeModel());
    ServerConfig config;
    config.worker_threads = workers;
    AdvisorServer server(&registry, config);
    ASSERT_TRUE(server.Start().ok());

    std::vector<std::future<SuggestResponse>> futures;
    for (int i = 0; i < kRequests; ++i) {
      futures.push_back(server.SubmitAsync(Mix(i)));
    }
    for (int i = 0; i < kRequests; ++i) {
      SuggestResponse response = futures[(size_t)i].get();
      ASSERT_TRUE(response.status.ok()) << response.status.ToString();
      EXPECT_EQ(response.model_version, 1u);
      // Bit-identical: same action sequence, same exact cost, same design.
      EXPECT_EQ(response.result->actions, expected[(size_t)i].actions);
      EXPECT_EQ(response.result->best_cost, expected[(size_t)i].best_cost);
      EXPECT_EQ(response.result->best_state.PhysicalDesignKey(),
                expected[(size_t)i].best_state.PhysicalDesignKey());
    }
    server.Stop();
    auto stats = server.stats();
    EXPECT_EQ(stats.submitted, static_cast<uint64_t>(kRequests));
    EXPECT_EQ(stats.completed, static_cast<uint64_t>(kRequests));
  }
}

// ---------------------------------------------------------------------------
// Admission control and deadline shedding

TEST_F(ServingTest, AdmissionControlRejectsWhenQueueFull) {
  // No workers: nothing drains the queue, so capacity is exact.
  ModelRegistry registry;
  ServerConfig config;
  config.worker_threads = 0;
  config.queue_capacity = 2;
  AdvisorServer server(&registry, config);
  ASSERT_TRUE(server.Start().ok());

  auto f1 = server.SubmitAsync(Mix(0));
  auto f2 = server.SubmitAsync(Mix(1));
  auto f3 = server.SubmitAsync(Mix(2));
  // The third is rejected immediately with a retryable status.
  ASSERT_EQ(f3.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  SuggestResponse rejected = f3.get();
  EXPECT_EQ(rejected.status.code(), Status::Code::kUnavailable);

  // Stop fails the two queued requests rather than abandoning their futures.
  server.Stop(AdvisorServer::StopMode::kAbort);
  EXPECT_EQ(f1.get().status.code(), Status::Code::kUnavailable);
  EXPECT_EQ(f2.get().status.code(), Status::Code::kUnavailable);

  auto stats = server.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.failed, 2u);
  EXPECT_EQ(stats.submitted,
            stats.completed + stats.rejected + stats.shed + stats.failed);

  // Submitting against a stopped server rejects immediately too.
  SuggestResponse stopped = server.Suggest(Mix(0));
  EXPECT_EQ(stopped.status.code(), Status::Code::kUnavailable);
}

TEST_F(ServingTest, ExpiredDeadlinesAreShedNotServed) {
  ModelRegistry registry;
  registry.Publish(MakeModel());
  ServerConfig config;
  config.worker_threads = 1;
  AdvisorServer server(&registry, config);
  ASSERT_TRUE(server.Start().ok());

  // A 1ns deadline has always passed by the time a worker picks the request
  // up; it must be shed without running inference.
  SuggestResponse shed = server.Suggest(Mix(0), /*deadline_seconds=*/1e-9);
  EXPECT_EQ(shed.status.code(), Status::Code::kDeadlineExceeded);
  EXPECT_EQ(shed.model_version, 0u);

  // Without a deadline the same request completes.
  SuggestResponse served = server.Suggest(Mix(0));
  EXPECT_TRUE(served.status.ok());
  server.Stop();

  auto stats = server.stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.completed, 1u);
}

// A deadline further off than the steady clock can represent means no
// deadline: it must neither overflow into one that has already passed nor
// shed the request. The same holds for the server's default deadline.
TEST_F(ServingTest, DeadlinesBeyondTheClockRangeAreNoDeadline) {
  ModelRegistry registry;
  registry.Publish(MakeModel());
  ServerConfig config;
  config.worker_threads = 1;
  AdvisorServer server(&registry, config);
  ASSERT_TRUE(server.Start().ok());
  const double kInf = std::numeric_limits<double>::infinity();
  for (double deadline : {3600.0, 1e10, 1e300, kInf}) {
    SuggestResponse response = server.Suggest(Mix(0), deadline);
    EXPECT_TRUE(response.status.ok())
        << "deadline " << deadline << ": " << response.status.ToString();
  }
  server.Stop();
  EXPECT_EQ(server.stats().completed, 4u);
  EXPECT_EQ(server.stats().shed, 0u);

  for (double default_deadline : {1e10, 1e300, kInf}) {
    config.default_deadline_seconds = default_deadline;
    AdvisorServer defaulted(&registry, config);
    ASSERT_TRUE(defaulted.Start().ok());
    SuggestResponse response = defaulted.Suggest(Mix(1));
    EXPECT_TRUE(response.status.ok())
        << "default deadline " << default_deadline << ": "
        << response.status.ToString();
    defaulted.Stop();
    EXPECT_EQ(defaulted.stats().shed, 0u);
  }
}

TEST_F(ServingTest, RequestsFailCleanlyWithNoModelPublished) {
  ModelRegistry registry;  // empty: no Publish
  ServerConfig config;
  config.worker_threads = 1;
  AdvisorServer server(&registry, config);
  ASSERT_TRUE(server.Start().ok());
  SuggestResponse response = server.Suggest(Mix(0));
  EXPECT_EQ(response.status.code(), Status::Code::kFailedPrecondition);
  server.Stop();
  EXPECT_EQ(server.stats().failed, 1u);
}

// A frequency vector the model cannot serve — too long, too short, NaN or
// negative — is answered InvalidArgument without reaching the rollout, and
// the server keeps serving valid requests.
TEST_F(ServingTest, MalformedFrequencyVectorsAreRejectedAndServingContinues) {
  ModelRegistry registry;
  registry.Publish(MakeModel());
  ServerConfig config;
  config.worker_threads = 2;
  AdvisorServer server(&registry, config);
  ASSERT_TRUE(server.Start().ok());
  auto& rejected_invalid = telemetry::MetricsRegistry::Global().GetCounter(
      "serving.rejected_invalid.count");
  const uint64_t rejected_before = rejected_invalid.value();

  const size_t m = static_cast<size_t>(workload_->num_queries());
  std::vector<double> negative(m, 1.0);
  negative[1] = -1.0;
  const std::vector<std::vector<double>> malformed = {
      std::vector<double>(m + 1, 1.0), std::vector<double>(m - 1, 1.0),
      std::vector<double>(m, std::nan("")), negative};
  for (const auto& frequencies : malformed) {
    SuggestResponse response = server.Suggest(frequencies);
    EXPECT_EQ(response.status.code(), Status::Code::kInvalidArgument)
        << response.status.ToString();
    EXPECT_FALSE(response.result.has_value());
  }

  SuggestResponse valid = server.Suggest(Mix(0));
  ASSERT_TRUE(valid.status.ok()) << valid.status.ToString();
  rl::InferenceResult expected = SerialSuggest(Mix(0));
  EXPECT_EQ(valid.result->actions, expected.actions);
  EXPECT_EQ(valid.result->best_cost, expected.best_cost);
  server.Stop();

  auto stats = server.stats();
  EXPECT_EQ(stats.submitted, malformed.size() + 1);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, malformed.size());
  EXPECT_EQ(stats.submitted,
            stats.completed + stats.rejected + stats.shed + stats.failed);
  EXPECT_EQ(rejected_invalid.value() - rejected_before, malformed.size());
}

// ---------------------------------------------------------------------------
// Shutdown semantics

TEST_F(ServingTest, RepeatedStartStopWithIdleWorkersDoesNotHang) {
  ModelRegistry registry;
  registry.Publish(MakeModel());
  ServerConfig config;
  config.worker_threads = 3;
  AdvisorServer server(&registry, config);
  // Workers park on an empty queue each round; Stop must wake and join them
  // promptly every time (no timed waits to ride out). A missed wakeup hangs
  // the test.
  for (int round = 0; round < 30; ++round) {
    ASSERT_TRUE(server.Start().ok());
    EXPECT_FALSE(server.Start().ok());  // double-start is refused
    if (round % 3 == 0) {
      EXPECT_TRUE(server.Suggest(Mix(round)).status.ok());
    }
    server.Stop();
    server.Stop();  // idempotent
    EXPECT_FALSE(server.running());
  }
}

TEST_F(ServingTest, DrainStopServesEverythingAdmitted) {
  ModelRegistry registry;
  registry.Publish(MakeModel());
  ServerConfig config;
  config.worker_threads = 2;
  AdvisorServer server(&registry, config);
  ASSERT_TRUE(server.Start().ok());
  std::vector<std::future<SuggestResponse>> futures;
  for (int i = 0; i < 6; ++i) futures.push_back(server.SubmitAsync(Mix(i)));
  server.Stop(AdvisorServer::StopMode::kDrain);
  // Drain mode completes every admitted request before returning.
  for (auto& future : futures) {
    EXPECT_TRUE(future.get().status.ok());
  }
  auto stats = server.stats();
  EXPECT_EQ(stats.completed, 6u);
  EXPECT_EQ(stats.failed, 0u);
}

TEST_F(ServingTest, RestartWithQueuedRequestsResolvesEveryRequestExactlyOnce) {
  ModelRegistry registry;
  registry.Publish(MakeModel());
  ServerConfig config;
  config.worker_threads = 2;
  AdvisorServer server(&registry, config);
  ASSERT_TRUE(server.Start().ok());

  // A burst large enough that some requests are still queued when the abort
  // lands; each is then either served by a racing worker or failed by the
  // abort drain — never both, never neither.
  constexpr int kBurst = 16;
  std::vector<std::future<SuggestResponse>> futures;
  for (int i = 0; i < kBurst; ++i) futures.push_back(server.SubmitAsync(Mix(i)));
  server.Stop(AdvisorServer::StopMode::kAbort);

  int completed = 0;
  std::vector<int> to_retry;
  for (int i = 0; i < kBurst; ++i) {
    // get() would throw (broken promise) if a request were dropped, and a
    // double-resolution would have aborted inside the server; ready-ness
    // proves exactly-once resolution.
    ASSERT_EQ(futures[(size_t)i].wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    SuggestResponse response = futures[(size_t)i].get();
    if (response.status.ok()) {
      ++completed;
    } else {
      EXPECT_EQ(response.status.code(), Status::Code::kUnavailable);
      to_retry.push_back(i);
    }
  }
  auto stats = server.stats();
  EXPECT_EQ(stats.submitted, static_cast<uint64_t>(kBurst));
  EXPECT_EQ(stats.completed, static_cast<uint64_t>(completed));
  EXPECT_EQ(stats.failed, static_cast<uint64_t>(to_retry.size()));
  EXPECT_EQ(stats.submitted,
            stats.completed + stats.rejected + stats.shed + stats.failed);

  // Restart the same server and resubmit exactly the failed requests: all
  // of them complete on the fresh queue.
  ASSERT_TRUE(server.Start().ok());
  for (int i : to_retry) {
    SuggestResponse response = server.Suggest(Mix(i));
    EXPECT_TRUE(response.status.ok()) << response.status.ToString();
  }
  server.Stop();
  stats = server.stats();
  EXPECT_EQ(stats.completed,
            static_cast<uint64_t>(completed) + to_retry.size());
}

// ---------------------------------------------------------------------------
// Hot swap

TEST_F(ServingTest, HotSwapServesInFlightOnOldVersionAndDropsNothing) {
  ModelRegistry registry;
  uint64_t v1 = registry.Publish(MakeModel());
  ASSERT_EQ(v1, 1u);
  ServerConfig config;
  config.worker_threads = 2;
  AdvisorServer server(&registry, config);
  ASSERT_TRUE(server.Start().ok());

  // Phase 1: everything before the swap is served by v1.
  for (int i = 0; i < 4; ++i) {
    SuggestResponse response = server.Suggest(Mix(i));
    ASSERT_TRUE(response.status.ok());
    EXPECT_EQ(response.model_version, 1u);
  }

  // Phase 2: publish v2 while a burst is in flight. Each request is served
  // by whichever version it resolved at pickup — but every single one
  // completes, and versions are only ever 1 or 2.
  constexpr int kBurst = 12;
  std::vector<std::future<SuggestResponse>> futures;
  for (int i = 0; i < kBurst; ++i) futures.push_back(server.SubmitAsync(Mix(i)));
  uint64_t v2 = registry.Publish(MakeModel());
  ASSERT_EQ(v2, 2u);
  std::map<uint64_t, int> per_version;
  for (auto& future : futures) {
    SuggestResponse response = future.get();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    ++per_version[response.model_version];
  }
  int total = 0;
  for (const auto& [version, count] : per_version) {
    EXPECT_TRUE(version == 1 || version == 2) << "version " << version;
    total += count;
  }
  EXPECT_EQ(total, kBurst);  // zero dropped across the swap

  // Phase 3: after the swap every new request is served by v2.
  for (int i = 0; i < 4; ++i) {
    SuggestResponse response = server.Suggest(Mix(i));
    ASSERT_TRUE(response.status.ok());
    EXPECT_EQ(response.model_version, 2u);
  }
  server.Stop();
  EXPECT_EQ(registry.current_version(), 2u);

  auto stats = server.stats();
  EXPECT_EQ(stats.completed, stats.submitted);
  EXPECT_EQ(stats.failed, 0u);
}

// ---------------------------------------------------------------------------
// Load generator

/// Sends every load generator request to `server` (one tenant).
SubmitFn ToServer(AdvisorServer* server) {
  return [server](int, std::vector<double> mix, double deadline_seconds) {
    return server->SubmitAsync(std::move(mix), deadline_seconds);
  };
}

TEST_F(ServingTest, LoadgenAccountsForEveryRequest) {
  ModelRegistry registry;
  registry.Publish(MakeModel());
  ServerConfig config;
  config.worker_threads = 2;
  AdvisorServer server(&registry, config);
  ASSERT_TRUE(server.Start().ok());

  LoadgenOptions options;
  options.clients = 3;
  options.duration_seconds = 0.3;
  options.num_queries = workload_->num_queries();
  options.seed = 11;
  std::atomic<bool> swapped{false};
  LoadgenReport report = RunLoadgen(ToServer(&server), options, [&] {
    registry.Publish(MakeModel());
    swapped.store(true);
  });
  server.Stop();

  EXPECT_TRUE(swapped.load());
  EXPECT_TRUE(report.CountersConsistent());
  EXPECT_GT(report.completed, 0u);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_GT(report.latency_p99 + 1.0, report.latency_p50);  // sane ordering
  auto stats = server.stats();
  EXPECT_EQ(stats.submitted, report.submitted);
  EXPECT_EQ(stats.completed, report.completed);
}

TEST_F(ServingTest, OpenLoopLoadgenResolvesAllFutures) {
  ModelRegistry registry;
  registry.Publish(MakeModel());
  ServerConfig config;
  config.worker_threads = 2;
  config.queue_capacity = 4;  // small queue: open loop may trip admission
  AdvisorServer server(&registry, config);
  ASSERT_TRUE(server.Start().ok());

  LoadgenOptions options;
  options.open_loop = true;
  options.qps = 200.0;
  options.duration_seconds = 0.3;
  options.num_queries = workload_->num_queries();
  LoadgenReport report = RunLoadgen(ToServer(&server), options);
  server.Stop();

  EXPECT_TRUE(report.CountersConsistent());
  EXPECT_GT(report.submitted, 0u);
  EXPECT_EQ(report.failed, 0u);
  // Rejections are allowed (that is the point of admission control) but
  // every one of them still resolved its future.
  EXPECT_EQ(report.submitted,
            report.completed + report.rejected + report.shed);
  // Every request was due inside the run and sent before it ended.
  EXPECT_GE(report.max_lateness_seconds, 0.0);
  EXPECT_LE(report.max_lateness_seconds, report.wall_seconds);
}

TEST_F(ServingTest, OpenLoopLatencyCountsFromTheSchedule) {
  ModelRegistry registry;
  registry.Publish(MakeModel());
  ServerConfig config;
  config.worker_threads = 2;
  AdvisorServer server(&registry, config);
  ASSERT_TRUE(server.Start().ok());

  // The dispatcher stalls 50 ms in its second send, so the requests due
  // meanwhile (every 5 ms) go out late, in a burst.
  constexpr double kStall = 0.05;
  int sends = 0;
  SubmitFn submit = [&](int, std::vector<double> mix, double deadline) {
    if (++sends == 2) {
      std::this_thread::sleep_for(std::chrono::duration<double>(kStall));
    }
    return server.SubmitAsync(std::move(mix), deadline);
  };
  LoadgenOptions options;
  options.open_loop = true;
  options.qps = 200.0;
  options.duration_seconds = 0.2;
  options.num_queries = workload_->num_queries();
  LoadgenReport report = RunLoadgen(submit, options);
  server.Stop();

  EXPECT_TRUE(report.CountersConsistent());
  EXPECT_EQ(report.completed, report.submitted);
  // The request due 5 ms after the stalled one was sent ~45 ms late, and
  // its latency includes that wait.
  EXPECT_GE(report.max_lateness_seconds, kStall - 0.01);
  EXPECT_GE(report.latency_max, report.max_lateness_seconds);
}

}  // namespace
}  // namespace lpa::serving
