// The three benchmark workloads (perfbench/README.md explains why each was
// chosen and what its metrics mean).
//
// Every workload has the same shape: a set-up and a design phase that
// produces the advisor's design or servable model (design_s), each repeated
// so its median is steady; a fixed-length stream of Suggest calls sized by
// --seconds; and the simulated runtime of the suggested design on the full
// cluster. The timed pass runs on 4 threads. A serial pass then replays
// the design phase through the timing decorators of traced_envs.h and must
// reproduce the timed pass's digests bit for bit; with --trace 1 that pass also rebuilds
// the testbed and reports where its time went, and an undecorated serial
// pass prices the tracing overhead.

#include <sys/resource.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <thread>

#include "perfbench/perfbench.h"
#include "perfbench/traced_envs.h"
#include "rl/online_env.h"
#include "serving/model_registry.h"
#include "serving/server.h"
#include "telemetry/registry.h"
#include "util/hash.h"
#include "util/stats.h"

namespace lpa::perfbench {

namespace {

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string Hex(uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

uint64_t CounterValue(const char* name) {
  return telemetry::MetricsRegistry::Global().GetCounter(name).value();
}

/// The generated database is the same for every workload seed: which rows
/// exist changes the simulated runtime of one design by up to 2x, and a
/// benchmark whose inputs differ that much between seeds cannot bound a
/// regression. The seed varies the engine's measurement noise, the
/// planner's noise and every mix the advisor is asked about.
constexpr uint64_t kDataSeed = 42;

}  // namespace

TimedTestbed BuildTestbed(const std::string& schema_name,
                          bench::EngineKind kind, uint64_t seed,
                          std::optional<storage::Database>* sample) {
  TimedTestbed out;
  bench::Testbed& tb = out.tb;
  if (schema_name == "ssb") {
    tb.schema = std::make_unique<schema::Schema>(schema::MakeSsbSchema());
    tb.workload = std::make_unique<workload::Workload>(
        workload::MakeSsbWorkload(*tb.schema));
  } else {
    tb.schema = std::make_unique<schema::Schema>(schema::MakeTpcchSchema());
    tb.workload = std::make_unique<workload::Workload>(
        workload::MakeTpcchWorkload(*tb.schema));
  }
  tb.workload->SetUniformFrequencies();
  tb.edges = std::make_unique<partition::EdgeSet>(
      partition::EdgeSet::Extract(*tb.schema, *tb.workload));
  const costmodel::HardwareProfile profile = bench::ProfileFor(kind);
  tb.exact_model =
      std::make_unique<costmodel::CostModel>(tb.schema.get(), profile);
  tb.noisy_model = std::make_unique<costmodel::NoisyOptimizerModel>(
      tb.schema.get(), profile);
  tb.planner_model = std::make_unique<costmodel::NoisyOptimizerModel>(
      tb.schema.get(), profile, /*depth_sigma=*/0.05, /*seed=*/seed + 1,
      /*use_independence_assumption=*/false);

  storage::GenerationConfig gen;
  gen.fraction = bench::DefaultFraction(schema_name);
  gen.small_table_threshold = 64;
  gen.seed = kDataSeed;
  const double generate_start = Now();
  storage::Database data =
      storage::Database::Generate(*tb.schema, *tb.workload, gen);
  out.rows = data.total_rows();
  if (sample != nullptr) {
    // The sampled database of Sec 4.2: 20% of rows, at least 64 per table.
    sample->emplace(data.Sample(0.2, 64, HashCombine(kDataSeed, 7)));
    out.sample_rows = (*sample)->total_rows();
  }
  out.generate_s = Now() - generate_start;

  engine::EngineConfig engine_config;
  engine_config.hardware = profile;
  engine_config.seed = seed;
  const double build_start = Now();
  tb.cluster = std::make_unique<engine::ClusterDatabase>(
      std::move(data), engine_config, tb.planner_model.get());
  out.build_s = Now() - build_start;
  return out;
}

namespace {

/// The timed pass's thread count; traced and replayed passes are serial.
constexpr int kThreads = 4;
/// Training seeds are fixed, so the workload seed changes only the inputs.
constexpr uint64_t kTrainSeed = 42;
/// Calls of the Suggest stream that the serial passes replay and compare.
constexpr size_t kReplayedSuggests = 16;
/// RNG seed of the Suggest streams' exploration rollouts. The streams of
/// the batch workloads run on one thread: a 3 ms Suggest spread over a
/// 4-thread pool mostly measures thread wake-ups.
constexpr uint64_t kStreamSeed = 7;
constexpr double kMiB = 1024.0 * 1024.0;
/// The closed loop's clients and the server's workers.
constexpr int kClients = 4;
/// Rounds each measured stream is cut into.
constexpr size_t kRounds = 5;
/// Suggest calls per second of --seconds. The streams have a fixed length,
/// so every run does the same work. On a 4-vCPU host the batch workloads'
/// cold and warm passes together, and serve_ssb's loop, take about
/// --seconds.
constexpr double kDesignSuggestRate = 125.0;
constexpr double kRefineSuggestRate = 40.0;
constexpr double kServeRequestRate = 3500.0;

size_t StreamCalls(const Options& o, double rate) {
  if (o.trace) return kReplayedSuggests;
  return std::max(kReplayedSuggests,
                  static_cast<size_t>(std::llround(rate * o.seconds)));
}

/// How often the timed pass repeats a phase. A traced run prints per-layer
/// metrics only; its timed pass runs once, for the cross-check.
int Repetitions(const Options& o, int n) { return o.trace ? 1 : n; }

advisor::AdvisorConfig AdvisorSettings(int episodes, int tmax) {
  advisor::AdvisorConfig config;
  config.offline_episodes = episodes;
  config.online_episodes = episodes;
  config.dqn.tmax = tmax;
  config.dqn.FitEpsilonSchedule(episodes);
  config.seed = kTrainSeed;
  return config;
}

/// TPC-CH: 75 episodes of 36 steps, offline and online.
advisor::AdvisorConfig TpcchSettings() { return AdvisorSettings(75, 36); }
/// SSB serving model: 64 episodes of 16 steps (lpa_loadgen's shape).
advisor::AdvisorConfig SsbSettings() { return AdvisorSettings(64, 16); }

std::vector<double> Uniform(const workload::Workload& workload) {
  return std::vector<double>(static_cast<size_t>(workload.num_queries()), 1.0);
}

/// The advisor's default training mixes (PartitioningAdvisor::DefaultSampler).
rl::FrequencySampler UniformSampler(int num_queries) {
  return [num_queries](Rng* rng) {
    return workload::SampleUniformFrequencies(num_queries, rng);
  };
}

uint64_t MixSeed(uint64_t seed) { return HashCombine(seed, 0x6d1c5ULL); }

/// Digest of a whole suggestion: design, cost bits and action trajectory.
uint64_t ResultFingerprint(const rl::InferenceResult& result) {
  uint64_t cost_bits = 0;
  std::memcpy(&cost_bits, &result.best_cost, sizeof(cost_bits));
  uint64_t h = HashCombine(result.best_state.DesignFingerprint(), cost_bits);
  for (int action : result.actions) {
    h = HashCombine(h, static_cast<uint64_t>(action));
  }
  return h;
}

bool Positive(double value) { return std::isfinite(value) && value > 0.0; }

/// Latency and rate of a Suggest stream: medians over rounds of each
/// round's p50, p95 and completion rate, so a burst of host noise during
/// one round moves none of them.
struct StreamSummary {
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double rps = 0.0;
};

/// Everything a traced pass attributes; every field is printed, as 0 where
/// a workload does not exercise the layer.
struct Layers {
  double generate_s = 0.0;
  double build_s = 0.0;
  double resident_mb = 0.0;
  CostLayer cost;
  uint64_t cache_entries = 0;
  double search_wall_s = 0.0;
  /// Time in the DP designer's query-cost function.
  double dp_cost_s = 0.0;
  uint64_t nodes_expanded = 0;
  uint64_t pruned = 0;
  double dp_runtime_s = 0.0;
  double learner_s = 0.0;
  double suggest_s = 0.0;
  double suggest_self_s = 0.0;
  double bootstrap_s = 0.0;
  double online_cluster_h = 0.0;
  double online_env_s = 0.0;
  uint64_t queries_executed = 0;
  double online_cache_hit_rate = 0.0;
  double scale_factors_s = 0.0;
  double measure_s = 0.0;
  double queue_ms_p50 = 0.0;
  double service_ms_p50 = 0.0;
  double batch_rows_mean = 0.0;
  uint64_t batches = 0;
  /// Client time spent waiting on requests, averaged over the clients.
  double serving_busy_s = 0.0;
  double model_suggest_us = 0.0;
  double model_suggest_s = 0.0;
  StreamSummary serving;
  double wall_s = 0.0;
  /// Wall time of the decorated phases, traced and untraced.
  double decorated_s = 0.0;
  double undecorated_s = 0.0;

  double SearchSelf() const { return search_wall_s - dp_cost_s; }

  /// Sum of the disjoint layer self times.
  double Covered() const {
    return generate_s + build_s + cost.total_s() + SearchSelf() + learner_s +
           suggest_self_s + online_env_s + scale_factors_s + measure_s +
           serving_busy_s + model_suggest_s;
  }
};

/// Counter deltas over one pass.
class CounterDeltas {
 public:
  CounterDeltas()
      : train_steps_(CounterValue("rl.train_steps.count")),
        env_evals_(CounterValue("rl.env_evals.count")),
        q_evals_(CounterValue("rl.q_evals.count")) {}
  uint64_t train_steps() const {
    return CounterValue("rl.train_steps.count") - train_steps_;
  }
  uint64_t env_evals() const {
    return CounterValue("rl.env_evals.count") - env_evals_;
  }
  uint64_t q_evals() const { return CounterValue("rl.q_evals.count") - q_evals_; }

 private:
  uint64_t train_steps_, env_evals_, q_evals_;
};

void EmitLayers(const Layers& l, const CounterDeltas& counters, Report* r) {
  const uint64_t probes = l.cost.plans + l.cost.hits;
  r->Set("storage.generate_s", l.generate_s, "s");
  r->Set("engine.build_s", l.build_s, "s");
  r->Set("storage.resident_mb", l.resident_mb, "MB");
  r->Set("costmodel.plan_s", l.cost.plan_s, "s");
  r->Set("costmodel.plans", static_cast<double>(l.cost.plans), "count");
  r->Set("costmodel.plan_us",
         l.cost.plans > 0 ? l.cost.plan_s / l.cost.plans * 1e6 : 0.0, "us");
  r->Set("costmodel.cache_s", l.cost.cache_s, "s");
  r->Set("costmodel.probes", static_cast<double>(probes), "count");
  r->Set("costmodel.cache_hit_rate",
         probes > 0 ? static_cast<double>(l.cost.hits) / probes : 0.0,
         "ratio");
  r->Set("costmodel.cache_entries", static_cast<double>(l.cache_entries),
         "count");
  r->Set("search.wall_s", l.search_wall_s, "s");
  r->Set("search.self_s", l.SearchSelf(), "s");
  r->Set("search.nodes_expanded", static_cast<double>(l.nodes_expanded),
         "count");
  r->Set("search.pruned", static_cast<double>(l.pruned), "count");
  r->Set("search.dp_runtime_s", l.dp_runtime_s, "s");
  r->Set("rl.learner_s", l.learner_s, "s");
  r->Set("rl.train_steps", static_cast<double>(counters.train_steps()),
         "count");
  r->Set("rl.env_evals", static_cast<double>(counters.env_evals()), "count");
  r->Set("rl.q_evals", static_cast<double>(counters.q_evals()), "count");
  r->Set("rl.suggest_s", l.suggest_s, "s");
  r->Set("rl.bootstrap_s", l.bootstrap_s, "s");
  r->Set("rl.online_cluster_h", l.online_cluster_h, "h");
  r->Set("rl.online_cache_hit_rate", l.online_cache_hit_rate, "ratio");
  r->Set("engine.online_env_s", l.online_env_s, "s");
  r->Set("engine.queries_executed", static_cast<double>(l.queries_executed),
         "count");
  r->Set("engine.scale_factors_s", l.scale_factors_s, "s");
  r->Set("engine.measure_s", l.measure_s, "s");
  r->Set("serving.queue_ms_p50", l.queue_ms_p50, "ms");
  r->Set("serving.service_ms_p50", l.service_ms_p50, "ms");
  r->Set("serving.batch_rows_mean", l.batch_rows_mean, "rows");
  r->Set("serving.batches", static_cast<double>(l.batches), "count");
  r->Set("serving.model_suggest_us", l.model_suggest_us, "us");
  r->Set("serving.suggest_p50_ms", l.serving.p50_ms, "ms");
  r->Set("serving.suggest_p95_ms", l.serving.p95_ms, "ms");
  r->Set("serving.suggest_rps", l.serving.rps, "1/s");
  r->Set("trace.wall_s", l.wall_s, "s");
  r->Set("trace.coverage", l.wall_s > 0.0 ? l.Covered() / l.wall_s : 0.0,
         "ratio");
  r->Set("trace.overhead",
         l.undecorated_s > 0.0 ? l.decorated_s / l.undecorated_s - 1.0 : 0.0,
         "ratio");
  r->Fact("trace_covered_s", FormatDouble(l.Covered(), 4));
}

/// One Suggest through `env`; in a traced pass its wall time is booked as
/// Suggest time and, less the time `env_seconds` reports, as its self time.
rl::InferenceResult TimedSuggest(advisor::PartitioningAdvisor* adv,
                                 rl::PartitioningEnv* env,
                                 const std::vector<double>& mix,
                                 EvalContext* ctx, Layers* layers,
                                 const std::function<double()>& env_seconds) {
  if (layers == nullptr) return adv->Suggest(mix, env, ctx);
  const double env_before = env_seconds();
  const double start = Now();
  rl::InferenceResult result = adv->Suggest(mix, env, ctx);
  const double wall = Now() - start;
  layers->suggest_s += wall;
  layers->suggest_self_s += wall - (env_seconds() - env_before);
  return result;
}

/// One round of a measured stream: its completed calls' latencies and its
/// wall time.
struct Round {
  std::vector<double> latency_s;
  double wall_s = 0.0;
};

/// Suggest calls on the seeded stream of uniform mixes, cut into rounds.
struct SuggestStream {
  std::vector<Round> rounds;
  /// Fingerprint of every call's result, in call order.
  std::vector<uint64_t> results;
  size_t calls = 0;

  std::vector<uint64_t> Prefix() const {
    return {results.begin(),
            results.begin() + std::min(results.size(), kReplayedSuggests)};
  }
};

/// One pass of `suggest(mix, ctx)` over the first `calls` mixes of the
/// workload seed's stream, in kRounds rounds of equal length. The calls run
/// on one thread, their exploration rollouts seeded with kStreamSeed.
template <typename SuggestFn>
SuggestStream RunSuggestStream(int num_queries, uint64_t seed, size_t calls,
                               SuggestFn&& suggest) {
  SuggestStream s;
  s.calls = calls;
  EvalContext ctx(1, kStreamSeed);
  Rng rng(MixSeed(seed));
  for (size_t round = 0; round < kRounds; ++round) {
    Round& out = s.rounds.emplace_back();
    const double start = Now();
    for (size_t i = calls * round / kRounds; i < calls * (round + 1) / kRounds;
         ++i) {
      std::vector<double> mix =
          workload::SampleUniformFrequencies(num_queries, &rng);
      const double call_start = Now();
      rl::InferenceResult result = suggest(mix, &ctx);
      out.latency_s.push_back(Now() - call_start);
      s.results.push_back(ResultFingerprint(result));
    }
    out.wall_s = Now() - start;
  }
  return s;
}

/// The measured stream. A first pass fills the caches the answers are
/// priced from (the cost cache, the online runtime cache), then the same
/// calls are timed again: a long-running advisor answers from warm caches,
/// and a cold pass's latency mostly counts how many new states a seed's
/// mixes happen to visit. Both passes must return identical answers.
template <typename SuggestFn>
SuggestStream RunWarmSuggestStream(int num_queries, uint64_t seed,
                                   size_t calls, SuggestFn&& suggest,
                                   Report* r) {
  SuggestStream cold = RunSuggestStream(num_queries, seed, calls, suggest);
  SuggestStream warm = RunSuggestStream(num_queries, seed, calls, suggest);
  r->Check(warm.results == cold.results,
           "a Suggest answer changed once the caches were warm");
  return warm;
}

/// Summarizes a stream and records it as facts.
StreamSummary Summarize(const std::vector<Round>& rounds, Report* r) {
  std::vector<double> p50, p95, rps;
  size_t samples = 0;
  for (const Round& round : rounds) {
    if (round.latency_s.empty()) continue;
    p50.push_back(Quantile(round.latency_s, 0.50) * 1e3);
    p95.push_back(Quantile(round.latency_s, 0.95) * 1e3);
    rps.push_back(static_cast<double>(round.latency_s.size()) / round.wall_s);
    samples += round.latency_s.size();
  }
  StreamSummary out{Median(p50), Median(p95), Median(rps)};
  r->Fact("suggest_p50_ms", FormatDouble(out.p50_ms, 4));
  r->Fact("suggest_p95_ms", FormatDouble(out.p95_ms, 4));
  r->Fact("suggest_rps", FormatDouble(out.rps, 1));
  r->Fact("suggest_samples", std::to_string(samples));
  return out;
}

void SetSetupMetric(const std::vector<double>& setup_s, Report* r) {
  r->Set("setup_s", Median(setup_s), "s");
  r->Fact("setup_samples", std::to_string(setup_s.size()));
}

void CheckSame(const std::string& what, const std::string& expected,
               const std::string& actual, Report* r) {
  r->Check(expected == actual,
           what + " differs: " + expected + " vs " + actual);
}

std::string HexList(const std::vector<uint64_t>& values) {
  uint64_t h = Hash64(values.size());
  for (uint64_t v : values) h = HashCombine(h, v);
  return Hex(h);
}

// ---------------------------------------------------------------------------
// design_tpcch

/// The RL half of design_tpcch, run serially: offline training, the
/// uniform-mix Suggest and the first kReplayedSuggests calls of the Suggest
/// stream. With `layers` every cost evaluation goes through TimedCostEnv
/// and the trainer is driven through its public Train; without, it runs the
/// same public TrainOffline/Suggest calls as the timed pass, on one thread.
struct RlReplay {
  std::string reward_digest;
  uint64_t design = 0;
  std::vector<uint64_t> prefix;
  double wall_s = 0.0;
  uint64_t cache_entries = 0;
};

RlReplay ReplayRlDesign(const bench::Testbed& tb, uint64_t seed,
                        Layers* layers) {
  const advisor::AdvisorConfig config = TpcchSettings();
  advisor::PartitioningAdvisor adv(tb.schema.get(), *tb.workload, config);
  EvalContext ctx(1, kTrainSeed);
  rl::OfflineEnv offline(tb.exact_model.get(), &adv.workload());
  std::optional<TimedCostEnv> timed;
  rl::PartitioningEnv* env = nullptr;
  const double start = Now();
  rl::TrainingResult training;
  if (layers != nullptr) {
    timed.emplace(&offline, &layers->cost);
    env = &*timed;
    const double env_before = layers->cost.total_s();
    training = adv.trainer().Train(adv.agent(), env,
                                   UniformSampler(tb.workload->num_queries()),
                                   config.offline_episodes, &ctx);
    layers->learner_s +=
        (Now() - start) - (layers->cost.total_s() - env_before);
  } else {
    training = adv.TrainOffline(tb.exact_model.get(), nullptr, &ctx);
    env = adv.offline_env();
  }
  auto env_seconds = [layers] { return layers->cost.total_s(); };
  RlReplay out;
  out.reward_digest = bench::RewardDigest(training.episode_best_rewards);
  out.design = ResultFingerprint(TimedSuggest(
      &adv, env, Uniform(*tb.workload), &ctx, layers, env_seconds));
  out.prefix = RunSuggestStream(
                   tb.workload->num_queries(), seed, kReplayedSuggests,
                   [&](const std::vector<double>& mix, EvalContext* c) {
                     return TimedSuggest(&adv, env, mix, c, layers,
                                         env_seconds);
                   })
                   .results;
  out.wall_s = Now() - start;
  out.cache_entries = layers != nullptr ? offline.cache_size()
                                        : adv.offline_env()->cache_size();
  return out;
}

}  // namespace

Report RunDesignTpcch(const Options& o) {
  Report r;
  const uint64_t evictions_before =
      CounterValue("costmodel.cost_cache_evictions.count");

  // Set-up: generation, encoding and the cluster, repeated for a steady
  // median; the last testbed is kept.
  std::vector<double> setup_s;
  std::optional<TimedTestbed> bed;
  for (int i = 0; i < Repetitions(o, 15); ++i) {
    bed.reset();
    const double start = Now();
    bed.emplace(BuildTestbed("tpcch", bench::EngineKind::kDiskBased, o.seed));
    setup_s.push_back(Now() - start);
  }
  const bench::Testbed& tb = bed->tb;
  const std::vector<double> uniform = Uniform(*tb.workload);
  const int num_queries = tb.workload->num_queries();

  // Design: the DP designer, then offline RL training and its Suggest. The
  // phase runs twice from scratch and design_s is the median; the
  // last advisor serves the Suggest stream.
  std::vector<double> design_s, dp_s, rl_s;
  std::vector<std::string> digests;
  std::optional<DpOutcome> dp;
  std::unique_ptr<advisor::PartitioningAdvisor> adv;
  std::unique_ptr<EvalContext> ctx;
  std::optional<rl::InferenceResult> rl_design;
  std::string reward_digest;
  uint64_t dp_cache_keys = 0;
  for (int i = 0; i < Repetitions(o, 2); ++i) {
    const double start = Now();
    const uint64_t misses_before =
        CounterValue("costmodel.cost_cache_misses.count");
    dp = RunDpDesigner(tb, uniform, DpSettings(*tb.schema), nullptr);
    dp_cache_keys =
        CounterValue("costmodel.cost_cache_misses.count") - misses_before;
    const double rl_start = Now();
    adv = std::make_unique<advisor::PartitioningAdvisor>(
        tb.schema.get(), *tb.workload, TpcchSettings());
    ctx = std::make_unique<EvalContext>(kThreads, kTrainSeed);
    rl::TrainingResult training =
        adv->TrainOffline(tb.exact_model.get(), nullptr, ctx.get());
    rl_design = adv->Suggest(uniform, ctx.get());
    rl_s.push_back(Now() - rl_start);
    dp_s.push_back(dp->wall_s);
    design_s.push_back(Now() - start);
    reward_digest = bench::RewardDigest(training.episode_best_rewards);
    digests.push_back(Hex(dp->result.best_state.DesignFingerprint()) + "/" +
                      reward_digest + "/" +
                      Hex(ResultFingerprint(*rl_design)));
  }

  SuggestStream stream = RunWarmSuggestStream(
      num_queries, o.seed, StreamCalls(o, kDesignSuggestRate),
      [&](const std::vector<double>& mix, EvalContext* c) {
        return adv->Suggest(mix, c);
      },
      &r);
  const double peak_rss_mb = PeakRssMb();
  const double rl_runtime_s = tb.Measure(rl_design->best_state);
  const double dp_runtime_s = tb.Measure(dp->result.best_state);

  SetSetupMetric(setup_s, &r);
  r.Set("design_s", Median(design_s), "s");
  Summarize(stream.rounds, &r);
  r.Set("design_runtime_s", rl_runtime_s, "s");
  r.Set("peak_rss_mb", peak_rss_mb, "MB");
  r.attempted = 2 * design_s.size() + stream.calls;

  r.Fact("rows", std::to_string(bed->rows));
  r.Fact("queries", std::to_string(num_queries));
  r.Fact("tables", std::to_string(tb.schema->num_tables()));
  r.Fact("dp_design_s", FormatDouble(Median(dp_s), 4));
  r.Fact("rl_design_s", FormatDouble(Median(rl_s), 4));
  r.Fact("dp_runtime_s", FormatDouble(dp_runtime_s, 6));
  r.Fact("dp_design", Hex(dp->result.best_state.DesignFingerprint()));
  r.Fact("dp_nodes_expanded", std::to_string(dp->result.nodes_expanded));
  r.Fact("rl_reward_digest", reward_digest);
  r.Fact("rl_design", Hex(ResultFingerprint(*rl_design)));
  r.Fact("dp_cache_keys", std::to_string(dp_cache_keys));
  r.Fact("rl_cache_keys", std::to_string(adv->offline_env()->cache_size()));

  for (const std::string& d : digests) {
    CheckSame("DP and RL designs across repetitions", digests[0], d, &r);
  }
  r.Check(dp->result.certified, "DP designer lost its (1+eps) certificate");
  r.Check(dp->result.best_cost <=
              (1.0 + 0.1) * dp->result.certified_lower_bound * (1.0 + 1e-9),
          "DP cost exceeds (1+eps) times its certified lower bound");
  r.Check(Positive(rl_runtime_s) && Positive(dp_runtime_s),
          "a design's simulated runtime is not a positive number");

  r.Check(CounterValue("costmodel.cost_cache_evictions.count") ==
              evictions_before,
          "the cost cache evicted entries: the workload does not fit it");
  if (!o.trace) return r;

  // The traced run. It first times the decorated phases undecorated and
  // serially (DP as timed above, RL on one thread) to price the tracing
  // overhead; the traced pass must then reproduce the timed pass bit for bit.
  Layers layers;
  layers.undecorated_s =
      Median(dp_s) + ReplayRlDesign(tb, o.seed, nullptr).wall_s;
  CounterDeltas counters;
  const double traced_start = Now();
  TimedTestbed traced_bed =
      BuildTestbed("tpcch", bench::EngineKind::kDiskBased, o.seed);
  const bench::Testbed& ttb = traced_bed.tb;
  layers.generate_s = traced_bed.generate_s;
  layers.build_s = traced_bed.build_s;
  layers.resident_mb = ttb.cluster->storage_resident_bytes() / kMiB;
  DpOutcome traced_dp =
      RunDpDesigner(ttb, uniform, DpSettings(*ttb.schema), &layers.cost);
  layers.search_wall_s = traced_dp.wall_s;
  layers.dp_cost_s = layers.cost.total_s();
  layers.nodes_expanded = traced_dp.result.nodes_expanded;
  layers.pruned = traced_dp.result.nodes_pruned;
  CheckSame("DP design (timed vs traced)",
            Hex(dp->result.best_state.DesignFingerprint()) + "/" +
                std::to_string(dp->result.nodes_expanded),
            Hex(traced_dp.result.best_state.DesignFingerprint()) + "/" +
                std::to_string(traced_dp.result.nodes_expanded),
            &r);
  const double rl_traced_start = Now();
  RlReplay replay = ReplayRlDesign(ttb, o.seed, &layers);
  layers.decorated_s = layers.search_wall_s + (Now() - rl_traced_start);
  CheckSame("RL reward digest (timed vs traced)", reward_digest,
            replay.reward_digest, &r);
  CheckSame("RL design (timed vs traced)", Hex(ResultFingerprint(*rl_design)),
            Hex(replay.design), &r);
  CheckSame("Suggest stream prefix (timed vs traced)",
            HexList(stream.Prefix()), HexList(replay.prefix), &r);
  const double measure_start = Now();
  layers.dp_runtime_s = ttb.Measure(dp->result.best_state);
  ttb.Measure(rl_design->best_state);
  layers.measure_s = Now() - measure_start;
  layers.cache_entries = replay.cache_entries;
  layers.wall_s = Now() - traced_start;
  r.metrics.clear();
  EmitLayers(layers, counters, &r);
  return r;
}

// ---------------------------------------------------------------------------
// refine_tpcch

namespace {

/// Everything the online phase needs. The set-up builds the testbed and its
/// sampled cluster, bootstraps the advisor offline and measures the
/// per-query scale factors; the online phase refines on the sample.
struct RefineBed {
  TimedTestbed bed;
  std::unique_ptr<engine::ClusterDatabase> sample;
  double sample_build_s = 0.0;
  std::unique_ptr<advisor::PartitioningAdvisor> adv;
  /// Training RNG (and the Q-network pool on the timed pass).
  std::unique_ptr<EvalContext> ctx;
  /// Engine kernel pool of the timed pass; null (serial) otherwise.
  std::unique_ptr<EvalContext> engine_ctx;
  std::unique_ptr<rl::OfflineEnv> offline;
  std::optional<TimedCostEnv> timed_offline;
  std::unique_ptr<rl::OnlineEnv> online;
  std::optional<TimedOnlineEnv> timed_online;
  std::string bootstrap_digest;
  double bootstrap_s = 0.0;
  double scale_factors_s = 0.0;

  rl::PartitioningEnv* offline_env() {
    return timed_offline ? &*timed_offline
                         : static_cast<rl::PartitioningEnv*>(
                               adv->offline_env());
  }
  rl::PartitioningEnv* online_env() {
    return timed_online ? &*timed_online
                        : static_cast<rl::PartitioningEnv*>(online.get());
  }
};

/// Set-up of refine_tpcch on `threads` threads. With `layers` (a serial
/// traced pass) the bootstrap drives the trainer through TimedCostEnv and
/// the online environment is wrapped in TimedOnlineEnv.
///
/// The clusters the online phase measures on carry fixed noise: the
/// rewards are measured runtimes, so any change to them sends training
/// down another trajectory with its own amount of work, and the workload
/// seed would then change how much work a run does.
std::unique_ptr<RefineBed> SetUpRefine(int threads, Layers* layers) {
  auto rb = std::make_unique<RefineBed>();
  std::optional<storage::Database> sample_data;
  rb->bed = BuildTestbed("tpcch", bench::EngineKind::kDiskBased, kDataSeed,
                         &sample_data);
  const bench::Testbed& tb = rb->bed.tb;
  engine::EngineConfig sample_config;
  sample_config.hardware = bench::ProfileFor(bench::EngineKind::kDiskBased);
  sample_config.seed = HashCombine(kDataSeed, 43);
  const double sample_start = Now();
  rb->sample = std::make_unique<engine::ClusterDatabase>(
      std::move(*sample_data), sample_config, tb.planner_model.get());
  rb->sample_build_s = Now() - sample_start;

  const advisor::AdvisorConfig config = TpcchSettings();
  rb->adv = std::make_unique<advisor::PartitioningAdvisor>(
      tb.schema.get(), *tb.workload, config);
  rb->ctx = std::make_unique<EvalContext>(threads, kTrainSeed);
  if (threads > 1) {
    rb->engine_ctx = std::make_unique<EvalContext>(threads, kTrainSeed);
  }
  const double bootstrap_start = Now();
  rl::TrainingResult bootstrap;
  if (layers != nullptr) {
    rb->offline = std::make_unique<rl::OfflineEnv>(tb.exact_model.get(),
                                                   &rb->adv->workload());
    rb->timed_offline.emplace(rb->offline.get(), &layers->cost);
    const double env_before = layers->cost.total_s();
    bootstrap = rb->adv->trainer().Train(
        rb->adv->agent(), rb->offline_env(),
        UniformSampler(tb.workload->num_queries()), config.offline_episodes,
        rb->ctx.get());
    layers->learner_s +=
        (Now() - bootstrap_start) - (layers->cost.total_s() - env_before);
  } else {
    bootstrap = rb->adv->TrainOffline(tb.exact_model.get(), nullptr,
                                      rb->ctx.get());
  }
  rl::InferenceResult p_offline = TimedSuggest(
      rb->adv.get(), rb->offline_env(), Uniform(*tb.workload), rb->ctx.get(),
      layers, [layers] { return layers->cost.total_s(); });
  rb->bootstrap_s = Now() - bootstrap_start;
  rb->bootstrap_digest = bench::RewardDigest(bootstrap.episode_best_rewards);

  const double scale_start = Now();
  std::vector<double> scale = rl::ComputeScaleFactors(
      tb.cluster.get(), rb->sample.get(), *tb.workload, p_offline.best_state,
      rb->engine_ctx.get());
  rb->scale_factors_s = Now() - scale_start;
  rb->online = std::make_unique<rl::OnlineEnv>(
      rb->sample.get(), &rb->adv->workload(), std::move(scale),
      rl::OnlineEnvOptions{});
  rb->online->set_exec_context(rb->engine_ctx.get());
  if (layers != nullptr) rb->timed_online.emplace(rb->online.get());
  return rb;
}

struct RefineOutcome {
  std::string online_digest;
  std::optional<rl::InferenceResult> design;
  double refine_s = 0.0;
  double cluster_h = 0.0;
};

/// The online phase: TrainOnline and the online Suggest. A traced pass
/// replays TrainOnline's three steps through public calls, so the trainer
/// sees the decorated online environment.
RefineOutcome RefineOnline(RefineBed* rb, Layers* layers) {
  advisor::PartitioningAdvisor& adv = *rb->adv;
  const std::vector<double> uniform = Uniform(adv.workload());
  RefineOutcome out;
  const double start = Now();
  rl::TrainingResult training;
  if (layers != nullptr) {
    adv.agent()->set_epsilon(adv.EpsilonAfter(adv.config().offline_episodes / 2));
    if (rb->online->best_known_cost() < 0.0 &&
        rb->online->options().use_timeouts) {
      rl::InferenceResult p_offline = TimedSuggest(
          &adv, rb->offline_env(), uniform, rb->ctx.get(), layers,
          [layers] { return layers->cost.total_s(); });
      rb->online_env()->WorkloadCost(p_offline.best_state, uniform);
    }
    const double env_before = rb->timed_online->seconds();
    const double train_start = Now();
    training = adv.trainer().Train(
        adv.agent(), rb->online_env(),
        UniformSampler(adv.workload().num_queries()),
        adv.config().online_episodes, rb->ctx.get());
    layers->learner_s += (Now() - train_start) -
                         (rb->timed_online->seconds() - env_before);
  } else {
    training = adv.TrainOnline(rb->online.get(), nullptr, rb->ctx.get());
  }
  out.cluster_h = rb->online->accounting().total_seconds() / 3600.0;
  out.online_digest = bench::RewardDigest(training.episode_best_rewards);
  TimedOnlineEnv* timed = rb->timed_online ? &*rb->timed_online : nullptr;
  out.design = TimedSuggest(&adv, rb->online_env(), uniform, rb->ctx.get(),
                            layers, [timed] { return timed->seconds(); });
  out.refine_s = Now() - start;
  return out;
}

/// Suggest against the online environment, booked in `layers` when
/// tracing.
auto OnlineSuggester(RefineBed* rb, Layers* layers) {
  TimedOnlineEnv* timed = rb->timed_online ? &*rb->timed_online : nullptr;
  return [rb, layers, timed](const std::vector<double>& mix, EvalContext* c) {
    return TimedSuggest(rb->adv.get(), rb->online_env(), mix, c, layers,
                        [timed] { return timed->seconds(); });
  };
}

/// A whole serial pass of refine_tpcch (set-up, online phase and the
/// replayed Suggest prefix), decorated when `layers` is non-null.
struct SerialRefine {
  std::unique_ptr<RefineBed> bed;
  RefineOutcome refined;
  std::vector<uint64_t> prefix;
  /// Wall time of the phases the decorators wrap: everything but data
  /// generation, the clusters and the scale factors.
  double decorated_s = 0.0;
};

SerialRefine RefineSerially(uint64_t seed, Layers* layers) {
  SerialRefine out;
  const double start = Now();
  out.bed = SetUpRefine(1, layers);
  out.refined = RefineOnline(out.bed.get(), layers);
  out.prefix = RunSuggestStream(out.bed->adv->workload().num_queries(), seed,
                                kReplayedSuggests,
                                OnlineSuggester(out.bed.get(), layers))
                   .results;
  const RefineBed& b = *out.bed;
  out.decorated_s = Now() - start - b.bed.generate_s - b.bed.build_s -
                    b.sample_build_s - b.scale_factors_s;
  return out;
}

}  // namespace

Report RunRefineTpcch(const Options& o) {
  Report r;
  const uint64_t evictions_before =
      CounterValue("costmodel.cost_cache_evictions.count");

  // Set-up (testbed, sample, offline bootstrap, scale factors) and the
  // online phase, three times from scratch; both metrics are medians. The
  // last refined advisor serves the Suggest stream.
  std::vector<double> setup_s, refine_s;
  std::vector<std::string> digests;
  std::unique_ptr<RefineBed> rb;
  RefineOutcome refined;
  for (int i = 0; i < Repetitions(o, 3); ++i) {
    rb.reset();
    const double start = Now();
    rb = SetUpRefine(kThreads, nullptr);
    setup_s.push_back(Now() - start);
    refined = RefineOnline(rb.get(), nullptr);
    refine_s.push_back(refined.refine_s);
    digests.push_back(rb->bootstrap_digest + "/" + refined.online_digest +
                      "/" + Hex(ResultFingerprint(*refined.design)));
  }
  SuggestStream stream = RunWarmSuggestStream(
      rb->adv->workload().num_queries(), o.seed,
      StreamCalls(o, kRefineSuggestRate),
      OnlineSuggester(rb.get(), nullptr), &r);
  const double peak_rss_mb = PeakRssMb();
  // The refined design, measured on the full testbed with the workload
  // seed's engine and planner noise.
  const TimedTestbed judge =
      BuildTestbed("tpcch", bench::EngineKind::kDiskBased, o.seed);
  const double rl_runtime_s =
      judge.tb.Measure(partition::PartitioningState::FromDesign(
          judge.tb.schema.get(), judge.tb.edges.get(),
          refined.design->best_state.table_partitions()));

  SetSetupMetric(setup_s, &r);
  r.Set("design_s", Median(refine_s), "s");
  Summarize(stream.rounds, &r);
  r.Set("design_runtime_s", rl_runtime_s, "s");
  r.Set("peak_rss_mb", peak_rss_mb, "MB");
  r.attempted = refine_s.size() + stream.calls;

  const rl::OnlineAccounting& acc = rb->online->accounting();
  r.Fact("rows", std::to_string(rb->bed.rows));
  r.Fact("sample_rows", std::to_string(rb->bed.sample_rows));
  r.Fact("online_cluster_h", FormatDouble(refined.cluster_h, 9));
  r.Fact("online_queries_executed", std::to_string(acc.queries_executed));
  r.Fact("online_cache_hits", std::to_string(acc.cache_hits));
  r.Fact("bootstrap_digest", rb->bootstrap_digest);
  r.Fact("online_reward_digest", refined.online_digest);
  r.Fact("online_design", Hex(ResultFingerprint(*refined.design)));
  r.Fact("rl_cache_keys",
         std::to_string(rb->adv->offline_env()->cache_size()));
  for (const std::string& d : digests) {
    CheckSame("bootstrap and online digests across repetitions", digests[0],
              d, &r);
  }
  r.Check(Positive(rl_runtime_s) && Positive(refined.cluster_h),
          "runtime or cluster hours are not positive numbers");

  r.Check(CounterValue("costmodel.cost_cache_evictions.count") ==
              evictions_before,
          "the cost cache evicted entries: the workload does not fit it");
  if (!o.trace) return r;

  // The traced run. It first times the same serial pass undecorated, to
  // price the tracing overhead; the traced pass must then reproduce the
  // timed pass bit for bit.
  Layers layers;
  layers.undecorated_s = RefineSerially(o.seed, nullptr).decorated_s;
  CounterDeltas counters;
  const double traced_start = Now();
  SerialRefine traced = RefineSerially(o.seed, &layers);
  layers.decorated_s = traced.decorated_s;
  CheckSame("bootstrap reward digest (timed vs traced)", rb->bootstrap_digest,
            traced.bed->bootstrap_digest, &r);
  CheckSame("online reward digest (timed vs traced)", refined.online_digest,
            traced.refined.online_digest, &r);
  CheckSame("online cluster hours (timed vs traced)",
            FormatDouble(refined.cluster_h, 17),
            FormatDouble(traced.refined.cluster_h, 17), &r);
  CheckSame("online design (timed vs traced)",
            Hex(ResultFingerprint(*refined.design)),
            Hex(ResultFingerprint(*traced.refined.design)), &r);
  CheckSame("Suggest stream prefix (timed vs traced)",
            HexList(stream.Prefix()), HexList(traced.prefix), &r);
  const RefineBed& t = *traced.bed;
  const rl::OnlineAccounting& tacc = t.online->accounting();
  layers.generate_s = t.bed.generate_s;
  layers.build_s = t.bed.build_s + t.sample_build_s;
  layers.resident_mb = (t.bed.tb.cluster->storage_resident_bytes() +
                        t.sample->storage_resident_bytes()) /
                       kMiB;
  layers.bootstrap_s = t.bootstrap_s;
  layers.scale_factors_s = t.scale_factors_s;
  layers.online_env_s = t.timed_online->seconds();
  layers.online_cluster_h = traced.refined.cluster_h;
  layers.queries_executed = tacc.queries_executed;
  const double lookups =
      static_cast<double>(tacc.cache_hits + tacc.queries_executed);
  layers.online_cache_hit_rate =
      lookups > 0.0 ? tacc.cache_hits / lookups : 0.0;
  layers.cache_entries = t.offline->cache_size();
  const double measure_start = Now();
  t.bed.tb.Measure(traced.refined.design->best_state);
  layers.measure_s = Now() - measure_start;
  layers.wall_s = Now() - traced_start;
  r.metrics.clear();
  EmitLayers(layers, counters, &r);
  return r;
}

// ---------------------------------------------------------------------------
// serve_ssb

namespace {

/// The serving stack: testbed, model registry and a running server with the
/// shipped default batcher. Members are destroyed in reverse order, so the
/// server stops before the registry and the model it serves go away.
struct ServeBed {
  TimedTestbed bed;
  std::unique_ptr<serving::ModelRegistry> registry;
  std::unique_ptr<serving::AdvisorServer> server;
};

std::unique_ptr<ServeBed> SetUpServe(uint64_t seed, Report* r) {
  auto sb = std::make_unique<ServeBed>();
  sb->bed = BuildTestbed("ssb", bench::EngineKind::kInMemory, seed);
  sb->registry = std::make_unique<serving::ModelRegistry>();
  serving::ServerConfig config;
  config.worker_threads = kClients;
  sb->server =
      std::make_unique<serving::AdvisorServer>(sb->registry.get(), config);
  Status started = sb->server->Start();
  r->Check(started.ok(), "server start failed: " + started.ToString());
  return sb;
}

struct ServedModel {
  std::shared_ptr<serving::ServingModel> model;
  std::string reward_digest;
  double wall_s = 0.0;
};

/// Trains the 64-episode SSB model and wraps it for serving. With `layers`
/// the training is serial and decorated, as in the other traced passes.
ServedModel TrainServingModel(const bench::Testbed& tb, int threads,
                              Layers* layers) {
  const advisor::AdvisorConfig config = SsbSettings();
  ServedModel out;
  const double start = Now();
  auto adv = std::make_unique<advisor::PartitioningAdvisor>(
      tb.schema.get(), *tb.workload, config);
  EvalContext ctx(threads, kTrainSeed);
  rl::TrainingResult training;
  if (layers != nullptr) {
    rl::OfflineEnv offline(tb.exact_model.get(), &adv->workload());
    TimedCostEnv timed(&offline, &layers->cost);
    const double env_before = layers->cost.total_s();
    training = adv->trainer().Train(adv->agent(), &timed,
                                    UniformSampler(tb.workload->num_queries()),
                                    config.offline_episodes, &ctx);
    layers->learner_s += (Now() - start) - (layers->cost.total_s() - env_before);
    layers->cache_entries = offline.cache_size();
  } else {
    training = adv->TrainOffline(tb.exact_model.get(), nullptr, &ctx);
  }
  out.reward_digest = bench::RewardDigest(training.episode_best_rewards);
  out.model = std::make_shared<serving::ServingModel>(std::move(adv),
                                                      tb.exact_model.get());
  out.wall_s = Now() - start;
  return out;
}

/// Outcome of a closed loop: each client sends its next request only when
/// the previous reply arrived.
struct LoopOutcome {
  std::vector<double> latency_s;  ///< client-observed, completed requests
  std::vector<double> queue_s;
  std::vector<double> service_s;
  uint64_t submitted = 0, completed = 0, rejected = 0, shed = 0, failed = 0;
  double wall_s = 0.0;

  void Absorb(const LoopOutcome& o) {
    latency_s.insert(latency_s.end(), o.latency_s.begin(), o.latency_s.end());
    queue_s.insert(queue_s.end(), o.queue_s.begin(), o.queue_s.end());
    service_s.insert(service_s.end(), o.service_s.begin(), o.service_s.end());
    submitted += o.submitted;
    completed += o.completed;
    rejected += o.rejected;
    shed += o.shed;
    failed += o.failed;
  }
  uint64_t not_completed() const { return rejected + shed + failed; }
};

uint64_t ClientSeed(uint64_t seed, int client) {
  return HashCombine(MixSeed(seed), static_cast<uint64_t>(client));
}

/// Each of kClients clients sends `per_client` requests from its own
/// seeded mix stream.
LoopOutcome ClosedLoop(serving::AdvisorServer* server, int num_queries,
                       uint64_t seed, size_t per_client_requests) {
  std::vector<LoopOutcome> per_client(kClients);
  const double start = Now();
  {
    std::vector<std::thread> clients;
    for (int i = 0; i < kClients; ++i) {
      clients.emplace_back([&, i] {
        LoopOutcome& t = per_client[static_cast<size_t>(i)];
        Rng rng(ClientSeed(seed, i));
        for (size_t n = 0; n < per_client_requests; ++n) {
          std::vector<double> mix =
              workload::SampleUniformFrequencies(num_queries, &rng);
          ++t.submitted;
          const double sent = Now();
          serving::SuggestResponse response = server->Suggest(std::move(mix));
          const double latency = Now() - sent;
          switch (response.status.code()) {
            case Status::Code::kOk:
              ++t.completed;
              t.latency_s.push_back(latency);
              t.queue_s.push_back(response.queue_seconds);
              t.service_s.push_back(response.latency_seconds -
                                    response.queue_seconds);
              break;
            case Status::Code::kDeadlineExceeded:
              ++t.shed;
              break;
            case Status::Code::kUnavailable:
              ++t.rejected;
              break;
            default:
              ++t.failed;
              break;
          }
        }
      });
    }
    for (std::thread& client : clients) client.join();
  }
  LoopOutcome out;
  for (const LoopOutcome& t : per_client) out.Absorb(t);
  out.wall_s = Now() - start;
  return out;
}

bool SameResult(const rl::InferenceResult& a, const rl::InferenceResult& b) {
  return a.best_state.SameDesign(b.best_state) && a.best_cost == b.best_cost &&
         a.actions == b.actions;
}

/// Publishes `model`, checks the server against a direct call on the
/// uniform probe mix, warms the cost cache and runs the measured loop in
/// kRounds rounds.
struct Served {
  std::optional<rl::InferenceResult> probe;
  LoopOutcome warmup;
  /// All rounds together, and each round's latencies and wall time.
  LoopOutcome loop;
  std::vector<Round> rounds;
};

/// Seed of round `round`'s client streams.
uint64_t RoundSeed(uint64_t seed, size_t round) {
  return HashCombine(seed, static_cast<uint64_t>(round));
}

Served Serve(ServeBed* sb, const std::shared_ptr<serving::ServingModel>& model,
             uint64_t seed, size_t per_client_requests, Report* r) {
  Served out;
  sb->registry->Publish(model);
  const bench::Testbed& tb = sb->bed.tb;
  const int num_queries = tb.workload->num_queries();
  serving::SuggestResponse probe = sb->server->Suggest(Uniform(*tb.workload));
  rl::InferenceResult direct = model->Suggest(Uniform(*tb.workload));
  r->Check(probe.status.ok() && probe.result.has_value() &&
               SameResult(*probe.result, direct),
           "the server's answer to the probe mix differs from "
           "ServingModel::Suggest");
  if (probe.result.has_value()) out.probe = *probe.result;
  // A serving process runs warm: fill the cost cache before measuring.
  out.warmup = ClosedLoop(sb->server.get(), num_queries,
                          HashCombine(seed, 0x3a7ULL),
                          per_client_requests / 10);
  for (size_t round = 0; round < kRounds; ++round) {
    LoopOutcome loop =
        ClosedLoop(sb->server.get(), num_queries, RoundSeed(seed, round),
                   per_client_requests / kRounds);
    out.rounds.push_back({loop.latency_s, loop.wall_s});
    out.loop.Absorb(loop);
  }
  return out;
}

}  // namespace

Report RunServeSsb(const Options& o) {
  Report r;
  const uint64_t evictions_before =
      CounterValue("costmodel.cost_cache_evictions.count");

  // Set-up: generation, encoding, the cluster and a started server.
  std::vector<double> setup_s;
  std::unique_ptr<ServeBed> sb;
  for (int i = 0; i < Repetitions(o, 5); ++i) {
    sb.reset();
    const double start = Now();
    sb = SetUpServe(o.seed, &r);
    setup_s.push_back(Now() - start);
  }
  const bench::Testbed& tb = sb->bed.tb;

  // Design: the servable model, trained five times for a steady median.
  std::vector<double> design_s;
  ServedModel served;
  std::vector<std::string> digests;
  for (int i = 0; i < Repetitions(o, 5); ++i) {
    served = TrainServingModel(tb, kThreads, nullptr);
    design_s.push_back(served.wall_s);
    digests.push_back(served.reward_digest);
  }
  const size_t per_client = std::max(
      kRounds, static_cast<size_t>(std::llround(kServeRequestRate * o.seconds)) /
                   kClients);
  Served run = Serve(sb.get(), served.model, o.seed, per_client, &r);
  const double peak_rss_mb = PeakRssMb();
  const double runtime_s =
      run.probe.has_value() ? tb.Measure(run.probe->best_state) : 0.0;

  SetSetupMetric(setup_s, &r);
  r.Set("design_s", Median(design_s), "s");
  Summarize(run.rounds, &r);
  r.Set("design_runtime_s", runtime_s, "s");
  r.Set("peak_rss_mb", peak_rss_mb, "MB");
  r.Fact("suggest_p99_ms",
         FormatDouble(Quantile(run.loop.latency_s, 0.99) * 1e3, 4));
  r.Fact("rows", std::to_string(sb->bed.rows));
  r.Fact("queries", std::to_string(tb.workload->num_queries()));
  r.Fact("tables", std::to_string(tb.schema->num_tables()));
  r.Fact("reward_digest", served.reward_digest);
  r.Fact("probe_design", run.probe ? Hex(ResultFingerprint(*run.probe)) : "-");

  // Every request is accounted for exactly once.
  const serving::AdvisorServer::Stats stats = sb->server->stats();
  const uint64_t sent = 1 + run.warmup.submitted + run.loop.submitted;
  r.attempted = run.loop.submitted;
  r.failed = run.loop.not_completed();
  r.Check(stats.submitted == stats.completed + stats.rejected + stats.shed +
                                 stats.failed,
          "server accounting: submitted != completed + rejected + shed + "
          "failed");
  r.Check(stats.submitted == sent,
          "the server saw " + std::to_string(stats.submitted) +
              " requests, the clients sent " + std::to_string(sent));
  for (const std::string& d : digests) {
    CheckSame("serving model reward digest across trainings", digests[0], d,
              &r);
  }
  r.Check(Positive(runtime_s), "the probe design's runtime is not positive");

  r.Check(CounterValue("costmodel.cost_cache_evictions.count") ==
              evictions_before,
          "the cost cache evicted entries: the workload does not fit it");
  if (!o.trace) return r;

  // The traced run. It first times the serial training undecorated, to
  // price the tracing overhead; the traced pass must then reproduce the
  // timed pass bit for bit.
  Layers layers;
  layers.undecorated_s = TrainServingModel(tb, 1, nullptr).wall_s;
  CounterDeltas counters;
  const double traced_start = Now();
  std::unique_ptr<ServeBed> traced_sb = SetUpServe(o.seed, &r);
  const bench::Testbed& ttb = traced_sb->bed.tb;
  layers.generate_s = traced_sb->bed.generate_s;
  layers.build_s = traced_sb->bed.build_s;
  layers.resident_mb = ttb.cluster->storage_resident_bytes() / kMiB;
  ServedModel traced_model = TrainServingModel(ttb, 1, &layers);
  layers.decorated_s = traced_model.wall_s;
  CheckSame("serving model reward digest (timed vs traced)",
            served.reward_digest, traced_model.reward_digest, &r);
  const uint64_t batches_before = CounterValue("serving.batches.count");
  const uint64_t rows_before = CounterValue("serving.batched_rows.count");
  Served traced_run =
      Serve(traced_sb.get(), traced_model.model, o.seed, per_client, &r);
  layers.batches = CounterValue("serving.batches.count") - batches_before;
  const uint64_t rows =
      CounterValue("serving.batched_rows.count") - rows_before;
  layers.batch_rows_mean =
      layers.batches > 0 ? static_cast<double>(rows) / layers.batches : 0.0;
  layers.queue_ms_p50 = Median(traced_run.loop.queue_s) * 1e3;
  layers.service_ms_p50 = Median(traced_run.loop.service_s) * 1e3;
  double busy = 0.0;
  for (const LoopOutcome* loop : {&traced_run.warmup, &traced_run.loop}) {
    for (size_t i = 0; i < loop->queue_s.size(); ++i) {
      busy += loop->queue_s[i] + loop->service_s[i];
    }
  }
  layers.serving_busy_s = busy / kClients;
  layers.serving = Summarize(traced_run.rounds, &r);
  r.Check(traced_run.probe.has_value() && run.probe.has_value() &&
              SameResult(*traced_run.probe, *run.probe),
          "the traced model's probe design differs from the timed one's");

  // The service-time floor: the model called directly from one thread over
  // the requests client 0 sent in the first round.
  std::vector<double> direct_s;
  Rng rng(ClientSeed(RoundSeed(o.seed, 0), 0));
  const double direct_start = Now();
  for (size_t n = 0; n < per_client / kRounds; ++n) {
    std::vector<double> mix = workload::SampleUniformFrequencies(
        ttb.workload->num_queries(), &rng);
    const double call_start = Now();
    traced_model.model->Suggest(mix);
    direct_s.push_back(Now() - call_start);
  }
  layers.model_suggest_s = Now() - direct_start;
  layers.model_suggest_us = Median(direct_s) * 1e6;

  const double measure_start = Now();
  if (traced_run.probe) ttb.Measure(traced_run.probe->best_state);
  layers.measure_s = Now() - measure_start;
  layers.wall_s = Now() - traced_start;
  r.metrics.clear();
  EmitLayers(layers, counters, &r);
  return r;
}

}  // namespace lpa::perfbench
