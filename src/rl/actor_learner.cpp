// Actor/learner training pipeline (EpisodeTrainer::TrainActorLearner).
//
// N logical episode actors generate transitions into a sharded replay
// buffer — one lock-free SPSC shard per actor slot — while the learner
// drains the shards into its central ReplayBuffer and runs minibatch SGD
// (stacked-GEMM target evaluation, see DqnAgent::TrainStepFrom). The
// central buffer stores a transition's s once when it is the previous
// merged transition's s': a shard drains its episode in step order, so
// only the first step of each drained run stores both states. Two modes:
//
//  * deterministic (default): synchronous rounds. Each round snapshots the
//    policy once, runs up to N episodes (slot s takes episode e0+s — a fixed
//    mapping), hits a barrier, merges shards in slot order, then trains.
//    With per-slot forked RNG streams and a pure query cost (the shared memo
//    returns the same bits to every slot) the whole run — episode rewards
//    and final weights — is bit-identical for a fixed slot count at every
//    thread count.
//  * fast: work-stealing. Actors claim episode indices from a shared atomic
//    counter and stream transitions continuously; the learner trains
//    concurrently against policy snapshots it republishes every
//    kPublishInterval steps. No barrier, best wall-clock, no digest
//    stability (episode→actor assignment depends on timing).
//
// In both modes the learner runs one SGD step per drained transition, as
// the serial loop does, and each actor's shard holds one episode (tmax
// transitions), exactly a deterministic round's worst case.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "rl/replay.h"
#include "rl/trainer.h"
#include "rl/trainer_metrics.h"
#include "telemetry/trace.h"
#include "util/logging.h"

namespace lpa::rl {

namespace {

/// Fast mode: SGD steps between policy snapshot publishes.
constexpr int kPublishInterval = 64;

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

TrainingResult EpisodeTrainer::TrainActorLearner(
    DqnAgent* agent, PartitioningEnv* env, const FrequencySampler& sampler,
    int episodes, const ActorLearnerConfig& config, EvalContext* ctx) const {
  LPA_CHECK(ctx != nullptr);
  LPA_CHECK(config.num_actors >= 1);
  telemetry::Span span("rl.train_actor_learner");
  auto& tm = internal::TrainerMetrics::Get();

  const int tmax = agent->config().tmax;
  LPA_CHECK(tmax >= schema_->num_tables());
  const int num_actors = config.num_actors;
  // Actors may only execute concurrently when the environment prices states
  // thread-safely; otherwise the slots run sequentially on the caller — the
  // digests are unaffected because the slot mapping never depends on who
  // executes a slot.
  const bool parallel_ok =
      env->SupportsParallelEval() && ctx->pool() != nullptr;

  TrainingResult result;
  result.normalization = Normalization(env, ctx);

  // One forked RNG per actor slot plus one for the learner's minibatch
  // sampling — all derived from a single master draw, so the streams depend
  // on neither thread count nor mode.
  std::vector<Rng> rngs = ctx->ForkRngs(static_cast<size_t>(num_actors) + 1);
  Rng* learner_rng = &rngs.back();

  ReplayBuffer replay(static_cast<size_t>(agent->config().replay_capacity));
  ShardedReplayBuffer shards(num_actors, static_cast<size_t>(tmax));
  const size_t min_batch = static_cast<size_t>(agent->config().batch_size);

  // Episode-indexed ε schedule: episode e explores with max(ε₀·decay^e,
  // ε_min) no matter which slot runs it — the serial loop's shared mutable ε
  // would tie the schedule to completion order.
  const double eps0 = agent->epsilon();
  const double decay = agent->config().epsilon_decay;
  const double eps_min = agent->config().epsilon_min;
  auto epsilon_for = [eps0, decay, eps_min](int episode) {
    return std::max(eps0 * std::pow(decay, episode), eps_min);
  };

  std::vector<double> episode_rewards(static_cast<size_t>(episodes), 0.0);
  std::vector<double> busy_seconds(static_cast<size_t>(num_actors), 0.0);
  size_t learner_steps = 0;

  // One actor episode: act against the frozen `policy`, price states without
  // the pool (slots may already run on it; the offline environment's memo is
  // shared and thread-safe), stream transitions into the slot's shard.
  auto run_episode = [&](int slot, int episode, const DqnPolicy& policy) {
    Rng* rng = &rngs[static_cast<size_t>(slot)];
    const double epsilon = epsilon_for(episode);
    std::vector<double> freqs = sampler(rng);
    partition::PartitioningState state = InitialState();
    std::vector<double> enc = featurizer_->EncodeState(state, freqs);
    std::vector<int> legal = actions_->LegalActions(state);
    double episode_best = -1e30;
    for (int t = 0; t < tmax; ++t) {
      int action = policy.SelectAction(enc, legal, epsilon, rng);
      LPA_CHECK(actions_->Apply(action, &state).ok());
      double cost = env->WorkloadCost(state, freqs, nullptr);
      double reward = 1.0 - cost / result.normalization;
      episode_best = std::max(episode_best, reward);
      std::vector<double> next_enc = featurizer_->EncodeState(state, freqs);
      std::vector<int> next_legal = actions_->LegalActions(state);
      shards.Push(slot, Transition{std::move(enc), action, reward, next_enc,
                                   next_legal});
      enc = std::move(next_enc);
      legal = std::move(next_legal);
    }
    return episode_best;
  };

  const bool fast =
      config.mode == ActorLearnerConfig::Mode::kFast && parallel_ok;
  if (!fast) {
    // ---------------- deterministic rounds ----------------
    for (int e0 = 0; e0 < episodes; e0 += num_actors) {
      const int round = std::min(num_actors, episodes - e0);
      const DqnPolicy policy = agent->SnapshotPolicy();
      auto run_slot = [&](size_t slot) {
        const auto t0 = std::chrono::steady_clock::now();
        episode_rewards[static_cast<size_t>(e0) + slot] = run_episode(
            static_cast<int>(slot), e0 + static_cast<int>(slot), policy);
        busy_seconds[slot] += SecondsSince(t0);
      };
      if (parallel_ok) {
        ctx->pool()->ParallelForEach(static_cast<size_t>(round), 1, run_slot);
      } else {
        for (size_t s = 0; s < static_cast<size_t>(round); ++s) run_slot(s);
      }
      // Barrier passed: slot-order merge, then the learner catches up at
      // one SGD step per drained transition.
      shards.ObserveDepths();
      const size_t drained = shards.DrainOrdered(
          [&replay](Transition&& t) { replay.Add(t); });
      result.steps += drained;
      if (replay.size() >= min_batch) {
        for (size_t s = 0; s < drained; ++s) {
          agent->TrainStepFrom(replay, learner_rng, ctx->pool());
        }
        learner_steps += drained;
      }
    }
  } else {
    // ---------------- fast mode (work-stealing) ----------------
    std::atomic<int> next_episode{0};
    std::atomic<int> actors_done{0};
    std::shared_ptr<const DqnPolicy> published =
        std::make_shared<const DqnPolicy>(agent->SnapshotPolicy());
    std::mutex policy_mu;
    auto load_policy = [&]() {
      std::lock_guard<std::mutex> lock(policy_mu);
      return published;
    };
    auto publish_policy = [&]() {
      auto fresh = std::make_shared<const DqnPolicy>(agent->SnapshotPolicy());
      std::lock_guard<std::mutex> lock(policy_mu);
      published = std::move(fresh);
    };

    std::vector<std::future<void>> actors;
    actors.reserve(static_cast<size_t>(num_actors));
    for (int slot = 0; slot < num_actors; ++slot) {
      actors.push_back(ctx->pool()->Submit([&, slot]() {
        const auto t0 = std::chrono::steady_clock::now();
        for (;;) {
          const int e = next_episode.fetch_add(1, std::memory_order_relaxed);
          if (e >= episodes) break;
          auto policy = load_policy();
          episode_rewards[static_cast<size_t>(e)] =
              run_episode(slot, e, *policy);
        }
        busy_seconds[static_cast<size_t>(slot)] = SecondsSince(t0);
        // All of this slot's pushes happen-before this increment, so the
        // learner's post-loop drain observes every transition.
        actors_done.fetch_add(1, std::memory_order_release);
      }));
    }

    // Learner on the calling thread: drain whatever the shards expose, pace
    // SGD to the transition stream, republish the policy periodically.
    size_t drained_total = 0;
    int since_publish = 0;
    auto drain = [&]() {
      const size_t got = shards.DrainAvailable(
          [&replay](Transition&& t) { replay.Add(t); });
      if (got > 0) shards.ObserveDepths();
      return got;
    };
    auto train_to_target = [&](bool allow_publish) {
      bool trained = false;
      while (learner_steps < drained_total && replay.size() >= min_batch) {
        agent->TrainStepFrom(replay, learner_rng, ctx->pool());
        ++learner_steps;
        trained = true;
        if (allow_publish && ++since_publish >= kPublishInterval) {
          publish_policy();
          since_publish = 0;
        }
      }
      return trained;
    };
    while (actors_done.load(std::memory_order_acquire) < num_actors) {
      const size_t got = drain();
      drained_total += got;
      const bool trained = train_to_target(/*allow_publish=*/true);
      if (got == 0 && !trained) std::this_thread::yield();
    }
    drained_total += drain();  // actors quiescent: final sweep
    train_to_target(/*allow_publish=*/false);
    result.steps += drained_total;
    for (auto& actor : actors) actor.get();
  }

  agent->set_epsilon(epsilon_for(episodes));
  result.episode_best_rewards = std::move(episode_rewards);
  result.train_steps = learner_steps;

  tm.episodes.Add(static_cast<uint64_t>(episodes));
  for (double r : result.episode_best_rewards) tm.episode_reward.Observe(r);
  tm.epsilon.Set(agent->epsilon());
  tm.env_evals.Add(result.steps);
  const double elapsed = span.elapsed_seconds();
  if (elapsed > 0.0) {
    tm.env_evals_per_sec.Set(static_cast<double>(result.steps) / elapsed);
    tm.train_steps_per_sec.Set(static_cast<double>(learner_steps) / elapsed);
    double busy = 0.0;
    for (double b : busy_seconds) busy += b;
    tm.actor_utilization.Set(busy /
                             (elapsed * static_cast<double>(num_actors)));
  }
  return result;
}

}  // namespace lpa::rl
