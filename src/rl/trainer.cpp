#include "rl/trainer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>

#include "costmodel/cost_model.h"
#include "search/action_pruner.h"
#include "telemetry/registry.h"
#include "telemetry/trace.h"
#include "util/logging.h"

namespace lpa::rl {

namespace {

using partition::PartitioningState;

/// Telemetry of the training schedules and the inference rollouts.
/// Registering every metric here means every training bench manifest exports
/// the full set, zero-valued when a path did not run.
struct TrainerMetrics {
  telemetry::Counter& episodes;
  telemetry::Counter& env_evals;
  telemetry::Counter& inference_rollouts;
  /// Q-network forward passes during inference rollouts (greedy action
  /// selections; exploration steps and pruned-prefix reuse need none).
  telemetry::Counter& q_evals;
  /// Candidate actions whose Q-values were never computed because a pruned
  /// rollout replayed the cached greedy prefix (src/search/ActionPruner).
  telemetry::Counter& actions_pruned;
  /// Exact state pricings skipped because the admissible lower bound
  /// already cleared the incumbent.
  telemetry::Counter& eval_prunes;
  /// Rollout tails abandoned because no reachable state could improve the
  /// incumbent within the remaining horizon.
  telemetry::Counter& rollout_cutoffs;
  telemetry::Gauge& epsilon;
  telemetry::Gauge& env_evals_per_sec;
  /// Learner SGD steps per wall-clock second of the last training run.
  telemetry::Gauge& train_steps_per_sec;
  /// Fraction of actor-slot wall time spent generating transitions during
  /// the last actor/learner run (1.0 = every slot busy the whole run).
  telemetry::Gauge& actor_utilization;
  telemetry::Histogram& episode_reward;

  static TrainerMetrics& Get() {
    auto& reg = telemetry::MetricsRegistry::Global();
    static TrainerMetrics* m = new TrainerMetrics{
        reg.GetCounter("rl.episodes.count"),
        reg.GetCounter("rl.env_evals.count"),
        reg.GetCounter("rl.inference_rollouts.count"),
        reg.GetCounter("rl.q_evals.count"),
        reg.GetCounter("rl.actions_pruned.count"),
        reg.GetCounter("rl.eval_prunes.count"),
        reg.GetCounter("rl.rollout_cutoffs.count"),
        reg.GetGauge("rl.epsilon.value"),
        reg.GetGauge("rl.env_evals_per_sec.value"),
        reg.GetGauge("rl.train_steps_per_sec.value"),
        reg.GetGauge("rl.actor_utilization.value"),
        // Rewards are 1 - cost/normalization, i.e. bounded above by 1.
        reg.GetHistogram("rl.episode_reward.value",
                         {-8.0, -4.0, -2.0, -1.0, -0.5, -0.25, 0.0, 0.125,
                          0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0})};
    return *m;
  }
};

/// The context one state's pricing gets. On an environment that prices in
/// parallel (the offline cost model) a state costs one memo probe per
/// weighted query, less than handing the probes to pool workers costs (with
/// per-step fan-out, SSB offline training ran ~20% slower on 4 threads than
/// on 1 on a 4-vCPU Xeon), so it is priced serially. Other environments get
/// `ctx`: the online environment hands its pool to the engine kernels.
EvalContext* StepPricingContext(const PartitioningEnv* env, EvalContext* ctx) {
  return env->SupportsParallelEval() ? nullptr : ctx;
}

/// One training episode (Algorithm 1 lines 4-9), the walk both training
/// schedules run: draw the mix, then `tmax` times select, apply, price and
/// encode, handing each transition to a sink. Train's sink stores it and
/// trains (lines 10-11); an actor/learner slot's keeps it for the round's
/// merge. Only reads the agent, so a round's slots may walk at once.
struct EpisodeWalk {
  const DqnAgent* agent;
  PartitioningEnv* env;
  const FrequencySampler* sampler;
  const partition::Featurizer* featurizer;
  const partition::ActionSpace* actions;
  const PartitioningState* s0;
  double normalization;

  /// Returns the episode's best reward.
  template <class Sink>
  double Run(double epsilon, Rng* rng, EvalContext* pricing_ctx,
             Sink&& sink) const {
    std::vector<double> freqs = (*sampler)(rng);
    PartitioningState state = *s0;  // line 4: reset
    std::vector<double> enc = featurizer->EncodeState(state, freqs);
    std::vector<int> legal = actions->LegalActions(state);
    double episode_best = -1e30;
    for (int t = 0; t < agent->config().tmax; ++t) {
      int action = agent->SelectAction(enc, legal, epsilon, rng);  // line 6
      LPA_CHECK(actions->Apply(action, &state).ok());               // line 7
      double cost = env->WorkloadCost(state, freqs, pricing_ctx);   // line 8
      double reward = 1.0 - cost / normalization;
      episode_best = std::max(episode_best, reward);

      std::vector<double> next_enc = featurizer->EncodeState(state, freqs);
      std::vector<int> next_legal = actions->LegalActions(state);
      sink(Transition{std::move(enc), action, reward, next_enc, next_legal});
      enc = std::move(next_enc);
      legal = std::move(next_legal);
    }
    return episode_best;
  }
};

/// Publishes a finished training run's counters and rates.
void RecordRun(const TrainingResult& result, double epsilon, double elapsed) {
  auto& tm = TrainerMetrics::Get();
  tm.episodes.Add(result.episode_best_rewards.size());
  for (double r : result.episode_best_rewards) tm.episode_reward.Observe(r);
  tm.epsilon.Set(epsilon);
  tm.env_evals.Add(result.steps);
  if (elapsed > 0.0) {
    tm.env_evals_per_sec.Set(static_cast<double>(result.steps) / elapsed);
    tm.train_steps_per_sec.Set(static_cast<double>(result.train_steps) /
                               elapsed);
  }
}

}  // namespace

EpisodeTrainer::EpisodeTrainer(const schema::Schema* schema,
                               const partition::EdgeSet* edges,
                               const partition::ActionSpace* actions,
                               const partition::Featurizer* featurizer)
    : schema_(schema),
      edges_(edges),
      actions_(actions),
      featurizer_(featurizer) {}

double EpisodeTrainer::Normalization(PartitioningEnv* env,
                                     EvalContext* ctx) const {
  std::vector<double> uniform(
      static_cast<size_t>(env->workload().num_queries()), 1.0);
  double norm = env->WorkloadCost(InitialState(), uniform, ctx);
  LPA_CHECK(norm > 0.0);
  return norm;
}

TrainingResult EpisodeTrainer::Train(DqnAgent* agent, PartitioningEnv* env,
                                     const FrequencySampler& sampler,
                                     int episodes, EvalContext* ctx) const {
  LPA_CHECK(ctx != nullptr);
  telemetry::Span span("rl.train");
  LPA_CHECK(agent->config().tmax >= schema_->num_tables());
  Rng* rng = ctx->rng();
  TrainingResult result;
  result.normalization = Normalization(env, ctx);
  const PartitioningState s0 = InitialState();
  const EpisodeWalk walk{agent,    env, &sampler, featurizer_,
                         actions_, &s0, result.normalization};
  EvalContext* step_ctx = StepPricingContext(env, ctx);
  const size_t min_batch = static_cast<size_t>(agent->config().batch_size);

  for (int e = 0; e < episodes; ++e) {
    result.episode_best_rewards.push_back(
        walk.Run(agent->epsilon(), rng, step_ctx, [&](Transition&& t) {
          agent->Observe(std::move(t));
          // lines 10-11 (+ soft target update, line 13), a no-op until the
          // replay holds a full minibatch
          if (agent->replay_size() >= min_batch) ++result.train_steps;
          agent->TrainStep(rng, ctx->pool());
          ++result.steps;
        }));
    agent->DecayEpsilon();  // line 12
  }
  RecordRun(result, agent->epsilon(), span.elapsed_seconds());
  return result;
}

TrainingResult EpisodeTrainer::TrainActorLearner(
    DqnAgent* agent, PartitioningEnv* env, const FrequencySampler& sampler,
    int episodes, int num_actors, EvalContext* ctx) const {
  LPA_CHECK(ctx != nullptr);
  LPA_CHECK(num_actors >= 1);
  telemetry::Span span("rl.train_actor_learner");
  LPA_CHECK(agent->config().tmax >= schema_->num_tables());
  // Slots run concurrently only when the environment prices states
  // thread-safely; otherwise they run one after another on the caller. The
  // digests are the same, because the slot mapping never depends on who runs
  // a slot.
  ThreadPool* slot_pool = env->SupportsParallelEval() ? ctx->pool() : nullptr;
  TrainingResult result;
  result.normalization = Normalization(env, ctx);
  const PartitioningState s0 = InitialState();
  const EpisodeWalk walk{agent,    env, &sampler, featurizer_,
                         actions_, &s0, result.normalization};
  EvalContext* step_ctx = StepPricingContext(env, ctx);

  // One forked RNG per slot plus one for the learner's minibatch sampling,
  // all derived from a single master draw, so no stream depends on the
  // thread count.
  std::vector<Rng> rngs = ctx->ForkRngs(static_cast<size_t>(num_actors) + 1);
  Rng* learner_rng = &rngs.back();
  ReplayBuffer replay(static_cast<size_t>(agent->config().replay_capacity));
  const size_t min_batch = static_cast<size_t>(agent->config().batch_size);

  // Episode-indexed ε schedule: episode e explores with max(ε₀·decay^e,
  // ε_min) no matter which slot runs it.
  const double eps0 = agent->epsilon();
  const double decay = agent->config().epsilon_decay;
  const double eps_min = agent->config().epsilon_min;
  auto epsilon_for = [eps0, decay, eps_min](int episode) {
    return std::max(eps0 * std::pow(decay, episode), eps_min);
  };

  result.episode_best_rewards.assign(static_cast<size_t>(episodes), 0.0);
  std::vector<std::vector<Transition>> slots(static_cast<size_t>(num_actors));
  std::vector<double> busy_seconds(slots.size(), 0.0);
  for (int e0 = 0; e0 < episodes; e0 += num_actors) {
    const size_t round =
        static_cast<size_t>(std::min(num_actors, episodes - e0));
    auto run_slot = [&](size_t slot) {
      const auto t0 = std::chrono::steady_clock::now();
      const int episode = e0 + static_cast<int>(slot);
      std::vector<Transition>& out = slots[slot];
      out.clear();
      result.episode_best_rewards[static_cast<size_t>(episode)] =
          walk.Run(epsilon_for(episode), &rngs[slot], step_ctx,
                   [&out](Transition&& t) { out.push_back(std::move(t)); });
      busy_seconds[slot] += std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
    };
    if (slot_pool != nullptr) {
      slot_pool->ParallelForEach(round, 1, run_slot);
    } else {
      for (size_t slot = 0; slot < round; ++slot) run_slot(slot);
    }
    // Every slot is done: append in slot order, then the learner catches up
    // at one SGD step per new transition.
    size_t added = 0;
    for (size_t slot = 0; slot < round; ++slot) {
      for (const Transition& t : slots[slot]) replay.Add(t);
      added += slots[slot].size();
    }
    result.steps += added;
    if (replay.size() >= min_batch) {
      for (size_t s = 0; s < added; ++s) {
        agent->TrainStepFrom(replay, learner_rng, ctx->pool());
      }
      result.train_steps += added;
    }
  }

  agent->set_epsilon(epsilon_for(episodes));
  const double elapsed = span.elapsed_seconds();
  RecordRun(result, agent->epsilon(), elapsed);
  if (elapsed > 0.0) {
    double busy = 0.0;
    for (double b : busy_seconds) busy += b;
    TrainerMetrics::Get().actor_utilization.Set(
        busy / (elapsed * static_cast<double>(num_actors)));
  }
  return result;
}

namespace {

using PriceResult = search::ActionPruner::Session::PriceResult;

/// Prices the states one rollout visits: the environment's workload cost
/// plus the optional transition term; or, with a pruner, an ActionPruner
/// session that leaves a state unpriced when its admissible bound cannot
/// beat the threshold. One per rollout.
class RolloutPricer {
 public:
  /// `ctx` (nullable) reaches the environment as StepPricingContext says.
  RolloutPricer(PartitioningEnv* env, const std::vector<double>* frequencies,
                const InferenceOptions* options,
                const search::ActionPruner* pruner, EvalContext* ctx)
      : env_(env),
        frequencies_(frequencies),
        options_(options),
        ctx_(StepPricingContext(env, ctx)) {
    if (pruner != nullptr) {
      session_ = pruner->NewSession();
      slack_ = 1.0 + pruner->prune_epsilon();
    }
  }

  /// Cost of `state`, whose design differs from the previously priced or
  /// deferred state's only on `affected`. Inexact (a lower bound) only when
  /// the pruner proved the state cannot beat `threshold`, so an infinite
  /// threshold always prices exactly.
  PriceResult Price(const PartitioningState& state,
                    const std::vector<schema::TableId>& affected,
                    double threshold) {
    if (session_ != nullptr) {
      return session_->PriceOrPrune(state, affected, *frequencies_, threshold);
    }
    double cost = env_->WorkloadCost(state, *frequencies_, ctx_);
    if (options_->deployed != nullptr) {
      cost += options_->transition_weight *
              options_->transition_model->RepartitioningCost(
                  *options_->deployed, state);
    }
    return PriceResult{cost, true};
  }

  /// A replayed step whose cost is already known: its drift is folded into
  /// the next pricing.
  void Defer(const std::vector<schema::TableId>& affected) {
    session_->Defer(affected);
  }

  /// True when a pruner proves that no state within `horizon` more steps of
  /// the last priced one can go below `incumbent`.
  bool CannotImprove(int horizon, double incumbent) const {
    return session_ != nullptr && horizon > 0 &&
           session_->ReachableLowerBound(*frequencies_, horizon) * slack_ >=
               incumbent;
  }

 private:
  PartitioningEnv* env_;
  const std::vector<double>* frequencies_;
  const InferenceOptions* options_;
  EvalContext* ctx_;
  std::unique_ptr<search::ActionPruner::Session> session_;
  double slack_ = 1.0;
};

/// One step of the greedy rollout, kept so pruned extra rollouts can replay
/// the shared greedy prefix without re-deriving it from the Q-network.
struct TrajStep {
  int action = 0;
  size_t legal_count = 0;  ///< Q-values the replay never computes
  bool priced = false;     ///< cost below is exact (else a lower bound)
  double cost = 0.0;
};

/// Counter deltas, summed over an Infer call's rollouts and flushed once.
struct RolloutCounters {
  uint64_t rollouts = 0;
  uint64_t q_evals = 0;
  uint64_t actions_pruned = 0;
  uint64_t eval_prunes = 0;
  uint64_t cutoffs = 0;

  void MergeFrom(const RolloutCounters& other) {
    rollouts += other.rollouts;
    q_evals += other.q_evals;
    actions_pruned += other.actions_pruned;
    eval_prunes += other.eval_prunes;
    cutoffs += other.cutoffs;
  }
  void Flush() const {
    auto& tm = TrainerMetrics::Get();
    tm.inference_rollouts.Add(rollouts);
    tm.q_evals.Add(q_evals);
    tm.actions_pruned.Add(actions_pruned);
    tm.eval_prunes.Add(eval_prunes);
    tm.rollout_cutoffs.Add(cutoffs);
  }
};

/// Folds `state` into `best` when it is strictly cheaper.
void Offer(double cost, const PartitioningState& state,
           InferenceResult* best) {
  if (cost < best->best_cost) {
    best->best_cost = cost;
    best->best_state = state;
  }
}

/// One inference rollout: the loop every greedy and extra rollout runs.
struct RolloutLoop {
  const DqnAgent* agent;
  const partition::Featurizer* featurizer;
  const partition::ActionSpace* actions;
  const std::vector<double>* frequencies;
  /// Greedy rollout: receives the trajectory.
  std::vector<TrajStep>* record = nullptr;
  /// Exploration: each step draws Uniform() from `rng` and, below
  /// `epsilon`, takes a uniformly drawn legal action instead.
  double epsilon = 0.0;
  Rng* rng = nullptr;
  /// Pruned extra rollouts: the greedy trajectory, replayed until the first
  /// exploration step, and its best cost. The final merge takes a strict
  /// minimum over the greedy result and every rollout, so a state that
  /// cannot beat `greedy_best` needs no exact price.
  const std::vector<TrajStep>* replay = nullptr;
  double greedy_best = std::numeric_limits<double>::infinity();

  /// Walks `tmax` steps from `state`, folding the cheapest priced state
  /// into `best`.
  void Run(RolloutPricer* pricer, InferenceResult* best,
           RolloutCounters* counters, PartitioningState state) const {
    ++counters->rollouts;
    const std::vector<TrajStep>* prefix = replay;
    const int tmax = agent->config().tmax;
    for (int t = 0; t < tmax; ++t) {
      const bool explore = epsilon > 0.0 && rng->Uniform() < epsilon;
      if (explore) prefix = nullptr;  // the walk leaves the greedy prefix
      if (prefix != nullptr) {
        // Same state as the greedy rollout at step t, hence the same
        // deterministic Q-argmax: no forward pass needed.
        const TrajStep& step = (*prefix)[static_cast<size_t>(t)];
        LPA_CHECK(actions->Apply(step.action, &state).ok());
        pricer->Defer(actions->AffectedTables(step.action));
        counters->actions_pruned += step.legal_count;
        // An unpriced greedy step's cost is bounded below by the greedy
        // incumbent of its time, so it can never win the final merge.
        if (step.priced) Offer(step.cost, state, best);
        continue;
      }
      std::vector<int> legal = actions->LegalActions(state);
      int action;
      if (explore) {
        action = legal[static_cast<size_t>(
            rng->UniformInt(0, static_cast<int64_t>(legal.size()) - 1))];
      } else {
        std::vector<double> enc = featurizer->EncodeState(state, *frequencies);
        action = agent->GreedyAction(enc, legal);
        ++counters->q_evals;
      }
      LPA_CHECK(actions->Apply(action, &state).ok());
      PriceResult priced =
          pricer->Price(state, actions->AffectedTables(action),
                        std::min(best->best_cost, greedy_best));
      if (record != nullptr) {
        record->push_back(
            TrajStep{action, legal.size(), priced.exact, priced.cost});
      }
      if (!priced.exact) {
        ++counters->eval_prunes;
        continue;
      }
      Offer(priced.cost, state, best);
      // The greedy trajectory is part of the result: only extras stop early.
      if (record == nullptr &&
          pricer->CannotImprove(tmax - (t + 1),
                                std::min(best->best_cost, greedy_best))) {
        ++counters->cutoffs;
        break;
      }
    }
  }
};

}  // namespace

InferenceResult EpisodeTrainer::Infer(const DqnAgent& agent,
                                      PartitioningEnv* env,
                                      const std::vector<double>& frequencies,
                                      const InferenceOptions& options,
                                      EvalContext* ctx) const {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // The bounds rely on the pure query-cost contract; other environments (the
  // online env's measured runtimes) price every state.
  const search::ActionPruner* pruner =
      env->SupportsIncrementalCost() ? options.pruner : nullptr;
  RolloutCounters counters;

  // Greedy rollout. Pricing s0 first also gives a pruner session the exact
  // per-query costs its bounds start from.
  const PartitioningState s0 = InitialState();
  RolloutPricer greedy_pricer(env, &frequencies, &options, pruner, ctx);
  InferenceResult result{s0, greedy_pricer.Price(s0, {}, kInf).cost, {}};
  std::vector<TrajStep> traj;
  RolloutLoop greedy{&agent, featurizer_, actions_, &frequencies};
  greedy.record = &traj;
  greedy.Run(&greedy_pricer, &result, &counters, s0);
  for (const TrajStep& step : traj) result.actions.push_back(step.action);

  if (options.extra_rollouts > 0) {
    LPA_CHECK(ctx != nullptr);
    const size_t n = static_cast<size_t>(options.extra_rollouts);
    std::vector<Rng> rngs = ctx->ForkRngs(n);
    // Pricers are built here, not on the pool. They take no context, so a
    // pricing inside a pooled rollout never fans out again.
    std::vector<RolloutPricer> pricers;
    pricers.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      pricers.emplace_back(env, &frequencies, &options, pruner, nullptr);
    }
    std::vector<InferenceResult> locals(n, InferenceResult{s0, kInf, {}});
    std::vector<RolloutCounters> local_counters(n);
    RolloutLoop extra = greedy;
    extra.record = nullptr;
    extra.epsilon = options.epsilon;
    if (pruner != nullptr) {
      extra.replay = &traj;
      extra.greedy_best = result.best_cost;
    }
    auto run_one = [&](size_t i) {
      RolloutLoop rollout = extra;
      rollout.rng = &rngs[i];
      rollout.Run(&pricers[i], &locals[i], &local_counters[i], s0);
    };
    // Environments with per-call mutable state (the online env) must never
    // be priced from two threads at once.
    if (env->SupportsParallelEval() && ctx->pool() != nullptr) {
      ctx->pool()->ParallelForEach(n, 1, run_one);
    } else {
      for (size_t i = 0; i < n; ++i) run_one(i);
    }
    // Strict-< merge in rollout order: identical whether the rollouts ran
    // serially or on the pool.
    for (size_t i = 0; i < n; ++i) {
      Offer(locals[i].best_cost, locals[i].best_state, &result);
      counters.MergeFrom(local_counters[i]);
    }
  }
  counters.Flush();
  return result;
}

}  // namespace lpa::rl
