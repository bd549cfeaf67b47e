#pragma once

#include <functional>

#include "rl/dqn.h"
#include "rl/environment.h"

namespace lpa::costmodel {
class CostModel;
}  // namespace lpa::costmodel

namespace lpa::search {
class ActionPruner;
}  // namespace lpa::search

namespace lpa::rl {

/// \brief Draws a workload frequency vector for the next episode. The naive
/// model trains over uniformly sampled mixes; subspace experts restrict the
/// sampler to their subspace (Sec 5).
using FrequencySampler = std::function<std::vector<double>(Rng*)>;

/// \brief Per-run training telemetry.
struct TrainingResult {
  /// Best (maximum) reward observed in each episode.
  std::vector<double> episode_best_rewards;
  /// Cost used to normalize rewards (workload cost of s0, uniform mix).
  double normalization = 1.0;
  /// Total environment evaluations.
  size_t steps = 0;
  /// Learner SGD steps actually executed (0 until the replay buffer holds a
  /// full minibatch), by either training schedule.
  size_t train_steps = 0;
};

/// \brief Result of the greedy inference rollout (Sec 6).
struct InferenceResult {
  partition::PartitioningState best_state;
  /// Cost at the best state: the environment's workload cost, plus the
  /// transition term when one was requested.
  double best_cost = 0.0;
  /// Action ids of the full greedy rollout.
  std::vector<int> actions;
};

/// \brief Per-call settings of `EpisodeTrainer::Infer`.
struct InferenceOptions {
  /// ε-randomized rollouts after the greedy one (0 = Sec 6's single greedy
  /// rollout). They need the call's context.
  int extra_rollouts = 0;
  /// Exploration probability of each step of an extra rollout.
  double epsilon = 0.0;
  /// Admissible-bound pruning (src/search/) built from the environment's
  /// own query costs; ignored by environments whose query costs are not pure
  /// (`PartitioningEnv::SupportsIncrementalCost`).
  /// The bounds cover the workload cost only, so it must not be combined
  /// with a transition term.
  const search::ActionPruner* pruner = nullptr;
  /// Transition term (the reward extension at the end of Sec 3.2): with
  /// `deployed` set, states are ranked by
  ///   workload_cost + transition_weight * repartitioning_cost(deployed -> s)
  /// priced by `transition_model`.
  const partition::PartitioningState* deployed = nullptr;
  double transition_weight = 0.0;
  const costmodel::CostModel* transition_model = nullptr;
};

/// \brief Runs Algorithm 1 (and its online refinement variant) against any
/// PartitioningEnv, and the Sec 6 inference rollout.
///
/// All entry points take an `EvalContext` carrying the thread pool, the RNG
/// stream, and the metrics sink. Every state is priced by
/// `PartitioningEnv::WorkloadCost`. With `ctx->pool()` set and an environment
/// that `SupportsParallelEval()`, the reward normalizer fans out over queries,
/// the learner and a round's actor slots use the pool, and the extra inference
/// rollouts run concurrently — each rollout on its own forked sub-RNG derived
/// from a single master draw, with results merged in rollout-index order, so
/// a seeded run is bit-identical at every thread count. A single step on such
/// an environment is a few memo probes and is priced without the pool; other
/// environments (the online one) get the pool for their engine kernels.
class EpisodeTrainer {
 public:
  EpisodeTrainer(const schema::Schema* schema, const partition::EdgeSet* edges,
                 const partition::ActionSpace* actions,
                 const partition::Featurizer* featurizer);

  /// \brief Train `agent` for `episodes` episodes of `agent->config().tmax`
  /// steps each, one SGD step after every environment step (Algorithm 1).
  /// Rewards are `1 - cost/normalization`, an affine (and thus
  /// policy-preserving) transform of the paper's negative-cost reward.
  /// `ctx` must be non-null; episode sampling, ε-greedy exploration and the
  /// minibatch draws use `ctx->rng()`.
  TrainingResult Train(DqnAgent* agent, PartitioningEnv* env,
                       const FrequencySampler& sampler, int episodes,
                       EvalContext* ctx) const;

  /// \brief Actor/learner variant of Train, in synchronous rounds. A round
  /// runs up to `num_actors` episodes, one per slot (slot s takes episode
  /// e0+s), each on its slot's forked RNG stream against the weights the
  /// round started with; every slot keeps its episode's transitions. Once
  /// all slots are done, their transitions are appended to the learner's
  /// replay in slot order and the learner runs one SGD step per transition.
  ///
  /// Episode e draws ε from the episode-indexed schedule
  /// max(ε₀·decay^e, ε_min) (ε₀ = the agent's ε on entry), so exploration is
  /// independent of which thread runs the episode. The slot count — never
  /// the thread count — fixes the episode→slot mapping, the RNG streams and
  /// the merge order, so the result (episode rewards and final weights) is
  /// bit-identical for a fixed `num_actors` at any thread count. It differs
  /// from Train's interleaving (a round trains after a full round of
  /// episodes, Train after every step). Slots run concurrently only when the
  /// environment `SupportsParallelEval()`; otherwise they run one after
  /// another with identical digests.
  TrainingResult TrainActorLearner(DqnAgent* agent, PartitioningEnv* env,
                                   const FrequencySampler& sampler,
                                   int episodes, int num_actors,
                                   EvalContext* ctx) const;

  /// \brief Inference (Sec 6): a greedy rollout from s0 that returns the
  /// best-cost state on its trajectory, not the final state (the agent
  /// oscillates around the optimum), followed by `options.extra_rollouts`
  /// ε-randomized rollouts whose best states compete with it.
  ///
  /// Every rollout prices its states with its own pricer: the environment's
  /// workload cost plus the optional transition term. With `options.pruner`
  /// (honoured only when the environment `SupportsIncrementalCost()`) the
  /// pricer is an `ActionPruner` session instead, which saves work in three
  /// sound ways:
  ///
  ///  - eval-pruning: a state whose lower bound already clears the
  ///    incumbent is never priced exactly (rl.eval_prunes.count);
  ///  - greedy-prefix reuse: the extra rollouts replay the greedy rollout's
  ///    trajectory until their first exploration step, skipping its
  ///    Q-network forward passes (rl.actions_pruned.count);
  ///  - horizon cutoff: an extra rollout stops when no state reachable
  ///    within its remaining steps can improve the incumbent
  ///    (rl.rollout_cutoffs.count).
  ///
  /// At `prune_epsilon() == 0` the pruned result — best state, best cost
  /// and greedy actions — is bit-identical to the unpruned one: trajectories
  /// are Q-driven, the incumbent only moves on a strict `<`, and only
  /// updates that provably cannot fire are skipped. At ε > 0 its cost is
  /// within (1+ε) of the unpruned one.
  ///
  /// The extra rollouts need `ctx` (non-null when `extra_rollouts > 0`): one
  /// `ForkRngs` draw gives each its own RNG stream, and they run on the
  /// context's pool only when the environment `SupportsParallelEval()`.
  /// Their results merge in rollout order with a strict `<`, so a seeded
  /// call is bit-identical at every thread count. The greedy rollout's
  /// pricings use `ctx`'s pool only inside the online environment's engine.
  InferenceResult Infer(const DqnAgent& agent, PartitioningEnv* env,
                        const std::vector<double>& frequencies,
                        const InferenceOptions& options = {},
                        EvalContext* ctx = nullptr) const;

  /// \brief Workload cost of the initial state under a uniform mix — the
  /// reward normalizer.
  double Normalization(PartitioningEnv* env, EvalContext* ctx = nullptr) const;

  partition::PartitioningState InitialState() const {
    return partition::PartitioningState::Initial(schema_, edges_);
  }

 private:
  const schema::Schema* schema_;
  const partition::EdgeSet* edges_;
  const partition::ActionSpace* actions_;
  const partition::Featurizer* featurizer_;
};

}  // namespace lpa::rl
