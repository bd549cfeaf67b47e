#pragma once

#include <memory>

#include "baselines/heuristics.h"
#include "costmodel/cost_model.h"
#include "rl/offline_env.h"
#include "rl/online_env.h"
#include "rl/trainer.h"

namespace lpa::advisor {

/// \brief End-to-end configuration of the learned partitioning advisor.
struct AdvisorConfig {
  rl::DqnConfig dqn;
  /// Offline (cost-model) episodes; the paper uses 600 for SSB and 1200 for
  /// TPC-DS / TPC-CH.
  int offline_episodes = 600;
  /// Online (measured-runtime) refinement episodes.
  int online_episodes = 300;
  /// Extra zero-initialized workload-state slots reserved for queries that
  /// appear later (Sec 3.2 / Sec 5).
  int reserve_query_slots = 0;
  /// Additional ε-randomized inference rollouts beyond the paper's single
  /// greedy one (0 reproduces Sec 6 exactly). They are priced by the
  /// simulation, never the cluster, and smooth policy oscillation.
  int inference_extra_rollouts = 4;
  double inference_epsilon = 0.1;
  uint64_t seed = 42;
};

/// \brief Per-call inference options (see `PartitioningAdvisor::Suggest`).
struct SuggestOptions {
  /// Route the inference rollouts through `search::ActionPruner`: states
  /// whose admissible lower bound clears the incumbent are never priced,
  /// extra rollouts replay the shared greedy prefix without Q-network
  /// forward passes, and rollout tails that provably cannot improve the
  /// incumbent are cut. Default OFF. Only engaged against the offline
  /// simulation (environments with the pure query-cost contract);
  /// otherwise silently unpruned.
  bool prune_rollouts = false;
  /// Pruning slack ε ≥ 0. At 0 the pruned suggestion (design, cost, and
  /// greedy trajectory) is bit-identical to the unpruned one at every
  /// thread count; at ε > 0 its cost is within (1+ε) of it.
  double prune_epsilon = 0.0;
};

/// \brief The learned partitioning advisor: the paper's primary contribution
/// wrapped behind one facade (Fig 1).
///
/// Usage:
///   PartitioningAdvisor advisor(&schema, workload, config);
///   advisor.TrainOffline(&cost_model);            // step 1, simulation
///   advisor.TrainOnline(&online_env);             // step 2, sampled cluster
///   auto result = advisor.Suggest(frequencies);   // step 3, inference
///   cluster.ApplyDesign(result.best_state);
class PartitioningAdvisor {
 public:
  PartitioningAdvisor(const schema::Schema* schema,
                      workload::Workload workload, AdvisorConfig config);
  ~PartitioningAdvisor();

  const schema::Schema& schema() const { return *schema_; }
  const workload::Workload& workload() const { return workload_; }
  workload::Workload& mutable_workload() { return workload_; }
  const partition::EdgeSet& edges() const { return edges_; }
  const partition::ActionSpace& actions() const { return actions_; }
  /// \brief The featurizer the agent currently uses. Dies (LPA_CHECK) if the
  /// advisor holds no featurizer — which cannot happen through the public
  /// API, but guards against a moved-from or corrupted advisor.
  const partition::Featurizer& featurizer() const;
  const rl::EpisodeTrainer& trainer() const { return *trainer_; }
  rl::DqnAgent* agent() { return agent_.get(); }
  const AdvisorConfig& config() const { return config_; }
  /// \brief Mutable access to the configuration for adjustments between
  /// phases (episode budgets, inference rollouts, ε schedule...). Fields the
  /// constructor consumed — `dqn.*`, `seed`, `reserve_query_slots` — are not
  /// re-read by later phases; changing them here has no effect.
  AdvisorConfig& mutable_config() { return config_; }

  // ------------------------------------------------------------------
  // Training entry points. DEPRECATED as direct calls: new code should
  // drive training through `advisor::AdvisorHandle` (advisor_handle.h),
  // whose Status-returning Train(TrainSpec) subsumes all three phases and
  // never aborts on misuse. These remain as thin shims for one release;
  // the handle forwards to them internally.
  // ------------------------------------------------------------------

  /// \brief Phase 1 (Sec 4.1): bootstrap against the cost-model simulation.
  /// `sampler` defaults to uniformly sampled workload mixes. `ctx` supplies
  /// the thread pool / RNG / metrics sink; null falls back to the advisor's
  /// own serial context (seeded from `config.seed`), reproducing the
  /// historical single-threaded behaviour exactly.
  rl::TrainingResult TrainOffline(const costmodel::CostModel* model,
                                  rl::FrequencySampler sampler = nullptr,
                                  EvalContext* ctx = nullptr);

  /// \brief Phase 1 through the actor/learner rounds
  /// (rl::EpisodeTrainer::TrainActorLearner) with `actors` episode slots.
  /// Results are bit-identical for a fixed slot count at any thread count,
  /// but they are a different (equally valid) training run than the serial
  /// TrainOffline's, which trains after every step.
  rl::TrainingResult TrainOffline(const costmodel::CostModel* model,
                                  int actors,
                                  rl::FrequencySampler sampler = nullptr,
                                  EvalContext* ctx = nullptr);

  /// \brief Phase 2 (Sec 4.2): refine against measured runtimes. ε restarts
  /// at the value the offline schedule reaches after half its episodes.
  /// The online env never evaluates in parallel, but `ctx` still supplies
  /// the RNG stream and accelerates the Q-network updates.
  rl::TrainingResult TrainOnline(rl::OnlineEnv* env,
                                 rl::FrequencySampler sampler = nullptr,
                                 EvalContext* ctx = nullptr);

  /// \brief Inference (Sec 6) against the offline simulation — requires
  /// TrainOffline to have run.
  rl::InferenceResult Suggest(const std::vector<double>& frequencies,
                              EvalContext* ctx = nullptr);

  /// \brief Inference against an explicit environment (e.g. the online env,
  /// whose Query Runtime Cache prices candidate states).
  rl::InferenceResult Suggest(const std::vector<double>& frequencies,
                              rl::PartitioningEnv* env,
                              EvalContext* ctx = nullptr);

  /// \brief Inference with per-call options. With
  /// `options.prune_rollouts` the rollouts consult a lazily built
  /// `search::ActionPruner` over the offline simulation's query costs —
  /// fewer Q-network forward passes and exact pricings, the identical
  /// suggested design at `prune_epsilon = 0` (see SuggestOptions). Requires
  /// TrainOffline to have run.
  rl::InferenceResult Suggest(const std::vector<double>& frequencies,
                              const SuggestOptions& options,
                              EvalContext* ctx = nullptr);

  /// \brief Repartitioning-cost-aware inference (the reward extension the
  /// paper sketches at the end of Sec 3.2, for setups where repartitionings
  /// are frequent): ranks candidate states by
  ///   workload_cost + weight * repartitioning_cost(current_design -> state)
  /// so the advisor prefers designs reachable cheaply from what is deployed.
  /// `model` prices the data movement (typically the offline cost model).
  rl::InferenceResult SuggestWithTransitionCost(
      const std::vector<double>& frequencies,
      const partition::PartitioningState& current_design, double weight,
      const costmodel::CostModel* model, EvalContext* ctx = nullptr);

  /// \brief Incremental support for new queries (Sec 5): appends them to the
  /// workload (frequency 0). Uses reserved state slots when available,
  /// otherwise grows the Q-network input (zero-initialized, so behaviour on
  /// the old workload is unchanged). Returns the new queries' indices.
  std::vector<int> AddQueries(std::vector<workload::QuerySpec> queries);

  /// \brief Incremental retraining: train for `episodes` episodes on mixes
  /// where the given (new) queries occur, starting from a low ε.
  rl::TrainingResult TrainIncremental(rl::PartitioningEnv* env,
                                      const std::vector<int>& new_queries,
                                      int episodes, EvalContext* ctx = nullptr);

  /// \brief The offline-simulation environment (valid after TrainOffline).
  rl::OfflineEnv* offline_env() { return offline_env_.get(); }

  /// \brief The inference settings every Suggest starts from: the
  /// configured extra rollouts and their ε.
  rl::InferenceOptions inference_options() const;

  /// \brief The ε value the offline schedule reaches after `episodes`.
  double EpsilonAfter(int episodes) const;

 private:
  rl::FrequencySampler DefaultSampler() const;
  /// The body of every Suggest overload: one `EpisodeTrainer::Infer` call.
  rl::InferenceResult Infer(const std::vector<double>& frequencies,
                            rl::PartitioningEnv* env,
                            const rl::InferenceOptions& options,
                            EvalContext* ctx);
  /// Resolves a caller-supplied context, falling back to own_ctx_.
  EvalContext* ResolveCtx(EvalContext* ctx) {
    return ctx != nullptr ? ctx : &own_ctx_;
  }

  const schema::Schema* schema_;
  workload::Workload workload_;
  AdvisorConfig config_;
  partition::EdgeSet edges_;
  partition::ActionSpace actions_;
  /// All featurizers ever used; the agent points at the latest (earlier ones
  /// stay alive because stored transitions may reference them).
  std::vector<std::unique_ptr<partition::Featurizer>> featurizers_;
  std::unique_ptr<rl::DqnAgent> agent_;
  std::unique_ptr<rl::EpisodeTrainer> trainer_;
  std::unique_ptr<rl::OfflineEnv> offline_env_;
  /// Lazily built bound machinery for pruned Suggest calls; invalidated
  /// whenever the workload gains queries (the per-query floors are stale)
  /// and rebuilt when the requested prune ε changes.
  std::unique_ptr<search::ActionPruner> pruner_;
  double pruner_epsilon_ = -1.0;
  /// Serial fallback context; its RNG stream matches the pre-EvalContext
  /// advisor (same derived seed), so default-configured runs are unchanged.
  EvalContext own_ctx_;
};

}  // namespace lpa::advisor
