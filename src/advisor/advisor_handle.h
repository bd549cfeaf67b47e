#pragma once

#include <memory>
#include <string>
#include <vector>

#include "advisor/advisor.h"
#include "util/status.h"

namespace lpa::advisor {

/// \brief Declarative description of one training run for
/// `AdvisorHandle::Train` — the single entry point that subsumes the
/// `TrainOffline` / `TrainOnline` / `TrainIncremental` trio.
struct TrainSpec {
  enum class Phase {
    kOffline,      ///< Sec 4.1: bootstrap against the cost-model simulation
    kOnline,       ///< Sec 4.2: refine against measured runtimes
    kIncremental,  ///< Sec 5 / Exp 3c: continue training at low ε
  };

  Phase phase = Phase::kOffline;
  /// Episode budget; < 0 picks the phase default from `AdvisorConfig`
  /// (`offline_episodes`, `online_episodes`, or `offline_episodes / 6` for
  /// incremental runs — the Exp 3c heuristic).
  int episodes = -1;
  /// kOffline only: the pricing model (required). The handle binds it as the
  /// default suggest/validation environment.
  const costmodel::CostModel* cost_model = nullptr;
  /// Environment to train against. Required for kOnline; optional for
  /// kIncremental (defaults to the handle's bound pricing environment).
  /// Ignored by kOffline, which always builds its own simulation.
  rl::PartitioningEnv* env = nullptr;
  /// kIncremental: the (new) query indices whose mixes the episode sampler
  /// boosts. Required unless `sampler` is supplied.
  std::vector<int> focus_queries;
  /// Optional custom mix sampler for any phase (overrides the phase
  /// default: uniform mixes offline/online, boosted mixes incremental).
  rl::FrequencySampler sampler;
  /// kOffline only: > 1 routes the run through the actor/learner rounds
  /// with this many episode slots (rl::EpisodeTrainer::TrainActorLearner).
  /// The slot count — not the thread count — fixes the digests.
  /// Other phases reject actors > 1: online runtimes are measured one query
  /// at a time, and incremental runs continue the serial training loop.
  int actors = 1;

  static TrainSpec Offline(const costmodel::CostModel* model,
                           int episodes = -1) {
    TrainSpec s;
    s.phase = Phase::kOffline;
    s.cost_model = model;
    s.episodes = episodes;
    return s;
  }
  static TrainSpec Online(rl::PartitioningEnv* env, int episodes = -1) {
    TrainSpec s;
    s.phase = Phase::kOnline;
    s.env = env;
    s.episodes = episodes;
    return s;
  }
  static TrainSpec Incremental(std::vector<int> focus_queries,
                               int episodes = -1) {
    TrainSpec s;
    s.phase = Phase::kIncremental;
    s.focus_queries = std::move(focus_queries);
    s.episodes = episodes;
    return s;
  }
};

/// \brief One inference request for `AdvisorHandle::Suggest`.
struct SuggestRequest {
  /// Workload mix; must have exactly `workload().num_queries()` entries,
  /// each finite and >= 0 (`Workload::CheckFrequencies`).
  std::vector<double> frequencies;
  /// Environment that prices candidate states; null uses the handle's
  /// default (the offline simulation / bound pricing environment).
  rl::PartitioningEnv* env = nullptr;
  /// When non-null (with `transition_cost_weight > 0`), states are ranked by
  /// `workload_cost + weight * repartitioning_cost(deployed -> state)` — the
  /// Sec 3.2 reward extension for frequently repartitioned clusters.
  const partition::PartitioningState* deployed = nullptr;
  double transition_cost_weight = 0.0;
  /// Model pricing the data movement; null falls back to the handle's bound
  /// cost model.
  const costmodel::CostModel* transition_model = nullptr;
  /// Prune inference rollouts with admissible bounds (src/search/): fewer
  /// Q-network forward passes and exact pricings, the identical suggested
  /// design at `prune_epsilon = 0` (see advisor::SuggestOptions). Only valid
  /// against the advisor's own offline simulation with a plain workload-cost
  /// objective — combining it with `transition_cost_weight > 0` or a custom
  /// `env` is rejected (the bounds would be unsound there).
  bool prune_rollouts = false;
  /// Pruning slack ε ≥ 0 (see advisor::SuggestOptions::prune_epsilon).
  double prune_epsilon = 0.0;
};

/// \brief The advisor lifecycle API: a Status-returning facade over
/// `PartitioningAdvisor` that an autonomous controller (the autopilot, the
/// serving stack, tools) can drive without tripping `LPA_CHECK` aborts.
///
///   AdvisorHandle handle(&schema, workload, config);
///   LPA_RETURN_NOT_OK(handle.Train(TrainSpec::Offline(&model)).status());
///   auto suggestion = handle.Suggest({.frequencies = mix});
///   auto snapshot = handle.Snapshot();          // serialized agent
///   other.Restore(*snapshot);                   // rebuild elsewhere
///
/// Misuse — suggesting before any environment exists, offline training
/// without a cost model, malformed frequency vectors, restoring a
/// garbage snapshot — returns a descriptive `lpa::Status` instead of
/// aborting. The handle owns its advisor; it is movable but not copyable.
class AdvisorHandle {
 public:
  AdvisorHandle(const schema::Schema* schema, workload::Workload workload,
                AdvisorConfig config);
  /// \brief Wrap an existing advisor (takes ownership) — the migration path
  /// for code that already constructed and trained a `PartitioningAdvisor`.
  explicit AdvisorHandle(std::unique_ptr<PartitioningAdvisor> advisor);

  AdvisorHandle(AdvisorHandle&&) = default;
  AdvisorHandle& operator=(AdvisorHandle&&) = default;

  /// \brief Run one training phase. Validates the spec (cost model present
  /// for kOffline, environment for kOnline, focus queries in range for
  /// kIncremental) before touching the agent.
  Result<rl::TrainingResult> Train(const TrainSpec& spec,
                                   EvalContext* ctx = nullptr);

  /// \brief Inference: the best design for the requested mix. Fails with
  /// FailedPrecondition when no environment can price states yet (train
  /// offline or `BindCostModel` first).
  Result<rl::InferenceResult> Suggest(const SuggestRequest& request,
                                      EvalContext* ctx = nullptr);

  /// \brief Append new queries (frequency 0) to the workload, growing the
  /// Q-network input if the reserve slots are spent (Sec 5). Each query is
  /// validated against the schema first. Returns the new indices.
  Result<std::vector<int>> AddQueries(std::vector<workload::QuerySpec> queries);

  /// \brief Serialize the agent (networks + ε) into a snapshot string.
  Result<std::string> Snapshot() const;

  /// \brief Restore a snapshot produced by `Snapshot()` (or
  /// `SaveAgentSnapshot`) into this handle's agent. The handle must have
  /// been constructed with the same schema/workload/config lineage — a
  /// shape mismatch fails with a descriptive status, nothing is mutated on
  /// a detectably-garbage stream.
  Status Restore(const std::string& snapshot);

  /// \brief Attach a pricing model without training: builds the default
  /// suggest/validation environment, so a `Restore`d handle can serve
  /// suggestions directly (the hot-standby path).
  Status BindCostModel(const costmodel::CostModel* model);

  /// \brief True when `Suggest` with a default environment can run.
  bool ready() const;

  const costmodel::CostModel* cost_model() const { return cost_model_; }
  PartitioningAdvisor& advisor() { return *advisor_; }
  const PartitioningAdvisor& advisor() const { return *advisor_; }

 private:
  /// The environment default-env suggests and incremental runs train
  /// against; null when neither TrainOffline ran nor a model is bound.
  rl::PartitioningEnv* DefaultEnv() const;
  EvalContext* FallbackCtx();

  std::unique_ptr<PartitioningAdvisor> advisor_;
  const costmodel::CostModel* cost_model_ = nullptr;
  /// Pricing environment for handles that never ran TrainOffline
  /// (snapshot-restored standbys); built by BindCostModel.
  std::unique_ptr<rl::OfflineEnv> bound_env_;
  /// Lazily created serial context for paths the underlying advisor cannot
  /// resolve itself (custom-sampler incremental runs).
  std::unique_ptr<EvalContext> own_ctx_;
};

}  // namespace lpa::advisor

namespace lpa {
// The lifecycle API is spelled `lpa::AdvisorHandle` at call sites.
using advisor::AdvisorHandle;   // NOLINT(misc-unused-using-decls)
using advisor::SuggestRequest;  // NOLINT(misc-unused-using-decls)
using advisor::TrainSpec;       // NOLINT(misc-unused-using-decls)
}  // namespace lpa
