#include "advisor/advisor_handle.h"

#include <sstream>
#include <utility>

#include "advisor/serialization.h"
#include "util/hash.h"

namespace lpa::advisor {

namespace {

std::string PhaseName(TrainSpec::Phase phase) {
  switch (phase) {
    case TrainSpec::Phase::kOffline: return "offline";
    case TrainSpec::Phase::kOnline: return "online";
    case TrainSpec::Phase::kIncremental: return "incremental";
  }
  return "unknown";
}

}  // namespace

AdvisorHandle::AdvisorHandle(const schema::Schema* schema,
                             workload::Workload workload,
                             AdvisorConfig config)
    : advisor_(std::make_unique<PartitioningAdvisor>(
          schema, std::move(workload), std::move(config))) {}

AdvisorHandle::AdvisorHandle(std::unique_ptr<PartitioningAdvisor> advisor)
    : advisor_(std::move(advisor)) {}

rl::PartitioningEnv* AdvisorHandle::DefaultEnv() const {
  if (advisor_->offline_env() != nullptr) return advisor_->offline_env();
  return bound_env_.get();
}

EvalContext* AdvisorHandle::FallbackCtx() {
  if (own_ctx_ == nullptr) {
    own_ctx_ = std::make_unique<EvalContext>(
        /*threads=*/1, HashCombine(advisor_->config().seed, 0xad7151ULL));
  }
  return own_ctx_.get();
}

Result<rl::TrainingResult> AdvisorHandle::Train(const TrainSpec& spec,
                                                EvalContext* ctx) {
  const AdvisorConfig& config = advisor_->config();
  if (spec.actors < 1) {
    return Status::InvalidArgument("TrainSpec::actors must be >= 1");
  }
  if (spec.actors > 1 && spec.phase != TrainSpec::Phase::kOffline) {
    return Status::InvalidArgument(
        "actor/learner training (actors > 1) is offline-only; " +
        PhaseName(spec.phase) + " environments are serial");
  }
  switch (spec.phase) {
    case TrainSpec::Phase::kOffline: {
      if (spec.cost_model == nullptr) {
        return Status::InvalidArgument(
            "offline training requires TrainSpec::cost_model");
      }
      if (spec.episodes >= 0) {
        advisor_->mutable_config().offline_episodes = spec.episodes;
      }
      rl::TrainingResult result;
      if (spec.actors > 1) {
        result = advisor_->TrainOffline(spec.cost_model, spec.actors,
                                        spec.sampler, ctx);
      } else {
        result = advisor_->TrainOffline(spec.cost_model, spec.sampler, ctx);
      }
      // TrainOffline built the advisor's own simulation; it becomes the
      // default environment, so drop any previously bound one.
      cost_model_ = spec.cost_model;
      bound_env_.reset();
      return result;
    }
    case TrainSpec::Phase::kOnline: {
      if (spec.env == nullptr) {
        return Status::InvalidArgument(
            "online training requires TrainSpec::env (the sampled cluster)");
      }
      auto* online = dynamic_cast<rl::OnlineEnv*>(spec.env);
      if (online == nullptr) {
        return Status::InvalidArgument(
            "online training requires an rl::OnlineEnv environment");
      }
      if (spec.episodes >= 0) {
        advisor_->mutable_config().online_episodes = spec.episodes;
      }
      return advisor_->TrainOnline(online, spec.sampler, ctx);
    }
    case TrainSpec::Phase::kIncremental: {
      rl::PartitioningEnv* env =
          spec.env != nullptr ? spec.env : DefaultEnv();
      if (env == nullptr) {
        return Status::FailedPrecondition(
            "incremental training needs an environment: train offline, "
            "BindCostModel, or pass TrainSpec::env");
      }
      const int m = advisor_->workload().num_queries();
      for (int q : spec.focus_queries) {
        if (q < 0 || q >= m) {
          return Status::OutOfRange("focus query index " + std::to_string(q) +
                                    " outside workload of " +
                                    std::to_string(m) + " queries");
        }
      }
      if (spec.focus_queries.empty() && !spec.sampler) {
        return Status::InvalidArgument(
            "incremental training needs focus_queries or a custom sampler");
      }
      int episodes = spec.episodes >= 0
                         ? spec.episodes
                         : std::max(1, config.offline_episodes / 6);
      if (!spec.sampler) {
        return advisor_->TrainIncremental(env, spec.focus_queries, episodes,
                                          ctx);
      }
      // Custom-sampler variant of TrainIncremental: same low-ε warm start,
      // caller-chosen mix distribution (e.g. jitter around an observed
      // drifted mix instead of boosting specific query slots).
      advisor_->agent()->set_epsilon(
          advisor_->EpsilonAfter(config.offline_episodes / 2));
      return advisor_->trainer().Train(advisor_->agent(), env, spec.sampler,
                                       episodes,
                                       ctx != nullptr ? ctx : FallbackCtx());
    }
  }
  return Status::InvalidArgument("unknown training phase " +
                                 PhaseName(spec.phase));
}

Result<rl::InferenceResult> AdvisorHandle::Suggest(
    const SuggestRequest& request, EvalContext* ctx) {
  LPA_RETURN_NOT_OK(
      advisor_->workload().CheckFrequencies(request.frequencies));
  if (request.transition_cost_weight < 0.0) {
    return Status::InvalidArgument("transition_cost_weight must be >= 0");
  }
  rl::PartitioningEnv* env =
      request.env != nullptr ? request.env : DefaultEnv();
  if (env == nullptr) {
    return Status::FailedPrecondition(
        "no environment can price states: train offline or BindCostModel "
        "before Suggest");
  }
  if (request.prune_rollouts) {
    if (request.prune_epsilon < 0.0) {
      return Status::InvalidArgument("prune_epsilon must be >= 0");
    }
    if (request.transition_cost_weight > 0.0) {
      return Status::InvalidArgument(
          "prune_rollouts is unsound with transition-cost objectives: the "
          "bounds cover the workload cost only");
    }
    if (request.env != nullptr) {
      return Status::InvalidArgument(
          "prune_rollouts requires the advisor's own offline simulation; "
          "leave SuggestRequest::env unset");
    }
    if (env != advisor_->offline_env()) {
      return Status::FailedPrecondition(
          "prune_rollouts requires a trained offline simulation (bound "
          "environments lack the advisor's pruner); train offline first");
    }
    SuggestOptions options;
    options.prune_rollouts = true;
    options.prune_epsilon = request.prune_epsilon;
    return advisor_->Suggest(request.frequencies, options, ctx);
  }
  if (request.transition_cost_weight == 0.0) {
    return advisor_->Suggest(request.frequencies, env, ctx);
  }
  if (request.deployed == nullptr) {
    return Status::InvalidArgument(
        "transition-cost-aware Suggest requires SuggestRequest::deployed");
  }
  const costmodel::CostModel* model = request.transition_model != nullptr
                                          ? request.transition_model
                                          : cost_model_;
  if (model == nullptr) {
    return Status::InvalidArgument(
        "transition-cost-aware Suggest requires a transition_model (or a "
        "bound cost model)");
  }
  if (env == advisor_->offline_env()) {
    return advisor_->SuggestWithTransitionCost(request.frequencies,
                                               *request.deployed,
                                               request.transition_cost_weight,
                                               model, ctx);
  }
  // A bound or caller-supplied environment: the same inference against it
  // (the advisor's own Suggest insists on its offline simulation).
  rl::InferenceOptions options = advisor_->inference_options();
  options.deployed = request.deployed;
  options.transition_weight = request.transition_cost_weight;
  options.transition_model = model;
  return advisor_->trainer().Infer(*advisor_->agent(), env,
                                   request.frequencies, options,
                                   ctx != nullptr ? ctx : FallbackCtx());
}

Result<std::vector<int>> AdvisorHandle::AddQueries(
    std::vector<workload::QuerySpec> queries) {
  for (const auto& q : queries) {
    if (Status st = q.Validate(advisor_->schema()); !st.ok()) {
      return Status::InvalidArgument("query '" + q.name +
                                     "' invalid: " + st.message());
    }
  }
  std::vector<int> indices = advisor_->AddQueries(std::move(queries));
  if (bound_env_ != nullptr) bound_env_->SyncWorkload();
  return indices;
}

Result<std::string> AdvisorHandle::Snapshot() const {
  std::ostringstream os;
  LPA_RETURN_NOT_OK(SaveAgentSnapshot(*advisor_->agent(), os));
  return os.str();
}

Status AdvisorHandle::Restore(const std::string& snapshot) {
  std::istringstream is(snapshot);
  return LoadAgentSnapshot(is, advisor_->agent());
}

Status AdvisorHandle::BindCostModel(const costmodel::CostModel* model) {
  if (model == nullptr) {
    return Status::InvalidArgument("BindCostModel requires a non-null model");
  }
  cost_model_ = model;
  if (advisor_->offline_env() == nullptr) {
    bound_env_ =
        std::make_unique<rl::OfflineEnv>(model, &advisor_->workload());
  }
  return Status::OK();
}

bool AdvisorHandle::ready() const { return DefaultEnv() != nullptr; }

}  // namespace lpa::advisor
