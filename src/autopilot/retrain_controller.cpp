#include "autopilot/retrain_controller.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "advisor/serialization.h"
#include "telemetry/registry.h"

namespace lpa::autopilot {

namespace {

struct ControllerMetrics {
  telemetry::Counter& retrains;
  telemetry::Counter& rejects;
  telemetry::Counter& swaps;
  telemetry::Counter& rollbacks;
  /// Swaps that probation later undid. Stays 0 over any stable workload —
  /// the no-false-swap gauge the tests and the bench control run assert on.
  telemetry::Gauge& false_swaps;

  static ControllerMetrics& Get() {
    auto& reg = telemetry::MetricsRegistry::Global();
    static ControllerMetrics* m = new ControllerMetrics{
        reg.GetCounter("autopilot.retrains.count"),
        reg.GetCounter("autopilot.rejects.count"),
        reg.GetCounter("autopilot.swaps.count"),
        reg.GetCounter("autopilot.rollbacks.count"),
        reg.GetGauge("autopilot.false_swaps")};
    return *m;
  }
};

std::vector<double> PadTo(std::vector<double> v, int m) {
  v.resize(static_cast<size_t>(m), 0.0);
  return v;
}

/// Rescale so the max entry is 1 (the featurizer's training convention).
std::vector<double> MaxNormalize(std::vector<double> v) {
  double mx = 0.0;
  for (double x : v) mx = std::max(mx, x);
  if (mx <= 0.0) return v;
  for (double& x : v) x /= mx;
  return v;
}

/// Episode-mix sampler concentrated around the observed drifted mix, with a
/// 20% uniform-mix floor so the agent does not forget the rest of the
/// workload space while it adapts.
rl::FrequencySampler MakeMixSampler(std::vector<double> mix, int m) {
  mix = MaxNormalize(PadTo(std::move(mix), m));
  return [mix, m](Rng* rng) {
    if (rng->Uniform() < 0.2) {
      return workload::SampleUniformFrequencies(m, rng);
    }
    std::vector<double> f(static_cast<size_t>(m));
    for (int i = 0; i < m; ++i) {
      f[static_cast<size_t>(i)] = std::min(
          1.0, mix[static_cast<size_t>(i)] * rng->Uniform(0.7, 1.3) + 0.02);
    }
    return f;
  };
}

}  // namespace

const char* TickActionName(TickOutcome::Action action) {
  switch (action) {
    case TickOutcome::Action::kNone: return "none";
    case TickOutcome::Action::kRetrainStarted: return "retrain_started";
    case TickOutcome::Action::kRetrainRejected: return "retrain_rejected";
    case TickOutcome::Action::kSwapped: return "swapped";
    case TickOutcome::Action::kRolledBack: return "rolled_back";
  }
  return "unknown";
}

RetrainController::RetrainController(advisor::AdvisorHandle incumbent,
                                     const costmodel::CostModel* model,
                                     RetrainConfig config)
    : schema_(&incumbent.advisor().schema()),
      base_workload_(incumbent.advisor().workload()),
      base_config_(incumbent.advisor().config()),
      incumbent_(std::move(incumbent)),
      model_(model),
      config_(std::move(config)),
      bg_ctx_(config_.threads, config_.seed) {
  if (model_ != nullptr) {
    // Bind so snapshot-restored incumbents can suggest without retraining.
    (void)incumbent_.BindCostModel(model_);
  }
}

RetrainController::~RetrainController() { JoinWorker(); }

void RetrainController::JoinWorker() {
  if (worker_ != nullptr) {
    worker_->join();
    worker_.reset();
  }
}

void RetrainController::AddTarget(serving::ModelRegistry* target) {
  if (target != nullptr) targets_.push_back(target);
}

uint64_t RetrainController::published_version() const {
  return targets_.empty() ? 0 : targets_.front()->current_version();
}

void RetrainController::UpdateCostModel(const costmodel::CostModel* model) {
  if (model == nullptr || model == model_) return;
  model_ = model;
  (void)incumbent_.BindCostModel(model_);
  if (in_probation()) {
    // Price the rest of the open probation window under the recalibrated
    // model.
    probation_env_ = std::make_unique<rl::OfflineEnv>(
        model_, &incumbent_.advisor().workload());
  }
}

Result<std::vector<int>> RetrainController::AbsorbQueries(
    std::vector<workload::QuerySpec> queries) {
  if (queries.empty()) return std::vector<int>{};
  if (busy()) {
    return Status::Unavailable(
        "retrain in flight; absorb new queries after it completes");
  }
  std::vector<workload::QuerySpec> copy = queries;
  auto indices = incumbent_.AddQueries(std::move(copy));
  if (!indices.ok()) return indices.status();
  for (auto& q : queries) added_queries_.push_back(std::move(q));
  for (int idx : *indices) pending_focus_.push_back(idx);
  if (probation_env_ != nullptr) probation_env_->SyncWorkload();
  return indices;
}

Result<advisor::AdvisorHandle> RetrainController::BuildReplica(
    const std::string& snapshot, size_t added_count) {
  advisor::AdvisorHandle replica(schema_, base_workload_, base_config_);
  if (added_count > 0) {
    std::vector<workload::QuerySpec> replay(
        added_queries_.begin(),
        added_queries_.begin() + static_cast<long>(added_count));
    auto st = replica.AddQueries(std::move(replay));
    if (!st.ok()) return st.status();
  }
  LPA_RETURN_NOT_OK(replica.Restore(snapshot));
  LPA_RETURN_NOT_OK(replica.BindCostModel(model_));
  return replica;
}

Result<std::shared_ptr<serving::ServingModel>> RetrainController::BuildServable(
    const std::string& snapshot, size_t added_count) {
  auto advisor = std::make_unique<advisor::PartitioningAdvisor>(
      schema_, base_workload_, base_config_);
  if (added_count > 0) {
    std::vector<workload::QuerySpec> replay(
        added_queries_.begin(),
        added_queries_.begin() + static_cast<long>(added_count));
    advisor->AddQueries(std::move(replay));
  }
  std::istringstream is(snapshot);
  LPA_RETURN_NOT_OK(advisor::LoadAgentSnapshot(is, advisor->agent()));
  return std::make_shared<serving::ServingModel>(std::move(advisor), model_);
}

uint64_t RetrainController::PublishServable(
    std::shared_ptr<serving::ServingModel> servable) {
  uint64_t version = 0;
  for (serving::ModelRegistry* target : targets_) {
    uint64_t v = target->Publish(servable);
    if (version == 0) version = v;
  }
  return version;
}

Status RetrainController::Deploy(const std::vector<double>& initial_mix) {
  const int m = incumbent_.advisor().workload().num_queries();
  advisor::SuggestRequest request;
  request.frequencies = MaxNormalize(PadTo(initial_mix, m));
  auto suggestion = incumbent_.Suggest(request);
  if (!suggestion.ok()) return suggestion.status();
  deployed_design_ = suggestion->best_state;
  if (!targets_.empty()) {
    auto snapshot = incumbent_.Snapshot();
    if (!snapshot.ok()) return snapshot.status();
    auto servable = BuildServable(*snapshot, added_queries_.size());
    if (!servable.ok()) return servable.status();
    PublishServable(*servable);
  }
  return Status::OK();
}

bool RetrainController::busy() const { return worker_ != nullptr; }

Result<TickOutcome> RetrainController::HandleDrift(
    const DriftVerdict& verdict,
    const std::vector<std::vector<double>>& holdout_mixes,
    const std::vector<double>& current_mix) {
  if (!deployed_design_.has_value()) {
    return Status::FailedPrecondition("Deploy() before HandleDrift()");
  }
  if (busy()) {
    return Status::Unavailable("a retrain is already in flight");
  }
  if (in_probation()) {
    return Status::Unavailable("probation window still open");
  }
  auto snapshot = incumbent_.Snapshot();
  if (!snapshot.ok()) return snapshot.status();
  drift_snapshot_ = std::move(*snapshot);
  drift_added_count_ = added_queries_.size();
  auto replica = BuildReplica(drift_snapshot_, drift_added_count_);
  if (!replica.ok()) return replica.status();

  RetrainJob job{std::move(*replica),
                 verdict,
                 holdout_mixes,
                 current_mix,
                 /*focus=*/{},
                 /*episodes=*/config_.episodes >= 0
                     ? config_.episodes
                     : std::max(1, base_config_.offline_episodes / 6),
                 /*deployed=*/*deployed_design_,
                 /*model=*/model_};
  if (verdict.kind == DriftKind::kSchemaChange && !pending_focus_.empty()) {
    job.focus = std::move(pending_focus_);
    pending_focus_.clear();
  }

  if (!config_.async) {
    return Apply(RunRetrain(std::move(job)));
  }
  job_done_.store(false, std::memory_order_relaxed);
  job_result_.reset();
  worker_ = std::make_unique<std::thread>(
      [this, job = std::make_shared<RetrainJob>(std::move(job))]() mutable {
        RetrainResult result = RunRetrain(std::move(*job));
        job_result_ = std::move(result);
        job_done_.store(true, std::memory_order_release);
      });
  TickOutcome out;
  out.action = TickOutcome::Action::kRetrainStarted;
  out.verdict = verdict;
  return out;
}

RetrainController::RetrainResult RetrainController::RunRetrain(
    RetrainJob job) {
  RetrainResult result;
  result.verdict = job.verdict;
  const int m = job.candidate.advisor().workload().num_queries();

  advisor::TrainSpec spec =
      advisor::TrainSpec::Incremental(job.focus, job.episodes);
  if (job.focus.empty()) spec.sampler = MakeMixSampler(job.mix, m);
  auto trained = job.candidate.Train(spec, &bg_ctx_);
  if (!trained.ok()) {
    result.status = trained.status();
    return result;
  }

  advisor::SuggestRequest request;
  request.frequencies = MaxNormalize(PadTo(job.mix, m));
  auto suggestion = job.candidate.Suggest(request);
  if (!suggestion.ok()) {
    result.status = suggestion.status();
    return result;
  }
  result.design = suggestion->best_state;
  if (config_.candidate_override) {
    if (auto forced = config_.candidate_override(job.candidate)) {
      result.design = *forced;
    }
  }

  // Holdout validation: cost both designs over the recent-mix window through
  // one memo — the same design re-priced under many mixes is nearly free
  // (only weights change, not per-query costs). The environment is the
  // job's own, so the control thread never shares it.
  std::vector<std::vector<double>> mixes;
  size_t start = job.holdout.size() > static_cast<size_t>(config_.holdout_mixes)
                     ? job.holdout.size() -
                           static_cast<size_t>(config_.holdout_mixes)
                     : 0;
  for (size_t i = start; i < job.holdout.size(); ++i) {
    mixes.push_back(PadTo(job.holdout[i], m));
  }
  if (mixes.empty()) mixes.push_back(PadTo(job.mix, m));
  rl::OfflineEnv env(job.model, &job.candidate.advisor().workload());
  result.candidate_cost = MeanDesignCost(*result.design, mixes, &env);
  result.incumbent_cost = MeanDesignCost(job.deployed, mixes, &env);
  result.pass = !config_.validation_gate ||
                result.candidate_cost <=
                    result.incumbent_cost * (1.0 - config_.swap_margin);
  result.candidate = std::move(job.candidate);
  return result;
}

double RetrainController::MeanDesignCost(
    const partition::PartitioningState& design,
    const std::vector<std::vector<double>>& mixes, rl::OfflineEnv* env) {
  if (mixes.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& mix : mixes) sum += env->WorkloadCost(design, mix);
  return sum / static_cast<double>(mixes.size());
}

TickOutcome RetrainController::Apply(RetrainResult result) {
  TickOutcome out;
  out.verdict = result.verdict;
  out.candidate_cost = result.candidate_cost;
  out.incumbent_cost = result.incumbent_cost;
  auto& metrics = ControllerMetrics::Get();
  if (!result.status.ok()) {
    out.action = TickOutcome::Action::kNone;
    out.detail = "retrain failed: " + result.status.ToString();
    return out;
  }
  ++counters_.retrains;
  metrics.retrains.Add();
  if (!result.pass) {
    ++counters_.rejects;
    metrics.rejects.Add();
    out.action = TickOutcome::Action::kRetrainRejected;
    out.detail = "candidate lost holdout validation";
    return out;
  }

  auto snapshot = result.candidate->Snapshot();
  if (!snapshot.ok()) {
    out.action = TickOutcome::Action::kNone;
    out.detail = "candidate snapshot failed: " + snapshot.status().ToString();
    return out;
  }
  auto servable = BuildServable(*snapshot, added_queries_.size());
  if (!servable.ok()) {
    out.action = TickOutcome::Action::kNone;
    out.detail = "servable rebuild failed: " + servable.status().ToString();
    return out;
  }

  // Point of no return: retire the incumbent (pinned — its edge set backs
  // the rollback design), promote the candidate, publish, open probation.
  size_t pinned_index = pinned_.size();
  pinned_.push_back(std::move(incumbent_));
  rollback_ = RollbackPoint{*deployed_design_, drift_snapshot_,
                            drift_added_count_, pinned_index};
  incumbent_ = std::move(*result.candidate);
  deployed_design_ = std::move(*result.design);
  out.model_version = PublishServable(*servable);
  ++counters_.swaps;
  metrics.swaps.Add();

  probation_left_ = std::max(1, config_.probation_ticks);
  probation_deployed_sum_ = 0.0;
  probation_rollback_sum_ = 0.0;
  probation_env_ = std::make_unique<rl::OfflineEnv>(
      model_, &incumbent_.advisor().workload());

  out.action = TickOutcome::Action::kSwapped;
  out.detail = "candidate " + std::to_string(result.candidate_cost) +
               "s vs incumbent " + std::to_string(result.incumbent_cost) + "s";
  return out;
}

std::optional<TickOutcome> RetrainController::StepProbation(
    const std::vector<double>& mix) {
  if (probation_left_ <= 0) return std::nullopt;
  if (!rollback_.has_value()) {
    probation_left_ = 0;
    return std::nullopt;
  }
  const int m = incumbent_.advisor().workload().num_queries();
  std::vector<double> padded = PadTo(mix, m);
  probation_deployed_sum_ +=
      probation_env_->WorkloadCost(*deployed_design_, padded);
  probation_rollback_sum_ +=
      probation_env_->WorkloadCost(rollback_->design, padded);
  if (--probation_left_ > 0) return std::nullopt;

  // Window closed: compare the deployment against the rollback design under
  // the mixes actually observed since the swap.
  const int window = std::max(1, config_.probation_ticks);
  double deployed_mean = probation_deployed_sum_ / window;
  double rollback_mean = probation_rollback_sum_ / window;
  TickOutcome out;
  out.candidate_cost = deployed_mean;
  out.incumbent_cost = rollback_mean;
  auto& metrics = ControllerMetrics::Get();
  if (deployed_mean > rollback_mean * (1.0 + config_.rollback_margin)) {
    auto servable =
        BuildServable(rollback_->snapshot, rollback_->added_count);
    if (!servable.ok()) {
      out.action = TickOutcome::Action::kNone;
      out.detail = "rollback rebuild failed: " + servable.status().ToString();
    } else {
      // Swap roles: the regressing candidate parks in the pinned slot the
      // previous incumbent vacates.
      std::swap(incumbent_, pinned_[rollback_->pinned_index]);
      deployed_design_ = rollback_->design;
      out.model_version = PublishServable(*servable);
      ++counters_.rollbacks;
      metrics.rollbacks.Add();
      metrics.false_swaps.Set(static_cast<double>(counters_.rollbacks));
      out.action = TickOutcome::Action::kRolledBack;
      out.detail = "deployment regressed " +
                   std::to_string(deployed_mean / rollback_mean) +
                   "x vs rollback design";
    }
  } else {
    out.action = TickOutcome::Action::kNone;
    out.detail = "probation passed";
  }
  rollback_.reset();
  probation_env_.reset();
  return out;
}

std::optional<TickOutcome> RetrainController::Poll() {
  if (worker_ == nullptr) return std::nullopt;
  if (!job_done_.load(std::memory_order_acquire)) return std::nullopt;
  JoinWorker();
  RetrainResult result = std::move(*job_result_);
  job_result_.reset();
  job_done_.store(false, std::memory_order_relaxed);
  return Apply(std::move(result));
}

}  // namespace lpa::autopilot
