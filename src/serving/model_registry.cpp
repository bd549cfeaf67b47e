#include "serving/model_registry.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "advisor/serialization.h"
#include "nn/quantized.h"
#include "telemetry/registry.h"
#include "util/logging.h"

namespace lpa::serving {

namespace {

struct RegistryMetrics {
  telemetry::Counter& hot_swaps;
  telemetry::Counter& snapshot_load_failures;
  /// Publish latency in microseconds: how long a tenant's hot swap held the
  /// registry (fleet-wide swap observability).
  telemetry::Histogram& swap_micros;
  /// Quantization gate observability: last gate's agreement fraction,
  /// rejected requests, models currently serving the integer path.
  telemetry::Gauge& quant_agreement;
  telemetry::Counter& quant_rejects;
  telemetry::Counter& quant_activations;

  static RegistryMetrics& Get() {
    auto& reg = telemetry::MetricsRegistry::Global();
    static RegistryMetrics* m = new RegistryMetrics{
        reg.GetCounter("serving.hot_swaps.count"),
        reg.GetCounter("serving.snapshot_load_failures.count"),
        reg.GetHistogram("serving.swap_micros",
                         telemetry::Histogram::ExponentialBounds(1.0, 2.0,
                                                                 20)),
        reg.GetGauge("serving.quant_agreement.value"),
        reg.GetCounter("serving.quant_rejects.count"),
        reg.GetCounter("serving.quant_activations.count")};
    return *m;
  }
};

}  // namespace

ServingModel::ServingModel(
    std::unique_ptr<advisor::PartitioningAdvisor> advisor,
    const costmodel::CostModel* cost_model, InferenceBatcher::Config batch,
    QuantizeSpec quantize)
    : advisor_(std::move(advisor)),
      cost_model_(cost_model),
      env_(std::make_unique<rl::OfflineEnv>(cost_model_,
                                            &advisor_->workload())),
      batcher_(advisor_->agent(), batch) {
  if (quantize.enabled) TryQuantize(quantize);
}

Result<std::shared_ptr<ServingModel>> ServingModel::FromSnapshot(
    const schema::Schema* schema, workload::Workload workload,
    advisor::AdvisorConfig config, const costmodel::CostModel* cost_model,
    std::istream& snapshot, InferenceBatcher::Config batch,
    QuantizeSpec quantize) {
  auto advisor = std::make_unique<advisor::PartitioningAdvisor>(
      schema, std::move(workload), std::move(config));
  if (Status st = advisor::LoadAgentSnapshot(snapshot, advisor->agent());
      !st.ok()) {
    RegistryMetrics::Get().snapshot_load_failures.Add();
    return st;
  }
  return std::make_shared<ServingModel>(std::move(advisor), cost_model, batch,
                                        quantize);
}

void ServingModel::TryQuantize(const QuantizeSpec& spec) {
  auto& metrics = RegistryMetrics::Get();
  const rl::DqnAgent& agent = *advisor_->agent();
  // The integer path replaces QValuesBatch, whose rows must be indexed by
  // global action id — only the multi-head formulation has that output shape.
  if (agent.config().mode != rl::QNetworkMode::kMultiHead) {
    quant_state_ = QuantState::kRejected;
    metrics.quant_rejects.Add();
    return;
  }

  // Calibration set: every state visited by greedy fp64 rollouts over seeded
  // uniform frequency draws — exactly the encoding distribution Suggest
  // walks, so the activation scales (and the gate) see serving-shaped
  // inputs, not synthetic ones.
  const partition::Featurizer& featurizer = advisor_->featurizer();
  const partition::ActionSpace& actions = advisor_->actions();
  const int tmax = agent.config().tmax;
  const int rollouts = std::max(1, spec.calibration_rollouts);
  Rng rng(spec.calibration_seed);
  std::vector<std::vector<double>> encs;
  std::vector<std::vector<int>> legals;
  encs.reserve(static_cast<size_t>(rollouts) * static_cast<size_t>(tmax));
  for (int r = 0; r < rollouts; ++r) {
    std::vector<double> freqs = workload::SampleUniformFrequencies(
        advisor_->workload().num_queries(), &rng);
    partition::PartitioningState state = partition::PartitioningState::Initial(
        &advisor_->schema(), &advisor_->edges());
    for (int t = 0; t < tmax; ++t) {
      std::vector<double> enc = featurizer.EncodeState(state, freqs);
      std::vector<int> legal = actions.LegalActions(state);
      const int action = agent.GreedyAction(enc, legal);
      encs.push_back(std::move(enc));
      legals.push_back(std::move(legal));
      LPA_CHECK(actions.Apply(action, &state).ok());
    }
  }

  nn::Matrix calibration(encs.size(), encs[0].size());
  for (size_t i = 0; i < encs.size(); ++i) {
    std::copy(encs[i].begin(), encs[i].end(), calibration.row(i));
  }
  Result<nn::QuantizedMlp> quantized = nn::QuantizedMlp::Quantize(
      agent.q_network(), calibration, spec.precision);
  if (!quantized.ok()) {
    quant_state_ = QuantState::kRejected;
    metrics.quant_rejects.Add();
    return;
  }

  // Gate: the quantized legal-action argmax must match fp64 on EVERY
  // calibration state (first-max tie-break, the exact Suggest selection).
  const nn::Matrix q_fp = agent.QValuesBatch(calibration);
  const nn::Matrix q_int = quantized->Forward(calibration);
  size_t agree = 0;
  auto legal_argmax = [](const nn::Matrix& q, size_t r,
                         const std::vector<int>& legal) {
    return rl::FirstMaxLegal(legal, [&](size_t i) {
      return q.at(r, static_cast<size_t>(legal[i]));
    });
  };
  for (size_t i = 0; i < encs.size(); ++i) {
    if (legal_argmax(q_fp, i, legals[i]) == legal_argmax(q_int, i, legals[i])) {
      ++agree;
    }
  }
  calibration_agreement_ =
      static_cast<double>(agree) / static_cast<double>(encs.size());
  metrics.quant_agreement.Set(calibration_agreement_);
  if (agree != encs.size()) {
    quant_state_ = QuantState::kRejected;
    metrics.quant_rejects.Add();
    return;
  }
  quantized_ = std::make_unique<nn::QuantizedMlp>(std::move(quantized).value());
  batcher_.set_quantized(quantized_.get());
  quant_state_ = QuantState::kActive;
  metrics.quant_activations.Add();
}

rl::InferenceResult ServingModel::Suggest(
    const std::vector<double>& frequencies) {
  // The advisor's greedy rollout with its Q-evaluations detoured through the
  // batcher, so the served result is bit-identical to the advisor's.
  InferenceBatcher::RolloutScope scope(&batcher_);
  rl::InferenceOptions options;
  options.greedy_action = [this](const std::vector<double>& state_enc,
                                 const std::vector<int>& legal) {
    const std::vector<double> q = batcher_.AllQValues(state_enc);
    return rl::FirstMaxLegal(
        legal, [&](size_t i) { return q[static_cast<size_t>(legal[i])]; });
  };
  return advisor_->trainer().Infer(*advisor_->agent(), env_.get(),
                                   frequencies, options);
}

uint64_t ModelRegistry::Publish(std::shared_ptr<ServingModel> model) {
  LPA_CHECK(model != nullptr);
  const auto started = std::chrono::steady_clock::now();
  uint64_t version;
  bool swapped;
  {
    std::lock_guard<std::mutex> lock(mu_);
    version = next_version_++;
    swapped = current_.model != nullptr;
    current_ = PublishedModel{std::move(model), version};
  }
  auto& metrics = RegistryMetrics::Get();
  if (swapped) metrics.hot_swaps.Add();
  metrics.swap_micros.Observe(std::chrono::duration<double, std::micro>(
                                  std::chrono::steady_clock::now() - started)
                                  .count());
  return version;
}

PublishedModel ModelRegistry::Current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

uint64_t ModelRegistry::current_version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_.model == nullptr ? 0 : current_.version;
}

}  // namespace lpa::serving
