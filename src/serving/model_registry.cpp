#include "serving/model_registry.h"

#include <chrono>
#include <utility>

#include "advisor/serialization.h"
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

  static RegistryMetrics& Get() {
    auto& reg = telemetry::MetricsRegistry::Global();
    static RegistryMetrics* m = new RegistryMetrics{
        reg.GetCounter("serving.hot_swaps.count"),
        reg.GetCounter("serving.snapshot_load_failures.count"),
        reg.GetHistogram("serving.swap_micros",
                         telemetry::Histogram::ExponentialBounds(1.0, 2.0,
                                                                 20))};
    return *m;
  }
};

}  // namespace

ServingModel::ServingModel(
    std::unique_ptr<advisor::PartitioningAdvisor> advisor,
    const costmodel::CostModel* cost_model)
    : advisor_(std::move(advisor)),
      env_(std::make_unique<rl::OfflineEnv>(cost_model,
                                            &advisor_->workload())) {}

Result<std::shared_ptr<ServingModel>> ServingModel::FromSnapshot(
    const schema::Schema* schema, workload::Workload workload,
    advisor::AdvisorConfig config, const costmodel::CostModel* cost_model,
    std::istream& snapshot) {
  auto advisor = std::make_unique<advisor::PartitioningAdvisor>(
      schema, std::move(workload), std::move(config));
  if (Status st = advisor::LoadAgentSnapshot(snapshot, advisor->agent());
      !st.ok()) {
    RegistryMetrics::Get().snapshot_load_failures.Add();
    return st;
  }
  return std::make_shared<ServingModel>(std::move(advisor), cost_model);
}

rl::InferenceResult ServingModel::Suggest(
    const std::vector<double>& frequencies) {
  return advisor_->trainer().Infer(*advisor_->agent(), env_.get(),
                                   frequencies);
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
