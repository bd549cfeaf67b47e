#include "fleet/tenant_directory.h"

#include <cstdio>
#include <utility>

#include "telemetry/registry.h"
#include "util/logging.h"

namespace lpa::fleet {

std::string TenantName(int index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "tenant-%04d", index);
  return buf;
}

serving::ModelRegistry* TenantDirectory::GetOrCreate(
    const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    it = tenants_.emplace(tenant, std::make_unique<serving::ModelRegistry>())
             .first;
    static telemetry::Gauge& tenant_gauge =
        telemetry::MetricsRegistry::Global().GetGauge("fleet.tenants.count");
    tenant_gauge.Set(static_cast<double>(tenants_.size()));
  }
  return it->second.get();
}

serving::ModelRegistry* TenantDirectory::Find(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? nullptr : it->second.get();
}

void TenantDirectory::PublishShared(
    const std::vector<std::string>& tenants,
    std::shared_ptr<serving::ServingModel> model) {
  LPA_CHECK(model != nullptr);
  for (const std::string& tenant : tenants) {
    GetOrCreate(tenant)->Publish(model);
  }
}

std::vector<std::string> TenantDirectory::Tenants() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(tenants_.size());
  for (const auto& [name, registry] : tenants_) names.push_back(name);
  return names;
}

size_t TenantDirectory::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tenants_.size();
}

}  // namespace lpa::fleet
