#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serving/model_registry.h"

namespace lpa::fleet {

/// \brief Canonical tenant names for load and tests: "tenant-0000",
/// "tenant-0001", ... (index = `serving::RunLoadgen`'s tenant, which is its
/// popularity rank, 0 hottest).
std::string TenantName(int index);

/// \brief Per-tenant namespaces of versioned serving models: each tenant
/// (one managed database in the paper's cloud framing) owns its own
/// `serving::ModelRegistry`, so tenants hot-swap independently — publishing
/// v3 for tenant A never touches tenant B's current version.
///
/// Registry pointers are stable for the directory's lifetime (tenants are
/// never erased), so the router and server workers may cache them.
///
/// `PublishShared` lets tenants share one `ServingModel` instance (a shared
/// base model — the common fleet pattern for tenants on the same
/// architecture and weights): one copy of the weights and one warm cost
/// cache serve all of them. Each request still runs its own rollout, so a
/// tenant's answer is bit-identical to serial inference on that model.
class TenantDirectory {
 public:
  /// \brief The tenant's registry, created empty on first sight.
  serving::ModelRegistry* GetOrCreate(const std::string& tenant);

  /// \brief The tenant's registry, or null if it was never created.
  serving::ModelRegistry* Find(const std::string& tenant) const;

  /// \brief Publish one shared servable into every named tenant's
  /// namespace; each tenant assigns its own version number to it.
  void PublishShared(const std::vector<std::string>& tenants,
                     std::shared_ptr<serving::ServingModel> model);

  std::vector<std::string> Tenants() const;
  size_t size() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<serving::ModelRegistry>> tenants_;
};

}  // namespace lpa::fleet
