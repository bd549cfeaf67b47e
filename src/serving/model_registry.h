#pragma once

#include <iostream>
#include <memory>
#include <mutex>

#include "advisor/advisor.h"
#include "costmodel/cost_model.h"
#include "rl/offline_env.h"
#include "rl/trainer.h"

namespace lpa::serving {

/// \brief One immutable servable model version: a trained (or
/// snapshot-restored) advisor and its own pricing environment.
///
/// Suggest runs the deterministic greedy inference rollout of Sec 6 — the
/// exact policy `PartitioningAdvisor::Suggest` serves with
/// `inference_extra_rollouts = 0` — on the calling thread, so its result is
/// bit-identical to the advisor's for the same model and frequencies, at any
/// worker count. Thread-safe: the network weights are only read, and the
/// pricing environment's cost memo is sharded and concurrent; a request
/// keeps no pricing state of its own.
///
/// `schema` and `cost_model` are borrowed and must outlive the model.
class ServingModel {
 public:
  /// \brief Wrap an already-trained advisor (takes ownership).
  ServingModel(std::unique_ptr<advisor::PartitioningAdvisor> advisor,
               const costmodel::CostModel* cost_model);

  /// \brief Rebuild an advisor from (schema, workload, config) and restore
  /// `snapshot` into it — the hot-swap path: load a new training run's
  /// snapshot without stopping the server.
  static Result<std::shared_ptr<ServingModel>> FromSnapshot(
      const schema::Schema* schema, workload::Workload workload,
      advisor::AdvisorConfig config, const costmodel::CostModel* cost_model,
      std::istream& snapshot);

  /// \brief Greedy inference rollout for one frequency vector. Safe to call
  /// from any number of threads.
  rl::InferenceResult Suggest(const std::vector<double>& frequencies);

  const advisor::PartitioningAdvisor& advisor() const { return *advisor_; }

 private:
  std::unique_ptr<advisor::PartitioningAdvisor> advisor_;
  /// Own pricing environment so snapshot-restored advisors (which never ran
  /// TrainOffline) serve directly.
  std::unique_ptr<rl::OfflineEnv> env_;
};

/// \brief A servable model together with the version its registry assigned.
/// The version lives in the registry entry, not the model, so one
/// ServingModel instance can be published into many registries — the
/// multi-tenant shared-base-model case, where each tenant namespace assigns
/// its own version numbers to the same underlying weights.
struct PublishedModel {
  std::shared_ptr<ServingModel> model;  ///< null before the first Publish
  uint64_t version = 0;
};

/// \brief Versioned model store with RCU-style atomic hot swap.
///
/// Publish assigns the next version and swaps the shared_ptr under a mutex;
/// readers (server workers) copy the pointer per request, so in-flight
/// requests finish on the version they started with while new requests see
/// the new model — zero downtime, zero dropped requests. Old versions are
/// destroyed when their last in-flight request releases them.
class ModelRegistry {
 public:
  /// \brief Make `model` the serving version; returns its assigned version
  /// number (1-based, strictly increasing per registry).
  uint64_t Publish(std::shared_ptr<ServingModel> model);

  /// \brief The current model and its version (null model before the first
  /// Publish).
  PublishedModel Current() const;

  uint64_t current_version() const;

 private:
  mutable std::mutex mu_;
  PublishedModel current_;
  uint64_t next_version_ = 1;
};

}  // namespace lpa::serving
