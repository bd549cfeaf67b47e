#pragma once

#include <cmath>
#include <memory>
#include <vector>

#include "nn/mlp.h"
#include "partition/actions.h"
#include "partition/featurizer.h"
#include "rl/replay.h"
#include "util/rng.h"

namespace lpa::rl {

/// \brief DQN hyperparameters; defaults reproduce the paper's Table 1.
struct DqnConfig {
  double learning_rate = 5e-4;
  double tau = 1e-3;             ///< target-network soft-update rate
  int replay_capacity = 10'000;  ///< experience replay buffer size
  int batch_size = 32;
  double epsilon_start = 1.0;
  double epsilon_decay = 0.997;  ///< multiplied in after every episode
  double epsilon_min = 0.01;
  int tmax = 100;                ///< steps per episode (>= |T| required)
  int episodes = 600;            ///< 600 for SSB, 1200 for TPC-DS / TPC-CH
  double gamma = 0.99;           ///< reward discount
  std::vector<int> hidden = {128, 64};
  uint64_t seed = 42;

  /// \brief The exact Table 1 configuration.
  static DqnConfig PaperDefaults() { return DqnConfig{}; }

  /// \brief Refit the ε schedule so exploration anneals to `final_epsilon`
  /// after `fraction` of `episodes`. Table 1's decay of 0.997 is tuned for
  /// 600-1200 episodes; shorter (scaled-down) runs need a faster schedule or
  /// they never exploit.
  void FitEpsilonSchedule(int episodes, double final_epsilon = 0.05,
                          double fraction = 0.8) {
    int horizon = std::max(1, static_cast<int>(episodes * fraction));
    epsilon_decay = std::pow(final_epsilon / epsilon_start, 1.0 / horizon);
  }
};

/// \brief Deep-Q agent over the partitioning action space (Sec 3).
///
/// Owns the online Q-network and the target network; exposes ε-greedy action
/// selection and the SGD update of Algorithm 1 (line 10-11 + soft target
/// update). The Q-network has one output head per (global) action id, so one
/// forward pass scores every action of a state: the same function family as
/// the paper's Fig 2 state-action input, far cheaper to train. The agent is
/// schema-agnostic: states and actions arrive through the Featurizer /
/// ActionSpace it is constructed with.
class DqnAgent {
 public:
  DqnAgent(const partition::Featurizer* featurizer,
           const partition::ActionSpace* actions, DqnConfig config);

  const DqnConfig& config() const { return config_; }
  double epsilon() const { return epsilon_; }
  void set_epsilon(double epsilon) { epsilon_ = epsilon; }
  /// \brief Apply the per-episode decay (Algorithm 1 line 12).
  void DecayEpsilon();

  /// \brief Q-values of the given legal actions at an encoded state.
  std::vector<double> QValues(const std::vector<double>& state_enc,
                              const std::vector<int>& legal) const;

  /// \brief ε-greedy action choice among `legal` (Algorithm 1 line 6): draws
  /// rng->Uniform() first, then UniformInt only when exploring; otherwise
  /// the first legal action of largest Q-value. Only reads the network, so
  /// several threads may select at once while no weight is written.
  int SelectAction(const std::vector<double>& state_enc,
                   const std::vector<int>& legal, double epsilon,
                   Rng* rng) const;

  /// \brief The online Q-network (read-only; e.g. the weight digests of
  /// the learner tests). Its output row is indexed by global action id.
  const nn::Mlp& q_network() const { return *q_; }
  /// \brief The target network that TD targets are read from (read-only).
  const nn::Mlp& target_network() const { return *target_; }

  /// \brief Greedy (ε = 0) choice; used at inference time.
  int GreedyAction(const std::vector<double>& state_enc,
                   const std::vector<int>& legal) const;

  /// \brief Store a transition in the replay buffer.
  void Observe(Transition t);

  /// \brief One minibatch SGD step + target soft update (lines 10-13).
  /// No-op until the buffer holds a full batch. Returns the loss (0 if
  /// skipped). `pool` (optional) parallelizes the network forward/backward
  /// passes; results are bit-identical at every thread count.
  double TrainStep(Rng* rng, ThreadPool* pool = nullptr);

  /// \brief TrainStep against an external replay buffer — the actor/learner
  /// rounds' entry point, where the learner owns the merged buffer instead
  /// of the agent. Same no-op-until-full-batch rule; the TD targets of the
  /// whole minibatch come from one target-network pass over the next
  /// states, run beside the Q-network's own forward pass
  /// (nn::ForwardTargets).
  double TrainStepFrom(const ReplayBuffer& replay, Rng* rng,
                       ThreadPool* pool = nullptr);

  /// \brief Copy the Q- and target-network weights from another agent with
  /// the same architecture (used to warm-start committee experts from the
  /// trained naive model).
  void CopyWeightsFrom(const DqnAgent& other);

  /// \brief Grow the state encoding by `extra` inputs (incremental training,
  /// Sec 5: new query-frequency slots). Existing first-layer weights are
  /// kept; new inputs start with zero weights, so the function computed on
  /// old workloads is unchanged.
  void ExtendStateInputs(int extra, const partition::Featurizer* new_featurizer);

  size_t replay_size() const { return replay_.size(); }

  /// \brief Persist both networks and the exploration state (not the replay
  /// buffer). Restoring requires an agent built against the same featurizer
  /// dimensions and action space.
  Status Save(std::ostream& os) const;
  Status Load(std::istream& is);
  /// \brief Load continuation for callers that already consumed the leading
  /// "dqn-agent" token (advisor::LoadAgentSnapshot peeks it to distinguish
  /// versioned snapshot headers from legacy agent streams).
  Status LoadAfterMagic(std::istream& is);

 private:
  const partition::Featurizer* featurizer_;
  const partition::ActionSpace* actions_;
  DqnConfig config_;
  std::unique_ptr<nn::Mlp> q_;
  std::unique_ptr<nn::Mlp> target_;
  ReplayBuffer replay_;
  double epsilon_;

  /// Buffers of TrainStepFrom, resized in place and reused across steps.
  /// With the Q-network's own training workspace, a step allocates nothing
  /// once the first one at its batch size has run.
  struct LearnerScratch {
    std::vector<size_t> batch;  // sampled replay rows
    std::vector<int> heads;
    nn::Matrix x;       // states
    nn::Matrix next_x;  // next states
  };
  LearnerScratch scratch_;
};

}  // namespace lpa::rl
