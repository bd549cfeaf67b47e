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

/// \brief How the Q-function consumes actions.
enum class QNetworkMode {
  /// One output head per (global) action id; one forward pass scores every
  /// action of a state. Mathematically the same function family as the
  /// paper's formulation but far cheaper to train; the repo default.
  kMultiHead,
  /// The paper's Fig 2 formulation: the network takes the concatenated
  /// state-action encoding and emits a single Q-value. Kept for fidelity and
  /// for the ablation bench.
  kStateActionInput,
};

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
  QNetworkMode mode = QNetworkMode::kMultiHead;
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

// Transition and ReplayBuffer historically lived here; they moved to
// rl/replay.h with the sharded actor/learner replay and are re-exported by
// the include above.

/// \brief Immutable frozen copy of an agent's online Q-network.
///
/// Episode actors act against a DqnPolicy instead of the live agent: the
/// snapshot is taken once (per round in deterministic mode, per publish
/// interval in fast mode), so the learner can keep writing weights without
/// ever racing an actor's forward pass. Selection runs the same code as
/// DqnAgent's — ε ordering, first-max tie-break — so it matches bit for bit.
class DqnPolicy {
 public:
  /// \brief ε-greedy choice among `legal`; draws rng->Uniform() first (the
  /// exact draw order of DqnAgent::SelectAction).
  int SelectAction(const std::vector<double>& state_enc,
                   const std::vector<int>& legal, double epsilon,
                   Rng* rng) const;

 private:
  friend class DqnAgent;
  DqnPolicy(nn::Mlp q, const nn::Matrix* action_enc)
      : q_(std::move(q)), action_enc_(action_enc) {}

  nn::Mlp q_;
  /// Borrowed from the owning agent; the action space is static, so the
  /// matrix never changes after agent construction. Null in multi-head mode.
  const nn::Matrix* action_enc_;
};

/// \brief Deep-Q agent over the partitioning action space (Sec 3).
///
/// Owns the online Q-network and the target network; exposes ε-greedy action
/// selection and the SGD update of Algorithm 1 (line 10-11 + soft target
/// update). The agent is schema-agnostic: states and actions arrive through
/// the Featurizer / ActionSpace it is constructed with.
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

  /// \brief ε-greedy action choice among `legal` (Algorithm 1 line 6).
  int SelectAction(const std::vector<double>& state_enc,
                   const std::vector<int>& legal, Rng* rng) const;

  /// \brief Frozen copy of the online network for lock-free actor inference
  /// (see DqnPolicy). Cheap relative to an episode: one Mlp copy.
  DqnPolicy SnapshotPolicy() const;

  /// \brief The online Q-network (read-only; e.g. the weight digests of
  /// the learner tests). In multi-head mode its output row is indexed by
  /// global action id.
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
  /// pipeline's entry point, where the learner owns the merged buffer
  /// instead of the agent. Same no-op-until-full-batch rule; the TD targets
  /// of the whole minibatch are evaluated as one matrix pass in both network
  /// modes: in multi-head mode the target network's pass over the next
  /// states runs beside the Q-network's own forward pass
  /// (nn::ForwardTargets); state-action mode stacks every transition's legal
  /// next-actions into a single GEMM instead of one forward per transition
  /// (row values are bit-identical either way, the GEMM computes rows
  /// independently in a fixed accumulation order).
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
  int InputDim() const;
  /// The action-encoding matrix in state-action mode; null in multi-head.
  const nn::Matrix* ActionEncodings() const;
  /// Write the concatenated (state, action) encoding for state-action mode
  /// into `dst` (one batch-matrix row of InputDim() doubles). The action
  /// half copies straight out of the precomputed `action_enc_` row — the
  /// action space is static, so encodings are computed once at construction
  /// instead of allocating a fresh vector per legal action per step.
  void FillStateAction(const std::vector<double>& state_enc, int action_id,
                       double* dst) const;

  const partition::Featurizer* featurizer_;
  const partition::ActionSpace* actions_;
  DqnConfig config_;
  std::unique_ptr<nn::Mlp> q_;
  std::unique_ptr<nn::Mlp> target_;
  ReplayBuffer replay_;
  double epsilon_;
  /// Row a = EncodeAction(action a); built only for kStateActionInput.
  nn::Matrix action_enc_;

  /// Buffers of TrainStepFrom, resized in place and reused across steps.
  /// With the Q-network's own training workspace, a step allocates nothing
  /// once the first one at its batch size has run.
  struct LearnerScratch {
    std::vector<size_t> batch;    // sampled replay rows
    std::vector<double> state;    // one decoded state (state-action mode)
    std::vector<double> targets;  // state-action mode
    std::vector<int> heads;
    nn::Matrix x;             // the network input rows of either pass
    nn::Matrix next_x;        // next states (multi-head mode)
    nn::Matrix y;             // TD targets as a column (state-action mode)
    nn::Matrix fwd_a, fwd_b;  // the target network's pass (state-action)
  };
  LearnerScratch scratch_;
};

}  // namespace lpa::rl
