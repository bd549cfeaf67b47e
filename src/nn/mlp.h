#pragma once

#include <functional>
#include <iostream>
#include <vector>

#include "nn/matrix.h"
#include "util/rng.h"
#include "util/status.h"

namespace lpa::nn {

/// \brief Architecture + training hyperparameters of a ReLU MLP.
///
/// Defaults follow the paper's Table 1: two hidden layers (128, 64), ReLU
/// activations, a linear output, and Adam.
struct MlpConfig {
  int input_dim = 1;
  std::vector<int> hidden = {128, 64};
  int output_dim = 1;
  uint64_t seed = 42;
  // Adam parameters.
  double beta1 = 0.9;
  double beta2 = 0.999;
  double epsilon = 1e-8;
};

class Mlp;

/// \brief A network that a training step Polyak-averages toward the updated
/// weights, w_t = (1 - tau) * w_t + tau * w, in the same pass as Adam: the
/// step then equals the step followed by net->SoftUpdateFrom(trained, tau).
/// A null `net` skips it.
struct SoftTarget {
  Mlp* net = nullptr;
  double tau = 0.0;
};

/// \brief Targets of a masked training step that come from another network's
/// forward pass over `x`: `fill(out, &target)` maps that network's output rows
/// to one target per training row (`target` arrives sized). The step runs
/// this pass concurrently with its own forward pass.
struct ForwardTargets {
  const Mlp* net = nullptr;
  const Matrix* x = nullptr;
  std::function<void(const Matrix& out, std::vector<double>* target)> fill;
};

/// \brief Feed-forward ReLU network with a linear output layer, trained by
/// minibatch SGD (Adam) on (possibly head-masked) squared error.
///
/// Used as the DQN Q-network / target network and as the learned-cost-model
/// baseline's regressor. Head-masked training supports the multi-head DQN
/// formulation where each output unit is the Q-value of one global action.
class Mlp {
 public:
  explicit Mlp(MlpConfig config);

  const MlpConfig& config() const { return config_; }
  int input_dim() const { return config_.input_dim; }
  int output_dim() const { return config_.output_dim; }

  /// \brief Batched forward pass: x is [batch x input_dim], result is
  /// [batch x output_dim]. On a pool, Forward splits the products of
  /// nn/matrix.h by rows and the training steps run the jobs described at
  /// TrainMaskedMse; every job computes its own elements in the serial
  /// order, so results are bit-identical at every thread count. Pass
  /// nullptr for the serial path.
  Matrix Forward(const Matrix& x, ThreadPool* pool = nullptr) const;

  /// \brief Batched forward pass into two caller-owned buffers, which are
  /// resized in place (and so reused without allocating across calls).
  /// Returns the output rows, held by one of the two.
  const Matrix& Forward(const Matrix& x, Matrix* buf_a, Matrix* buf_b,
                        ThreadPool* pool = nullptr) const;

  /// \brief Forward pass for a single input row.
  std::vector<double> Forward(const std::vector<double>& x) const;

  /// \brief One Adam step on masked squared error: for each row i only the
  /// output unit `head[i]` receives gradient `2*(pred - target[i])/batch`.
  /// Returns the minibatch loss before the step. The step reuses this
  /// network's training workspace and allocates nothing once it has run at
  /// the same batch size.
  ///
  /// A training step computes the output layer only at the heads and skips
  /// the terms of its products whose factor is an exact zero: the masked
  /// gradient's zeros, the ReLU mask's and the inputs'. It does so only
  /// while the weights and activations such a term would multiply are
  /// finite, so each skipped term is +-0 and the sums are bit for bit those
  /// of the dense products, which run otherwise. On a pool, its forward pass,
  /// each layer's input gradient and the weight gradients with the Adam and
  /// Polyak updates run as one region each, split into one fixed share per
  /// thread; a step too small to pay for a hand-off runs inline.
  double TrainMaskedMse(const Matrix& x, const std::vector<int>& head,
                        const std::vector<double>& target, double lr,
                        ThreadPool* pool = nullptr, SoftTarget soft = {});

  /// \brief TrainMaskedMse with the targets of `targets`, whose network's
  /// forward pass runs in the same region as this one's.
  double TrainMaskedMse(const Matrix& x, const std::vector<int>& head,
                        const ForwardTargets& targets, double lr,
                        ThreadPool* pool = nullptr, SoftTarget soft = {});

  /// \brief One Adam step on full-output squared error. Returns the loss.
  double TrainMse(const Matrix& x, const Matrix& target, double lr,
                  ThreadPool* pool = nullptr, SoftTarget soft = {});

  /// \brief Polyak averaging toward `src`: w = (1 - tau) * w + tau * w_src.
  /// Both networks must share the architecture. (Table 1's target update.)
  void SoftUpdateFrom(const Mlp& src, double tau, ThreadPool* pool = nullptr);

  /// \brief Copy all weights from `src` (same architecture required).
  void CopyFrom(const Mlp& src);

  /// \brief Copy of this network with `extra` additional inputs appended.
  /// The new first-layer weight rows start at zero, so the network computes
  /// the same function whenever the extra inputs are zero — the warm-start
  /// behind the paper's incremental training (Sec 5).
  Mlp WithExtendedInput(int extra) const;

  /// \brief Serialize architecture + weights.
  Status Save(std::ostream& os) const;
  static Result<Mlp> Load(std::istream& is);

  /// \brief Total parameter count (for tests / reporting).
  size_t num_parameters() const;

  /// \brief Read-only layer access (e.g. the weight digests and finiteness
  /// checks of the tests). Layer l maps an [n x in_l] activation to
  /// [n x out_l] via w [in_l x out_l] + bias [1 x out_l]; every layer but
  /// the last is followed by ReLU.
  size_t num_layers() const { return layers_.size(); }
  const Matrix& layer_weights(size_t l) const { return layers_[l].w; }
  const Matrix& layer_bias(size_t l) const { return layers_[l].b; }

 private:
  struct Layer {
    Matrix w;  // [in x out]
    Matrix b;  // [1 x out]
    // Adam moments.
    Matrix mw, vw, mb, vb;
  };

  /// Buffers of the training step, reused across steps; each is resized in
  /// place and overwritten, never cleared. Forward, which several threads
  /// may run on one network at once, uses none of them. A copy of the
  /// network starts with an empty workspace, sized again by its first step.
  struct Workspace {
    Workspace() = default;
    Workspace(const Workspace&) {}
    Workspace& operator=(const Workspace&) { return *this; }
    Workspace(Workspace&&) = default;
    Workspace& operator=(Workspace&&) = default;

    /// out[l]: layer l's output (the tape). A masked step keeps the output
    /// layer's only at the heads, in `pred`.
    std::vector<Matrix> out;
    /// delta[l]: loss gradient w.r.t. out[l]. A masked step keeps the output
    /// layer's only at the heads, in `grad`, unless it needs the dense one.
    std::vector<Matrix> delta;
    std::vector<Matrix> dw;     // weight gradients
    std::vector<Matrix> db;     // bias gradients
    std::vector<Matrix> wt;     // wt[j]: job j's block of weights, transposed
    std::vector<Matrix> side;   // the layer outputs of ForwardTargets' net
    std::vector<double> pred;   // masked step: the output at each head
    std::vector<double> grad;   // masked step: the loss gradient there
    std::vector<double> target; // ForwardTargets' filled targets
    std::vector<unsigned char> finite;  // per forward job: see ForwardStep
  };

  /// Layer l of the forward pass: out = act(in * w + b), with the bias and
  /// the hidden layers' ReLU fused into the product's store.
  void LayerForward(size_t l, const Matrix& in, Matrix* out,
                    ThreadPool* pool) const;
  /// Resizes out[l] for `rows` rows of every layer, but the output layer
  /// when `masked`.
  void SizeOutputs(size_t rows, bool masked, std::vector<Matrix>* out) const;
  /// Rows [begin, end) of the forward pass of x into `out` (sized by
  /// SizeOutputs); with `head`, the output layer only at each row's head,
  /// into `pred`.
  void ForwardRows(const Matrix& x, size_t begin, size_t end,
                   std::vector<Matrix>* out, const std::vector<int>* head,
                   double* pred) const;
  /// Threads a training step on `rows` rows runs on: the pool's, or 1 when
  /// a share of its forward pass would not pay for the hand-off.
  size_t StepThreads(size_t rows, ThreadPool* pool) const;
  /// Forward pass into the workspace tape (sizing the workspace for this
  /// network), with `from`'s forward pass when set. Returns whether the
  /// weights of every layer but the first and, with `head`, the output
  /// layer's inputs are finite, which Backward's sparse products need.
  bool ForwardStep(const Matrix& x, const std::vector<int>* head,
                   const ForwardTargets* from, ThreadPool* pool,
                   size_t threads);
  /// TrainMaskedMse with fixed targets or those of `from`.
  double MaskedStep(const Matrix& x, const std::vector<int>& head,
                    const std::vector<double>* target,
                    const ForwardTargets* from, double lr, ThreadPool* pool,
                    SoftTarget soft);
  /// Backpropagates the workspace's output gradient (`grad` at the heads
  /// when `head` is set, delta.back() otherwise) and takes one Adam step,
  /// with the Polyak update of `soft` fused in; `sparse` is ForwardStep's
  /// result.
  void Backward(const Matrix& x, const std::vector<int>* head, bool sparse,
                double lr, ThreadPool* pool, size_t threads, SoftTarget soft);

  MlpConfig config_;
  std::vector<Layer> layers_;
  int64_t adam_t_ = 0;
  Workspace ws_;
};

}  // namespace lpa::nn
