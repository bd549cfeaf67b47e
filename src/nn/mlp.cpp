#include "nn/mlp.h"

#include <cmath>
#include <string>
#include <utility>

#include "nn/kernels.h"
#include "util/logging.h"

namespace lpa::nn {

Mlp::Mlp(MlpConfig config) : config_(std::move(config)) {
  LPA_CHECK(config_.input_dim > 0 && config_.output_dim > 0);
  Rng rng(config_.seed);
  std::vector<int> dims;
  dims.push_back(config_.input_dim);
  for (int h : config_.hidden) dims.push_back(h);
  dims.push_back(config_.output_dim);
  for (size_t l = 0; l + 1 < dims.size(); ++l) {
    Layer layer;
    size_t in = static_cast<size_t>(dims[l]);
    size_t out = static_cast<size_t>(dims[l + 1]);
    layer.w = Matrix(in, out);
    layer.b = Matrix(1, out);
    // Xavier/Glorot uniform initialisation.
    double limit = std::sqrt(6.0 / static_cast<double>(in + out));
    for (double& v : layer.w.data()) v = rng.Uniform(-limit, limit);
    layer.mw = Matrix(in, out);
    layer.vw = Matrix(in, out);
    layer.mb = Matrix(1, out);
    layer.vb = Matrix(1, out);
    layers_.push_back(std::move(layer));
  }
}

void Mlp::LayerForward(size_t l, const Matrix& in, Matrix* out,
                       ThreadPool* pool) const {
  const Layer& layer = layers_[l];
  out->Resize(in.rows(), layer.w.cols());
  // ReLU on hidden layers, linear output.
  Gemm(in, layer.w, out, pool, &layer.b, l + 1 < layers_.size());
}

const Matrix& Mlp::Forward(const Matrix& x, Matrix* buf_a, Matrix* buf_b,
                           ThreadPool* pool) const {
  LPA_CHECK(static_cast<int>(x.cols()) == config_.input_dim);
  LayerForward(0, x, buf_a, pool);
  for (size_t l = 1; l < layers_.size(); ++l) {
    LayerForward(l, *buf_a, buf_b, pool);
    std::swap(buf_a, buf_b);
  }
  return *buf_a;
}

Matrix Mlp::Forward(const Matrix& x, ThreadPool* pool) const {
  Matrix a, b;
  const Matrix& out = Forward(x, &a, &b, pool);
  return &out == &a ? std::move(a) : std::move(b);
}

std::vector<double> Mlp::Forward(const std::vector<double>& x) const {
  Matrix out = Forward(Matrix::FromRow(x));
  return std::move(out.data());
}

const Matrix& Mlp::ForwardTape(const Matrix& x, ThreadPool* pool) {
  LPA_CHECK(static_cast<int>(x.cols()) == config_.input_dim);
  for (auto* buffers : {&ws_.out, &ws_.delta, &ws_.dw, &ws_.db, &ws_.wt}) {
    buffers->resize(layers_.size());
  }
  for (size_t l = 0; l < layers_.size(); ++l) {
    LayerForward(l, l == 0 ? x : ws_.out[l - 1], &ws_.out[l], pool);
  }
  return ws_.out.back();
}

void Mlp::Backward(const Matrix& x, double lr, ThreadPool* pool,
                   SoftTarget soft) {
  if (soft.net != nullptr) {
    LPA_CHECK(soft.net != this && soft.net->layers_.size() == layers_.size());
    for (size_t l = 0; l < layers_.size(); ++l) {
      LPA_CHECK(soft.net->layers_[l].w.size() == layers_[l].w.size() &&
                soft.net->layers_[l].b.size() == layers_[l].b.size());
    }
  }
  ++adam_t_;
  kernels::AdamArgs adam;
  adam.b1 = config_.beta1;
  adam.b2 = config_.beta2;
  adam.eps = config_.epsilon;
  adam.lr = lr;
  adam.bias1 = 1.0 - std::pow(config_.beta1, static_cast<double>(adam_t_));
  adam.bias2 = 1.0 - std::pow(config_.beta2, static_cast<double>(adam_t_));
  adam.tau = soft.tau;
  const kernels::Ops& ops = kernels::Active();
  // One pass over a parameter matrix: Adam, then the target's Polyak update.
  auto step = [&adam, &ops, pool](Matrix* param, Matrix* m, Matrix* v,
                                  const Matrix& grad, Matrix* target) {
    adam.param = param->data().data();
    adam.m = m->data().data();
    adam.v = v->data().data();
    adam.grad = grad.data().data();
    adam.target = target != nullptr ? target->data().data() : nullptr;
    kernels::ForChunks(pool, param->size(), kernels::kElemChunk,
                       [&adam, &ops](size_t begin, size_t end) {
                         ops.adam(adam, begin, end);
                       });
  };

  for (size_t l = layers_.size(); l-- > 0;) {
    Layer& layer = layers_[l];
    Matrix& delta = ws_.delta[l];  // gradient w.r.t. this layer's output
    const Matrix& input = l == 0 ? x : ws_.out[l - 1];
    // One pass over delta: the ReLU derivative of hidden layers (the output
    // layer is linear) and the bias gradient.
    Matrix& db = ws_.db[l];
    db.Resize(1, layer.b.cols());
    ops.bias_grad(delta.data().data(),
                  l + 1 < layers_.size() ? ws_.out[l].data().data() : nullptr,
                  delta.rows(), delta.cols(), db.data().data());
    Matrix& dw = ws_.dw[l];
    dw.Resize(layer.w.rows(), layer.w.cols());
    GemmTransA(input, delta, &dw, pool);
    if (l > 0) {  // from the weights before this step's update
      Matrix& dprev = ws_.delta[l - 1];
      dprev.Resize(delta.rows(), layer.w.rows());
      GemmTransB(delta, layer.w, &dprev, pool, &ws_.wt[l]);
    }
    Layer* target = soft.net != nullptr ? &soft.net->layers_[l] : nullptr;
    step(&layer.w, &layer.mw, &layer.vw, dw,
         target != nullptr ? &target->w : nullptr);
    step(&layer.b, &layer.mb, &layer.vb, db,
         target != nullptr ? &target->b : nullptr);
  }
}

double Mlp::TrainMaskedMse(const Matrix& x, const std::vector<int>& head,
                           const std::vector<double>& target, double lr,
                           ThreadPool* pool, SoftTarget soft) {
  LPA_CHECK(x.rows() == head.size() && x.rows() == target.size());
  const Matrix& pred = ForwardTape(x, pool);
  Matrix& dloss = ws_.delta.back();
  dloss.Resize(pred.rows(), pred.cols());
  dloss.Fill(0.0);
  double loss = 0.0;
  double inv_batch = 1.0 / static_cast<double>(x.rows());
  for (size_t r = 0; r < x.rows(); ++r) {
    int h = head[r];
    LPA_CHECK(h >= 0 && h < static_cast<int>(pred.cols()));
    double err = pred.at(r, static_cast<size_t>(h)) - target[r];
    loss += err * err * inv_batch;
    dloss.at(r, static_cast<size_t>(h)) = 2.0 * err * inv_batch;
  }
  Backward(x, lr, pool, soft);
  return loss;
}

double Mlp::TrainMse(const Matrix& x, const Matrix& target, double lr,
                     ThreadPool* pool, SoftTarget soft) {
  LPA_CHECK(x.rows() == target.rows());
  const Matrix& pred = ForwardTape(x, pool);
  LPA_CHECK(pred.cols() == target.cols());
  Matrix& dloss = ws_.delta.back();
  dloss.Resize(pred.rows(), pred.cols());
  double loss = 0.0;
  double inv = 1.0 / static_cast<double>(pred.size());
  for (size_t i = 0; i < pred.data().size(); ++i) {
    double err = pred.data()[i] - target.data()[i];
    loss += err * err * inv;
    dloss.data()[i] = 2.0 * err * inv;
  }
  Backward(x, lr, pool, soft);
  return loss;
}

void Mlp::SoftUpdateFrom(const Mlp& src, double tau, ThreadPool* pool) {
  LPA_CHECK(layers_.size() == src.layers_.size());
  const kernels::Ops& ops = kernels::Active();
  for (size_t l = 0; l < layers_.size(); ++l) {
    LPA_CHECK(layers_[l].w.size() == src.layers_[l].w.size());
    double* w = layers_[l].w.data().data();
    const double* sw = src.layers_[l].w.data().data();
    kernels::ForChunks(pool, layers_[l].w.size(), kernels::kElemChunk,
                       [&ops, w, sw, tau](size_t begin, size_t end) {
                         ops.polyak(w, sw, tau, begin, end);
                       });
    ops.polyak(layers_[l].b.data().data(), src.layers_[l].b.data().data(),
               tau, 0, layers_[l].b.size());
  }
}

void Mlp::CopyFrom(const Mlp& src) { SoftUpdateFrom(src, 1.0); }

size_t Mlp::num_parameters() const {
  size_t n = 0;
  for (const auto& layer : layers_) n += layer.w.size() + layer.b.size();
  return n;
}

Mlp Mlp::WithExtendedInput(int extra) const {
  LPA_CHECK(extra >= 0);
  MlpConfig config = config_;
  config.input_dim += extra;
  Mlp grown(config);
  // Copy every layer; the first layer's new weight rows become zero.
  for (size_t l = 0; l < layers_.size(); ++l) {
    const Layer& src = layers_[l];
    Layer& dst = grown.layers_[l];
    if (l == 0) {
      dst.w.Fill(0.0);
      for (size_t r = 0; r < src.w.rows(); ++r) {
        for (size_t c = 0; c < src.w.cols(); ++c) {
          dst.w.at(r, c) = src.w.at(r, c);
        }
      }
      dst.mw.Fill(0.0);
      dst.vw.Fill(0.0);
      for (size_t r = 0; r < src.w.rows(); ++r) {
        for (size_t c = 0; c < src.w.cols(); ++c) {
          dst.mw.at(r, c) = src.mw.at(r, c);
          dst.vw.at(r, c) = src.vw.at(r, c);
        }
      }
    } else {
      dst.w = src.w;
      dst.mw = src.mw;
      dst.vw = src.vw;
    }
    dst.b = src.b;
    dst.mb = src.mb;
    dst.vb = src.vb;
  }
  grown.adam_t_ = adam_t_;
  return grown;
}

Status Mlp::Save(std::ostream& os) const {
  os << "mlp " << config_.input_dim << ' ' << config_.hidden.size();
  for (int h : config_.hidden) os << ' ' << h;
  os << ' ' << config_.output_dim << ' ' << config_.seed << '\n';
  os.precision(17);
  for (const auto& layer : layers_) {
    for (double v : layer.w.data()) os << v << ' ';
    for (double v : layer.b.data()) os << v << ' ';
    os << '\n';
  }
  if (!os.good()) return Status::Internal("stream write failed");
  return Status::OK();
}

namespace {

/// Header limits, far above any network the advisor builds (two hidden
/// layers of 128 and 64 units, a few hundred inputs and outputs), so a
/// corrupt or hostile header is refused before it sizes an allocation.
constexpr size_t kMaxHiddenLayers = 16;
constexpr int kMaxLayerWidth = 1 << 14;
constexpr uint64_t kMaxWeights = uint64_t{1} << 22;

}  // namespace

Result<Mlp> Mlp::Load(std::istream& is) {
  std::string magic;
  is >> magic;
  if (magic != "mlp") return Status::InvalidArgument("not an mlp stream");
  MlpConfig config;
  size_t num_hidden = 0;
  is >> config.input_dim >> num_hidden;
  if (!is.good()) return Status::InvalidArgument("truncated mlp header");
  if (num_hidden > kMaxHiddenLayers) {
    return Status::InvalidArgument("mlp header: more than " +
                                   std::to_string(kMaxHiddenLayers) +
                                   " hidden layers");
  }
  config.hidden.resize(num_hidden);
  for (auto& h : config.hidden) is >> h;
  is >> config.output_dim >> config.seed;
  if (!is.good()) return Status::InvalidArgument("truncated mlp header");
  std::vector<int> widths = {config.input_dim};
  widths.insert(widths.end(), config.hidden.begin(), config.hidden.end());
  widths.push_back(config.output_dim);
  uint64_t weights = 0;
  for (size_t l = 0; l < widths.size(); ++l) {
    if (widths[l] <= 0 || widths[l] > kMaxLayerWidth) {
      return Status::InvalidArgument(
          "mlp header: layer width " + std::to_string(widths[l]) +
          " outside [1, " + std::to_string(kMaxLayerWidth) + "]");
    }
    if (l > 0) {
      weights += static_cast<uint64_t>(widths[l - 1] + 1) *
                 static_cast<uint64_t>(widths[l]);
    }
  }
  if (weights > kMaxWeights) {
    return Status::InvalidArgument("mlp header: more than " +
                                   std::to_string(kMaxWeights) + " weights");
  }
  Mlp mlp(config);
  for (auto& layer : mlp.layers_) {
    for (double& v : layer.w.data()) is >> v;
    for (double& v : layer.b.data()) is >> v;
  }
  if (is.fail()) return Status::InvalidArgument("truncated mlp weights");
  return mlp;
}

}  // namespace lpa::nn
