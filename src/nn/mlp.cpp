#include "nn/mlp.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdlib>
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

namespace {

/// Start of block p of `parts` equal blocks of [0, n).
size_t BlockStart(size_t n, size_t parts, size_t p) { return n * p / parts; }

/// Runs job(0), ..., job(jobs - 1): as one region of `pool` whose chunk j is
/// job j, so that job j runs on the same thread whenever the workers are
/// idle, or in order on the caller when `pool` is null.
template <class Fn>
void RunJobs(ThreadPool* pool, size_t jobs, const Fn& job) {
  if (pool == nullptr || jobs <= 1) {
    for (size_t j = 0; j < jobs; ++j) job(j);
    return;
  }
  pool->ParallelFor(jobs, 1, [&job](size_t begin, size_t end) {
    for (size_t j = begin; j < end; ++j) job(j);
  });
}

}  // namespace

void Mlp::SizeOutputs(size_t rows, bool masked,
                      std::vector<Matrix>* out) const {
  out->resize(layers_.size());
  const size_t sized = masked ? layers_.size() - 1 : layers_.size();
  for (size_t l = 0; l < sized; ++l) {
    (*out)[l].Resize(rows, layers_[l].w.cols());
  }
}

void Mlp::ForwardRows(const Matrix& x, size_t begin, size_t end,
                      std::vector<Matrix>* out, const std::vector<int>* head,
                      double* pred) const {
  const kernels::Ops& ops = kernels::Active();
  const size_t last = layers_.size() - 1;
  for (size_t l = 0; l <= last && begin < end; ++l) {
    const Layer& layer = layers_[l];
    const Matrix& in = l == 0 ? x : (*out)[l - 1];
    if (l == last && head != nullptr) {
      // The product kernel's sum for the head's column alone: from +0.0
      // over ascending p, skipping zero inputs, then the bias.
      const size_t n = layer.w.cols();
      const double* w = layer.w.data().data();
      for (size_t r = begin; r < end; ++r) {
        const size_t h = static_cast<size_t>((*head)[r]);
        const double* a = in.row(r);
        double acc = 0.0;
        for (size_t p = 0; p < in.cols(); ++p) {
          if (a[p] != 0.0) acc = acc + a[p] * w[p * n + h];
        }
        pred[r] = acc + layer.b.data()[h];
      }
      return;
    }
    kernels::GemmArgs g;
    g.a = in.data().data();
    g.a_row = in.cols();
    g.b = layer.w.data().data();
    g.c = (*out)[l].data().data();
    g.k = in.cols();
    g.n = layer.w.cols();
    g.bias = layer.b.data().data();
    g.relu = l < last;
    ops.gemm_rows(g, begin, end);
  }
}

size_t Mlp::StepThreads(size_t rows, ThreadPool* pool) const {
  if (pool == nullptr) return 1;
  const size_t threads = static_cast<size_t>(pool->num_workers()) + 1;
  size_t flops = 0;  // multiply-adds of one forward pass
  for (const auto& layer : layers_) flops += layer.w.size();
  return rows * flops >= threads * kernels::kMinFlopsPerJob ? threads : 1;
}

bool Mlp::ForwardStep(const Matrix& x, const std::vector<int>* head,
                      const ForwardTargets* from, ThreadPool* pool,
                      size_t threads) {
  LPA_CHECK(static_cast<int>(x.cols()) == config_.input_dim);
  for (auto* buffers : {&ws_.out, &ws_.delta, &ws_.dw, &ws_.db}) {
    buffers->resize(layers_.size());
  }
  ws_.wt.resize(threads);
  SizeOutputs(x.rows(), head != nullptr, &ws_.out);
  if (head != nullptr) ws_.pred.resize(x.rows());
  if (from != nullptr) {
    LPA_CHECK(from->net != nullptr && from->x != nullptr && from->fill &&
              static_cast<int>(from->x->cols()) == from->net->input_dim());
    from->net->SizeOutputs(from->x->rows(), false, &ws_.side);
  }
  // Jobs: the rows of `from`'s pass in side_jobs blocks, then this network's
  // rows in tape_jobs blocks. A tape job also checks what the backward pass's
  // sparse products skip over (see Backward): its block of the weights of
  // every layer but the first and, in a masked step, its rows of the output
  // layer's input.
  const size_t side_jobs = from == nullptr ? 0 : (threads + 1) / 2;
  const size_t tape_jobs = std::max<size_t>(1, threads - side_jobs);
  const kernels::Ops& ops = kernels::Active();
  const size_t last = layers_.size() - 1;
  ws_.finite.assign(tape_jobs, 1);
  RunJobs(threads > 1 ? pool : nullptr, side_jobs + tape_jobs,
          [&](size_t job) {
            if (job < side_jobs) {
              const size_t rows = from->x->rows();
              from->net->ForwardRows(*from->x,
                                     BlockStart(rows, side_jobs, job),
                                     BlockStart(rows, side_jobs, job + 1),
                                     &ws_.side, nullptr, nullptr);
              return;
            }
            const size_t t = job - side_jobs;
            const size_t r0 = BlockStart(x.rows(), tape_jobs, t);
            const size_t r1 = BlockStart(x.rows(), tape_jobs, t + 1);
            ForwardRows(x, r0, r1, &ws_.out, head, ws_.pred.data());
            bool finite = true;
            for (size_t l = 1; l <= last; ++l) {
              const Matrix& w = layers_[l].w;
              const size_t b = BlockStart(w.size(), tape_jobs, t);
              const size_t e = BlockStart(w.size(), tape_jobs, t + 1);
              finite = finite && ops.all_finite(w.data().data() + b, e - b);
            }
            if (head != nullptr) {
              const Matrix& in = last == 0 ? x : ws_.out[last - 1];
              finite = finite &&
                       ops.all_finite(in.row(r0), (r1 - r0) * in.cols());
            }
            ws_.finite[t] = finite;
          });
  return std::all_of(ws_.finite.begin(), ws_.finite.end(),
                     [](unsigned char f) { return f != 0; });
}

void Mlp::Backward(const Matrix& x, const std::vector<int>* head, bool sparse,
                   double lr, ThreadPool* pool, size_t threads,
                   SoftTarget soft) {
  if (soft.net != nullptr) {
    LPA_CHECK(soft.net != this && soft.net->layers_.size() == layers_.size());
    for (size_t l = 0; l < layers_.size(); ++l) {
      LPA_CHECK(soft.net->layers_[l].w.size() == layers_[l].w.size() &&
                soft.net->layers_[l].b.size() == layers_[l].b.size());
    }
  }
  const kernels::Ops& ops = kernels::Active();
  ThreadPool* jobs_pool = threads > 1 ? pool : nullptr;
  const size_t last = layers_.size() - 1;
  const size_t rows = x.rows();
  auto input = [&](size_t l) -> const Matrix& {
    return l == 0 ? x : ws_.out[l - 1];
  };

  // The sparse products leave out terms a * b whose a is an exact zero. Such
  // a term is +-0, which leaves a sum started from +0.0 unchanged, only when
  // b is finite: so they run only while every weight they multiply, and in
  // a masked step the output layer's inputs, are finite (`sparse`, checked
  // by ForwardStep). The dense products give the same bits whenever the
  // sparse ones are allowed. In a masked step each row's output gradient is
  // nonzero at its head alone, so the output layer's gradients then come
  // from the (row, head) pairs.
  const bool pairs = head != nullptr && sparse;

  Matrix& db_last = ws_.db[last];
  db_last.Resize(1, layers_[last].b.cols());
  if (pairs) {
    db_last.Fill(0.0);
    for (size_t r = 0; r < rows; ++r) {
      double& db = db_last.data()[static_cast<size_t>((*head)[r])];
      db = db + ws_.grad[r];
    }
    if (last > 0) {
      const Matrix& w = layers_[last].w;
      Matrix& dprev = ws_.delta[last - 1];
      dprev.Resize(rows, w.rows());
      for (size_t r = 0; r < rows; ++r) {
        const size_t h = static_cast<size_t>((*head)[r]);
        const double g = ws_.grad[r];
        double* dst = dprev.row(r);
        for (size_t i = 0; i < w.rows(); ++i) dst[i] = 0.0 + g * w.at(i, h);
      }
    }
  } else {
    Matrix& delta = ws_.delta[last];
    if (head != nullptr) {  // the masked loss's dense output gradient
      delta.Resize(rows, layers_[last].w.cols());
      delta.Fill(0.0);
      for (size_t r = 0; r < rows; ++r) {
        delta.at(r, static_cast<size_t>((*head)[r])) = ws_.grad[r];
      }
    }
    ops.bias_grad(delta.data().data(), nullptr, rows, delta.cols(),
                  delta.cols(), db_last.data().data());
  }
  if (pairs && last > 0) {  // the ReLU mask and bias gradient below
    Matrix& db = ws_.db[last - 1];
    db.Resize(1, layers_[last - 1].b.cols());
    ops.bias_grad(ws_.delta[last - 1].data().data(),
                  ws_.out[last - 1].data().data(), rows, db.cols(),
                  db.cols(), db.data().data());
  }

  // Down the hidden layers: each input gradient dprev = delta * w^T, from
  // the weights before this step's update, then the ReLU mask and bias
  // gradient below it. Job j computes the columns of dprev that correspond
  // to its block of w's rows, the block its Adam slice updates (below),
  // through a transposed copy of that block, and masks them.
  for (size_t l = pairs && last > 0 ? last - 1 : last; l > 0; --l) {
    const Matrix& delta = ws_.delta[l];
    const Matrix& w = layers_[l].w;
    Matrix& dprev = ws_.delta[l - 1];
    dprev.Resize(rows, w.rows());
    Matrix& db = ws_.db[l - 1];
    db.Resize(1, w.rows());
    RunJobs(jobs_pool, threads, [&](size_t job) {
      const size_t i0 = BlockStart(w.rows(), threads, job);
      const size_t i1 = BlockStart(w.rows(), threads, job + 1);
      if (i0 == i1) return;
      Matrix& wt = ws_.wt[job];
      TransposeRows(w, i0, i1, &wt);
      kernels::GemmArgs g;
      g.a = delta.data().data();
      g.a_row = delta.cols();
      g.b = wt.data().data();
      g.c = dprev.data().data() + i0;
      g.c_row = dprev.cols();
      g.k = delta.cols();
      g.n = i1 - i0;
      g.skip_zero = sparse;
      ops.gemm_rows(g, 0, rows);
      ops.bias_grad(dprev.data().data() + i0,
                    ws_.out[l - 1].data().data() + i0, rows, i1 - i0,
                    dprev.cols(), db.data().data() + i0);
    });
  }

  // The weight gradients and the Adam and Polyak updates, elementwise once
  // the gradients exist: job j takes block j of every matrix's rows, so the
  // same thread keeps the same Adam moments from step to step.
  ++adam_t_;
  kernels::AdamArgs adam;
  adam.b1 = config_.beta1;
  adam.b2 = config_.beta2;
  adam.eps = config_.epsilon;
  adam.lr = lr;
  adam.bias1 = 1.0 - std::pow(config_.beta1, static_cast<double>(adam_t_));
  adam.bias2 = 1.0 - std::pow(config_.beta2, static_cast<double>(adam_t_));
  adam.tau = soft.tau;
  for (size_t l = 0; l <= last; ++l) {
    ws_.dw[l].Resize(layers_[l].w.rows(), layers_[l].w.cols());
  }
  RunJobs(jobs_pool, threads, [&](size_t job) {
    kernels::AdamArgs a = adam;
    // Elements [begin, end) of one parameter matrix.
    auto step = [&a, &ops](Matrix* param, Matrix* m, Matrix* v,
                           const Matrix& grad, Matrix* target, size_t begin,
                           size_t end) {
      a.param = param->data().data();
      a.m = m->data().data();
      a.v = v->data().data();
      a.grad = grad.data().data();
      a.target = target != nullptr ? target->data().data() : nullptr;
      ops.adam(a, begin, end);
    };
    for (size_t l = 0; l <= last; ++l) {
      Layer& layer = layers_[l];
      Matrix& dw = ws_.dw[l];
      const size_t in = layer.w.rows(), out = layer.w.cols();
      const size_t r0 = BlockStart(in, threads, job);
      const size_t r1 = BlockStart(in, threads, job + 1);
      const Matrix& act = input(l);
      if (l == last && pairs) {
        std::fill(dw.data().begin() + static_cast<std::ptrdiff_t>(r0 * out),
                  dw.data().begin() + static_cast<std::ptrdiff_t>(r1 * out),
                  0.0);
        for (size_t r = 0; r < rows; ++r) {
          const size_t h = static_cast<size_t>((*head)[r]);
          const double grad = ws_.grad[r];
          const double* a_row = act.row(r);
          for (size_t i = r0; i < r1; ++i) {
            if (a_row[i] != 0.0) {
              double& d = dw.at(i, h);
              d = d + a_row[i] * grad;
            }
          }
        }
      } else {  // dW = input^T * delta, rows [r0, r1)
        kernels::GemmArgs g;
        g.a = act.data().data();
        g.a_row = 1;
        g.a_col = act.cols();
        g.b = ws_.delta[l].data().data();
        g.c = dw.data().data();
        g.k = rows;
        g.n = out;
        ops.gemm_rows(g, r0, r1);
      }
      Layer* target = soft.net != nullptr ? &soft.net->layers_[l] : nullptr;
      step(&layer.w, &layer.mw, &layer.vw, dw,
           target != nullptr ? &target->w : nullptr, r0 * out, r1 * out);
      step(&layer.b, &layer.mb, &layer.vb, ws_.db[l],
           target != nullptr ? &target->b : nullptr,
           BlockStart(out, threads, job), BlockStart(out, threads, job + 1));
    }
  });
}

double Mlp::MaskedStep(const Matrix& x, const std::vector<int>& head,
                       const std::vector<double>* target,
                       const ForwardTargets* from, double lr,
                       ThreadPool* pool, SoftTarget soft) {
  LPA_CHECK(x.rows() == head.size());
  for (int h : head) LPA_CHECK(h >= 0 && h < config_.output_dim);
  const size_t threads = StepThreads(x.rows(), pool);
  const bool sparse = ForwardStep(x, &head, from, pool, threads);
  if (from != nullptr) {
    ws_.target.resize(x.rows());
    from->fill(ws_.side.back(), &ws_.target);
    target = &ws_.target;
  }
  LPA_CHECK(target->size() == x.rows());
  ws_.grad.resize(x.rows());
  double loss = 0.0;
  double inv_batch = 1.0 / static_cast<double>(x.rows());
  for (size_t r = 0; r < x.rows(); ++r) {
    double err = ws_.pred[r] - (*target)[r];
    loss += err * err * inv_batch;
    ws_.grad[r] = 2.0 * err * inv_batch;
  }
  Backward(x, &head, sparse, lr, pool, threads, soft);
  return loss;
}

double Mlp::TrainMaskedMse(const Matrix& x, const std::vector<int>& head,
                           const std::vector<double>& target, double lr,
                           ThreadPool* pool, SoftTarget soft) {
  LPA_CHECK(x.rows() == head.size() && x.rows() == target.size());
  return MaskedStep(x, head, &target, nullptr, lr, pool, soft);
}

double Mlp::TrainMaskedMse(const Matrix& x, const std::vector<int>& head,
                           const ForwardTargets& targets, double lr,
                           ThreadPool* pool, SoftTarget soft) {
  return MaskedStep(x, head, nullptr, &targets, lr, pool, soft);
}

double Mlp::TrainMse(const Matrix& x, const Matrix& target, double lr,
                     ThreadPool* pool, SoftTarget soft) {
  LPA_CHECK(x.rows() == target.rows());
  const size_t threads = StepThreads(x.rows(), pool);
  const bool sparse = ForwardStep(x, nullptr, nullptr, pool, threads);
  const Matrix& pred = ws_.out.back();
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
  Backward(x, nullptr, sparse, lr, pool, threads, soft);
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
  // Load accepts finite weights only, so a diverged network is refused here
  // rather than written as a snapshot that can never be restored.
  for (size_t l = 0; l < layers_.size(); ++l) {
    for (const Matrix* m : {&layers_[l].w, &layers_[l].b}) {
      for (double v : m->data()) {
        if (!std::isfinite(v)) {
          return Status::FailedPrecondition(
              "mlp layer " + std::to_string(l) +
              " has a non-finite weight; refusing to save it");
        }
      }
    }
  }
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

/// Reads one weight of layer `l` into `v`: a finite number, as Save writes
/// it (strtod rounds correctly, so the bits round-trip). `token` is reused
/// across calls.
Status ReadWeight(std::istream& is, size_t l, std::string* token, double* v) {
  if (!(is >> *token)) return Status::InvalidArgument("truncated mlp weights");
  char* end = nullptr;
  *v = std::strtod(token->c_str(), &end);
  const std::string where = "mlp layer " + std::to_string(l) + ": ";
  if (end == token->c_str() || *end != '\0') {
    return Status::InvalidArgument(where + "unparsable weight '" + *token +
                                   "'");
  }
  if (!std::isfinite(*v)) {
    return Status::InvalidArgument(where + "non-finite weight '" + *token +
                                   "'");
  }
  return Status::OK();
}

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
  std::string token;
  for (size_t l = 0; l < mlp.layers_.size(); ++l) {
    for (Matrix* m : {&mlp.layers_[l].w, &mlp.layers_[l].b}) {
      for (double& v : m->data()) {
        LPA_RETURN_NOT_OK(ReadWeight(is, l, &token, &v));
      }
    }
  }
  return mlp;
}

}  // namespace lpa::nn
