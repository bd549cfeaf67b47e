#include "nn/quantized.h"

#include <algorithm>
#include <cmath>

#include "nn/kernels.h"
#include "util/logging.h"

namespace lpa::nn {

namespace {

double QMax(QuantPrecision precision) {
  return precision == QuantPrecision::kInt8 ? 127.0 : 32767.0;
}

double MaxAbs(const Matrix& m) {
  double best = 0.0;
  for (double v : m.data()) best = std::max(best, std::abs(v));
  return best;
}

int32_t QuantizeValue(double v, double scale, double qmax) {
  const double q = std::round(v / scale);
  return static_cast<int32_t>(std::clamp(q, -qmax, qmax));
}

// --- Hot-path kernels with runtime SIMD dispatch ---------------------------
//
// The repo builds at the x86-64 baseline (SSE2), where the int8 GEMV's
// widening byte loads stay scalar and nearbyint is a libm call. The three hot
// loops are therefore compiled a second time with the AVX2 target attribute
// and selected by the CPU probe of nn/kernels.h, which also picks the
// variant of the fp64 kernels. Dispatch cannot change results: integer
// accumulation is exact in any vector width, and vroundpd implements exactly
// the nearest-even rounding of std::nearbyint.

inline __attribute__((always_inline)) void QuantizeRowBody(
    const double* a, size_t n, double inv, double qmax, int32_t* qa) {
  for (size_t i = 0; i < n; ++i) {
    double q = std::nearbyint(a[i] * inv);
    q = q < -qmax ? -qmax : q;
    q = q > qmax ? qmax : q;
    qa[i] = static_cast<int32_t>(q);
  }
}

inline __attribute__((always_inline)) void Int8GemvBody(
    const int32_t* qa, const int8_t* w, size_t in, size_t out, int32_t* acc) {
  for (size_t i = 0; i < in; ++i) {
    const int32_t a = qa[i];
    if (a == 0) continue;  // sparse encodings: skip the whole weight row
    const int8_t* wr = w + i * out;
    for (size_t o = 0; o < out; ++o) acc[o] += a * static_cast<int32_t>(wr[o]);
  }
}

inline __attribute__((always_inline)) void Int16GemvBody(
    const int32_t* qa, const int16_t* w, size_t in, size_t out, int64_t* acc) {
  for (size_t i = 0; i < in; ++i) {
    const int64_t a = qa[i];
    if (a == 0) continue;
    const int16_t* wr = w + i * out;
    for (size_t o = 0; o < out; ++o) acc[o] += a * static_cast<int64_t>(wr[o]);
  }
}

#ifdef LPA_NN_X86_DISPATCH
__attribute__((target("avx2"))) void QuantizeRowAvx2(
    const double* a, size_t n, double inv, double qmax, int32_t* qa) {
  QuantizeRowBody(a, n, inv, qmax, qa);
}
__attribute__((target("avx2"))) void Int8GemvAvx2(
    const int32_t* qa, const int8_t* w, size_t in, size_t out, int32_t* acc) {
  Int8GemvBody(qa, w, in, out, acc);
}
__attribute__((target("avx2"))) void Int16GemvAvx2(
    const int32_t* qa, const int16_t* w, size_t in, size_t out, int64_t* acc) {
  Int16GemvBody(qa, w, in, out, acc);
}
#endif

void QuantizeRow(const double* a, size_t n, double inv, double qmax,
                 int32_t* qa) {
#ifdef LPA_NN_X86_DISPATCH
  if (kernels::CpuSupports(kernels::Isa::kAvx2)) {
    return QuantizeRowAvx2(a, n, inv, qmax, qa);
  }
#endif
  QuantizeRowBody(a, n, inv, qmax, qa);
}

void Int8Gemv(const int32_t* qa, const int8_t* w, size_t in, size_t out,
              int32_t* acc) {
#ifdef LPA_NN_X86_DISPATCH
  if (kernels::CpuSupports(kernels::Isa::kAvx2)) {
    return Int8GemvAvx2(qa, w, in, out, acc);
  }
#endif
  Int8GemvBody(qa, w, in, out, acc);
}

void Int16Gemv(const int32_t* qa, const int16_t* w, size_t in, size_t out,
               int64_t* acc) {
#ifdef LPA_NN_X86_DISPATCH
  if (kernels::CpuSupports(kernels::Isa::kAvx2)) {
    return Int16GemvAvx2(qa, w, in, out, acc);
  }
#endif
  Int16GemvBody(qa, w, in, out, acc);
}

}  // namespace

Result<QuantizedMlp> QuantizedMlp::Quantize(const Mlp& mlp,
                                            const Matrix& calibration,
                                            QuantPrecision precision) {
  if (calibration.rows() == 0) {
    return Status::InvalidArgument("quantize: empty calibration sample");
  }
  if (calibration.cols() != static_cast<size_t>(mlp.input_dim())) {
    return Status::InvalidArgument(
        "quantize: calibration width does not match the network input");
  }
  const double qmax = QMax(precision);

  QuantizedMlp q;
  q.precision_ = precision;
  q.input_dim_ = mlp.input_dim();
  q.output_dim_ = mlp.output_dim();
  q.layers_.resize(mlp.num_layers());

  // Walk the network in fp64, fixing each layer's activation scale from the
  // calibration sample's input distribution before quantizing its weights.
  Matrix acts = calibration;
  for (size_t l = 0; l < mlp.num_layers(); ++l) {
    const Matrix& w = mlp.layer_weights(l);
    const Matrix& b = mlp.layer_bias(l);
    QLayer& layer = q.layers_[l];
    layer.in = w.rows();
    layer.out = w.cols();

    const double amax = MaxAbs(acts);
    layer.in_scale = amax > 0.0 ? amax / qmax : 1.0;
    layer.inv_in_scale = 1.0 / layer.in_scale;
    const double wmax = MaxAbs(w);
    layer.w_scale = wmax > 0.0 ? wmax / qmax : 1.0;

    const size_t n = layer.in * layer.out;
    if (precision == QuantPrecision::kInt8) {
      layer.w8.resize(n);
      for (size_t i = 0; i < n; ++i) {
        layer.w8[i] = static_cast<int8_t>(
            QuantizeValue(w.data()[i], layer.w_scale, qmax));
      }
    } else {
      layer.w16.resize(n);
      for (size_t i = 0; i < n; ++i) {
        layer.w16[i] = static_cast<int16_t>(
            QuantizeValue(w.data()[i], layer.w_scale, qmax));
      }
    }
    layer.bias.assign(b.data().begin(), b.data().end());

    // Advance the calibration activations in fp64 (ReLU on hidden layers).
    const bool last = l + 1 == mlp.num_layers();
    Matrix next(acts.rows(), layer.out);
    for (size_t r = 0; r < acts.rows(); ++r) {
      for (size_t o = 0; o < layer.out; ++o) {
        double z = b.at(0, o);
        for (size_t i = 0; i < layer.in; ++i) {
          const double av = acts.at(r, i);
          if (av == 0.0) continue;
          z += av * w.at(i, o);
        }
        next.at(r, o) = last ? z : std::max(0.0, z);
      }
    }
    acts = std::move(next);
  }
  return q;
}

void QuantizedMlp::LayerForward(size_t l, const std::vector<int32_t>& qa,
                                double* z, Scratch* scratch) const {
  const QLayer& layer = layers_[l];
  const double scale = layer.in_scale * layer.w_scale;
  if (precision_ == QuantPrecision::kInt8) {
    // int8 × int8 terms are ≤ 127² = 16129, so int32 accumulation holds
    // ~130k inputs — far beyond any state encoding here.
    std::vector<int32_t>& acc = scratch->acc32;
    acc.assign(layer.out, 0);
    Int8Gemv(qa.data(), layer.w8.data(), layer.in, layer.out, acc.data());
    for (size_t o = 0; o < layer.out; ++o) {
      z[o] = static_cast<double>(acc[o]) * scale + layer.bias[o];
    }
  } else {
    // int16 × int16 terms reach ~1.07e9; accumulate in int64.
    std::vector<int64_t>& acc = scratch->acc64;
    acc.assign(layer.out, 0);
    Int16Gemv(qa.data(), layer.w16.data(), layer.in, layer.out, acc.data());
    for (size_t o = 0; o < layer.out; ++o) {
      z[o] = static_cast<double>(acc[o]) * scale + layer.bias[o];
    }
  }
}

void QuantizedMlp::ForwardRow(const double* x, double* out,
                              Scratch* scratch) const {
  const double qmax = QMax(precision_);
  std::vector<double>& a = scratch->a;
  std::vector<double>& z = scratch->z;
  std::vector<int32_t>& qa = scratch->qa;
  a.assign(x, x + input_dim_);
  for (size_t l = 0; l < layers_.size(); ++l) {
    const QLayer& layer = layers_[l];
    qa.resize(layer.in);
    QuantizeRow(a.data(), layer.in, layer.inv_in_scale, qmax, qa.data());
    const bool last = l + 1 == layers_.size();
    if (last) {
      LayerForward(l, qa, out, scratch);
      return;
    }
    z.resize(layer.out);
    LayerForward(l, qa, z.data(), scratch);
    a.resize(layer.out);
    for (size_t o = 0; o < layer.out; ++o) a[o] = std::max(0.0, z[o]);
  }
}

std::vector<double> QuantizedMlp::Forward(const std::vector<double>& x) const {
  LPA_CHECK(static_cast<int>(x.size()) == input_dim_);
  Scratch scratch;
  std::vector<double> out(static_cast<size_t>(output_dim_));
  ForwardRow(x.data(), out.data(), &scratch);
  return out;
}

Matrix QuantizedMlp::Forward(const Matrix& x) const {
  LPA_CHECK(x.cols() == static_cast<size_t>(input_dim_));
  Matrix out(x.rows(), static_cast<size_t>(output_dim_));
  Scratch scratch;  // shared across rows; every buffer is fully rewritten
  for (size_t r = 0; r < x.rows(); ++r) {
    ForwardRow(x.row(r), out.row(r), &scratch);
  }
  return out;
}

size_t QuantizedMlp::weight_bytes() const {
  size_t bytes = 0;
  for (const QLayer& layer : layers_) {
    bytes += layer.w8.size() * sizeof(int8_t) +
             layer.w16.size() * sizeof(int16_t);
  }
  return bytes;
}

}  // namespace lpa::nn
