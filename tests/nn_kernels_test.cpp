// Per-variant test of the nn/ vector kernels. Every compiled variant
// (baseline, AVX2, AVX-512) of the three products, the fused bias/ReLU
// epilogue, the bias-gradient pass and the fused Adam/Polyak pass must return
// the same bits as the plain scalar loops they replaced, which are copied
// below as the reference. Shapes cover the networks' widths (SSB 31-128-64-22,
// TPC-CH 76-128-64-70), widths below one vector, a width one past a full
// tile, and a depth beyond one block of compacted terms; inputs include exact
// zeros, -0.0, one-hot rows and infinities that the zero-skip must keep out.
// A variant this CPU cannot run is skipped.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "nn/kernels.h"
#include "nn/matrix.h"
#include "util/rng.h"

namespace lpa::nn {
namespace {

using kernels::Isa;

// --- The scalar reference loops ---------------------------------------------

void RefGemm(const Matrix& a, const Matrix& b, Matrix* c) {
  c->Fill(0.0);
  for (size_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.row(i);
    double* crow = c->row(i);
    for (size_t p = 0; p < a.cols(); ++p) {
      double av = arow[p];
      if (av == 0.0) continue;
      const double* brow = b.row(p);
      for (size_t j = 0; j < b.cols(); ++j) crow[j] += av * brow[j];
    }
  }
}

void RefGemmTransA(const Matrix& a, const Matrix& b, Matrix* c) {
  c->Fill(0.0);
  for (size_t i = 0; i < a.cols(); ++i) {
    double* crow = c->row(i);
    for (size_t p = 0; p < a.rows(); ++p) {
      double av = a.row(p)[i];
      if (av == 0.0) continue;
      const double* brow = b.row(p);
      for (size_t j = 0; j < b.cols(); ++j) crow[j] += av * brow[j];
    }
  }
}

void RefGemmTransB(const Matrix& a, const Matrix& b, Matrix* c) {
  for (size_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.row(i);
    double* crow = c->row(i);
    for (size_t j = 0; j < b.rows(); ++j) {
      const double* brow = b.row(j);
      double acc = 0.0;
      for (size_t p = 0; p < a.cols(); ++p) acc += arow[p] * brow[p];
      crow[j] = acc;
    }
  }
}

void RefBiasRelu(const Matrix& bias, bool relu, Matrix* z) {
  for (size_t r = 0; r < z->rows(); ++r) {
    for (size_t c = 0; c < z->cols(); ++c) z->at(r, c) += bias.at(0, c);
  }
  if (relu) {
    for (double& v : z->data()) v = v > 0.0 ? v : 0.0;
  }
}

void RefBiasGrad(Matrix* delta, const Matrix* out, Matrix* db) {
  if (out != nullptr) {
    for (size_t i = 0; i < delta->data().size(); ++i) {
      if (out->data()[i] <= 0.0) delta->data()[i] = 0.0;
    }
  }
  db->Fill(0.0);
  for (size_t r = 0; r < delta->rows(); ++r) {
    for (size_t c = 0; c < delta->cols(); ++c) db->at(0, c) += delta->at(r, c);
  }
}

struct AdamState {
  std::vector<double> param, m, v, grad, target;
};

void RefAdam(AdamState* s, double b1, double b2, double eps, double lr,
             int64_t t, double tau) {
  double bias1 = 1.0 - std::pow(b1, static_cast<double>(t));
  double bias2 = 1.0 - std::pow(b2, static_cast<double>(t));
  for (size_t i = 0; i < s->param.size(); ++i) {
    double g = s->grad[i];
    double& mi = s->m[i];
    double& vi = s->v[i];
    mi = b1 * mi + (1.0 - b1) * g;
    vi = b2 * vi + (1.0 - b2) * g * g;
    double mhat = mi / bias1;
    double vhat = vi / bias2;
    s->param[i] -= lr * mhat / (std::sqrt(vhat) + eps);
  }
  for (size_t i = 0; i < s->param.size(); ++i) {
    s->target[i] = (1.0 - tau) * s->target[i] + tau * s->param[i];
  }
}

// --- Inputs ------------------------------------------------------------------

/// Values in [-1, 1) with about a third exact zeros and some -0.0.
Matrix Dense(size_t rows, size_t cols, Rng* rng) {
  Matrix m(rows, cols);
  for (double& v : m.data()) {
    const double u = rng->Uniform();
    v = u < 0.25 ? 0.0 : u < 0.35 ? -0.0 : rng->Uniform(-1.0, 1.0);
  }
  return m;
}

/// Dense rows, except that every third row is one-hot.
Matrix Mixed(size_t rows, size_t cols, Rng* rng) {
  Matrix m = Dense(rows, cols, rng);
  for (size_t r = 0; r < rows; r += 3) {
    std::fill(m.row(r), m.row(r) + cols, 0.0);
    m.at(r, static_cast<size_t>(
                rng->UniformInt(0, static_cast<int64_t>(cols) - 1))) = 1.0;
  }
  return m;
}

std::vector<uint64_t> Bits(const Matrix& m) {
  std::vector<uint64_t> bits;
  for (double v : m.data()) bits.push_back(std::bit_cast<uint64_t>(v));
  return bits;
}

std::vector<uint64_t> Bits(const std::vector<double>& values) {
  std::vector<uint64_t> bits;
  for (double v : values) bits.push_back(std::bit_cast<uint64_t>(v));
  return bits;
}

/// Transposed copy of `m`: the kernels' B operand for C = A * M^T.
Matrix Transposed(const Matrix& m) {
  Matrix t(m.cols(), m.rows());
  for (size_t r = 0; r < m.rows(); ++r) {
    for (size_t c = 0; c < m.cols(); ++c) t.at(c, r) = m.at(r, c);
  }
  return t;
}

// --- The test ----------------------------------------------------------------

class KernelVariantTest : public ::testing::TestWithParam<Isa> {
 protected:
  void SetUp() override {
    if (!kernels::CpuSupports(GetParam())) {
      GTEST_SKIP() << "this CPU cannot run the variant";
    }
  }
  const kernels::Ops& ops() const { return kernels::OpsFor(GetParam()); }

  /// C = op(A) * B through the variant; `a_row`/`a_col` select op.
  Matrix Run(const Matrix& a, size_t a_row, size_t a_col, size_t m, size_t k,
             const Matrix& b, bool skip_zero, const Matrix* bias = nullptr,
             bool relu = false) const {
    Matrix c(m, b.cols(), std::numeric_limits<double>::quiet_NaN());
    kernels::GemmArgs g;
    g.a = a.data().data();
    g.a_row = a_row;
    g.a_col = a_col;
    g.b = b.data().data();
    g.c = c.data().data();
    g.k = k;
    g.n = b.cols();
    g.skip_zero = skip_zero;
    g.bias = bias != nullptr ? bias->data().data() : nullptr;
    g.relu = relu;
    // Two calls over a split row range, as the pool would run them.
    ops().gemm_rows(g, 0, m / 2);
    ops().gemm_rows(g, m / 2, m);
    return c;
  }
};

constexpr size_t kWidths[] = {1, 3, 5, 22, 64, 70, 128, 129};
constexpr size_t kDepths[] = {1, 31, 76, 128, 300};  // 300: two term blocks
constexpr size_t kRows[] = {1, 32};

TEST_P(KernelVariantTest, GemmMatchesScalarLoops) {
  Rng rng(1);
  for (size_t n : kWidths) {
    for (size_t k : kDepths) {
      for (size_t m : kRows) {
        SCOPED_TRACE(std::to_string(m) + "x" + std::to_string(k) + "x" +
                     std::to_string(n));
        Matrix a = Mixed(m, k, &rng);
        Matrix b = Dense(k, n, &rng);
        // An infinite B row behind an all-zero A column: skipped terms
        // must not turn the sums into NaN.
        const size_t p = k / 2;
        for (size_t i = 0; i < m; ++i) a.at(i, p) = 0.0;
        std::fill(b.row(p), b.row(p) + n,
                  std::numeric_limits<double>::infinity());
        Matrix want(m, n);
        RefGemm(a, b, &want);
        EXPECT_EQ(Bits(Run(a, k, 1, m, k, b, true)), Bits(want));

        const Matrix bias = Dense(1, n, &rng);
        for (bool relu : {false, true}) {
          Matrix fused = want;
          RefBiasRelu(bias, relu, &fused);
          EXPECT_EQ(Bits(Run(a, k, 1, m, k, b, true, &bias, relu)),
                    Bits(fused))
              << "relu=" << relu;
        }
      }
    }
  }
}

TEST_P(KernelVariantTest, GemmTransAMatchesScalarLoops) {
  Rng rng(2);
  for (size_t n : kWidths) {
    for (size_t k : kDepths) {
      for (size_t m : kRows) {
        SCOPED_TRACE(std::to_string(m) + "x" + std::to_string(k) + "x" +
                     std::to_string(n));
        // C (m x n) = A^T * B with A: k x m, B: k x n.
        const Matrix a = Mixed(k, m, &rng);
        const Matrix b = Dense(k, n, &rng);
        Matrix want(m, n);
        RefGemmTransA(a, b, &want);
        EXPECT_EQ(Bits(Run(a, 1, m, m, k, b, true)), Bits(want));
      }
    }
  }
}

TEST_P(KernelVariantTest, GemmTransBMatchesScalarLoops) {
  Rng rng(3);
  for (size_t n : kWidths) {
    for (size_t k : kDepths) {
      for (size_t m : kRows) {
        SCOPED_TRACE(std::to_string(m) + "x" + std::to_string(k) + "x" +
                     std::to_string(n));
        // C (m x n) = A * B^T with A: m x k, B: n x k; no term is skipped,
        // so a zero against an infinity is NaN on both sides.
        const Matrix a = Mixed(m, k, &rng);
        Matrix b = Dense(n, k, &rng);
        b.at(0, 0) = std::numeric_limits<double>::infinity();
        Matrix want(m, n);
        RefGemmTransB(a, b, &want);
        EXPECT_EQ(Bits(Run(a, k, 1, m, k, Transposed(b), false)), Bits(want));
      }
    }
  }
}

TEST_P(KernelVariantTest, BiasGradMatchesScalarLoops) {
  Rng rng(4);
  for (size_t n : kWidths) {
    for (size_t rows : kRows) {
      for (bool masked : {false, true}) {
        SCOPED_TRACE(std::to_string(rows) + "x" + std::to_string(n));
        const Matrix delta = Dense(rows, n, &rng);
        Matrix out = Dense(rows, n, &rng);
        for (double& v : out.data()) v = v > 0.0 ? v : 0.0;
        Matrix want_delta = delta;
        Matrix want_db(1, n);
        RefBiasGrad(&want_delta, masked ? &out : nullptr, &want_db);
        Matrix got_delta = delta;
        Matrix got_db(1, n, std::numeric_limits<double>::quiet_NaN());
        ops().bias_grad(got_delta.data().data(),
                        masked ? out.data().data() : nullptr, rows, n, n,
                        got_db.data().data());
        EXPECT_EQ(Bits(got_delta), Bits(want_delta));
        EXPECT_EQ(Bits(got_db), Bits(want_db));
      }
    }
  }
}

// A column block [c0, c0 + n) of wider rows, as a training step's jobs pass
// it: the same bits as the full pass's columns, and nothing outside written.
TEST_P(KernelVariantTest, BiasGradOfColumnBlockMatchesScalarLoops) {
  Rng rng(7);
  const size_t width = 129;
  for (size_t n : {1, 5, 22, 64}) {
    for (size_t c0 : {0, 3, 64}) {
      SCOPED_TRACE(std::to_string(n) + " columns from " + std::to_string(c0));
      const Matrix delta = Dense(32, width, &rng);
      Matrix out = Dense(32, width, &rng);
      for (double& v : out.data()) v = v > 0.0 ? v : 0.0;
      Matrix want_delta = delta;
      Matrix want_db(1, width);
      RefBiasGrad(&want_delta, &out, &want_db);
      Matrix got_delta = delta;
      std::vector<double> got_db(n, std::numeric_limits<double>::quiet_NaN());
      ops().bias_grad(got_delta.data().data() + c0, out.data().data() + c0, 32,
                      n, width, got_db.data());
      for (size_t r = 0; r < 32; ++r) {
        for (size_t c = 0; c < width; ++c) {
          const bool inside = c >= c0 && c < c0 + n;
          EXPECT_EQ(std::bit_cast<uint64_t>(got_delta.at(r, c)),
                    std::bit_cast<uint64_t>(inside ? want_delta.at(r, c)
                                                   : delta.at(r, c)))
              << r << "," << c;
        }
      }
      const std::vector<double> want(want_db.data().begin() + c0,
                                     want_db.data().begin() + c0 + n);
      EXPECT_EQ(Bits(got_db), Bits(want));
    }
  }
}

// The finiteness check behind the training step's sparse products.
TEST_P(KernelVariantTest, AllFiniteFindsEveryNonFiniteValue) {
  Rng rng(8);
  for (size_t n : {0, 1, 7, 8, 9, 64, 129}) {
    std::vector<double> v(n);
    for (double& x : v) x = rng.Uniform(-1e300, 1e300);
    if (n > 0) v[n / 2] = std::numeric_limits<double>::denorm_min();
    EXPECT_TRUE(ops().all_finite(v.data(), n)) << n;
    for (size_t i = 0; i < n; ++i) {
      for (double bad : {std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()}) {
        std::vector<double> w = v;
        w[i] = bad;
        EXPECT_FALSE(ops().all_finite(w.data(), n)) << n << " at " << i;
      }
    }
  }
}

/// Adam steps t_first..t_last of the variant against RefAdam, fused with the
/// Polyak update, then the standalone Polyak pass.
void ExpectAdamMatches(const kernels::Ops& ops, int64_t t_first,
                       int64_t t_last) {
  const double b1 = 0.9, b2 = 0.999, eps = 1e-8, lr = 5e-4, tau = 1e-3;
  for (size_t size : {1, 3, 7, 9, 22, 64, 4480, 9728}) {
    SCOPED_TRACE("size=" + std::to_string(size));
    Rng rng(5 + size);
    AdamState want;
    for (auto* v : {&want.param, &want.target}) {
      for (size_t i = 0; i < size; ++i) v->push_back(rng.Uniform(-1.0, 1.0));
    }
    want.m.assign(size, 0.0);
    want.v.assign(size, 0.0);
    AdamState got = want;
    for (int64_t t = t_first; t <= t_last; ++t) {
      want.grad.clear();
      for (size_t i = 0; i < size; ++i) {
        const double u = rng.Uniform();
        want.grad.push_back(u < 0.2   ? 0.0
                            : u < 0.3 ? -0.0
                            : u < 0.4 ? rng.Uniform(-1e-12, 1e-12)
                                      : rng.Uniform(-3.0, 3.0));
      }
      got.grad = want.grad;
      RefAdam(&want, b1, b2, eps, lr, t, tau);

      kernels::AdamArgs s;
      s.param = got.param.data();
      s.m = got.m.data();
      s.v = got.v.data();
      s.grad = got.grad.data();
      s.target = got.target.data();
      s.b1 = b1;
      s.b2 = b2;
      s.eps = eps;
      s.lr = lr;
      s.bias1 = 1.0 - std::pow(b1, static_cast<double>(t));
      s.bias2 = 1.0 - std::pow(b2, static_cast<double>(t));
      s.tau = tau;
      // Chunk boundaries that are not multiples of any vector width.
      const size_t split = size / 3 + 1 < size ? size / 3 + 1 : size;
      ops.adam(s, 0, split);
      ops.adam(s, split, size);
    }
    EXPECT_EQ(Bits(got.param), Bits(want.param));
    EXPECT_EQ(Bits(got.m), Bits(want.m));
    EXPECT_EQ(Bits(got.v), Bits(want.v));
    EXPECT_EQ(Bits(got.target), Bits(want.target));

    // The standalone Polyak pass (SoftUpdateFrom) alone.
    std::vector<double> dst = want.target;
    std::vector<double> ref = want.target;
    for (size_t i = 0; i < size; ++i) {
      ref[i] = (1.0 - 0.3) * ref[i] + 0.3 * want.param[i];
    }
    ops.polyak(dst.data(), want.param.data(), 0.3, 0, size);
    EXPECT_EQ(Bits(dst), Bits(ref));
  }
}

TEST_P(KernelVariantTest, FusedAdamPolyakMatchesScalarLoops) {
  ExpectAdamMatches(ops(), 1, 6);
}

// From step 356 on, 1 - 0.9^t rounds to exactly 1.0 (the first moment's
// bias correction); the steps cross that boundary.
TEST_P(KernelVariantTest, AdamPastWarmupMatchesScalarLoops) {
  ASSERT_NE(1.0 - std::pow(0.9, 355.0), 1.0);
  ASSERT_EQ(1.0 - std::pow(0.9, 356.0), 1.0);
  ExpectAdamMatches(ops(), 352, 360);
}

INSTANTIATE_TEST_SUITE_P(
    Variants, KernelVariantTest,
    ::testing::Values(Isa::kBaseline, Isa::kAvx2, Isa::kAvx512),
    [](const ::testing::TestParamInfo<Isa>& info) -> std::string {
      switch (info.param) {
        case Isa::kBaseline:
          return "Baseline";
        case Isa::kAvx2:
          return "Avx2";
        case Isa::kAvx512:
          return "Avx512";
      }
      return "Unknown";
    });

// The public product runs the active variant and must match too, at every
// thread count.
TEST(KernelDispatchTest, PublicProductsMatchScalarLoops) {
  Rng rng(6);
  ThreadPool pool(3);
  for (size_t rows : {1, 32, 300}) {
    const Matrix a = Mixed(rows, 76, &rng);
    const Matrix w = Dense(76, 70, &rng);
    Matrix want(rows, 70), got(rows, 70);
    RefGemm(a, w, &want);
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      Gemm(a, w, &got, p);
      EXPECT_EQ(Bits(got), Bits(want));
    }
  }
}

}  // namespace
}  // namespace lpa::nn
