#include "nn/matrix.h"

#include <algorithm>

#include "nn/kernels.h"

namespace lpa::nn {

Matrix Matrix::FromRows(const std::vector<std::vector<double>>& rows) {
  assert(!rows.empty());
  Matrix m(rows.size(), rows.front().size());
  for (size_t r = 0; r < rows.size(); ++r) {
    assert(rows[r].size() == m.cols());
    std::copy(rows[r].begin(), rows[r].end(), m.row(r));
  }
  return m;
}

namespace {

/// C rows [0, m) of `g` through the active kernel; see kernels::RowChunk.
void RunGemm(const kernels::GemmArgs& g, size_t m, ThreadPool* pool) {
  const kernels::Ops& ops = kernels::Active();
  kernels::ForChunks(pool, m, kernels::RowChunk(g.k * g.n),
                     [&ops, &g](size_t begin, size_t end) {
                       ops.gemm_rows(g, begin, end);
                     });
}

}  // namespace

void Gemm(const Matrix& a, const Matrix& b, Matrix* c, ThreadPool* pool,
          const Matrix* bias, bool relu) {
  assert(a.cols() == b.rows());
  assert(c->rows() == a.rows() && c->cols() == b.cols());
  assert(bias == nullptr || bias->size() == b.cols());
  kernels::GemmArgs g;
  g.a = a.data().data();
  g.a_row = a.cols();
  g.b = b.data().data();
  g.c = c->data().data();
  g.k = a.cols();
  g.n = b.cols();
  g.bias = bias != nullptr ? bias->data().data() : nullptr;
  g.relu = relu;
  RunGemm(g, a.rows(), pool);
}

void GemmTransA(const Matrix& a, const Matrix& b, Matrix* c, ThreadPool* pool) {
  assert(a.rows() == b.rows());
  assert(c->rows() == a.cols() && c->cols() == b.cols());
  // Row i of C reads column i of A; the sum over p stays in ascending order.
  kernels::GemmArgs g;
  g.a = a.data().data();
  g.a_row = 1;
  g.a_col = a.cols();
  g.b = b.data().data();
  g.c = c->data().data();
  g.k = a.rows();
  g.n = b.cols();
  RunGemm(g, a.cols(), pool);
}

void GemmTransB(const Matrix& a, const Matrix& b, Matrix* c, ThreadPool* pool,
                Matrix* bt) {
  assert(a.cols() == b.cols());
  assert(c->rows() == a.rows() && c->cols() == b.rows());
  Matrix local;
  if (bt == nullptr) bt = &local;
  bt->Resize(b.cols(), b.rows());
  // In 8 x 8 blocks, so that reads and writes both stay in a few cache lines.
  constexpr size_t kBlock = 8;
  const size_t n = b.rows(), k = b.cols();
  double* dst = bt->data().data();
  for (size_t j0 = 0; j0 < n; j0 += kBlock) {
    const size_t j1 = std::min(n, j0 + kBlock);
    for (size_t p0 = 0; p0 < k; p0 += kBlock) {
      const size_t p1 = std::min(k, p0 + kBlock);
      for (size_t j = j0; j < j1; ++j) {
        const double* brow = b.row(j);
        for (size_t p = p0; p < p1; ++p) dst[p * n + j] = brow[p];
      }
    }
  }
  kernels::GemmArgs g;
  g.a = a.data().data();
  g.a_row = a.cols();
  g.b = bt->data().data();
  g.c = c->data().data();
  g.k = a.cols();
  g.n = b.rows();
  g.skip_zero = false;
  RunGemm(g, a.rows(), pool);
}

}  // namespace lpa::nn
