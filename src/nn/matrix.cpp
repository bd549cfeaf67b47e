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
  // Rows of C through the active kernel; see kernels::RowChunk.
  const kernels::Ops& ops = kernels::Active();
  kernels::ForChunks(pool, a.rows(), kernels::RowChunk(g.k * g.n),
                     [&ops, &g](size_t begin, size_t end) {
                       ops.gemm_rows(g, begin, end);
                     });
}

void TransposeRows(const Matrix& m, size_t begin, size_t end, Matrix* t) {
  assert(begin <= end && end <= m.rows());
  const size_t rows = end - begin, cols = m.cols();
  t->Resize(cols, rows);
  // In 8 x 8 blocks, so that reads and writes both stay in a few cache lines.
  constexpr size_t kBlock = 8;
  double* dst = t->data().data();
  for (size_t r0 = 0; r0 < rows; r0 += kBlock) {
    const size_t r1 = std::min(rows, r0 + kBlock);
    for (size_t c0 = 0; c0 < cols; c0 += kBlock) {
      const size_t c1 = std::min(cols, c0 + kBlock);
      for (size_t r = r0; r < r1; ++r) {
        const double* src = m.row(begin + r);
        for (size_t c = c0; c < c1; ++c) dst[c * rows + r] = src[c];
      }
    }
  }
}

}  // namespace lpa::nn
