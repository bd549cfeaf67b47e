#pragma once

#include <cassert>
#include <cstddef>
#include <vector>

#include "util/thread_pool.h"

namespace lpa::nn {

/// \brief Dense row-major double matrix used by the neural network layers.
///
/// Deliberately minimal: the Q-networks of the paper are two small hidden
/// layers (128-64). Its products run on the register-tiled vector kernels of
/// nn/kernels.h.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }

  double& at(size_t r, size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double at(size_t r, size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  double* row(size_t r) { return data_.data() + r * cols_; }
  const double* row(size_t r) const { return data_.data() + r * cols_; }

  std::vector<double>& data() { return data_; }
  const std::vector<double>& data() const { return data_; }

  void Fill(double v) { std::fill(data_.begin(), data_.end(), v); }

  /// \brief Reshape to rows x cols, reusing the buffer. Elements keep
  /// whatever they held (new ones are zero): callers overwrite them all.
  void Resize(size_t rows, size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  /// \brief Construct a 1 x n matrix from a vector (one input row).
  static Matrix FromRow(const std::vector<double>& v) {
    Matrix m(1, v.size());
    std::copy(v.begin(), v.end(), m.data_.begin());
    return m;
  }

  /// \brief Construct a b x n matrix from b rows of equal length.
  static Matrix FromRows(const std::vector<std::vector<double>>& rows);

  bool operator==(const Matrix&) const = default;

 private:
  size_t rows_;
  size_t cols_;
  std::vector<double> data_;
};

/// \brief C = A * B (A: m x k, B: k x n). C must be pre-sized m x n and is
/// overwritten. Every element C(i, j) is a sum over ascending p of
/// separately rounded products, started from +0.0; terms with A(i, p) == 0
/// are skipped (one-hot inputs are mostly zero). With `bias` ([1 x n]) each
/// element becomes sum + bias(0, j), and with `relu` then v > 0 ? v : 0 —
/// both applied as the element is stored. Work is partitioned over rows of
/// C only, so each output element is accumulated by exactly one thread in
/// that order — results are bit-identical at every thread count and vector
/// width. Small products (fewer flops than one chunk is worth) run inline
/// regardless of the pool.
void Gemm(const Matrix& a, const Matrix& b, Matrix* c,
          ThreadPool* pool = nullptr, const Matrix* bias = nullptr,
          bool relu = false);

/// \brief T = (rows [begin, end) of M)^T, resizing T to M.cols() x
/// (end - begin).
void TransposeRows(const Matrix& m, size_t begin, size_t end, Matrix* t);

}  // namespace lpa::nn
