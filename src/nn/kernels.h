#pragma once

// Internal header of nn/: the vector kernels behind Matrix's products and the
// Mlp training step, compiled once per instruction set and picked once per
// process. Callers outside nn/ use nn/matrix.h and nn/mlp.h; tests reach the
// individual variants through OpsFor().

#include <cstddef>

#include "util/thread_pool.h"

#if defined(__GNUC__) && defined(__x86_64__) && !defined(__clang__)
/// Defined when the nn/ kernels are also compiled for wider x86-64 vector
/// units and dispatched at runtime.
#define LPA_NN_X86_DISPATCH 1
#endif

namespace lpa::nn::kernels {

/// \brief The instruction sets the kernels are compiled for. Every variant
/// performs the same IEEE operations in the same order, so all of them
/// return the same bits; they differ only in how many lanes run at once.
enum class Isa { kBaseline, kAvx2, kAvx512 };

/// \brief True when this CPU can run `isa` (kBaseline always can); probed
/// once per process.
bool CpuSupports(Isa isa);

/// \brief Rows [begin, end) of C = op(A) * B.
///
/// C(i, j) = sum over ascending p of a(i, p) * B(p, j), accumulated from
/// +0.0 with a separate multiply and add per term. With `skip_zero`, terms
/// whose a(i, p) == 0.0 are left out (an infinite or NaN B entry then does
/// not reach C). The sum is stored as is, or as sum + bias[j] when `bias` is
/// set, then as v > 0 ? v : 0 when `relu` is set (NaN and -0 become +0).
struct GemmArgs {
  const double* a = nullptr;
  size_t a_row = 0;  ///< a(i, p) = a[i * a_row + p * a_col]
  size_t a_col = 1;
  const double* b = nullptr;  ///< B(p, j) = b[p * n + j], row-major k x n
  double* c = nullptr;        ///< C(i, j) = c[i * c_row + j]
  size_t c_row = 0;           ///< 0 means n; more writes a column block
  size_t k = 0;
  size_t n = 0;
  bool skip_zero = true;
  const double* bias = nullptr;
  bool relu = false;
};

/// \brief One Adam update of param[i] with gradient grad[i], for i in
/// [begin, end), in Mlp's expression order:
///   m = b1 * m + (1 - b1) * g;   v = b2 * v + ((1 - b2) * g) * g;
///   param -= (lr * (m / bias1)) / (sqrt(v / bias2) + eps).
/// Once bias1 is exactly 1.0 (from step 356 at b1 = 0.9), m / bias1 is m and
/// the division is left out. When `target` is set,
/// target[i] = (1 - tau) * target[i] + tau * param[i] follows with the
/// updated param (the Polyak update of a target network).
struct AdamArgs {
  double* param = nullptr;
  double* m = nullptr;
  double* v = nullptr;
  const double* grad = nullptr;
  double* target = nullptr;
  double b1 = 0.0, b2 = 0.0, eps = 0.0, lr = 0.0;
  double bias1 = 1.0, bias2 = 1.0;  ///< 1 - b1^t and 1 - b2^t
  double tau = 0.0;
};

/// \brief One compiled variant of every kernel.
struct Ops {
  void (*gemm_rows)(const GemmArgs& g, size_t begin, size_t end);
  void (*adam)(const AdamArgs& s, size_t begin, size_t end);
  /// dst[i] = (1 - tau) * dst[i] + tau * src[i] for i in [begin, end).
  void (*polyak)(double* dst, const double* src, double tau, size_t begin,
                 size_t end);
  /// Bias gradient of one layer: for each column j of the rows x n `delta`,
  /// first zeroes delta(r, j) where out(r, j) <= 0 (the ReLU mask; skipped
  /// when `out` is null), then db[j] = +0.0 + delta(0, j) + delta(1, j) ...
  /// Row r of delta and out starts at r * row (row >= n: a column block).
  void (*bias_grad)(double* delta, const double* out, size_t rows, size_t n,
                    size_t row, double* db);
  /// True when none of p[0, n) is infinite or NaN.
  bool (*all_finite)(const double* p, size_t n);
};

/// \brief The variant compiled for `isa`. The caller must check
/// CpuSupports(isa) first.
const Ops& OpsFor(Isa isa);

/// \brief The variant every nn/ entry point uses: the widest one this CPU
/// supports.
const Ops& Active();

/// \brief Rows per pool chunk of a product with `flops_per_row`
/// multiply-adds per row of C, so that one chunk carries at least
/// kMinFlopsPerChunk of them.
///
/// This sizes the products that Forward and the public GEMMs run on a pool,
/// one region per product. The vector kernels take 0.13-0.19 ns per
/// multiply-add on a 4-vCPU Xeon, and a row nominally worth k * n of them
/// costs up to 5x less when its inputs are mostly zero, so a chunk carries
/// 70-100 us when dense: well above the 1-2 us a region costs when the
/// workers are polling (see ThreadPool) and the ~10 us it costs when it must
/// wake them. So batch-32 products of the 128-64 networks run inline, and
/// wide ones, such as the state-action mode's stacked TD-target pass, split
/// across the pool. A training step does not split its products this way:
/// it runs a few regions of whole jobs (see kMinFlopsPerJob).
constexpr size_t kMinFlopsPerChunk = 512 * 1024;
inline size_t RowChunk(size_t flops_per_row) {
  return kMinFlopsPerChunk / (flops_per_row + 1) + 1;
}

/// \brief Multiply-adds of one forward pass per thread below which an Mlp
/// training step runs inline. A step on T threads runs each of its regions
/// as T fixed jobs, one per thread: the forward pass, with the target
/// network's, split by batch rows; the input gradient of each hidden layer
/// but the last, split by the rows of its weights; and the weight gradients
/// with the Adam and Polyak updates, split by weight rows. With the DQN's
/// two hidden layers that is three regions. 32k multiply-adds take 4-6 us,
/// a few times a polled region's hand-off. The DQN's batch-32 steps carry
/// 430k (SSB) and 720k (TPC-CH) per forward pass.
constexpr size_t kMinFlopsPerJob = 32 * 1024;

/// \brief Elements per pool chunk of SoftUpdateFrom's Polyak pass. The
/// vector pass takes about 0.3 ns per element, so a chunk of 16k carries
/// about 5 us. Every layer of the 128-64 networks (at most 76 x 128 weights)
/// then updates inline.
constexpr size_t kElemChunk = 16 * 1024;

/// \brief Runs fn(begin, end) over [0, n): on `pool` in chunks of at least
/// `chunk` indices, or inline (without building a std::function) when there
/// is no pool or at most one chunk of work — as ThreadPool::ParallelFor
/// would run it.
template <class Fn>
void ForChunks(ThreadPool* pool, size_t n, size_t chunk, const Fn& fn) {
  if (pool == nullptr || n <= chunk) {
    if (n > 0) fn(0, n);
    return;
  }
  pool->ParallelFor(n, chunk, fn);
}

}  // namespace lpa::nn::kernels
