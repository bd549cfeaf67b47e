#include "nn/kernels.h"

#include <cstring>

// Every kernel body below is written once, as an always-inline template over
// the lane count L, with GCC vector extensions for the arithmetic. Each
// variant at the bottom instantiates the bodies inside a function compiled
// for its instruction set, so a lane is a vector lane of that unit:
//
//   baseline (x86-64: SSE2)  L = 2    tiles of up to  8 vectors
//   AVX2                     L = 4    tiles of up to  8 vectors
//   AVX-512                  L = 8    tiles of up to 16 vectors
//
// Results are the same bits at every width. Lanes are independent output
// elements, and each element sees the scalar code's operations in the
// scalar code's order: a multiply, then an add (the build pins
// -ffp-contract=off, so the compiler never fuses them into an FMA), over
// ascending p; sqrt and division are correctly rounded in every unit. This
// file also builds with -fno-math-errno so that the per-lane sqrt below
// vectorizes; the values it computes are the same.

namespace lpa::nn::kernels {

namespace {

template <int L>
struct Lanes {
  typedef double V __attribute__((vector_size(L * sizeof(double))));
};
template <>
struct Lanes<1> {
  typedef double V;
};

#define LPA_INLINE inline __attribute__((always_inline))

template <class V>
LPA_INLINE void Load(V& v, const double* p) {
  std::memcpy(&v, p, sizeof(V));
}

template <class V>
LPA_INLINE void Store(double* p, const V& v) {
  std::memcpy(p, &v, sizeof(V));
}

template <int L>
LPA_INLINE void Sqrt(typename Lanes<L>::V& v) {
  if constexpr (L == 1) {
    v = __builtin_sqrt(v);
  } else {
    for (int l = 0; l < L; ++l) v[l] = __builtin_sqrt(v[l]);
  }
}

// --- GEMM --------------------------------------------------------------------
//
// One row of C at a time. The row's terms are first compacted: for a block of
// up to kBlock ascending p, the nonzero a(i, p) (all of them without the
// zero-skip) and the B rows they scale. A tile of up to R vectors of C then
// stays in registers while the whole block of terms streams through it, so C
// is written once per block. Rows with more terms than one block store the
// partial sums and reload them for the next block, which continues the same
// ascending-p sum.
//
// Tails are exact without masked loads. When a tile's width is not a
// multiple of L, its last vector is shifted left to end at the tile's last
// column and overlaps the vector before it. Both vectors load the same
// partial sums before either stores, and the overlapping lanes compute their
// elements again from the same terms in the same order, so the second store
// writes the bits the first one did. Tiles never overlap each other (a
// tile's reload must not see another tile's stores from the same block). A
// row narrower than L runs with half-width vectors.

constexpr size_t kBlock = 256;

struct Terms {
  const double* brow[kBlock];
  double a[kBlock];
  size_t count = 0;
};

/// Columns [j0, j0 + width) of one C row, L <= width <= R * L: vector r
/// covers columns j0 + min(r * L, width - L) onwards.
template <int L, int R>
LPA_INLINE void Tile(const Terms& t, size_t j0, size_t width, double* crow,
                     bool first, bool last, const GemmArgs& g) {
  using V = typename Lanes<L>::V;
  size_t off[R];
  for (int r = 0; r < R; ++r) off[r] = j0 + static_cast<size_t>(r) * L;
  off[R - 1] = j0 + width - L;
  V acc[R];
#pragma GCC unroll 16
  for (int r = 0; r < R; ++r) {
    if (first) {
      acc[r] = V{};
    } else {
      Load(acc[r], crow + off[r]);
    }
  }
  for (size_t q = 0; q < t.count; ++q) {
    const double av = t.a[q];
    const double* brow = t.brow[q];
#pragma GCC unroll 16
    for (int r = 0; r < R; ++r) {
      V bv;
      Load(bv, brow + off[r]);
      const V prod = av * bv;
      acc[r] = acc[r] + prod;
    }
  }
#pragma GCC unroll 16
  for (int r = 0; r < R; ++r) {
    V v = acc[r];
    if (last && g.bias != nullptr) {
      V bv;
      Load(bv, g.bias + off[r]);
      v = v + bv;
    }
    if (last && g.relu) {
      const V zero{};
      v = v > zero ? v : zero;
    }
    Store(crow + off[r], v);
  }
}

/// Tile<L, R> for the runtime vector count `r` in [1, R].
template <int L, int R>
LPA_INLINE void TileOf(int r, const Terms& t, size_t j0, size_t width,
                       double* crow, bool first, bool last,
                       const GemmArgs& g) {
  if constexpr (R > 1) {
    if (r < R) return TileOf<L, R - 1>(r, t, j0, width, crow, first, last, g);
  }
  Tile<L, R>(t, j0, width, crow, first, last, g);
}

/// Every column of one C row, in tiles of at most R vectors of L lanes.
template <int L, int R>
LPA_INLINE void RowColumns(const Terms& t, size_t n, double* crow,
                           bool first, bool last, const GemmArgs& g) {
  if constexpr (L > 1) {
    if (n < static_cast<size_t>(L)) {
      return RowColumns<L / 2, 2>(t, n, crow, first, last, g);
    }
  }
  constexpr size_t kTile = static_cast<size_t>(R) * L;
  size_t j0 = 0;
  while (n - j0 > kTile) {
    // A full tile, unless it would leave the last tile less than a vector.
    const size_t width = n - j0 - kTile < L ? n - j0 - L : kTile;
    TileOf<L, R>(static_cast<int>((width + L - 1) / L), t, j0, width, crow,
                 first, last, g);
    j0 += width;
  }
  const size_t width = n - j0;
  TileOf<L, R>(static_cast<int>((width + L - 1) / L), t, j0, width, crow,
               first, last, g);
}

template <int L, int R, bool kSkipZero>
LPA_INLINE void GemmRowsBody(const GemmArgs& g, size_t begin, size_t end) {
  if (g.n == 0) return;
  Terms t;
  for (size_t i = begin; i < end; ++i) {
    const double* arow = g.a + i * g.a_row;
    double* crow = g.c + i * (g.c_row != 0 ? g.c_row : g.n);
    size_t p0 = 0;
    do {
      const size_t p1 = g.k - p0 < kBlock ? g.k : p0 + kBlock;
      t.count = 0;
      for (size_t p = p0; p < p1; ++p) {
        const double av = arow[p * g.a_col];
        t.a[t.count] = av;
        t.brow[t.count] = g.b + p * g.n;
        t.count += kSkipZero ? (av != 0.0) : 1;
      }
      RowColumns<L, R>(t, g.n, crow, p0 == 0, p1 == g.k, g);
      p0 = p1;
    } while (p0 < g.k);
  }
}

template <int L, int R>
LPA_INLINE void GemmRowsImpl(const GemmArgs& g, size_t begin, size_t end) {
  if (g.skip_zero) {
    GemmRowsBody<L, R, true>(g, begin, end);
  } else {
    GemmRowsBody<L, R, false>(g, begin, end);
  }
}

// --- Elementwise passes ------------------------------------------------------
//
// Vectors of L elements, then the last fewer-than-L elements one at a time
// (unlike a product's tail, an update must not run twice on an element).

/// With kUnbiased1 (bias1 == 1.0), m / bias1 is m, so the division is left
/// out: it is one of the three divisions that bound this pass.
template <int L, bool kUnbiased1>
LPA_INLINE void AdamBody(const AdamArgs& s, size_t begin, size_t end) {
  using V = typename Lanes<L>::V;
  const double c1 = 1.0 - s.b1;
  const double c2 = 1.0 - s.b2;
  const double keep = 1.0 - s.tau;
  size_t i = begin;
  for (; end - i >= static_cast<size_t>(L); i += L) {
    V g, m, v, p;
    Load(g, s.grad + i);
    Load(m, s.m + i);
    Load(v, s.v + i);
    Load(p, s.param + i);
    m = s.b1 * m + c1 * g;
    v = s.b2 * v + (c2 * g) * g;
    V mhat = m;
    if constexpr (!kUnbiased1) mhat = m / s.bias1;
    V root = v / s.bias2;
    Sqrt<L>(root);
    p = p - (s.lr * mhat) / (root + s.eps);
    Store(s.m + i, m);
    Store(s.v + i, v);
    Store(s.param + i, p);
    if (s.target != nullptr) {
      V w;
      Load(w, s.target + i);
      w = keep * w + s.tau * p;
      Store(s.target + i, w);
    }
  }
  if constexpr (L > 1) {
    if (i < end) AdamBody<1, kUnbiased1>(s, i, end);
  }
}

template <int L>
LPA_INLINE void AdamImpl(const AdamArgs& s, size_t begin, size_t end) {
  if (s.bias1 == 1.0) {
    AdamBody<L, true>(s, begin, end);
  } else {
    AdamBody<L, false>(s, begin, end);
  }
}

template <int L>
LPA_INLINE void PolyakImpl(double* dst, const double* src, double tau,
                           size_t begin, size_t end) {
  using V = typename Lanes<L>::V;
  const double keep = 1.0 - tau;
  size_t i = begin;
  for (; end - i >= static_cast<size_t>(L); i += L) {
    V d, s;
    Load(d, dst + i);
    Load(s, src + i);
    d = keep * d + tau * s;
    Store(dst + i, d);
  }
  if constexpr (L > 1) {
    if (i < end) PolyakImpl<1>(dst, src, tau, i, end);
  }
}

template <int L>
LPA_INLINE void BiasGradImpl(double* delta, const double* out, size_t rows,
                             size_t n, size_t row, size_t j_begin,
                             double* db) {
  using V = typename Lanes<L>::V;
  size_t j = j_begin;
  for (; n - j >= static_cast<size_t>(L); j += L) {
    V sum{};
    for (size_t r = 0; r < rows; ++r) {
      V d;
      Load(d, delta + r * row + j);
      if (out != nullptr) {
        V o;
        Load(o, out + r * row + j);
        const V zero{};
        d = o <= zero ? zero : d;
        Store(delta + r * row + j, d);
      }
      sum = sum + d;
    }
    Store(db + j, sum);
  }
  if constexpr (L > 1) {
    if (j < n) BiasGradImpl<1>(delta, out, rows, n, row, j, db);
  }
}

/// x * 0.0 is +-0 for a finite x and NaN otherwise, so the lanes' sums stay
/// zero exactly when every element is finite.
template <int L>
LPA_INLINE bool AllFiniteImpl(const double* p, size_t n) {
  using V = typename Lanes<L>::V;
  V acc{};
  size_t i = 0;
  for (; n - i >= static_cast<size_t>(L); i += L) {
    V x;
    Load(x, p + i);
    acc = acc + x * 0.0;
  }
  bool finite = true;
  if constexpr (L > 1) {
    for (int l = 0; l < L; ++l) finite = finite && acc[l] == 0.0;
    return finite && AllFiniteImpl<1>(p + i, n - i);
  } else {
    return acc == 0.0;
  }
}

#undef LPA_INLINE

// --- Variants ----------------------------------------------------------------

#define LPA_NN_VARIANT(ns, attr, kLanes, kTileVectors)                        \
  namespace ns {                                                              \
  attr void GemmRows(const GemmArgs& g, size_t begin, size_t end) {           \
    GemmRowsImpl<kLanes, kTileVectors>(g, begin, end);                        \
  }                                                                           \
  attr void Adam(const AdamArgs& s, size_t begin, size_t end) {               \
    AdamImpl<kLanes>(s, begin, end);                                          \
  }                                                                           \
  attr void Polyak(double* dst, const double* src, double tau, size_t begin,  \
                   size_t end) {                                              \
    PolyakImpl<kLanes>(dst, src, tau, begin, end);                            \
  }                                                                           \
  attr void BiasGrad(double* delta, const double* out, size_t rows, size_t n, \
                     size_t row, double* db) {                                \
    BiasGradImpl<kLanes>(delta, out, rows, n, row, 0, db);                    \
  }                                                                           \
  attr bool AllFinite(const double* p, size_t n) {                            \
    return AllFiniteImpl<kLanes>(p, n);                                       \
  }                                                                           \
  constexpr Ops kOps{&GemmRows, &Adam, &Polyak, &BiasGrad, &AllFinite};       \
  }

LPA_NN_VARIANT(baseline, , 2, 8)
#ifdef LPA_NN_X86_DISPATCH
LPA_NN_VARIANT(avx2, __attribute__((target("avx2"))), 4, 8)
LPA_NN_VARIANT(avx512, __attribute__((target("avx512f"))), 8, 16)
#endif

#undef LPA_NN_VARIANT

}  // namespace

bool CpuSupports(Isa isa) {
#ifdef LPA_NN_X86_DISPATCH
  static const bool avx2 = (__builtin_cpu_init(),
                            __builtin_cpu_supports("avx2"));
  static const bool avx512 = __builtin_cpu_supports("avx512f");
  if (isa == Isa::kAvx512) return avx512;
  if (isa == Isa::kAvx2) return avx2;
#endif
  return isa == Isa::kBaseline;
}

const Ops& OpsFor(Isa isa) {
#ifdef LPA_NN_X86_DISPATCH
  if (isa == Isa::kAvx512) return avx512::kOps;
  if (isa == Isa::kAvx2) return avx2::kOps;
#endif
  (void)isa;
  return baseline::kOps;
}

const Ops& Active() {
  static const Ops& ops = OpsFor(CpuSupports(Isa::kAvx512) ? Isa::kAvx512
                                 : CpuSupports(Isa::kAvx2) ? Isa::kAvx2
                                                           : Isa::kBaseline);
  return ops;
}

}  // namespace lpa::nn::kernels
