// AVX2 GEMM microkernels. This file is the only translation unit compiled
// with -mavx2 (see src/nn/CMakeLists.txt), and with -ffp-contract=off and
// never -mfma: the scalar reference path rounds each product before
// accumulating, and a fused multiply-add would change that rounding and
// break the repo-wide bit-parity contracts (golden fixtures, plan/eager
// parity). _mm256_mul_ps + _mm256_add_ps reproduce the scalar sequence
// exactly, lane by lane.
//
// Loop order is column-strip-outer: one 8/16-column strip of `b`
// (k rows x strip width) stays hot in L1 while every output row block
// accumulates against it. The dominant detector/autoencoder shapes have
// k*n up to 64x256 (64 KiB), so streaming `b` once per strip instead of
// once per 4-row block is the difference between L1 and L2 feeding the
// inner loop. The 1-3 rows left after the 4-row blocks (the detector's
// buckets are ~3 sequences) run as one block over every column, sharing
// each b load instead of re-streaming b per row. Within one output
// element nothing reorders: products still accumulate over p = 0..k-1 in
// sequence, each rounded, then added.
#include "nn/simd_gemm.h"

#include <cstddef>

#include "common/check.h"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace lead::nn::internal {

#if defined(__AVX2__)

bool GemmAvx2Available() {
  static const bool supported = __builtin_cpu_supports("avx2") != 0;
  return supported;
}

namespace {

template <typename T>
inline T* RowOf(T* base, int r, int stride) {
  return base + static_cast<size_t>(r) * static_cast<size_t>(stride);
}

// One R-row x (V * 8)-column output tile. The R rows share every load of
// the b strip; each output cell still starts at its old value (or zero)
// and accumulates p = 0..k-1 in order, product rounded then added, so the
// tile shape never changes a bit. kAccumulate selects out += a*b vs
// out = a*b (zero-started registers, bit-identical to accumulating into a
// zero-filled buffer).
template <int R, int V, bool kAccumulate>
inline void Tile(const float* a, const float* b, float* out, int k, int n,
                 int i, int j) {
  __m256 c[R][V];
  const float* ar[R];
  float* orow[R];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
    ar[r] = RowOf(a, i + r, k);
    orow[r] = RowOf(out, i + r, n) + j;
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v) {
      c[r][v] = kAccumulate ? _mm256_loadu_ps(orow[r] + 8 * v)
                            : _mm256_setzero_ps();
    }
  }
  const float* bp = b + j;
  for (int p = 0; p < k; ++p, bp += n) {
    __m256 bv[V];
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v) bv[v] = _mm256_loadu_ps(bp + 8 * v);
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const __m256 va = _mm256_set1_ps(ar[r][p]);
#pragma GCC unroll 4
      for (int v = 0; v < V; ++v) {
        c[r][v] = _mm256_add_ps(c[r][v], _mm256_mul_ps(va, bv[v]));
      }
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v) _mm256_storeu_ps(orow[r] + 8 * v, c[r][v]);
  }
}

// Scalar R-row x 1-column tile for the columns past the last 8-wide
// strip; same per-cell order as the vector tiles.
template <int R, bool kAccumulate>
inline void ColumnTile(const float* a, const float* b, float* out, int k,
                       int n, int i, int j) {
  float c[R];
  const float* ar[R];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
    ar[r] = RowOf(a, i + r, k);
    c[r] = kAccumulate ? RowOf(out, i + r, n)[j] : 0.0f;
  }
  const float* bp = b + j;
  for (int p = 0; p < k; ++p, bp += n) {
    const float bj = *bp;
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) c[r] += ar[r][p] * bj;
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) RowOf(out, i + r, n)[j] = c[r];
}

// Every 4-row block across one column strip (the strip of b stays in L1
// while every block of rows accumulates against it).
template <int V, bool kAccumulate>
inline void Strip(const float* a, const float* b, float* out, int m4, int k,
                  int n, int j) {
  for (int i = 0; i < m4; i += 4) {
    Tile<4, V, kAccumulate>(a, b, out, k, n, i, j);
  }
}

template <bool kAccumulate>
inline void ColumnStrip(const float* a, const float* b, float* out, int m4,
                        int k, int n, int j) {
  for (int i = 0; i < m4; i += 4) {
    ColumnTile<4, kAccumulate>(a, b, out, k, n, i, j);
  }
}

// The 1-3 rows left after the 4-row blocks, as one block sweeping every
// column: the rows share each b load, and wider tiles give each row more
// independent accumulators (within the 16 ymm registers).
template <int R, bool kAccumulate>
inline void LeftoverRows(const float* a, const float* b, float* out, int k,
                         int n, int i) {
  constexpr int kWide = R == 3 ? 3 : 4;
  int j = 0;
  for (; j + 8 * kWide <= n; j += 8 * kWide) {
    Tile<R, kWide, kAccumulate>(a, b, out, k, n, i, j);
  }
  for (; j + 8 <= n; j += 8) Tile<R, 1, kAccumulate>(a, b, out, k, n, i, j);
  for (; j < n; ++j) ColumnTile<R, kAccumulate>(a, b, out, k, n, i, j);
}

template <bool kAccumulate>
void GemmAvx2Impl(const float* a, const float* b, float* out, int m, int k,
                  int n) {
  const int m4 = m - m % 4;
  int j = 0;
  for (; j + 16 <= n; j += 16) Strip<2, kAccumulate>(a, b, out, m4, k, n, j);
  for (; j + 8 <= n; j += 8) Strip<1, kAccumulate>(a, b, out, m4, k, n, j);
  for (; j < n; ++j) ColumnStrip<kAccumulate>(a, b, out, m4, k, n, j);
  switch (m - m4) {
    case 3: LeftoverRows<3, kAccumulate>(a, b, out, k, n, m4); break;
    case 2: LeftoverRows<2, kAccumulate>(a, b, out, k, n, m4); break;
    case 1: LeftoverRows<1, kAccumulate>(a, b, out, k, n, m4); break;
    default: break;
  }
}

}  // namespace

void GemmAccumulateRawAvx2(const float* a, const float* b, float* out,
                           int m, int k, int n) {
  GemmAvx2Impl<true>(a, b, out, m, k, n);
}

void GemmOverwriteRawAvx2(const float* a, const float* b, float* out,
                          int m, int k, int n) {
  GemmAvx2Impl<false>(a, b, out, m, k, n);
}

void EwAddAvx2(const float* a, const float* b, float* out, int n) {
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_add_ps(_mm256_loadu_ps(a + i),
                                            _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] + b[i];
}

void EwAddBiasRowAvx2(const float* a, const float* brow, float* out,
                      int rows, int cols) {
  for (int r = 0; r < rows; ++r) {
    const float* arow = a + static_cast<size_t>(r) * static_cast<size_t>(cols);
    float* orow = out + static_cast<size_t>(r) * static_cast<size_t>(cols);
    int c = 0;
    for (; c + 8 <= cols; c += 8) {
      _mm256_storeu_ps(orow + c, _mm256_add_ps(_mm256_loadu_ps(arow + c),
                                               _mm256_loadu_ps(brow + c)));
    }
    for (; c < cols; ++c) orow[c] = arow[c] + brow[c];
  }
}

void EwMulAvx2(const float* a, const float* b, float* out, int n) {
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_mul_ps(_mm256_loadu_ps(a + i),
                                            _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] * b[i];
}

void EwScaleRowsAvx2(const float* a, const float* s, float* out, int rows,
                     int cols) {
  for (int r = 0; r < rows; ++r) {
    const float* arow = a + static_cast<size_t>(r) * static_cast<size_t>(cols);
    float* orow = out + static_cast<size_t>(r) * static_cast<size_t>(cols);
    const __m256 sv = _mm256_set1_ps(s[r]);
    int c = 0;
    for (; c + 8 <= cols; c += 8) {
      _mm256_storeu_ps(orow + c, _mm256_mul_ps(_mm256_loadu_ps(arow + c),
                                               sv));
    }
    for (; c < cols; ++c) orow[c] = arow[c] * s[r];
  }
}

#else  // !defined(__AVX2__)

bool GemmAvx2Available() { return false; }

void GemmAccumulateRawAvx2(const float*, const float*, float*, int, int,
                           int) {
  LEAD_CHECK(false);  // dispatch bug: called without AVX2 support
}

void GemmOverwriteRawAvx2(const float*, const float*, float*, int, int,
                          int) {
  LEAD_CHECK(false);  // dispatch bug: called without AVX2 support
}

void EwAddAvx2(const float*, const float*, float*, int) {
  LEAD_CHECK(false);  // dispatch bug: called without AVX2 support
}

void EwAddBiasRowAvx2(const float*, const float*, float*, int, int) {
  LEAD_CHECK(false);  // dispatch bug: called without AVX2 support
}

void EwMulAvx2(const float*, const float*, float*, int) {
  LEAD_CHECK(false);  // dispatch bug: called without AVX2 support
}

void EwScaleRowsAvx2(const float*, const float*, float*, int, int) {
  LEAD_CHECK(false);  // dispatch bug: called without AVX2 support
}

#endif

}  // namespace lead::nn::internal
