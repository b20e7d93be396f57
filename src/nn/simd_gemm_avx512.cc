// AVX-512 GEMM microkernels. This file is the only translation unit
// compiled with -mavx512f (see src/nn/CMakeLists.txt) so the AVX2 and
// scalar paths never pick up EVEX encodings. It is also compiled with
// -ffp-contract=off, which here is not optional hygiene: 512-bit FMA is
// part of AVX512F itself (no -mfma needed), so without that flag the
// compiler may contract the mul+add intrinsic pairs below into vfmadd
// and change rounding, breaking the repo-wide bit-parity contracts.
// _mm512_mul_ps + _mm512_add_ps reproduce the scalar sequence exactly,
// lane by lane.
//
// Same loop order as the AVX2 file: one 16-64-column strip of `b` stays
// hot in L1 while every 4-row block accumulates against it, the 1-3
// leftover rows run as one block sharing each b load, and output tiles
// live in registers from first product to final store.
#include "nn/simd_gemm.h"

#include <cstddef>

#include "common/check.h"

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

namespace lead::nn::internal {

#if defined(__AVX512F__)

bool GemmAvx512Available() {
  static const bool supported = __builtin_cpu_supports("avx512f") != 0;
  return supported;
}

namespace {

template <typename T>
inline T* RowOf(T* base, int r, int stride) {
  return base + static_cast<size_t>(r) * static_cast<size_t>(stride);
}

// One R-row x (V * 16)-column output tile. The R rows share every load of
// the b strip; each output cell still starts at its old value (or zero)
// and accumulates p = 0..k-1 in order, product rounded then added, so the
// tile shape never changes a bit. kAccumulate selects out += a*b vs
// out = a*b (zero-started registers, bit-identical to accumulating into a
// zero-filled buffer).
template <int R, int V, bool kAccumulate>
inline void Tile(const float* a, const float* b, float* out, int k, int n,
                 int i, int j) {
  __m512 c[R][V];
  const float* ar[R];
  float* orow[R];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
    ar[r] = RowOf(a, i + r, k);
    orow[r] = RowOf(out, i + r, n) + j;
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v) {
      c[r][v] = kAccumulate ? _mm512_loadu_ps(orow[r] + 16 * v)
                            : _mm512_setzero_ps();
    }
  }
  const float* bp = b + j;
  for (int p = 0; p < k; ++p, bp += n) {
    __m512 bv[V];
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v) bv[v] = _mm512_loadu_ps(bp + 16 * v);
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const __m512 va = _mm512_set1_ps(ar[r][p]);
#pragma GCC unroll 4
      for (int v = 0; v < V; ++v) {
        c[r][v] = _mm512_add_ps(c[r][v], _mm512_mul_ps(va, bv[v]));
      }
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v) _mm512_storeu_ps(orow[r] + 16 * v, c[r][v]);
  }
}

// Scalar R-row x 1-column tile for the columns past the last 16-wide
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

// One 4-row block across one column strip (the strip of b stays in L1
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
// column: the rows share each b load, and the wider 64-column tiles give
// each row four independent accumulators.
template <int R, bool kAccumulate>
inline void LeftoverRows(const float* a, const float* b, float* out, int k,
                         int n, int i) {
  int j = 0;
  for (; j + 64 <= n; j += 64) Tile<R, 4, kAccumulate>(a, b, out, k, n, i, j);
  for (; j + 32 <= n; j += 32) Tile<R, 2, kAccumulate>(a, b, out, k, n, i, j);
  for (; j + 16 <= n; j += 16) Tile<R, 1, kAccumulate>(a, b, out, k, n, i, j);
  for (; j < n; ++j) ColumnTile<R, kAccumulate>(a, b, out, k, n, i, j);
}

template <bool kAccumulate>
void GemmAvx512Impl(const float* a, const float* b, float* out, int m,
                    int k, int n) {
  const int m4 = m - m % 4;
  int j = 0;
  for (; j + 64 <= n; j += 64) Strip<4, kAccumulate>(a, b, out, m4, k, n, j);
  for (; j + 32 <= n; j += 32) Strip<2, kAccumulate>(a, b, out, m4, k, n, j);
  for (; j + 16 <= n; j += 16) Strip<1, kAccumulate>(a, b, out, m4, k, n, j);
  for (; j < n; ++j) ColumnStrip<kAccumulate>(a, b, out, m4, k, n, j);
  switch (m - m4) {
    case 3: LeftoverRows<3, kAccumulate>(a, b, out, k, n, m4); break;
    case 2: LeftoverRows<2, kAccumulate>(a, b, out, k, n, m4); break;
    case 1: LeftoverRows<1, kAccumulate>(a, b, out, k, n, m4); break;
    default: break;
  }
}

}  // namespace

void GemmAccumulateRawAvx512(const float* a, const float* b, float* out,
                             int m, int k, int n) {
  GemmAvx512Impl<true>(a, b, out, m, k, n);
}

void GemmOverwriteRawAvx512(const float* a, const float* b, float* out,
                            int m, int k, int n) {
  GemmAvx512Impl<false>(a, b, out, m, k, n);
}

void EwAddAvx512(const float* a, const float* b, float* out, int n) {
  int i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(out + i, _mm512_add_ps(_mm512_loadu_ps(a + i),
                                            _mm512_loadu_ps(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] + b[i];
}

void EwAddBiasRowAvx512(const float* a, const float* brow, float* out,
                        int rows, int cols) {
  for (int r = 0; r < rows; ++r) {
    const float* arow = a + static_cast<size_t>(r) * static_cast<size_t>(cols);
    float* orow = out + static_cast<size_t>(r) * static_cast<size_t>(cols);
    int c = 0;
    for (; c + 16 <= cols; c += 16) {
      _mm512_storeu_ps(orow + c, _mm512_add_ps(_mm512_loadu_ps(arow + c),
                                               _mm512_loadu_ps(brow + c)));
    }
    for (; c < cols; ++c) orow[c] = arow[c] + brow[c];
  }
}

void EwMulAvx512(const float* a, const float* b, float* out, int n) {
  int i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(out + i, _mm512_mul_ps(_mm512_loadu_ps(a + i),
                                            _mm512_loadu_ps(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] * b[i];
}

void EwScaleRowsAvx512(const float* a, const float* s, float* out,
                       int rows, int cols) {
  for (int r = 0; r < rows; ++r) {
    const float* arow = a + static_cast<size_t>(r) * static_cast<size_t>(cols);
    float* orow = out + static_cast<size_t>(r) * static_cast<size_t>(cols);
    const __m512 sv = _mm512_set1_ps(s[r]);
    int c = 0;
    for (; c + 16 <= cols; c += 16) {
      _mm512_storeu_ps(orow + c, _mm512_mul_ps(_mm512_loadu_ps(arow + c),
                                               sv));
    }
    for (; c < cols; ++c) orow[c] = arow[c] * s[r];
  }
}

#else  // !defined(__AVX512F__)

bool GemmAvx512Available() { return false; }

void GemmAccumulateRawAvx512(const float*, const float*, float*, int, int,
                             int) {
  LEAD_CHECK(false);  // dispatch bug: called without AVX-512 support
}

void GemmOverwriteRawAvx512(const float*, const float*, float*, int, int,
                            int) {
  LEAD_CHECK(false);  // dispatch bug: called without AVX-512 support
}

void EwAddAvx512(const float*, const float*, float*, int) {
  LEAD_CHECK(false);  // dispatch bug: called without AVX-512 support
}

void EwAddBiasRowAvx512(const float*, const float*, float*, int, int) {
  LEAD_CHECK(false);  // dispatch bug: called without AVX-512 support
}

void EwMulAvx512(const float*, const float*, float*, int) {
  LEAD_CHECK(false);  // dispatch bug: called without AVX-512 support
}

void EwScaleRowsAvx512(const float*, const float*, float*, int, int) {
  LEAD_CHECK(false);  // dispatch bug: called without AVX-512 support
}

#endif

}  // namespace lead::nn::internal
