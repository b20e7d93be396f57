#include "nn/matrix.h"

#include <algorithm>
#include <utility>
#include "nn/contract.h"
#include "nn/simd_gemm.h"

namespace lead::nn {

Matrix Matrix::Full(int rows, int cols, float value) {
  Matrix m(rows, cols);
  m.Fill(value);
  return m;
}

Matrix Matrix::RowVector(std::vector<float> values) {
  const int n = static_cast<int>(values.size());
  return Matrix(1, n, std::move(values));
}

Matrix Matrix::Uniform(int rows, int cols, float bound, Rng* rng) {
  Matrix m(rows, cols);
  for (int i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng->Uniform(-bound, bound));
  }
  return m;
}

void Matrix::Fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

void GemmAccumulateRaw(const float* a, const float* b, float* out, int m,
                       int k, int n) {
  // Register-blocked i-k-j: 4 rows of a share one streaming pass over b,
  // so each b row is loaded once per 4 output rows instead of once per
  // output row. The inner loop is branch-free (the old `a_ip == 0`
  // shortcut is an unpredictable branch on dense operands; see
  // MatMulAccumulateSparseA). On AVX2-capable CPUs the same blocking runs
  // 8 lanes wide with identical per-element rounding (simd_gemm.h).
  if (internal::GemmAvx512Available()) {
    internal::GemmAccumulateRawAvx512(a, b, out, m, k, n);
    return;
  }
  if (internal::GemmAvx2Available()) {
    internal::GemmAccumulateRawAvx2(a, b, out, m, k, n);
    return;
  }
  auto row_of = [](const float* base, int r, int stride) {
    return base + static_cast<size_t>(r) * static_cast<size_t>(stride);
  };
  int i = 0;
  for (; i + 4 <= m; i += 4) {
    const float* a0 = row_of(a, i, k);
    const float* a1 = row_of(a, i + 1, k);
    const float* a2 = row_of(a, i + 2, k);
    const float* a3 = row_of(a, i + 3, k);
    float* o0 = out + static_cast<size_t>(i) * static_cast<size_t>(n);
    float* o1 = o0 + n;
    float* o2 = o1 + n;
    float* o3 = o2 + n;
    for (int p = 0; p < k; ++p) {
      const float a0p = a0[p];
      const float a1p = a1[p];
      const float a2p = a2[p];
      const float a3p = a3[p];
      const float* b_row = row_of(b, p, n);
      for (int j = 0; j < n; ++j) {
        const float bj = b_row[j];
        o0[j] += a0p * bj;
        o1[j] += a1p * bj;
        o2[j] += a2p * bj;
        o3[j] += a3p * bj;
      }
    }
  }
  for (; i < m; ++i) {
    const float* a_row = row_of(a, i, k);
    float* out_row = out + static_cast<size_t>(i) * static_cast<size_t>(n);
    for (int p = 0; p < k; ++p) {
      const float a_ip = a_row[p];
      const float* b_row = row_of(b, p, n);
      for (int j = 0; j < n; ++j) {
        out_row[j] += a_ip * b_row[j];
      }
    }
  }
}

void GemmOverwriteRaw(const float* a, const float* b, float* out, int m,
                      int k, int n) {
  if (internal::GemmAvx512Available()) {
    internal::GemmOverwriteRawAvx512(a, b, out, m, k, n);
    return;
  }
  if (internal::GemmAvx2Available()) {
    internal::GemmOverwriteRawAvx2(a, b, out, m, k, n);
    return;
  }
  // Scalar fallback: zero-fill then accumulate — the reference sequence
  // the SIMD overwrite variants reproduce with register accumulators.
  std::fill(out, out + static_cast<size_t>(m) * static_cast<size_t>(n),
            0.0f);
  GemmAccumulateRaw(a, b, out, m, k, n);
}

void EwAddRaw(const float* a, const float* b, float* out, int n) {
  if (internal::GemmAvx512Available()) {
    internal::EwAddAvx512(a, b, out, n);
  } else if (internal::GemmAvx2Available()) {
    internal::EwAddAvx2(a, b, out, n);
  } else {
    for (int i = 0; i < n; ++i) out[i] = a[i] + b[i];
  }
}

void EwAddBiasRowRaw(const float* a, const float* brow, float* out,
                     int rows, int cols) {
  if (internal::GemmAvx512Available()) {
    internal::EwAddBiasRowAvx512(a, brow, out, rows, cols);
  } else if (internal::GemmAvx2Available()) {
    internal::EwAddBiasRowAvx2(a, brow, out, rows, cols);
  } else {
    for (int r = 0; r < rows; ++r) {
      const float* arow =
          a + static_cast<size_t>(r) * static_cast<size_t>(cols);
      float* orow = out + static_cast<size_t>(r) * static_cast<size_t>(cols);
      for (int c = 0; c < cols; ++c) orow[c] = arow[c] + brow[c];
    }
  }
}

void EwMulRaw(const float* a, const float* b, float* out, int n) {
  if (internal::GemmAvx512Available()) {
    internal::EwMulAvx512(a, b, out, n);
  } else if (internal::GemmAvx2Available()) {
    internal::EwMulAvx2(a, b, out, n);
  } else {
    for (int i = 0; i < n; ++i) out[i] = a[i] * b[i];
  }
}

void EwScaleRowsRaw(const float* a, const float* s, float* out, int rows,
                    int cols) {
  if (internal::GemmAvx512Available()) {
    internal::EwScaleRowsAvx512(a, s, out, rows, cols);
  } else if (internal::GemmAvx2Available()) {
    internal::EwScaleRowsAvx2(a, s, out, rows, cols);
  } else {
    for (int r = 0; r < rows; ++r) {
      const float* arow =
          a + static_cast<size_t>(r) * static_cast<size_t>(cols);
      float* orow = out + static_cast<size_t>(r) * static_cast<size_t>(cols);
      const float sv = s[r];
      for (int c = 0; c < cols; ++c) orow[c] = arow[c] * sv;
    }
  }
}

void MatMulAccumulate(const Matrix& a, const Matrix& b, Matrix* out) {
  contract::RequireInner("MatMulAccumulate", a, b);
  LEAD_CHECK_EQ(a.cols(), b.rows());
  LEAD_CHECK_EQ(out->rows(), a.rows());
  LEAD_CHECK_EQ(out->cols(), b.cols());
  GemmAccumulateRaw(a.data(), b.data(), out->data(), a.rows(), a.cols(),
                    b.cols());
}

void MatMulAccumulateSparseA(const Matrix& a, const Matrix& b, Matrix* out) {
  LEAD_CHECK_EQ(a.cols(), b.rows());
  LEAD_CHECK_EQ(out->rows(), a.rows());
  LEAD_CHECK_EQ(out->cols(), b.cols());
  const int m = a.rows();
  const int k = a.cols();
  const int n = b.cols();
  for (int i = 0; i < m; ++i) {
    const float* a_row = a.row(i);
    float* out_row = out->row(i);
    for (int p = 0; p < k; ++p) {
      const float a_ip = a_row[p];
      // Exact-zero skip: only multiplications by literal 0 are elided,
      // so the result is bit-identical to the dense loop.
      if (a_ip == 0.0f) continue;  // lead-lint: allow(float-eq)
      const float* b_row = b.row(p);
      for (int j = 0; j < n; ++j) {
        out_row[j] += a_ip * b_row[j];
      }
    }
  }
}

void MatMulTransposeAAccumulate(const Matrix& a, const Matrix& b,
                                Matrix* out) {
  LEAD_CHECK_EQ(a.rows(), b.rows());
  LEAD_CHECK_EQ(out->rows(), a.cols());
  LEAD_CHECK_EQ(out->cols(), b.cols());
  const int k = a.rows();
  const int m = a.cols();
  const int n = b.cols();
  // Blocked over 4 shared rows of a/b per sweep so each out row is
  // loaded/stored once per 4 accumulated rank-1 updates.
  int p = 0;
  for (; p + 4 <= k; p += 4) {
    const float* a0 = a.row(p);
    const float* a1 = a.row(p + 1);
    const float* a2 = a.row(p + 2);
    const float* a3 = a.row(p + 3);
    const float* b0 = b.row(p);
    const float* b1 = b.row(p + 1);
    const float* b2 = b.row(p + 2);
    const float* b3 = b.row(p + 3);
    for (int i = 0; i < m; ++i) {
      const float a0i = a0[i];
      const float a1i = a1[i];
      const float a2i = a2[i];
      const float a3i = a3[i];
      float* out_row = out->row(i);
      for (int j = 0; j < n; ++j) {
        out_row[j] += a0i * b0[j] + a1i * b1[j] + a2i * b2[j] + a3i * b3[j];
      }
    }
  }
  for (; p < k; ++p) {
    const float* a_row = a.row(p);
    const float* b_row = b.row(p);
    for (int i = 0; i < m; ++i) {
      const float a_pi = a_row[i];
      float* out_row = out->row(i);
      for (int j = 0; j < n; ++j) {
        out_row[j] += a_pi * b_row[j];
      }
    }
  }
}

void MatMulTransposeBAccumulate(const Matrix& a, const Matrix& b,
                                Matrix* out) {
  LEAD_CHECK_EQ(a.cols(), b.cols());
  LEAD_CHECK_EQ(out->rows(), a.rows());
  LEAD_CHECK_EQ(out->cols(), b.rows());
  const int m = a.rows();
  const int k = a.cols();
  const int n = b.rows();
  // 4 dot products per pass over a_row: one load of a feeds 4 outputs.
  for (int i = 0; i < m; ++i) {
    const float* a_row = a.row(i);
    float* out_row = out->row(i);
    int j = 0;
    for (; j + 4 <= n; j += 4) {
      const float* b0 = b.row(j);
      const float* b1 = b.row(j + 1);
      const float* b2 = b.row(j + 2);
      const float* b3 = b.row(j + 3);
      float d0 = 0.0f, d1 = 0.0f, d2 = 0.0f, d3 = 0.0f;
      for (int p = 0; p < k; ++p) {
        const float av = a_row[p];
        d0 += av * b0[p];
        d1 += av * b1[p];
        d2 += av * b2[p];
        d3 += av * b3[p];
      }
      out_row[j] += d0;
      out_row[j + 1] += d1;
      out_row[j + 2] += d2;
      out_row[j + 3] += d3;
    }
    for (; j < n; ++j) {
      const float* b_row = b.row(j);
      float dot = 0.0f;
      for (int p = 0; p < k; ++p) {
        dot += a_row[p] * b_row[p];
      }
      out_row[j] += dot;
    }
  }
}

}  // namespace lead::nn
