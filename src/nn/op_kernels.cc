// Forward kernels of the autograd ops (see op_kernels.h).
//
// Kernels read TensorViews and fully overwrite their output buffer; they
// never allocate and never construct tensors (enforced by the
// matrix-in-kernel lint rule).
#include "nn/op_kernels.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "nn/matrix.h"
#include "nn/vec_math.h"

namespace lead::nn {

namespace {

inline const float* RowOf(const TensorView& v, int r) {
  return v.data + static_cast<size_t>(r) * static_cast<size_t>(v.cols);
}
inline float* OutRow(const OpCall& call, int r) {
  return call.out +
         static_cast<size_t>(r) * static_cast<size_t>(call.out_cols);
}
inline int OutSize(const OpCall& call) {
  return call.out_rows * call.out_cols;
}

}  // namespace

namespace internal {

// out = a + b; attrs.i0 != 0 means b is a [1 x n] row broadcast over rows.
void AddKernel(const OpCall& call) {
  const TensorView& a = call.in[0];
  const TensorView& b = call.in[1];
  if (call.attrs->i0 != 0) {
    EwAddBiasRowRaw(a.data, b.data, call.out, call.out_rows, call.out_cols);
  } else {
    EwAddRaw(a.data, b.data, call.out, OutSize(call));
  }
}

void SubKernel(const OpCall& call) {
  const int n = OutSize(call);
  const float* a = call.in[0].data;
  const float* b = call.in[1].data;
  for (int i = 0; i < n; ++i) call.out[i] = a[i] - b[i];
}

void MulKernel(const OpCall& call) {
  EwMulRaw(call.in[0].data, call.in[1].data, call.out, OutSize(call));
}

// out = a * attrs.f0
void ScalarMulKernel(const OpCall& call) {
  const int n = OutSize(call);
  const float* a = call.in[0].data;
  const float s = call.attrs->f0;
  for (int i = 0; i < n; ++i) call.out[i] = a[i] * s;
}

// out = a + attrs.f0
void AddScalarKernel(const OpCall& call) {
  const int n = OutSize(call);
  const float* a = call.in[0].data;
  const float s = call.attrs->f0;
  for (int i = 0; i < n; ++i) call.out[i] = a[i] + s;
}

void MatMulKernel(const OpCall& call) {
  const TensorView& a = call.in[0];
  const TensorView& b = call.in[1];
  GemmOverwriteRaw(a.data, b.data, call.out, a.rows, a.cols, b.cols);
}

void TransposeKernel(const OpCall& call) {
  const TensorView& a = call.in[0];
  for (int r = 0; r < a.rows; ++r) {
    const float* arow = RowOf(a, r);
    for (int c = 0; c < a.cols; ++c) OutRow(call, c)[r] = arow[c];
  }
}

// Tanh and Sigmoid run the bit-exact vector kernels of vec_math.h, the
// same ones the fused LSTM epilogue (infer_kernels.cc) calls.
void TanhKernel(const OpCall& call) {
  const int n = OutSize(call);
  const float* a = call.in[0].data;
  if (call.out != a) std::copy(a, a + n, call.out);
  TanhInPlace(call.out, n);
}

void SigmoidKernel(const OpCall& call) {
  const int n = OutSize(call);
  const float* a = call.in[0].data;
  if (call.out != a) std::copy(a, a + n, call.out);
  SigmoidInPlace(call.out, n);
}

void ReluKernel(const OpCall& call) {
  const int n = OutSize(call);
  const float* a = call.in[0].data;
  for (int i = 0; i < n; ++i) call.out[i] = a[i] > 0.0f ? a[i] : 0.0f;
}

// out = log(max(a, attrs.f0))
void LogKernel(const OpCall& call) {
  const int n = OutSize(call);
  const float* a = call.in[0].data;
  const float eps = call.attrs->f0;
  for (int i = 0; i < n; ++i) call.out[i] = std::log(std::max(a[i], eps));
}

void SoftmaxRowsKernel(const OpCall& call) {
  const TensorView& a = call.in[0];
  for (int r = 0; r < call.out_rows; ++r) {
    const float* arow = RowOf(a, r);
    float* orow = OutRow(call, r);
    float max_v = arow[0];
    for (int c = 1; c < call.out_cols; ++c) max_v = std::max(max_v, arow[c]);
    float sum = 0.0f;
    for (int c = 0; c < call.out_cols; ++c) {
      orow[c] = std::exp(arow[c] - max_v);
      sum += orow[c];
    }
    for (int c = 0; c < call.out_cols; ++c) orow[c] /= sum;
  }
}

// Column slice starting at attrs.i0; the width is the output width.
void SliceColsKernel(const OpCall& call) {
  const TensorView& a = call.in[0];
  const int start = call.attrs->i0;
  for (int r = 0; r < call.out_rows; ++r) {
    const float* src = RowOf(a, r) + start;
    std::copy(src, src + call.out_cols, OutRow(call, r));
  }
}

// Row slice starting at attrs.i0; the length is the output row count.
void SliceRowsKernel(const OpCall& call) {
  const TensorView& a = call.in[0];
  const int start = call.attrs->i0;
  for (int r = 0; r < call.out_rows; ++r) {
    const float* src = RowOf(a, start + r);
    std::copy(src, src + call.out_cols, OutRow(call, r));
  }
}

void ConcatRowsKernel(const OpCall& call) {
  int r0 = 0;
  for (int p = 0; p < call.num_in; ++p) {
    const TensorView& part = call.in[p];
    for (int r = 0; r < part.rows; ++r) {
      const float* src = RowOf(part, r);
      std::copy(src, src + call.out_cols, OutRow(call, r0 + r));
    }
    r0 += part.rows;
  }
}

void ConcatColsKernel(const OpCall& call) {
  int c0 = 0;
  for (int p = 0; p < call.num_in; ++p) {
    const TensorView& part = call.in[p];
    for (int r = 0; r < call.out_rows; ++r) {
      const float* src = RowOf(part, r);
      std::copy(src, src + part.cols, OutRow(call, r) + c0);
    }
    c0 += part.cols;
  }
}

void ReverseRowsKernel(const OpCall& call) {
  const TensorView& a = call.in[0];
  for (int r = 0; r < call.out_rows; ++r) {
    const float* src = RowOf(a, a.rows - 1 - r);
    std::copy(src, src + call.out_cols, OutRow(call, r));
  }
}

void SumKernel(const OpCall& call) {
  const TensorView& a = call.in[0];
  const int n = a.rows * a.cols;
  float total = 0.0f;
  for (int i = 0; i < n; ++i) total += a.data[i];
  call.out[0] = total;
}

void RowSumKernel(const OpCall& call) {
  const TensorView& a = call.in[0];
  for (int r = 0; r < call.out_rows; ++r) {
    const float* arow = RowOf(a, r);
    float total = 0.0f;
    for (int c = 0; c < a.cols; ++c) total += arow[c];
    OutRow(call, r)[0] = total;
  }
}

// out[r] = a[r] * s[r][0], s is [rows x 1].
void ScaleRowsKernel(const OpCall& call) {
  EwScaleRowsRaw(call.in[0].data, call.in[1].data, call.out,
                 call.out_rows, call.out_cols);
}

// out row i = a row attrs.ints[i].
void GatherRowsKernel(const OpCall& call) {
  const TensorView& a = call.in[0];
  const std::vector<int>& rows = call.attrs->ints;
  for (int i = 0; i < call.out_rows; ++i) {
    const float* src = RowOf(a, rows[static_cast<size_t>(i)]);
    std::copy(src, src + call.out_cols, OutRow(call, i));
  }
}

// Scalar mean of squared differences, same accumulation order as eager.
void MseLossKernel(const OpCall& call) {
  const TensorView& p = call.in[0];
  const TensorView& t = call.in[1];
  const int n = p.rows * p.cols;
  float total = 0.0f;
  for (int i = 0; i < n; ++i) {
    const float d = p.data[i] - t.data[i];
    total += d * d;
  }
  const float inv_n = 1.0f / static_cast<float>(n);
  call.out[0] = total * inv_n;
}

// Scalar KL(label || prediction) with prediction clamped at attrs.f0.
void KlDivergenceKernel(const OpCall& call) {
  const TensorView& label = call.in[0];
  const TensorView& pred = call.in[1];
  const float eps = call.attrs->f0;
  const int n = label.rows * label.cols;
  float total = 0.0f;
  for (int i = 0; i < n; ++i) {
    const float lv = label.data[i];
    if (lv <= 0.0f) continue;
    total += lv * (std::log(lv) - std::log(std::max(pred.data[i], eps)));
  }
  call.out[0] = total;
}

}  // namespace internal

}  // namespace lead::nn
