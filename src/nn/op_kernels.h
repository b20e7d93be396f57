// Forward kernels of the autograd ops (ops.cc).
//
// Every forward computation of an eager op is one of these kernels: it
// reads raw tensor views and writes one raw output buffer. ops.cc runs
// them against Matrix storage through a single RunKernel call site.
//
// Kernels never allocate and never touch Matrix: inputs arrive as
// TensorViews, the output is a preallocated buffer the kernel must fully
// overwrite. lead-lint enforces the no-Matrix rule for OpCall-taking
// function bodies (rule matrix-in-kernel).
#pragma once

#include <vector>

namespace lead::nn {

// Read-only view of a rank-2 row-major float tensor.
struct TensorView {
  const float* data = nullptr;
  int rows = 0;
  int cols = 0;
};

// Immediate attributes of one operator application. A deliberately flat
// bag: f0/i0 carry the single scalar most ops need (broadcast flag, slice
// start, clamp epsilon), `ints` carries index lists (GatherRows rows).
struct OpAttrs {
  float f0 = 0.0f;
  int i0 = 0;
  std::vector<int> ints;
};

// One kernel invocation: `num_in` input views, one output buffer of
// out_rows x out_cols floats. The kernel must write every output element.
struct OpCall {
  const TensorView* in = nullptr;
  int num_in = 0;
  float* out = nullptr;
  int out_rows = 0;
  int out_cols = 0;
  const OpAttrs* attrs = nullptr;
};

using OpKernel = void (*)(const OpCall&);

namespace internal {

void AddKernel(const OpCall& call);
void SubKernel(const OpCall& call);
void MulKernel(const OpCall& call);
void ScalarMulKernel(const OpCall& call);
void AddScalarKernel(const OpCall& call);
void MatMulKernel(const OpCall& call);
void TransposeKernel(const OpCall& call);
void TanhKernel(const OpCall& call);
void SigmoidKernel(const OpCall& call);
void ReluKernel(const OpCall& call);
void LogKernel(const OpCall& call);
void SoftmaxRowsKernel(const OpCall& call);
void SliceColsKernel(const OpCall& call);
void SliceRowsKernel(const OpCall& call);
void ConcatRowsKernel(const OpCall& call);
void ConcatColsKernel(const OpCall& call);
void ReverseRowsKernel(const OpCall& call);
void SumKernel(const OpCall& call);
void RowSumKernel(const OpCall& call);
void ScaleRowsKernel(const OpCall& call);
void GatherRowsKernel(const OpCall& call);
void MseLossKernel(const OpCall& call);
void KlDivergenceKernel(const OpCall& call);

}  // namespace internal

}  // namespace lead::nn
