// Fused no-grad inference kernels (DESIGN.md, "No-grad inference
// kernels").
//
// Under NoGradGuard, the LSTM recurrences of the autoencoder and the
// detectors run here instead of op by op: one GEMM per step into a reused
// buffer plus one epilogue pass, with every intermediate in thread-local
// scratch, so a steady-state call performs no tensor allocation. The
// epilogues reproduce the eager op sequence (ops.cc / op_kernels.cc)
// element by element -- same operands, same association, the same tanh /
// sigmoid kernels (vec_math.h) -- and this file is compiled with
// -ffp-contract=off so no multiply-add pair can be contracted. The
// results are therefore bit-identical to the op-by-op path, which stays
// the training tape and the test oracle (tests/infer_kernel_test.cc).
#pragma once

#include <cstddef>

#include "nn/batch.h"

namespace lead::nn::internal {

// True when the calling thread should take the fused kernels: gradients
// are off.
bool FusedInferenceActive();

// LIFO lease of a thread-local float buffer of at least `floats`
// elements. Buffers grow on demand and are kept for reuse, so repeated
// calls of the same shape allocate nothing. Contents are unspecified on
// acquisition. Leases must be released in reverse order (scope them).
class ScratchLease {
 public:
  explicit ScratchLease(size_t floats);
  ~ScratchLease();
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  [[nodiscard]] float* data() const { return data_; }

 private:
  float* data_;
};

// A StepBatch copied into scratch in StackedLayout order (nn/batch.h),
// the operand format of the fused kernels, with the batch's masks when
// it is ragged. Every step must be [batch x cols]; `op` names the caller
// in LEAD_CHECK_SHAPES reports.
class StackedStepBatch {
 public:
  StackedStepBatch(const StepBatch& input, int cols, const char* op);

  [[nodiscard]] const StackedLayout& layout() const { return layout_; }
  [[nodiscard]] const float* x() const { return x_.data(); }
  // Per-row lengths of a ragged batch; null for a uniform one.
  [[nodiscard]] const int* lengths() const { return lengths_; }

 private:
  ScratchLease x_;
  ScratchLease mask_;
  ScratchLease inv_mask_;
  StackedLayout layout_;
  const int* lengths_ = nullptr;
};

// One LSTM recurrence over time-major stacked rows. Step t owns a block
// of consecutive rows; its inputs were already projected (x_t W_ih, one
// GEMM for all steps, which is row-independent and so bit-identical to
// the per-step MatMul). Each step then computes, exactly as
// LstmCell::Step + ApplyGates (+ MaskedUpdate when ragged):
//   pre = (proj + h W_hh) + bias
//   i, f, o = 1 / (1 + exp(-pre)),  g = tanh(pre)
//   c' = (f * c) + (i * g),  h' = o * tanh(c')
//   ragged: c' = (c' * m) + (c * im),  h' = (h' * m) + (h * im)
struct LstmRecurrence {
  const float* w_hh = nullptr;  // [H x 4H]
  const float* bias = nullptr;  // [1 x 4H]
  int hidden = 0;
  // Input projections [total_rows x 4H], step blocks back to back in
  // time order. When shared_proj is set, one [batch x 4H] block serves
  // every step (the constant-input decompression unroll).
  const float* proj = nullptr;
  bool shared_proj = false;
  // Hidden-state output: row r of the stacked layout lands at
  // out + r * out_stride.
  float* out = nullptr;
  int out_stride = 0;
  int steps = 0;
  int batch = 0;  // rows of step 0
  // Optional per-step live row counts (non-increasing, step_rows[0] ==
  // batch): rows that finished drop off the end of the batch. Null means
  // `batch` rows every step. Only valid with forward iteration.
  const int* step_rows = nullptr;
  // Optional stacked [total_rows] validity masks (1 / 0) and their
  // complements, as PackViews builds them; null for uniform batches.
  const float* mask = nullptr;
  const float* inv_mask = nullptr;
  bool reversed = false;  // iterate t = steps-1 .. 0 (backward LSTM)
  const char* op = "LstmCell";  // named by LEAD_CHECK_SHAPES reports
};

// Runs the recurrence from a zero state. Under LEAD_CHECK_SHAPES every
// step's h and c are scanned for the first non-finite value, reported
// under `op` (the first-NaN-origin contract of the op path).
void RunLstmRecurrence(const LstmRecurrence& r);

// One query row of LastQueryAttention::ForwardSteps. Step t of the row's
// sequence is stacked row step_offset[t] + rank (t * step_stride + rank
// when step_offset is null) of both `keys` [* x dk] (already h W_k + b_k)
// and `hidden` [* x hid]. Computes, in the op path's order:
//   s_t = (sum_c q_c * k_tc) * scale   (sequential sum from 0)
//   ragged: s_t += (t < valid ? 0 : -1e30)
//   w = softmax(s),  agg = (...((h_0 w_0) + h_1 w_1) + ...)
// `weights` is caller scratch of `steps` floats; agg is [1 x hid].
struct AttentionRow {
  const float* q = nullptr;
  const float* keys = nullptr;
  int key_dims = 0;
  const float* hidden = nullptr;
  int hidden_dims = 0;
  const int* step_offset = nullptr;
  int step_stride = 0;
  int rank = 0;
  int steps = 0;
  bool ragged = false;
  int valid = 0;
  float scale = 1.0f;
};
void AttendRow(const AttentionRow& a, float* weights, float* agg);

}  // namespace lead::nn::internal
