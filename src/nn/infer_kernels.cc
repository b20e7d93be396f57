// Fused no-grad inference kernels; see infer_kernels.h. Compiled with
// -ffp-contract=off (src/nn/CMakeLists.txt): every product below must be
// rounded before it is added, exactly as the separate Mul / Add / RowSum
// kernels of the op path round it.
#include "nn/infer_kernels.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"
#include "nn/contract.h"
#include "nn/matrix.h"
#include "nn/plan.h"
#include "nn/variable.h"
#include "nn/vec_math.h"

namespace lead::nn::internal {

bool FusedInferenceActive() {
  return NoGradEnabled() && !plan_internal::RecorderActive();
}

namespace {

struct ScratchPool {
  std::vector<std::vector<float>> buffers;
  size_t depth = 0;
};

thread_local ScratchPool scratch_pool;

// A masked-out row (m = +0, im = 1) keeps its state: the op path computes
// c = (c' * 0) + (c * 1). When no preactivation is NaN, every gate is
// finite and in range, so |c'| <= |c| + 1 and h' = o tanh(c') are finite,
// c' * 0 is a zero, and zero + c == c bit for bit -- unless c is -0,
// where the zero's sign (the sign of c') decides. Same for h. So a frozen
// row needs its fresh state, and its transcendentals, only for a NaN
// preactivation, a non-finite state or a -0 state; padded steps of a
// ragged batch skip the row otherwise and stay bit-identical. A row that
// does not hold runs the full update, whose masked blend gives every
// element that would have held its old bits anyway.
inline bool FrozenRowHolds(const float* pre, const float* c, const float* h,
                           int hidden) {
  for (int j = 0; j < 4 * hidden; ++j) {
    if (std::isnan(pre[j])) return false;
  }
  for (int j = 0; j < hidden; ++j) {
    if (!std::isfinite(c[j]) || !std::isfinite(h[j])) return false;
    if ((c[j] == 0.0f && std::signbit(c[j])) ||  // lead-lint: allow(float-eq)
        (h[j] == 0.0f && std::signbit(h[j]))) {  // lead-lint: allow(float-eq)
      return false;
    }
  }
  return true;
}

}  // namespace

ScratchLease::ScratchLease(size_t floats) {
  ScratchPool& pool = scratch_pool;
  if (pool.depth == pool.buffers.size()) pool.buffers.emplace_back();
  std::vector<float>& buffer = pool.buffers[pool.depth++];
  if (buffer.size() < floats) buffer.resize(floats);
  data_ = buffer.data();
}

ScratchLease::~ScratchLease() { --scratch_pool.depth; }

StackedStepBatch::StackedStepBatch(const StepBatch& input, int cols,
                                   const char* op)
    : x_(static_cast<size_t>(input.max_len()) * input.batch() * cols),
      mask_(input.ragged() ? static_cast<size_t>(input.max_len()) *
                                 input.batch()
                           : 0),
      inv_mask_(input.ragged() ? static_cast<size_t>(input.max_len()) *
                                     input.batch()
                               : 0),
      layout_{input.max_len(), input.batch()} {
  const int batch = input.batch();
  LEAD_CHECK_GT(input.max_len(), 0);
  for (int t = 0; t < input.max_len(); ++t) {
    const Matrix& step = input.steps[t].value();
    contract::RequireDims(op, step, batch, cols,
                          "step payload must be [B x input_size]");
    LEAD_CHECK_EQ(step.rows(), batch);
    LEAD_CHECK_EQ(step.cols(), cols);
    const size_t block = static_cast<size_t>(step.size());
    std::copy(step.data(), step.data() + block, x_.data() + t * block);
    if (input.ragged()) {
      const float* m = input.masks[t].value().data();
      const float* im = input.inv_masks[t].value().data();
      std::copy(m, m + batch, mask_.data() + t * batch);
      std::copy(im, im + batch, inv_mask_.data() + t * batch);
    }
  }
  if (input.ragged()) {
    layout_.mask = mask_.data();
    layout_.inv_mask = inv_mask_.data();
    lengths_ = input.lengths.data();
  }
}

void RunLstmRecurrence(const LstmRecurrence& r) {
  const int h = r.hidden;
  const int g4 = 4 * h;
  const int batch = r.batch;
  LEAD_CHECK_GT(r.steps, 0);
  LEAD_CHECK_GT(batch, 0);
  LEAD_CHECK(r.step_rows == nullptr || !r.reversed);
  LEAD_CHECK(r.step_rows == nullptr || r.step_rows[0] == batch);
  const size_t state_floats = static_cast<size_t>(batch) * h;
  ScratchLease h_state(state_floats);
  ScratchLease c_state(state_floats);
  ScratchLease gates(static_cast<size_t>(batch) * g4);
  ScratchLease cell(static_cast<size_t>(2) * h);
  float* hs = h_state.data();
  float* cs = c_state.data();
  float* gs = gates.data();
  float* c_fresh = cell.data();
  float* tanh_c = cell.data() + h;
  std::fill(hs, hs + state_floats, 0.0f);
  std::fill(cs, cs + state_floats, 0.0f);

  int block_begin = 0;  // first stacked row of the current step (forward)
  for (int s = 0; s < r.steps; ++s) {
    const int t = r.reversed ? r.steps - 1 - s : s;
    const int rows = r.step_rows != nullptr ? r.step_rows[t] : batch;
    const int row0 = r.step_rows != nullptr ? block_begin : t * batch;
    block_begin += rows;
    LEAD_DCHECK(rows <= batch);
    const float* proj =
        r.proj + (r.shared_proj ? 0 : static_cast<size_t>(row0) * g4);
    // The recurrent half of the preactivation, h W_hh (the step's
    // MatMul(prev.h, w_hh) on the op path).
    GemmOverwriteRaw(hs, r.w_hh, gs, rows, h, g4);
    for (int b = 0; b < rows; ++b) {
      const float* p = proj + static_cast<size_t>(b) * g4;
      float* g = gs + static_cast<size_t>(b) * g4;
      float* hb = hs + static_cast<size_t>(b) * h;
      float* cb = cs + static_cast<size_t>(b) * h;
      const bool masked = r.mask != nullptr;
      const float m = masked ? r.mask[row0 + b] : 1.0f;
      const float im = masked ? r.inv_mask[row0 + b] : 0.0f;
      const bool frozen = masked && m == 0.0f &&  // lead-lint: allow(float-eq)
                          !std::signbit(m) && im == 1.0f;  // lead-lint: allow(float-eq)
      // pre = (xW + hU) + b over the row's [i f g o] blocks, overwriting
      // hU; then the gate nonlinearities as whole vectors.
      for (int j = 0; j < g4; ++j) g[j] = (p[j] + g[j]) + r.bias[j];
      if (!frozen || !FrozenRowHolds(g, cb, hb, h)) {
        SigmoidInPlace(g, 2 * h);  // i, f
        TanhInPlace(g + 2 * h, h);  // g
        SigmoidInPlace(g + 3 * h, h);  // o
        for (int j = 0; j < h; ++j) {
          c_fresh[j] = (g[h + j] * cb[j]) + (g[j] * g[2 * h + j]);
        }
        std::copy(c_fresh, c_fresh + h, tanh_c);
        TanhInPlace(tanh_c, h);
        for (int j = 0; j < h; ++j) {
          float c_next = c_fresh[j];
          float h_next = g[3 * h + j] * tanh_c[j];
          if (masked) {
            c_next = (c_next * m) + (cb[j] * im);
            h_next = (h_next * m) + (hb[j] * im);
          }
          cb[j] = c_next;
          hb[j] = h_next;
        }
      }
      float* dst = r.out + static_cast<size_t>(row0 + b) * r.out_stride;
      std::copy(hb, hb + h, dst);
    }
    contract::RequireFiniteRaw(r.op, "hidden state h", hs, rows, h);
    contract::RequireFiniteRaw(r.op, "cell state c", cs, rows, h);
  }
}

void AttendRow(const AttentionRow& a, float* weights, float* agg) {
  const int steps = a.steps;
  LEAD_CHECK_GT(steps, 0);
  auto row_of = [&a](int t) {
    return static_cast<size_t>(
        (a.step_offset != nullptr ? a.step_offset[t] : t * a.step_stride) +
        a.rank);
  };
  // Scores: RowSum(Mul(q, k_t)), then ScalarMul by the scale, then the
  // padding bias of a ragged batch.
  for (int t = 0; t < steps; ++t) {
    const float* k = a.keys + row_of(t) * a.key_dims;
    float total = 0.0f;
    for (int c = 0; c < a.key_dims; ++c) total += a.q[c] * k[c];
    float s = total * a.scale;
    if (a.ragged) s = s + (t < a.valid ? 0.0f : -1e30f);
    weights[t] = s;
  }
  // SoftmaxRows, as op_kernels.cc computes it.
  float max_v = weights[0];
  for (int t = 1; t < steps; ++t) max_v = std::max(max_v, weights[t]);
  float sum = 0.0f;
  for (int t = 0; t < steps; ++t) {
    weights[t] = std::exp(weights[t] - max_v);
    sum += weights[t];
  }
  for (int t = 0; t < steps; ++t) weights[t] /= sum;
  // Weighted sum: agg = h_0 w_0, then agg = agg + h_t w_t in step order.
  const float* h0 = a.hidden + row_of(0) * a.hidden_dims;
  for (int c = 0; c < a.hidden_dims; ++c) agg[c] = h0[c] * weights[0];
  for (int t = 1; t < steps; ++t) {
    const float* ht = a.hidden + row_of(t) * a.hidden_dims;
    const float w = weights[t];
    for (int c = 0; c < a.hidden_dims; ++c) agg[c] = agg[c] + ht[c] * w;
  }
}

}  // namespace lead::nn::internal
