#include "nn/attention.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "nn/contract.h"
#include "nn/infer_kernels.h"
#include "nn/init.h"

namespace lead::nn {

LastQueryAttention::LastQueryAttention(int hidden_size, int key_size,
                                       Rng* rng)
    : hidden_size_(hidden_size), key_size_(key_size) {
  w_q_ = RegisterParameter("w_q", XavierUniform(hidden_size, key_size, rng));
  b_q_ = RegisterParameter("b_q", Matrix::Zeros(1, key_size));
  w_k_ = RegisterParameter("w_k", XavierUniform(hidden_size, key_size, rng));
  b_k_ = RegisterParameter("b_k", Matrix::Zeros(1, key_size));
}

Variable LastQueryAttention::Forward(const Variable& hidden_states) const {
  contract::RequireDims("LastQueryAttention::Forward", hidden_states.value(),
                        -1, hidden_size_,
                        "hidden states must be [T x hidden_size]");
  LEAD_CHECK_EQ(hidden_states.cols(), hidden_size_);
  const int steps = hidden_states.rows();
  LEAD_CHECK_GT(steps, 0);
  const Variable last = SliceRows(hidden_states, steps - 1, 1);  // [1 x hid]
  const Variable q = Add(MatMul(last, w_q_), b_q_);              // [1 x dk]
  const Variable k = Add(MatMul(hidden_states, w_k_), b_k_);     // [T x dk]
  const float scale = 1.0f / std::sqrt(static_cast<float>(key_size_));
  const Variable scores =
      SoftmaxRows(ScalarMul(MatMul(q, Transpose(k)), scale));    // [1 x T]
  return MatMul(scores, hidden_states);                          // [1 x hid]
}

Variable LastQueryAttention::ForwardSteps(
    const std::vector<Variable>& hidden_states, const StepBatch& input) const {
  const int steps = static_cast<int>(hidden_states.size());
  LEAD_CHECK_GT(steps, 0);
  const int batch = input.batch();
  const Variable last = hidden_states.back();               // [B x hid]
  const Variable q = Add(MatMul(last, w_q_), b_q_);         // [B x dk]
  // Per-step dot products q . k_t replace the [1 x T] score matmul of the
  // single-sequence path; same sums, batch-major layout.
  std::vector<Variable> score_cols;
  score_cols.reserve(steps);
  for (int t = 0; t < steps; ++t) {
    const Variable k_t = Add(MatMul(hidden_states[t], w_k_), b_k_);
    score_cols.push_back(RowSum(Mul(q, k_t)));              // [B x 1]
  }
  const float scale = 1.0f / std::sqrt(static_cast<float>(key_size_));
  Variable scores = ScalarMul(ConcatCols(score_cols), scale);  // [B x T]
  if (input.ragged()) {
    // Padded positions get a large negative bias so their softmax weight
    // is exactly zero after exp().
    Matrix bias(batch, steps);
    for (int b = 0; b < batch; ++b) {
      for (int t = input.lengths[b]; t < steps; ++t) {
        bias.at(b, t) = -1e30f;
      }
    }
    scores = Add(scores, Variable::Constant(std::move(bias)));
  }
  const Variable weights = SoftmaxRows(scores);             // [B x T]
  Variable aggregated;
  for (int t = 0; t < steps; ++t) {
    const Variable term =
        ScaleRows(hidden_states[t], SliceCols(weights, t, 1));
    aggregated = aggregated.defined() ? Add(aggregated, term) : term;
  }
  return aggregated;                                        // [B x hid]
}

void LastQueryAttention::InferStacked(const StackedLayout& layout,
                                      const float* hs, const int* lengths,
                                      float* out) const {
  const int steps = layout.steps;
  const int batch = layout.batch;
  LEAD_CHECK(layout.step_rows == nullptr);
  const int total = steps * batch;
  const int dk = key_size_;
  // k_t = h_t W_k + b_k for every step in one GEMM (row-independent), and
  // the query from the last step's rows.
  internal::ScratchLease keys(static_cast<size_t>(total) * dk);
  GemmOverwriteRaw(hs, w_k_.value().data(), keys.data(), total, hidden_size_,
                   dk);
  EwAddBiasRowRaw(keys.data(), b_k_.value().data(), keys.data(), total, dk);
  internal::ScratchLease q(static_cast<size_t>(batch) * dk);
  GemmOverwriteRaw(hs + static_cast<size_t>(steps - 1) * batch * hidden_size_,
                   w_q_.value().data(), q.data(), batch, hidden_size_, dk);
  EwAddBiasRowRaw(q.data(), b_q_.value().data(), q.data(), batch, dk);
  internal::ScratchLease weights(static_cast<size_t>(steps));
  internal::AttentionRow row;
  row.keys = keys.data();
  row.key_dims = dk;
  row.hidden = hs;
  row.hidden_dims = hidden_size_;
  row.step_stride = batch;
  row.steps = steps;
  row.ragged = lengths != nullptr;
  row.scale = 1.0f / std::sqrt(static_cast<float>(key_size_));
  for (int b = 0; b < batch; ++b) {
    row.q = q.data() + static_cast<size_t>(b) * dk;
    row.rank = b;
    row.valid = lengths != nullptr ? lengths[b] : steps;
    internal::AttendRow(row, weights.data(),
                        out + static_cast<size_t>(b) * hidden_size_);
  }
}

void LastQueryAttention::InferPrefixes(const float* hs, int total_rows,
                                       const int* step_offset,
                                       const int* ranks, const int* steps,
                                       int num_queries, float* out) const {
  const int dk = key_size_;
  const int hid = hidden_size_;
  // Keys once per stacked row, shared by every query that reaches it.
  internal::ScratchLease keys(static_cast<size_t>(total_rows) * dk);
  GemmOverwriteRaw(hs, w_k_.value().data(), keys.data(), total_rows, hid, dk);
  EwAddBiasRowRaw(keys.data(), b_k_.value().data(), keys.data(), total_rows,
                  dk);
  internal::ScratchLease last(static_cast<size_t>(num_queries) * hid);
  int max_steps = 0;
  for (int i = 0; i < num_queries; ++i) {
    const float* src =
        hs + static_cast<size_t>(step_offset[steps[i] - 1] + ranks[i]) * hid;
    std::copy(src, src + hid, last.data() + static_cast<size_t>(i) * hid);
    max_steps = std::max(max_steps, steps[i]);
  }
  internal::ScratchLease q(static_cast<size_t>(num_queries) * dk);
  GemmOverwriteRaw(last.data(), w_q_.value().data(), q.data(), num_queries,
                   hid, dk);
  EwAddBiasRowRaw(q.data(), b_q_.value().data(), q.data(), num_queries, dk);
  internal::ScratchLease weights(static_cast<size_t>(max_steps));
  internal::AttentionRow row;
  row.keys = keys.data();
  row.key_dims = dk;
  row.hidden = hs;
  row.hidden_dims = hid;
  row.step_offset = step_offset;
  row.scale = 1.0f / std::sqrt(static_cast<float>(key_size_));
  for (int i = 0; i < num_queries; ++i) {
    row.q = q.data() + static_cast<size_t>(i) * dk;
    row.rank = ranks[i];
    row.steps = steps[i];
    row.valid = steps[i];
    internal::AttendRow(row, weights.data(),
                        out + static_cast<size_t>(i) * hid);
  }
}

}  // namespace lead::nn
