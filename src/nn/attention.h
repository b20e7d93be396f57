// Self-attention sequence aggregator (paper Eq. 3 and surrounding text).
//
// The last hidden state of an LSTM queries all hidden states; the
// resulting importance scores aggregate the hidden-state matrix into a
// single vector. The value matrix is the hidden states themselves, per
// the paper ("the value matrix includes the hidden states output by
// LSTM").
#pragma once

#include <vector>

#include "common/rng.h"
#include "nn/batch.h"
#include "nn/module.h"
#include "nn/ops.h"

namespace lead::nn {

class LastQueryAttention : public Module {
 public:
  // hidden_size: width of the LSTM hidden states; key_size: d_k.
  LastQueryAttention(int hidden_size, int key_size, Rng* rng);

  // hidden_states: [T x hidden]. Returns the aggregated vector [1 x hidden].
  Variable Forward(const Variable& hidden_states) const;

  // Batch-major aggregation over time-major hidden states ([B x hidden]
  // per step, from a masked batched LSTM so hidden_states.back() holds
  // each row's final valid state — the per-row query). Padded steps of a
  // ragged batch are excluded from the softmax. Returns [B x hidden].
  Variable ForwardSteps(const std::vector<Variable>& hidden_states,
                        const StepBatch& input) const;

  // Fused no-grad form of ForwardSteps over stacked hidden states hs
  // [steps * batch x hidden] (uniform StackedLayout order, batch.h).
  // `lengths` is non-null exactly when the batch is ragged. Writes
  // [batch x hidden] to out; bit-identical to ForwardSteps.
  void InferStacked(const StackedLayout& layout, const float* hs,
                    const int* lengths, float* out) const;

  // Fused no-grad attention for prefix-shared sequences: hs holds
  // total_rows stacked hidden states; query q's sequence is row
  // step_offset[t] + ranks[q] for t < steps[q], and its own last step is
  // the query. Writes [num_queries x hidden] to out, each row
  // bit-identical to ForwardSteps over that sequence as a uniform batch.
  void InferPrefixes(const float* hs, int total_rows, const int* step_offset,
                     const int* ranks, const int* steps, int num_queries,
                     float* out) const;

  int hidden_size() const { return hidden_size_; }

 private:
  int hidden_size_;
  int key_size_;
  Variable w_q_;  // [hidden x d_k]
  Variable b_q_;  // [1 x d_k]
  Variable w_k_;  // [hidden x d_k]
  Variable b_k_;  // [1 x d_k]
};

}  // namespace lead::nn

