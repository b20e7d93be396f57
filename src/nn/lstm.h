// LSTM primitives (Hochreiter & Schmidhuber 1997), the recurrent backbone
// of the paper's compression/decompression operators (Eq. 2, 5) and the
// BiLSTM detectors (Eq. 9).
#pragma once

#include <vector>

#include "common/rng.h"
#include "nn/batch.h"
#include "nn/module.h"
#include "nn/ops.h"

namespace lead::nn {

// Single LSTM cell with combined gate weights. Gate layout along the 4H
// axis: [input, forget, cell-candidate, output]. Forget-gate bias is
// initialized to 1 (standard trick for gradient flow).
//
// All step inputs and states are batch-major: a step is [B x input_size]
// and carries one sequence per row (B == 1 is the single-sequence case).
class LstmCell : public Module {
 public:
  LstmCell(int input_size, int hidden_size, Rng* rng);

  struct State {
    Variable h;  // [B x H]
    Variable c;  // [B x H]
  };

  State InitialState(int batch = 1) const;

  // One recurrence step; x_t is [B x input_size].
  State Step(const Variable& x_t, const State& prev) const;

  // Runs the cell over a whole sequence x [T x input_size] and returns all
  // hidden states [T x H]. The input projection for all steps is computed
  // as one matmul. (Single-sequence reference path; the batched path is
  // ForwardSequenceSteps.)
  Variable ForwardSequence(const Variable& x) const;

  // Batch-major sequence forward over time-major packed steps. Returns the
  // hidden state of every step ([B x H] each). Finished rows of a ragged
  // batch are frozen via masked updates, so back().row(b) is sequence b's
  // hidden state at its own last valid step.
  std::vector<Variable> ForwardSequenceSteps(const StepBatch& input) const;

  // Same recurrence iterated over the packed steps in reverse order;
  // out[t] is the state after consuming steps max_len-1 .. t (the
  // backward half of a BiLSTM). Ragged rows stay zero until their own
  // last step enters the window.
  std::vector<Variable> ForwardSequenceStepsReversed(
      const StepBatch& input) const;

  // Runs the cell `steps` times feeding the same input vector v [1 x in]
  // at every step — the paper's decompression operator (Eq. 5), which
  // unrolls a compressed vector into a sequence. Returns [steps x H].
  Variable ForwardConstantInput(const Variable& v, int steps) const;

  // Batched constant-input unroll: v is [B x in] (one compressed vector
  // per row); returns `steps` hidden states, [B x H] each.
  std::vector<Variable> ForwardConstantInputSteps(const Variable& v,
                                                  int steps) const;

  // Fused no-grad forward (infer_kernels.h) over stacked rows: x
  // [layout.total_rows() x input_size] in the StackedLayout order (batch.h).
  // The hidden state of every row is written to out + row * out_stride.
  // Bit-identical to ForwardSequenceSteps / ForwardSequenceStepsReversed
  // over the same rows; a prefix-shared layout (step_rows) must run
  // forward. Every public forward above takes this path under
  // NoGradGuard when no plan is being recorded.
  void InferStacked(const StackedLayout& layout, const float* x,
                    bool reversed, float* out, int out_stride) const;

  // Fused constant-input unroll: v [batch x input_size] is fed at every
  // step; the hidden state of step t, row b lands at row t * batch + b of
  // out. Bit-identical to ForwardConstantInputSteps.
  void InferConstant(const float* v, int batch, int steps, float* out,
                     int out_stride) const;

  int input_size() const { return input_size_; }
  int hidden_size() const { return hidden_size_; }

 private:
  // Fused path of the StepBatch forwards: per-step [B x H] outputs.
  std::vector<Variable> InferSteps(const StepBatch& input, bool reversed,
                                   const char* op) const;
  // Runs the fused recurrence (infer_kernels.h) over input projections
  // `proj`: one block per step, or one block shared by every step.
  void RunRecurrence(const float* proj, bool shared_proj,
                     const StackedLayout& layout, bool reversed, float* out,
                     int out_stride, const char* op) const;

  // Shared epilogue: applies gate nonlinearities to preactivations
  // [B x 4H] and advances the state.
  State ApplyGates(const Variable& preact, const State& prev) const;

  int input_size_;
  int hidden_size_;
  Variable w_ih_;  // [input x 4H]
  Variable w_hh_;  // [H x 4H]
  Variable bias_;  // [1 x 4H]
};

// Bidirectional LSTM layer: concatenates a forward pass and a reversed
// backward pass, output [T x 2H].
class BiLstm : public Module {
 public:
  BiLstm(int input_size, int hidden_size, Rng* rng);

  Variable Forward(const Variable& x) const;

  // Batch-major bidirectional forward: per-step concatenation of the
  // forward and backward hidden states, [B x 2H] each. The backward
  // direction iterates the packed steps in reverse; masked updates keep a
  // ragged row's state zero until its own last step enters the window.
  std::vector<Variable> ForwardSteps(const StepBatch& input) const;

  // Fused no-grad forward over stacked rows (LstmCell::InferStacked):
  // writes the [total_rows x 2H] concatenation of both directions, row
  // by row, to out. Bit-identical to ForwardSteps.
  void InferStacked(const StackedLayout& layout, const float* x,
                    float* out) const;

  int hidden_size() const { return forward_.hidden_size(); }

 private:
  LstmCell forward_;
  LstmCell backward_;
};

}  // namespace lead::nn

