#include "nn/lstm.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "nn/contract.h"
#include "nn/infer_kernels.h"
#include "nn/init.h"

namespace lead::nn {

namespace {

// Per-step [batch x h] constants from stacked hidden states.
std::vector<Variable> SplitSteps(const float* hs, int steps, int batch,
                                 int h) {
  std::vector<Variable> out;
  out.reserve(steps);
  for (int t = 0; t < steps; ++t) {
    const float* block = hs + static_cast<size_t>(t) * batch * h;
    Matrix step(batch, h);
    std::copy(block, block + step.size(), step.data());
    out.push_back(Variable::Constant(std::move(step)));
  }
  return out;
}

}  // namespace

LstmCell::LstmCell(int input_size, int hidden_size, Rng* rng)
    : input_size_(input_size), hidden_size_(hidden_size) {
  w_ih_ = RegisterParameter("w_ih",
                            XavierUniform(input_size, 4 * hidden_size, rng));
  w_hh_ = RegisterParameter("w_hh",
                            XavierUniform(hidden_size, 4 * hidden_size, rng));
  Matrix bias = Matrix::Zeros(1, 4 * hidden_size);
  // Forget gate block is [H, 2H).
  for (int c = hidden_size; c < 2 * hidden_size; ++c) bias.at(0, c) = 1.0f;
  bias_ = RegisterParameter("bias", std::move(bias));
}

LstmCell::State LstmCell::InitialState(int batch) const {
  return State{Variable::Constant(Matrix::Zeros(batch, hidden_size_)),
               Variable::Constant(Matrix::Zeros(batch, hidden_size_))};
}

LstmCell::State LstmCell::ApplyGates(const Variable& preact,
                                     const State& prev) const {
  const int h = hidden_size_;
  const Variable i_gate = Sigmoid(SliceCols(preact, 0, h));
  const Variable f_gate = Sigmoid(SliceCols(preact, h, h));
  const Variable g_cand = Tanh(SliceCols(preact, 2 * h, h));
  const Variable o_gate = Sigmoid(SliceCols(preact, 3 * h, h));
  const Variable c_next = Add(Mul(f_gate, prev.c), Mul(i_gate, g_cand));
  const Variable h_next = Mul(o_gate, Tanh(c_next));
  return State{h_next, c_next};
}

LstmCell::State LstmCell::Step(const Variable& x_t,
                               const State& prev) const {
  contract::RequireDims("LstmCell::Step", x_t.value(), prev.h.rows(),
                        input_size_, "x_t must be [batch(prev) x input_size]");
  const Variable preact =
      Add(Add(MatMul(x_t, w_ih_), MatMul(prev.h, w_hh_)), bias_);
  return ApplyGates(preact, prev);
}

Variable LstmCell::ForwardSequence(const Variable& x) const {
  contract::RequireDims("LstmCell::ForwardSequence", x.value(), -1,
                        input_size_, "sequence must be [T x input_size]");
  LEAD_CHECK_EQ(x.cols(), input_size_);
  const int steps = x.rows();
  LEAD_CHECK_GT(steps, 0);
  if (internal::FusedInferenceActive()) {
    Matrix out(steps, hidden_size_);
    InferStacked(StackedLayout{steps, 1}, x.value().data(),
                 /*reversed=*/false, out.data(), hidden_size_);
    return Variable::Constant(std::move(out));
  }
  // One matmul for the input projection of every step.
  const Variable input_proj = MatMul(x, w_ih_);
  State state = InitialState();
  std::vector<Variable> hidden_states;
  hidden_states.reserve(steps);
  for (int t = 0; t < steps; ++t) {
    const Variable preact = Add(
        Add(SliceRows(input_proj, t, 1), MatMul(state.h, w_hh_)), bias_);
    state = ApplyGates(preact, state);
    hidden_states.push_back(state.h);
  }
  return ConcatRows(hidden_states);
}

std::vector<Variable> LstmCell::ForwardSequenceSteps(
    const StepBatch& input) const {
  const int steps = input.max_len();
  LEAD_CHECK_GT(steps, 0);
  if (internal::FusedInferenceActive()) {
    return InferSteps(input, /*reversed=*/false,
                      "LstmCell::ForwardSequenceSteps");
  }
  State state = InitialState(input.batch());
  std::vector<Variable> hidden_states;
  hidden_states.reserve(steps);
  for (int t = 0; t < steps; ++t) {
    contract::RequireDims("LstmCell::ForwardSequenceSteps",
                          input.steps[t].value(), input.batch(), input_size_,
                          "step payload must be [B x input_size]");
    LEAD_CHECK_EQ(input.steps[t].cols(), input_size_);
    const Variable preact = Add(
        Add(MatMul(input.steps[t], w_ih_), MatMul(state.h, w_hh_)), bias_);
    State next = ApplyGates(preact, state);
    if (input.ragged()) {
      next.h = MaskedUpdate(next.h, state.h, input.masks[t],
                            input.inv_masks[t]);
      next.c = MaskedUpdate(next.c, state.c, input.masks[t],
                            input.inv_masks[t]);
    }
    state = next;
    hidden_states.push_back(state.h);
  }
  return hidden_states;
}

std::vector<Variable> LstmCell::ForwardSequenceStepsReversed(
    const StepBatch& input) const {
  const int steps = input.max_len();
  LEAD_CHECK_GT(steps, 0);
  if (internal::FusedInferenceActive()) {
    return InferSteps(input, /*reversed=*/true,
                      "LstmCell::ForwardSequenceStepsReversed");
  }
  // Same masked recurrence over the reversed step order. A ragged row's
  // padded steps come first in this order, so the masks keep its state at
  // zero until its real last step enters the window.
  State state = InitialState(input.batch());
  std::vector<Variable> hidden_states(steps);
  for (int t = steps - 1; t >= 0; --t) {
    contract::RequireDims("LstmCell::ForwardSequenceStepsReversed",
                          input.steps[t].value(), input.batch(), input_size_,
                          "step payload must be [B x input_size]");
    LEAD_CHECK_EQ(input.steps[t].cols(), input_size_);
    const Variable preact = Add(
        Add(MatMul(input.steps[t], w_ih_), MatMul(state.h, w_hh_)), bias_);
    State next = ApplyGates(preact, state);
    if (input.ragged()) {
      next.h = MaskedUpdate(next.h, state.h, input.masks[t],
                            input.inv_masks[t]);
      next.c = MaskedUpdate(next.c, state.c, input.masks[t],
                            input.inv_masks[t]);
    }
    state = next;
    hidden_states[t] = state.h;
  }
  return hidden_states;
}

std::vector<Variable> LstmCell::ForwardConstantInputSteps(const Variable& v,
                                                          int steps) const {
  contract::RequireDims("LstmCell::ForwardConstantInputSteps", v.value(), -1,
                        input_size_, "constant input must be [B x input_size]");
  LEAD_CHECK_EQ(v.cols(), input_size_);
  LEAD_CHECK_GT(steps, 0);
  if (internal::FusedInferenceActive()) {
    const int batch = v.rows();
    internal::ScratchLease hs(static_cast<size_t>(steps) * batch *
                              hidden_size_);
    InferConstant(v.value().data(), batch, steps, hs.data(), hidden_size_);
    return SplitSteps(hs.data(), steps, batch, hidden_size_);
  }
  const Variable input_proj = MatMul(v, w_ih_);  // [B x 4H], reused
  State state = InitialState(v.rows());
  std::vector<Variable> hidden_states;
  hidden_states.reserve(steps);
  for (int t = 0; t < steps; ++t) {
    const Variable preact =
        Add(Add(input_proj, MatMul(state.h, w_hh_)), bias_);
    state = ApplyGates(preact, state);
    hidden_states.push_back(state.h);
  }
  return hidden_states;
}

Variable LstmCell::ForwardConstantInput(const Variable& v, int steps) const {
  contract::RequireDims("LstmCell::ForwardConstantInput", v.value(), 1,
                        input_size_, "constant input must be [1 x input_size]");
  LEAD_CHECK_EQ(v.rows(), 1);
  LEAD_CHECK_EQ(v.cols(), input_size_);
  LEAD_CHECK_GT(steps, 0);
  if (internal::FusedInferenceActive()) {
    Matrix out(steps, hidden_size_);
    InferConstant(v.value().data(), 1, steps, out.data(), hidden_size_);
    return Variable::Constant(std::move(out));
  }
  const Variable input_proj = MatMul(v, w_ih_);  // [1 x 4H], reused
  State state = InitialState();
  std::vector<Variable> hidden_states;
  hidden_states.reserve(steps);
  for (int t = 0; t < steps; ++t) {
    const Variable preact =
        Add(Add(input_proj, MatMul(state.h, w_hh_)), bias_);
    state = ApplyGates(preact, state);
    hidden_states.push_back(state.h);
  }
  return ConcatRows(hidden_states);
}

std::vector<Variable> LstmCell::InferSteps(const StepBatch& input,
                                           bool reversed,
                                           const char* op) const {
  const internal::StackedStepBatch stacked(input, input_size_, op);
  internal::ScratchLease hs(static_cast<size_t>(input.max_len()) *
                            input.batch() * hidden_size_);
  InferStacked(stacked.layout(), stacked.x(), reversed, hs.data(),
               hidden_size_);
  return SplitSteps(hs.data(), input.max_len(), input.batch(), hidden_size_);
}

void LstmCell::InferStacked(const StackedLayout& layout, const float* x,
                            bool reversed, float* out,
                            int out_stride) const {
  const int total = layout.total_rows();
  const int g4 = 4 * hidden_size_;
  // The input projection of every step in one GEMM: rows are
  // independent and each keeps its k-order, so this matches the per-step
  // MatMul(x_t, w_ih) bit for bit.
  internal::ScratchLease proj(static_cast<size_t>(total) * g4);
  GemmOverwriteRaw(x, w_ih_.value().data(), proj.data(), total, input_size_,
                   g4);
  RunRecurrence(proj.data(), /*shared_proj=*/false, layout, reversed, out,
                out_stride, "LstmCell::InferStacked");
}

void LstmCell::InferConstant(const float* v, int batch, int steps,
                             float* out, int out_stride) const {
  const int g4 = 4 * hidden_size_;
  internal::ScratchLease proj(static_cast<size_t>(batch) * g4);
  GemmOverwriteRaw(v, w_ih_.value().data(), proj.data(), batch, input_size_,
                   g4);
  RunRecurrence(proj.data(), /*shared_proj=*/true, StackedLayout{steps, batch},
                /*reversed=*/false, out, out_stride, "LstmCell::InferConstant");
}

void LstmCell::RunRecurrence(const float* proj, bool shared_proj,
                             const StackedLayout& layout, bool reversed,
                             float* out, int out_stride,
                             const char* op) const {
  internal::LstmRecurrence r;
  r.w_hh = w_hh_.value().data();
  r.bias = bias_.value().data();
  r.hidden = hidden_size_;
  r.proj = proj;
  r.shared_proj = shared_proj;
  r.out = out;
  r.out_stride = out_stride;
  r.steps = layout.steps;
  r.batch = layout.batch;
  r.step_rows = layout.step_rows;
  r.mask = layout.mask;
  r.inv_mask = layout.inv_mask;
  r.reversed = reversed;
  r.op = op;
  internal::RunLstmRecurrence(r);
}

BiLstm::BiLstm(int input_size, int hidden_size, Rng* rng)
    : forward_(input_size, hidden_size, rng),
      backward_(input_size, hidden_size, rng) {
  RegisterChild("fwd", &forward_);
  RegisterChild("bwd", &backward_);
}

Variable BiLstm::Forward(const Variable& x) const {
  const Variable fwd_out = forward_.ForwardSequence(x);
  const Variable bwd_out =
      ReverseRows(backward_.ForwardSequence(ReverseRows(x)));
  return ConcatCols({fwd_out, bwd_out});
}

std::vector<Variable> BiLstm::ForwardSteps(const StepBatch& input) const {
  const int steps = input.max_len();
  LEAD_CHECK_GT(steps, 0);
  const std::vector<Variable> fwd = forward_.ForwardSequenceSteps(input);
  const std::vector<Variable> bwd =
      backward_.ForwardSequenceStepsReversed(input);
  std::vector<Variable> out;
  out.reserve(steps);
  for (int t = 0; t < steps; ++t) {
    out.push_back(ConcatCols({fwd[t], bwd[t]}));
  }
  return out;
}

void BiLstm::InferStacked(const StackedLayout& layout, const float* x,
                          float* out) const {
  const int h = hidden_size();
  forward_.InferStacked(layout, x, /*reversed=*/false, out, 2 * h);
  backward_.InferStacked(layout, x, /*reversed=*/true, out + h, 2 * h);
}

}  // namespace lead::nn
