// Batch-major execution support: time-major packing of sequence batches.
//
// All batched step kernels (lstm.h, gru.h, attention.h) consume a
// StepBatch: `steps[t]` is the [B x d] matrix holding step t of every
// sequence in the batch (row b belongs to sequence b throughout). Ragged
// batches are padded to the longest member; `masks[t]` / `inv_masks[t]`
// are then [B x 1] validity columns (1 while t < lengths[b], else 0) that
// the kernels use to freeze finished rows, so a row's final state is
// always its state at its own last valid step.
//
// PackViews builds the step constants directly from backing matrices
// (feature banks, cached c-vecs); stages whose inputs are differentiable
// Variables assemble the `steps` vector themselves (e.g. with GatherRows)
// and attach it via WithSteps.
#pragma once

#include <vector>

#include "nn/variable.h"

namespace lead::nn {

// One contiguous row range of a backing matrix.
struct SeqSpan {
  const Matrix* source;
  int row_begin = 0;
  int rows = 0;
};

// A sequence as a list of row spans, concatenated in order (a candidate's
// flat feature sequence interleaves stay and move ranges, so one span is
// not enough in general).
using SeqView = std::vector<SeqSpan>;

[[nodiscard]] int SeqViewRows(const SeqView& view);

struct StepBatch {
  std::vector<Variable> steps;      // max_len entries, each [B x d]
  std::vector<Variable> masks;      // empty when uniform; else [B x 1] each
  std::vector<Variable> inv_masks;  // 1 - masks, same layout
  std::vector<int> lengths;         // B entries

  [[nodiscard]] int batch() const { return static_cast<int>(lengths.size()); }
  [[nodiscard]] int max_len() const { return static_cast<int>(steps.size()); }
  [[nodiscard]] bool ragged() const { return !masks.empty(); }

  // Same batch geometry (masks/lengths) over a different per-step payload;
  // used by stacked layers whose step width changes layer to layer.
  [[nodiscard]] StepBatch WithSteps(std::vector<Variable> new_steps) const;
};

// Packs B sequences (all with the same column count, every length >= 1)
// into time-major step constants; builds masks only when lengths differ.
[[nodiscard]] StepBatch PackViews(const std::vector<SeqView>& views);

// Time-major stacked layout of a sequence batch, the operand format of
// the fused no-grad kernels (infer_kernels.h): step t owns a block of
// consecutive rows, blocks in step order. A uniform or ragged batch has
// `batch` rows per step (row t * batch + b is step t of sequence b); a
// prefix-shared batch instead lists each step's live rows in step_rows
// (non-increasing, sequences sorted longest first), so finished
// sequences drop off the end of the block instead of being masked.
struct StackedLayout {
  int steps = 0;
  int batch = 0;                    // rows of step 0
  const int* step_rows = nullptr;   // null: `batch` rows every step
  const float* mask = nullptr;      // ragged only: [total_rows()] 1 / 0
  const float* inv_mask = nullptr;  // 1 - mask

  [[nodiscard]] int total_rows() const;
};

// Masked state update: fresh where mask is 1, prev where it is 0
// (rowwise). Shorthand for Add(ScaleRows(fresh, m), ScaleRows(prev, im)).
[[nodiscard]] Variable MaskedUpdate(const Variable& fresh, const Variable& prev,
                      const Variable& mask, const Variable& inv_mask);

}  // namespace lead::nn

