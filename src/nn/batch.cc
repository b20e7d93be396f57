#include "nn/batch.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "nn/contract.h"
#include "nn/ops.h"
#include "obs/trace.h"

namespace lead::nn {

int SeqViewRows(const SeqView& view) {
  int rows = 0;
  for (const SeqSpan& span : view) rows += span.rows;
  return rows;
}

StepBatch StepBatch::WithSteps(std::vector<Variable> new_steps) const {
  LEAD_CHECK_EQ(new_steps.size(), steps.size());
  if (contract::kEnabled && !new_steps.empty()) {
    for (const Variable& s : new_steps) {
      contract::RequireDims("StepBatch::WithSteps", s.value(), batch(), -1,
                            "replacement steps must keep the batch rows");
    }
  }
  StepBatch out;
  out.steps = std::move(new_steps);
  out.masks = masks;
  out.inv_masks = inv_masks;
  out.lengths = lengths;
  return out;
}

StepBatch PackViews(const std::vector<SeqView>& views) {
  LEAD_CHECK(!views.empty());
  obs::ScopedSpan trace_span(obs::kCatBatch, "pack_views");
  trace_span.Arg("batch", static_cast<double>(views.size()));
  const int batch = static_cast<int>(views.size());
  int dims = 0;
  for (const SeqSpan& span : views[0]) {
    if (span.rows > 0) {
      dims = span.source->cols();
      break;
    }
  }
  LEAD_CHECK_GT(dims, 0);

  StepBatch out;
  out.lengths.reserve(batch);
  int max_len = 0;
  bool ragged = false;
  for (const SeqView& view : views) {
    const int len = SeqViewRows(view);
    LEAD_CHECK_GT(len, 0);
    out.lengths.push_back(len);
    if (max_len != 0 && len != max_len) ragged = true;
    max_len = std::max(max_len, len);
  }

  std::vector<Matrix> steps(max_len, Matrix(batch, dims));
  for (int b = 0; b < batch; ++b) {
    int t = 0;
    for (const SeqSpan& span : views[b]) {
      contract::Require("PackViews", span.source->cols() == dims,
                        "all spans must share the feature width",
                        *views[0][0].source, *span.source);
      LEAD_CHECK_EQ(span.source->cols(), dims);
      for (int r = 0; r < span.rows; ++r, ++t) {
        const float* src = span.source->row(span.row_begin + r);
        std::copy(src, src + dims, steps[t].row(b));
      }
    }
  }
  out.steps.reserve(max_len);
  for (Matrix& m : steps) out.steps.push_back(Variable::Constant(std::move(m)));

  if (ragged) {
    out.masks.reserve(max_len);
    out.inv_masks.reserve(max_len);
    for (int t = 0; t < max_len; ++t) {
      Matrix mask(batch, 1);
      Matrix inv(batch, 1);
      for (int b = 0; b < batch; ++b) {
        const bool valid = t < out.lengths[b];
        mask.at(b, 0) = valid ? 1.0f : 0.0f;
        inv.at(b, 0) = valid ? 0.0f : 1.0f;
      }
      out.masks.push_back(Variable::Constant(std::move(mask)));
      out.inv_masks.push_back(Variable::Constant(std::move(inv)));
    }
  }
  return out;
}

int StackedLayout::total_rows() const {
  if (step_rows == nullptr) return steps * batch;
  int total = 0;
  for (int t = 0; t < steps; ++t) total += step_rows[t];
  return total;
}

Variable MaskedUpdate(const Variable& fresh, const Variable& prev,
                      const Variable& mask, const Variable& inv_mask) {
  contract::RequireSameShape("MaskedUpdate", fresh.value(), prev.value());
  contract::Require("MaskedUpdate",
                    mask.rows() == fresh.rows() && mask.cols() == 1 &&
                        inv_mask.rows() == fresh.rows() &&
                        inv_mask.cols() == 1,
                    "masks must be [B x 1]", fresh.value(), mask.value());
  return Add(ScaleRows(fresh, mask), ScaleRows(prev, inv_mask));
}

}  // namespace lead::nn
