#include "core/detector.h"

#include <utility>

#include "common/check.h"
#include "core/batching.h"
#include "core/grouping.h"
#include "nn/infer_kernels.h"
#include "nn/ops.h"

namespace lead::core {

GroupScoringLayout BuildGroupScoringLayout(int num_stays, bool forward) {
  const std::vector<Subgroup> groups =
      forward ? ForwardGroups(num_stays) : BackwardGroups(num_stays);
  GroupScoringLayout layout;
  layout.lengths.reserve(groups.size());
  for (const Subgroup& g : groups) {
    layout.lengths.push_back(static_cast<int>(g.members.size()));
    for (const traj::Candidate& c : g.members) {
      layout.member_rows.push_back(traj::CandidateFlatIndex(num_stays, c));
    }
  }
  return layout;
}

StackedBiLstmDetector::StackedBiLstmDetector(const DetectorOptions& options,
                                             Rng* rng)
    : options_(options) {
  LEAD_CHECK_GE(options.num_layers, 1);
  layers_.reserve(options.num_layers);
  projections_.reserve(options.num_layers);
  for (int l = 0; l < options.num_layers; ++l) {
    const int in = l == 0 ? options.input_dims : options.hidden;
    layers_.push_back(std::make_unique<nn::BiLstm>(in, options.hidden, rng));
    projections_.push_back(
        std::make_unique<nn::Linear>(2 * options.hidden, options.hidden, rng));
    RegisterChild("bilstm" + std::to_string(l), layers_[l].get());
    RegisterChild("proj" + std::to_string(l), projections_[l].get());
  }
  score_ = std::make_unique<nn::Linear>(options.hidden, 1, rng);
  RegisterChild("score", score_.get());
}

nn::Variable StackedBiLstmDetector::ScoreSubgroup(
    const nn::Variable& subgroup) const {
  nn::Variable hidden = subgroup;
  for (size_t l = 0; l < layers_.size(); ++l) {
    hidden = projections_[l]->Forward(layers_[l]->Forward(hidden));
  }
  const nn::Variable scores = score_->Forward(hidden);  // [T x 1]
  return nn::Transpose(scores);                         // [1 x T]
}

nn::Variable StackedBiLstmDetector::ScoreSubgroupsBatch(
    const nn::StepBatch& input) const {
  if (nn::internal::FusedInferenceActive()) {
    const nn::internal::StackedStepBatch stacked(
        input, options_.input_dims,
        "StackedBiLstmDetector::ScoreSubgroupsBatch");
    return InferStacked(stacked.layout(), stacked.x());
  }
  nn::StepBatch current = input;
  for (size_t l = 0; l < layers_.size(); ++l) {
    std::vector<nn::Variable> hidden = layers_[l]->ForwardSteps(current);
    for (nn::Variable& h : hidden) {
      h = projections_[l]->Forward(h);  // [B x 2H] -> [B x H]
    }
    current = current.WithSteps(std::move(hidden));
  }
  std::vector<nn::Variable> score_cols;
  score_cols.reserve(current.steps.size());
  for (const nn::Variable& step : current.steps) {
    score_cols.push_back(score_->Forward(step));  // [B x 1]
  }
  return nn::ConcatCols(score_cols);  // [B x max_len]
}

nn::Variable StackedBiLstmDetector::InferStacked(
    const nn::StackedLayout& layout, const float* x) const {
  const int total = layout.total_rows();
  const int h = options_.hidden;
  nn::internal::ScratchLease both(static_cast<size_t>(total) * 2 * h);
  nn::internal::ScratchLease ping(static_cast<size_t>(total) * h);
  nn::internal::ScratchLease pong(static_cast<size_t>(total) * h);
  const float* in = x;
  for (size_t l = 0; l < layers_.size(); ++l) {
    float* projected = (l % 2 == 0 ? ping : pong).data();
    layers_[l]->InferStacked(layout, in, both.data());
    projections_[l]->InferRows(both.data(), total, projected);
    in = projected;
  }
  nn::internal::ScratchLease scores(static_cast<size_t>(total));
  score_->InferRows(in, total, scores.data());
  // Stacked row t * batch + b is step t of subgroup b: transpose into the
  // [batch x steps] layout of ConcatCols over the per-step score columns.
  nn::Matrix out(layout.batch, layout.steps);
  for (int t = 0; t < layout.steps; ++t) {
    for (int b = 0; b < layout.batch; ++b) {
      out.at(b, t) = scores.data()[t * layout.batch + b];
    }
  }
  return nn::Variable::Constant(std::move(out));
}

nn::Variable StackedBiLstmDetector::ScoreGrouped(
    const nn::Variable& cvecs, const GroupScoringLayout& layout) const {
  LEAD_CHECK(!layout.lengths.empty());
  // Materialize the subgroup members contiguously; spans below view this
  // one matrix, so a plan recording resolves them all to the gather's
  // output slot.
  const nn::Variable grouped = nn::GatherRows(cvecs, layout.member_rows);
  std::vector<nn::SeqView> views;
  views.reserve(layout.lengths.size());
  int row = 0;
  for (const int len : layout.lengths) {
    views.push_back({nn::SeqSpan{&grouped.value(), row, len}});
    row += len;
  }
  // Same deterministic bucket split as the parallel eager path; buckets
  // run serially here so the whole pass is one recordable op sequence.
  const std::vector<LengthBucket> buckets =
      BucketByLength(layout.lengths, kSubgroupMaxBatch, kSubgroupMaxPadding);
  std::vector<nn::Variable> scores(buckets.size());
  std::vector<std::pair<int, int>> where(layout.lengths.size());
  for (size_t kb = 0; kb < buckets.size(); ++kb) {
    const LengthBucket& bucket = buckets[kb];
    std::vector<nn::SeqView> bucket_views;
    bucket_views.reserve(bucket.items.size());
    for (size_t j = 0; j < bucket.items.size(); ++j) {
      bucket_views.push_back(views[bucket.items[j]]);
      where[bucket.items[j]] = {static_cast<int>(kb), static_cast<int>(j)};
    }
    scores[kb] = ScoreSubgroupsBatch(nn::PackViews(bucket_views));
  }
  std::vector<nn::Variable> parts;
  parts.reserve(layout.lengths.size());
  for (size_t gi = 0; gi < layout.lengths.size(); ++gi) {
    const auto [kb, brow] = where[gi];
    parts.push_back(nn::SliceCols(nn::SliceRows(scores[kb], brow, 1), 0,
                                  layout.lengths[gi]));
  }
  return nn::SoftmaxRows(nn::ConcatCols(parts));
}

nn::Variable StackedBiLstmDetector::ForwardGroup(
    const std::vector<nn::Variable>& subgroups) const {
  std::vector<nn::Variable> parts;
  parts.reserve(subgroups.size());
  for (const nn::Variable& subgroup : subgroups) {
    parts.push_back(ScoreSubgroup(subgroup));
  }
  return nn::SoftmaxRows(nn::ConcatCols(parts));
}

MlpScorer::MlpScorer(int input_dims, Rng* rng)
    : fc1_(input_dims, 64, rng),
      fc2_(64, 32, rng),
      fc3_(32, 32, rng),
      fc4_(32, 1, rng) {
  RegisterChild("fc1", &fc1_);
  RegisterChild("fc2", &fc2_);
  RegisterChild("fc3", &fc3_);
  RegisterChild("fc4", &fc4_);
}

nn::Variable MlpScorer::Forward(const nn::Variable& cvecs) const {
  nn::Variable h = nn::Relu(fc1_.Forward(cvecs));
  h = nn::Relu(fc2_.Forward(h));
  h = nn::Relu(fc3_.Forward(h));
  return nn::Sigmoid(fc4_.Forward(h));
}

}  // namespace lead::core
