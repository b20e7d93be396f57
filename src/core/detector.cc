#include "core/detector.h"

#include <utility>

#include "common/check.h"
#include "core/batching.h"
#include "core/grouping.h"
#include "nn/infer_kernels.h"
#include "nn/ops.h"
#include "obs/trace.h"

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

std::vector<nn::Variable> StackedBiLstmDetector::ScoreGrouped(
    const std::vector<GroupedItem>& items,
    const BucketSchedule& schedule) const {
  // Materialize each item's subgroup members contiguously; spans below
  // view these matrices.
  std::vector<nn::Variable> grouped;
  grouped.reserve(items.size());
  std::vector<nn::SeqView> views;
  std::vector<int> lengths;
  for (const GroupedItem& item : items) {
    LEAD_CHECK(!item.layout->lengths.empty());
    std::vector<int> rows = item.layout->member_rows;
    for (int& r : rows) r += item.first_row;
    grouped.push_back(nn::GatherRows(item.cvecs, std::move(rows)));
    int row = 0;
    for (const int len : item.layout->lengths) {
      views.push_back({nn::SeqSpan{&grouped.back().value(), row, len}});
      lengths.push_back(len);
      row += len;
    }
  }
  // The bucket split depends only on the subgroup lengths, so it is the
  // same for every thread count; per-row values are independent of batch
  // composition, so buckets may run concurrently (and fused across
  // lengths: padded columns are sliced away like ordinary padding).
  std::vector<LengthBucket> buckets =
      BucketByLength(lengths, kSubgroupMaxBatch, kSubgroupMaxPadding);
  if (schedule.fuse) {
    buckets = FuseSmallBuckets(std::move(buckets), lengths, kFastFuseMinBatch,
                               kFastFuseMaxBatch, kFastFuseMaxPadding);
  }
  std::vector<nn::Variable> scores(buckets.size());
  std::vector<std::pair<int, int>> where(views.size());  // (bucket, row)
  for (size_t kb = 0; kb < buckets.size(); ++kb) {
    for (size_t j = 0; j < buckets[kb].items.size(); ++j) {
      where[static_cast<size_t>(buckets[kb].items[j])] = {
          static_cast<int>(kb), static_cast<int>(j)};
    }
  }
  const auto score_bucket = [&](int64_t kb) {
    const LengthBucket& bucket = buckets[static_cast<size_t>(kb)];
    // Emitted on whichever lane scores the bucket, so the trace shows the
    // real per-thread schedule of bucket work.
    obs::ScopedSpan bucket_span(obs::kCatDet, "score_bucket");
    bucket_span.Arg("subgroups", static_cast<double>(bucket.items.size()));
    bucket_span.Arg("max_len", static_cast<double>(bucket.max_len));
    std::vector<nn::SeqView> bucket_views;
    bucket_views.reserve(bucket.items.size());
    for (const int pi : bucket.items) {
      bucket_views.push_back(views[static_cast<size_t>(pi)]);
    }
    scores[static_cast<size_t>(kb)] =
        ScoreSubgroupsBatch(nn::PackViews(bucket_views));
  };
  const int64_t num_buckets = static_cast<int64_t>(buckets.size());
  if (schedule.for_each) {
    schedule.for_each(num_buckets, score_bucket);
  } else {
    for (int64_t kb = 0; kb < num_buckets; ++kb) score_bucket(kb);
  }
  for (const nn::Variable& s : scores) {
    if (!s.defined()) return {};
  }
  std::vector<nn::Variable> probs;
  probs.reserve(items.size());
  size_t view = 0;
  for (const GroupedItem& item : items) {
    std::vector<nn::Variable> parts;
    parts.reserve(item.layout->lengths.size());
    for (const int len : item.layout->lengths) {
      const auto [kb, brow] = where[view++];
      parts.push_back(nn::SliceCols(
          nn::SliceRows(scores[static_cast<size_t>(kb)], brow, 1), 0, len));
    }
    probs.push_back(nn::SoftmaxRows(nn::ConcatCols(parts)));
  }
  return probs;
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
