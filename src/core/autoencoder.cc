#include "core/autoencoder.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/batching.h"
#include "nn/batch.h"
#include "nn/infer_kernels.h"
#include "nn/ops.h"
#include "nn/plan.h"
#include "nn/vec_math.h"

namespace lead::core {

namespace {

// Phase-1 segment bucketing knobs: cap the batch so step matrices stay
// cache-resident, and cap per-member padding so short segments do not pay
// for long ones.
constexpr int kSegmentMaxBatch = 64;
constexpr int kSegmentMaxPadding = 4;

// One stay/move segment of one batch item.
struct SegmentTask {
  int item = 0;  // index into the CandidateBatchItem vector
  int pos = 0;   // segment position within the candidate
  traj::IndexRange range;
};

// Segment tasks compressed through one operator, bucket by bucket. `rows`
// stacks the per-bucket outputs; row_of maps a task index to its row.
// The packed inputs are kept per bucket because they double as the padded
// decode targets of the mirrored decompression pass.
struct CompressedBank {
  nn::Variable rows;  // [num_tasks x h]
  std::vector<int> row_of;
  std::vector<LengthBucket> buckets;
  std::vector<nn::StepBatch> packed;
};

CompressedBank CompressSegments(const CompressionOperator& op,
                                const std::vector<CandidateBatchItem>& items,
                                const std::vector<SegmentTask>& tasks) {
  CompressedBank bank;
  if (tasks.empty()) {
    return bank;
  }
  std::vector<int> lengths;
  lengths.reserve(tasks.size());
  for (const SegmentTask& task : tasks) {
    lengths.push_back(task.range.size());
  }
  bank.buckets = BucketByLength(lengths, kSegmentMaxBatch, kSegmentMaxPadding);
  bank.row_of.resize(tasks.size());
  std::vector<nn::Variable> outputs;
  outputs.reserve(bank.buckets.size());
  int next_row = 0;
  for (const LengthBucket& bucket : bank.buckets) {
    std::vector<nn::SeqView> views;
    views.reserve(bucket.items.size());
    for (int ti : bucket.items) {
      const SegmentTask& task = tasks[ti];
      views.push_back({nn::SeqSpan{&items[task.item].pt->features,
                                   task.range.begin, task.range.size()}});
      bank.row_of[ti] = next_row++;
    }
    nn::StepBatch packed = nn::PackViews(views);
    outputs.push_back(op.ForwardBatch(packed));
    bank.packed.push_back(std::move(packed));
  }
  bank.rows = nn::ConcatRows(outputs);
  return bank;
}

// Sum of masked squared errors between decoded steps and the padded
// targets they were packed from, weighted per row; accumulated onto
// `*loss` as a [1 x 1] scalar. weight row b carries
// 1 / (item_elements * batch_items), which turns the global sum into the
// mean of per-item MSE losses.
void AccumulateDecodeLoss(const std::vector<nn::Variable>& decoded,
                          const nn::StepBatch& targets,
                          const nn::Variable& weights, nn::Variable* loss) {
  nn::Variable col_sum;
  for (int t = 0; t < targets.max_len(); ++t) {
    const nn::Variable diff = nn::Sub(decoded[t], targets.steps[t]);
    nn::Variable col = nn::RowSum(nn::Mul(diff, diff));  // [B x 1]
    if (targets.ragged()) {
      col = nn::Mul(col, targets.masks[t]);
    }
    col_sum = col_sum.defined() ? nn::Add(col_sum, col) : col;
  }
  const nn::Variable contrib = nn::Sum(nn::Mul(col_sum, weights));
  *loss = loss->defined() ? nn::Add(*loss, contrib) : contrib;
}

// [B x 1] constant with the per-row loss weights of a bucket's members.
nn::Variable BucketWeights(const std::vector<int>& bucket_items,
                           const std::vector<float>& item_weight,
                           const std::vector<SegmentTask>* tasks) {
  nn::Matrix w(static_cast<int>(bucket_items.size()), 1);
  for (size_t i = 0; i < bucket_items.size(); ++i) {
    const int item =
        tasks ? (*tasks)[bucket_items[i]].item : bucket_items[i];
    w.at(static_cast<int>(i), 0) = item_weight[item];
  }
  return nn::Variable::Constant(std::move(w));
}

// Phase 2 of the fused encode-only pass, shared by prefix (DESIGN.md,
// "No-grad inference kernels"). Candidates (i, j) of one trajectory with
// the same start stay i feed their phase-2 LSTMs identical inputs for
// steps 0..j-i (the c-vecs of stays i, i+1, ... and of move slots i+1,
// ...), and an LSTM row's state at step t depends only on its own inputs
// up to t. So one sequence per (trajectory, start), as long as its
// longest candidate, yields every candidate's hidden states: candidate
// (i, j) reads steps 0..j-i and queries with step j-i. Sequences run
// longest first, so the rows still live at step t are a prefix of the
// batch and no masks are needed.
nn::Variable EncodePrefixShared(const CompressionOperator& sp_op,
                                const CompressionOperator& mp_op,
                                const std::vector<CandidateBatchItem>& items,
                                const std::vector<std::vector<int>>& sp_ids,
                                const std::vector<std::vector<int>>& mp_ids,
                                const CompressedBank& sp_bank,
                                const CompressedBank& mp_bank) {
  const int num_items = static_cast<int>(items.size());
  // One group per (trajectory, start stay), represented by its longest
  // candidate; every member's id lists are prefixes of the representative's.
  std::map<std::pair<const ProcessedTrajectory*, int>, int> group_of_key;
  std::vector<int> group_of(num_items);
  std::vector<int> rep;
  for (int i = 0; i < num_items; ++i) {
    const auto [it, inserted] = group_of_key.try_emplace(
        {items[i].pt, items[i].candidate.start_sp},
        static_cast<int>(rep.size()));
    const int g = it->second;
    if (inserted) {
      rep.push_back(i);
    } else if (sp_ids[i].size() > sp_ids[rep[g]].size()) {
      rep[g] = i;
    }
    group_of[i] = g;
  }
  const int num_groups = static_cast<int>(rep.size());
  std::vector<int> order(num_groups);
  for (int g = 0; g < num_groups; ++g) order[g] = g;
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return sp_ids[rep[a]].size() > sp_ids[rep[b]].size();
  });
  std::vector<int> rank(num_groups);
  for (int r = 0; r < num_groups; ++r) rank[order[r]] = r;

  std::vector<int> ranks(num_items);
  std::vector<int> steps(num_items);
  for (int i = 0; i < num_items; ++i) ranks[i] = rank[group_of[i]];
  // Compresses every item's sequence of bank rows (-1: zero row) into
  // out [num_items x output_dims].
  auto compress = [&](const CompressionOperator& op,
                      const CompressedBank& bank,
                      const std::vector<std::vector<int>>& ids, float* out) {
    const int max_len = static_cast<int>(ids[rep[order[0]]].size());
    std::vector<int> step_rows(max_len, 0);
    for (int g = 0; g < num_groups; ++g) {
      for (size_t t = 0; t < ids[rep[g]].size(); ++t) ++step_rows[t];
    }
    const int dims = op.input_dims();
    const nn::StackedLayout layout{max_len, step_rows[0], step_rows.data()};
    nn::internal::ScratchLease x(static_cast<size_t>(layout.total_rows()) *
                                 dims);
    float* dst = x.data();
    for (int t = 0; t < max_len; ++t) {
      for (int r = 0; r < step_rows[t]; ++r, dst += dims) {
        const int id = ids[rep[order[r]]][t];
        if (id < 0) {
          std::fill(dst, dst + dims, 0.0f);
        } else {
          const float* src = bank.rows.value().row(bank.row_of[id]);
          std::copy(src, src + dims, dst);
        }
      }
    }
    for (int i = 0; i < num_items; ++i) {
      steps[i] = static_cast<int>(ids[i].size());
    }
    op.InferPrefixes(layout, x.data(), ranks.data(), steps.data(), num_items,
                     out);
  };
  const int h = sp_op.output_dims();
  nn::internal::ScratchLease sp_out(static_cast<size_t>(num_items) * h);
  nn::internal::ScratchLease mp_out(static_cast<size_t>(num_items) * h);
  compress(sp_op, sp_bank, sp_ids, sp_out.data());
  compress(mp_op, mp_bank, mp_ids, mp_out.data());
  nn::Matrix cvecs(num_items, 2 * h);
  for (int i = 0; i < num_items; ++i) {
    const float* sp = sp_out.data() + static_cast<size_t>(i) * h;
    const float* mp = mp_out.data() + static_cast<size_t>(i) * h;
    std::copy(sp, sp + h, cvecs.row(i));
    std::copy(mp, mp + h, cvecs.row(i) + h);
  }
  return nn::Variable::Constant(std::move(cvecs));
}

}  // namespace

CompressionOperator::CompressionOperator(int input_dims, int hidden,
                                         int output_dims, bool use_attention,
                                         Rng* rng)
    : output_dims_(output_dims),
      use_attention_(use_attention),
      lstm_(input_dims, hidden, rng),
      fc1_(hidden, hidden, rng),
      fc2_(hidden, output_dims, rng) {
  RegisterChild("lstm", &lstm_);
  if (use_attention_) {
    attention_ = std::make_unique<nn::LastQueryAttention>(hidden, hidden, rng);
    RegisterChild("attn", attention_.get());
  }
  RegisterChild("fc1", &fc1_);
  RegisterChild("fc2", &fc2_);
}

nn::Variable CompressionOperator::Forward(const nn::Variable& seq) const {
  const nn::Variable hidden_states = lstm_.ForwardSequence(seq);
  const nn::Variable aggregated =
      use_attention_
          ? attention_->Forward(hidden_states)
          : nn::SliceRows(hidden_states, hidden_states.rows() - 1, 1);
  return nn::Tanh(fc2_.Forward(fc1_.Forward(aggregated)));
}

nn::Variable CompressionOperator::ForwardBatch(
    const nn::StepBatch& input) const {
  if (nn::internal::FusedInferenceActive()) {
    const nn::internal::StackedStepBatch stacked(
        input, input_dims(), "CompressionOperator::ForwardBatch");
    nn::Matrix out(input.batch(), output_dims_);
    InferStacked(stacked.layout(), stacked.x(), stacked.lengths(),
                 out.data());
    return nn::Variable::Constant(std::move(out));
  }
  const std::vector<nn::Variable> hidden = lstm_.ForwardSequenceSteps(input);
  // The masked recurrence freezes finished rows, so hidden.back() row b is
  // row b's state at its own last valid step.
  const nn::Variable aggregated = use_attention_
                                      ? attention_->ForwardSteps(hidden, input)
                                      : hidden.back();
  return nn::Tanh(fc2_.Forward(fc1_.Forward(aggregated)));
}

void CompressionOperator::InferHead(const float* agg, int rows,
                                    float* out) const {
  nn::internal::ScratchLease fc1_out(static_cast<size_t>(rows) *
                                     fc1_.out_features());
  fc1_.InferRows(agg, rows, fc1_out.data());
  fc2_.InferRows(fc1_out.data(), rows, out);
  nn::TanhInPlace(out, rows * output_dims_);
}

void CompressionOperator::InferStacked(const nn::StackedLayout& layout,
                                       const float* x, const int* lengths,
                                       float* out) const {
  const int h = lstm_.hidden_size();
  const int batch = layout.batch;
  nn::internal::ScratchLease hidden(static_cast<size_t>(layout.steps) *
                                    batch * h);
  lstm_.InferStacked(layout, x, /*reversed=*/false, hidden.data(), h);
  if (!use_attention_) {
    // Masked rows are frozen, so the last step block holds every row's
    // state at its own final valid step (hidden.back() on the op path).
    InferHead(hidden.data() + static_cast<size_t>(layout.steps - 1) * batch * h,
              batch, out);
    return;
  }
  nn::internal::ScratchLease aggregated(static_cast<size_t>(batch) * h);
  attention_->InferStacked(layout, hidden.data(), lengths, aggregated.data());
  InferHead(aggregated.data(), batch, out);
}

void CompressionOperator::InferPrefixes(const nn::StackedLayout& layout,
                                        const float* x, const int* ranks,
                                        const int* steps, int num_queries,
                                        float* out) const {
  const int h = lstm_.hidden_size();
  const int total = layout.total_rows();
  nn::internal::ScratchLease hidden(static_cast<size_t>(total) * h);
  lstm_.InferStacked(layout, x, /*reversed=*/false, hidden.data(), h);
  std::vector<int> step_offset(layout.steps);
  for (int t = 0, row = 0; t < layout.steps; row += layout.step_rows[t++]) {
    step_offset[t] = row;
  }
  nn::internal::ScratchLease aggregated(static_cast<size_t>(num_queries) * h);
  if (use_attention_) {
    attention_->InferPrefixes(hidden.data(), total, step_offset.data(), ranks,
                              steps, num_queries, aggregated.data());
  } else {
    for (int q = 0; q < num_queries; ++q) {
      const float* last =
          hidden.data() +
          static_cast<size_t>(step_offset[steps[q] - 1] + ranks[q]) * h;
      std::copy(last, last + h,
                aggregated.data() + static_cast<size_t>(q) * h);
    }
  }
  InferHead(aggregated.data(), num_queries, out);
}

DecompressionOperator::DecompressionOperator(int input_dims, int hidden,
                                             int output_dims, Rng* rng)
    : lstm_(input_dims, hidden, rng),
      fc1_(hidden, hidden, rng),
      fc2_(hidden, output_dims, rng) {
  RegisterChild("lstm", &lstm_);
  RegisterChild("fc1", &fc1_);
  RegisterChild("fc2", &fc2_);
}

nn::Variable DecompressionOperator::Forward(const nn::Variable& v,
                                            int steps) const {
  const nn::Variable hidden_states = lstm_.ForwardConstantInput(v, steps);
  return nn::Tanh(fc2_.Forward(fc1_.Forward(hidden_states)));
}

std::vector<nn::Variable> DecompressionOperator::ForwardSteps(
    const nn::Variable& v, int steps) const {
  const std::vector<nn::Variable> hidden =
      lstm_.ForwardConstantInputSteps(v, steps);
  std::vector<nn::Variable> out;
  out.reserve(hidden.size());
  for (const nn::Variable& h : hidden) {
    out.push_back(nn::Tanh(fc2_.Forward(fc1_.Forward(h))));
  }
  return out;
}

CandidateSegments BuildCandidateSegments(const ProcessedTrajectory& pt,
                                         const traj::Candidate& candidate) {
  const traj::Segmentation& seg = pt.segmentation;
  LEAD_CHECK_GE(candidate.start_sp, 0);
  LEAD_CHECK_LT(candidate.start_sp, candidate.end_sp);
  LEAD_CHECK_LT(candidate.end_sp, seg.num_stays());
  CandidateSegments out;
  for (int s = candidate.start_sp; s <= candidate.end_sp; ++s) {
    out.sp_seqs.push_back(SegmentFeatures(pt, seg.stays[s].range));
  }
  // Interior move slots of <sp_a --> sp_b> are moves a+1 .. b.
  for (int m = candidate.start_sp + 1; m <= candidate.end_sp; ++m) {
    const traj::MoveSegment& move = seg.moves[m];
    out.mp_seqs.push_back(move.has_points ? SegmentFeatures(pt, move.range)
                                          : nn::Variable());
  }
  return out;
}

HierarchicalAutoencoder::HierarchicalAutoencoder(
    const AutoencoderOptions& options, Rng* rng)
    : options_(options) {
  const int f = options_.feature_dims;
  const int h = options_.hidden;
  if (options_.hierarchical) {
    comp_sp1_ = std::make_unique<CompressionOperator>(
        f, h, h, options_.use_attention, rng);
    comp_mp1_ = std::make_unique<CompressionOperator>(
        f, h, h, options_.use_attention, rng);
    comp_sp2_ = std::make_unique<CompressionOperator>(
        h, h, h, options_.use_attention, rng);
    comp_mp2_ = std::make_unique<CompressionOperator>(
        h, h, h, options_.use_attention, rng);
    dec_sp2_ = std::make_unique<DecompressionOperator>(h, h, h, rng);
    dec_mp2_ = std::make_unique<DecompressionOperator>(h, h, h, rng);
    dec_sp1_ = std::make_unique<DecompressionOperator>(h, h, f, rng);
    dec_mp1_ = std::make_unique<DecompressionOperator>(h, h, f, rng);
    RegisterChild("comp_sp1", comp_sp1_.get());
    RegisterChild("comp_mp1", comp_mp1_.get());
    RegisterChild("comp_sp2", comp_sp2_.get());
    RegisterChild("comp_mp2", comp_mp2_.get());
    RegisterChild("dec_sp2", dec_sp2_.get());
    RegisterChild("dec_mp2", dec_mp2_.get());
    RegisterChild("dec_sp1", dec_sp1_.get());
    RegisterChild("dec_mp1", dec_mp1_.get());
  } else {
    // NoHie: one operator each; the c-vec keeps the 2h dimension so the
    // detectors are comparable.
    comp_flat_ = std::make_unique<CompressionOperator>(
        f, h, 2 * h, options_.use_attention, rng);
    dec_flat_ = std::make_unique<DecompressionOperator>(2 * h, h, f, rng);
    RegisterChild("comp_flat", comp_flat_.get());
    RegisterChild("dec_flat", dec_flat_.get());
  }
}

nn::Variable HierarchicalAutoencoder::CompressMove(
    const nn::Variable& seq) const {
  if (!seq.defined()) {
    // Empty move slot: a zero mp-c-vec keeps positions aligned in the
    // MP-c-vec-seq.
    return nn::Variable::Constant(nn::Matrix::Zeros(1, options_.hidden));
  }
  return comp_mp1_->Forward(seq);
}

TrajectoryEncoding HierarchicalAutoencoder::EncodeSegments(
    const ProcessedTrajectory& pt) const {
  LEAD_CHECK(options_.hierarchical);
  TrajectoryEncoding enc;
  const traj::Segmentation& seg = pt.segmentation;
  enc.sp_cvecs.reserve(seg.stays.size());
  for (const traj::StayPoint& sp : seg.stays) {
    enc.sp_cvecs.push_back(comp_sp1_->Forward(SegmentFeatures(pt, sp.range)));
  }
  enc.mp_cvecs.reserve(seg.moves.size());
  for (const traj::MoveSegment& move : seg.moves) {
    enc.mp_cvecs.push_back(
        CompressMove(move.has_points ? SegmentFeatures(pt, move.range)
                                     : nn::Variable()));
  }
  return enc;
}

nn::Variable HierarchicalAutoencoder::EncodeCandidateFromSegments(
    const TrajectoryEncoding& enc, const traj::Candidate& c) const {
  LEAD_CHECK(options_.hierarchical);
  std::vector<nn::Variable> sp_rows(enc.sp_cvecs.begin() + c.start_sp,
                                    enc.sp_cvecs.begin() + c.end_sp + 1);
  std::vector<nn::Variable> mp_rows(enc.mp_cvecs.begin() + c.start_sp + 1,
                                    enc.mp_cvecs.begin() + c.end_sp + 1);
  const nn::Variable sp_cvec = comp_sp2_->Forward(nn::ConcatRows(sp_rows));
  const nn::Variable mp_cvec = comp_mp2_->Forward(nn::ConcatRows(mp_rows));
  return nn::ConcatCols({sp_cvec, mp_cvec});
}

nn::Variable HierarchicalAutoencoder::EncodeHierarchical(
    const CandidateSegments& segments) const {
  std::vector<nn::Variable> sp_cvecs;
  sp_cvecs.reserve(segments.sp_seqs.size());
  for (const nn::Variable& seq : segments.sp_seqs) {
    sp_cvecs.push_back(comp_sp1_->Forward(seq));
  }
  std::vector<nn::Variable> mp_cvecs;
  mp_cvecs.reserve(segments.mp_seqs.size());
  for (const nn::Variable& seq : segments.mp_seqs) {
    mp_cvecs.push_back(CompressMove(seq));
  }
  const nn::Variable sp_cvec = comp_sp2_->Forward(nn::ConcatRows(sp_cvecs));
  const nn::Variable mp_cvec = comp_mp2_->Forward(nn::ConcatRows(mp_cvecs));
  return nn::ConcatCols({sp_cvec, mp_cvec});
}

nn::Variable HierarchicalAutoencoder::FlatSequence(
    const CandidateSegments& segments) {
  std::vector<nn::Variable> parts;
  parts.reserve(segments.sp_seqs.size() + segments.mp_seqs.size());
  for (size_t i = 0; i < segments.sp_seqs.size(); ++i) {
    parts.push_back(segments.sp_seqs[i]);
    if (i < segments.mp_seqs.size() && segments.mp_seqs[i].defined()) {
      parts.push_back(segments.mp_seqs[i]);
    }
  }
  return nn::ConcatRows(parts);
}

nn::Variable HierarchicalAutoencoder::EncodeFlat(
    const CandidateSegments& segments) const {
  return comp_flat_->Forward(FlatSequence(segments));
}

nn::Variable HierarchicalAutoencoder::EncodeCandidate(
    const ProcessedTrajectory& pt, const traj::Candidate& c) const {
  const CandidateSegments segments = BuildCandidateSegments(pt, c);
  return options_.hierarchical ? EncodeHierarchical(segments)
                               : EncodeFlat(segments);
}

nn::Variable HierarchicalAutoencoder::ReconstructionLoss(
    const ProcessedTrajectory& pt, const traj::Candidate& c) const {
  const CandidateSegments segments = BuildCandidateSegments(pt, c);
  const nn::Variable original = FlatSequence(segments);

  if (!options_.hierarchical) {
    const nn::Variable cvec = EncodeFlat(segments);
    const nn::Variable decoded = dec_flat_->Forward(cvec, original.rows());
    return nn::MseLoss(decoded, original);
  }

  const int h = options_.hidden;
  const nn::Variable cvec = EncodeHierarchical(segments);
  const nn::Variable sp_cvec = nn::SliceCols(cvec, 0, h);
  const nn::Variable mp_cvec = nn::SliceCols(cvec, h, h);

  const int num_sps = static_cast<int>(segments.sp_seqs.size());
  const int num_mps = static_cast<int>(segments.mp_seqs.size());
  // Phase 1 of the decompressor: c-vec halves back to c-vec sequences.
  const nn::Variable sp_cvec_seq = dec_sp2_->Forward(sp_cvec, num_sps);
  const nn::Variable mp_cvec_seq = dec_mp2_->Forward(mp_cvec, num_mps);

  // Phase 2: each c-vec back to its feature sequence; reassemble in the
  // original stay/move order for the point-wise MSE of Eq. 8.
  std::vector<nn::Variable> decoded_parts;
  decoded_parts.reserve(num_sps + num_mps);
  for (int i = 0; i < num_sps; ++i) {
    decoded_parts.push_back(dec_sp1_->Forward(
        nn::SliceRows(sp_cvec_seq, i, 1), segments.sp_seqs[i].rows()));
    if (i < num_mps && segments.mp_seqs[i].defined()) {
      decoded_parts.push_back(dec_mp1_->Forward(
          nn::SliceRows(mp_cvec_seq, i, 1), segments.mp_seqs[i].rows()));
    }
  }
  return nn::MseLoss(nn::ConcatRows(decoded_parts), original);
}

nn::Variable HierarchicalAutoencoder::ForwardBatchHierarchical(
    const std::vector<CandidateBatchItem>& items, nn::Variable* loss) const {
  const int num_items = static_cast<int>(items.size());
  const int h = options_.hidden;

  // Per-item segment tasks. sp_ids / mp_ids keep each item's task indices
  // in position order; an mp id of -1 marks an empty move slot.
  std::vector<SegmentTask> sp_tasks;
  std::vector<SegmentTask> mp_tasks;
  std::vector<std::vector<int>> sp_ids(num_items);
  std::vector<std::vector<int>> mp_ids(num_items);
  std::vector<float> item_weight(num_items);
  bool any_empty_move = false;
  // In the encode-only path a segment shared by several candidates of the
  // same trajectory is compressed once (the batched form of the "once
  // forward computation" sharing of §VI-B); GatherRows scatter-adds make
  // the repeated rows safe. The loss path keeps tasks 1:1 with
  // (item, position) because every item decodes its own copy.
  const bool share_segments = (loss == nullptr);
  std::map<std::tuple<const void*, int, int>, int> sp_seen;
  std::map<std::tuple<const void*, int, int>, int> mp_seen;
  auto intern = [&](std::map<std::tuple<const void*, int, int>, int>* seen,
                    std::vector<SegmentTask>* tasks, int item, int pos,
                    const nn::Matrix* features, traj::IndexRange range) {
    const int fresh = static_cast<int>(tasks->size());
    if (share_segments) {
      auto [it, inserted] = seen->try_emplace(
          std::make_tuple(static_cast<const void*>(features), range.begin,
                          range.end),
          fresh);
      if (!inserted) return it->second;
    }
    tasks->push_back({item, pos, range});
    return fresh;
  };
  for (int i = 0; i < num_items; ++i) {
    const traj::Segmentation& seg = items[i].pt->segmentation;
    const traj::Candidate& c = items[i].candidate;
    LEAD_CHECK_GE(c.start_sp, 0);
    LEAD_CHECK_LT(c.start_sp, c.end_sp);
    LEAD_CHECK_LT(c.end_sp, seg.num_stays());
    int flat_rows = 0;
    for (int s = c.start_sp; s <= c.end_sp; ++s) {
      sp_ids[i].push_back(intern(&sp_seen, &sp_tasks, i, s - c.start_sp,
                                 &items[i].pt->features, seg.stays[s].range));
      flat_rows += seg.stays[s].range.size();
    }
    for (int m = c.start_sp + 1; m <= c.end_sp; ++m) {
      const traj::MoveSegment& move = seg.moves[m];
      if (move.has_points) {
        mp_ids[i].push_back(intern(&mp_seen, &mp_tasks, i, m - c.start_sp - 1,
                                   &items[i].pt->features, move.range));
        flat_rows += move.range.size();
      } else {
        mp_ids[i].push_back(-1);
        any_empty_move = true;
      }
    }
    item_weight[i] = 1.0f / (static_cast<float>(flat_rows) *
                             static_cast<float>(options_.feature_dims) *
                             static_cast<float>(num_items));
  }

  // Phase-1 compression, bucketed by segment length. Encode-only no-grad
  // passes take the fused kernels and the prefix-shared phase 2.
  const CompressedBank sp_bank = CompressSegments(*comp_sp1_, items, sp_tasks);
  CompressedBank mp_bank = CompressSegments(*comp_mp1_, items, mp_tasks);
  if (share_segments && nn::internal::FusedInferenceActive()) {
    return EncodePrefixShared(*comp_sp2_, *comp_mp2_, items, sp_ids, mp_ids,
                              sp_bank, mp_bank);
  }
  // Zero mp-c-vec row for empty move slots (the CompressMove convention).
  int zero_row = static_cast<int>(mp_tasks.size());
  if (!mp_bank.rows.defined()) {
    mp_bank.rows = nn::Variable::Constant(nn::Matrix::Zeros(1, h));
    zero_row = 0;
  } else if (any_empty_move) {
    mp_bank.rows = nn::ConcatRows(
        {mp_bank.rows, nn::Variable::Constant(nn::Matrix::Zeros(1, h))});
  }

  // Phase-2 compression over the c-vec sequences. Items are bucketed with
  // max_padding 0, so every bucket is a uniform (maskless) batch.
  std::vector<int> num_sps(num_items);
  for (int i = 0; i < num_items; ++i) {
    num_sps[i] = static_cast<int>(sp_ids[i].size());
  }
  const std::vector<LengthBucket> item_buckets = BucketByLength(num_sps, 0, 0);
  std::vector<nn::Variable> bucket_cvecs;
  std::vector<nn::Variable> bucket_sp_cvec;
  std::vector<nn::Variable> bucket_mp_cvec;
  std::vector<int> concat_order;
  concat_order.reserve(num_items);
  for (const LengthBucket& bucket : item_buckets) {
    const int len = bucket.max_len;
    const int b = static_cast<int>(bucket.items.size());
    std::vector<nn::Variable> sp_steps;
    std::vector<nn::Variable> mp_steps;
    sp_steps.reserve(len);
    mp_steps.reserve(len - 1);
    for (int t = 0; t < len; ++t) {
      std::vector<int> rows;
      rows.reserve(b);
      for (int item : bucket.items) {
        rows.push_back(sp_bank.row_of[sp_ids[item][t]]);
      }
      sp_steps.push_back(nn::GatherRows(sp_bank.rows, std::move(rows)));
    }
    for (int t = 0; t < len - 1; ++t) {
      std::vector<int> rows;
      rows.reserve(b);
      for (int item : bucket.items) {
        const int id = mp_ids[item][t];
        rows.push_back(id < 0 ? zero_row : mp_bank.row_of[id]);
      }
      mp_steps.push_back(nn::GatherRows(mp_bank.rows, std::move(rows)));
    }
    nn::StepBatch sp_in;
    sp_in.steps = std::move(sp_steps);
    sp_in.lengths.assign(b, len);
    nn::StepBatch mp_in;
    mp_in.steps = std::move(mp_steps);
    mp_in.lengths.assign(b, len - 1);
    const nn::Variable sp_cvec = comp_sp2_->ForwardBatch(sp_in);
    const nn::Variable mp_cvec = comp_mp2_->ForwardBatch(mp_in);
    bucket_cvecs.push_back(nn::ConcatCols({sp_cvec, mp_cvec}));
    bucket_sp_cvec.push_back(sp_cvec);
    bucket_mp_cvec.push_back(mp_cvec);
    concat_order.insert(concat_order.end(), bucket.items.begin(),
                        bucket.items.end());
  }
  std::vector<int> row_in_concat(num_items);
  for (int i = 0; i < num_items; ++i) {
    row_in_concat[concat_order[i]] = i;
  }
  const nn::Variable cvecs =
      nn::GatherRows(nn::ConcatRows(bucket_cvecs), std::move(row_in_concat));
  if (loss == nullptr) {
    return cvecs;
  }

  // Phase 1 of the decompressor per item bucket; the per-step outputs are
  // flattened into banks so the segment decoders below can regroup rows by
  // segment-length bucket.
  std::vector<nn::Variable> sp_dec_parts;
  std::vector<nn::Variable> mp_dec_parts;
  std::vector<std::vector<int>> sp_dec_row(num_items);
  std::vector<std::vector<int>> mp_dec_row(num_items);
  for (int i = 0; i < num_items; ++i) {
    sp_dec_row[i].resize(num_sps[i]);
    mp_dec_row[i].resize(num_sps[i] - 1);
  }
  int next_sp = 0;
  int next_mp = 0;
  for (size_t kb = 0; kb < item_buckets.size(); ++kb) {
    const LengthBucket& bucket = item_buckets[kb];
    const int len = bucket.max_len;
    const std::vector<nn::Variable> sp_seq =
        dec_sp2_->ForwardSteps(bucket_sp_cvec[kb], len);
    const std::vector<nn::Variable> mp_seq =
        dec_mp2_->ForwardSteps(bucket_mp_cvec[kb], len - 1);
    for (int t = 0; t < len; ++t) {
      sp_dec_parts.push_back(sp_seq[t]);
      for (size_t j = 0; j < bucket.items.size(); ++j) {
        sp_dec_row[bucket.items[j]][t] = next_sp + static_cast<int>(j);
      }
      next_sp += static_cast<int>(bucket.items.size());
    }
    for (int t = 0; t < len - 1; ++t) {
      mp_dec_parts.push_back(mp_seq[t]);
      for (size_t j = 0; j < bucket.items.size(); ++j) {
        mp_dec_row[bucket.items[j]][t] = next_mp + static_cast<int>(j);
      }
      next_mp += static_cast<int>(bucket.items.size());
    }
  }
  const nn::Variable sp_dec_bank = nn::ConcatRows(sp_dec_parts);
  const nn::Variable mp_dec_bank = nn::ConcatRows(mp_dec_parts);

  // Phase 2 of the decompressor: each segment back to its padded feature
  // sequence, reusing the phase-1 buckets (same lengths) and their packed
  // inputs as masked MSE targets. Empty move slots have no task, matching
  // the per-item path, which never decodes them.
  for (size_t kb = 0; kb < sp_bank.buckets.size(); ++kb) {
    const LengthBucket& bucket = sp_bank.buckets[kb];
    std::vector<int> rows;
    rows.reserve(bucket.items.size());
    for (int ti : bucket.items) {
      rows.push_back(sp_dec_row[sp_tasks[ti].item][sp_tasks[ti].pos]);
    }
    const std::vector<nn::Variable> decoded = dec_sp1_->ForwardSteps(
        nn::GatherRows(sp_dec_bank, std::move(rows)), bucket.max_len);
    AccumulateDecodeLoss(decoded, sp_bank.packed[kb],
                         BucketWeights(bucket.items, item_weight, &sp_tasks),
                         loss);
  }
  for (size_t kb = 0; kb < mp_bank.buckets.size(); ++kb) {
    const LengthBucket& bucket = mp_bank.buckets[kb];
    std::vector<int> rows;
    rows.reserve(bucket.items.size());
    for (int ti : bucket.items) {
      rows.push_back(mp_dec_row[mp_tasks[ti].item][mp_tasks[ti].pos]);
    }
    const std::vector<nn::Variable> decoded = dec_mp1_->ForwardSteps(
        nn::GatherRows(mp_dec_bank, std::move(rows)), bucket.max_len);
    AccumulateDecodeLoss(decoded, mp_bank.packed[kb],
                         BucketWeights(bucket.items, item_weight, &mp_tasks),
                         loss);
  }
  return cvecs;
}

nn::Variable HierarchicalAutoencoder::ForwardBatchFlat(
    const std::vector<CandidateBatchItem>& items, nn::Variable* loss) const {
  const int num_items = static_cast<int>(items.size());
  std::vector<nn::SeqView> views(num_items);
  std::vector<int> lengths(num_items);
  std::vector<float> item_weight(num_items);
  for (int i = 0; i < num_items; ++i) {
    const traj::Segmentation& seg = items[i].pt->segmentation;
    const traj::Candidate& c = items[i].candidate;
    LEAD_CHECK_GE(c.start_sp, 0);
    LEAD_CHECK_LT(c.start_sp, c.end_sp);
    LEAD_CHECK_LT(c.end_sp, seg.num_stays());
    nn::SeqView& view = views[i];
    int rows = 0;
    // Stay/move interleaving mirrors FlatSequence.
    for (int s = c.start_sp; s <= c.end_sp; ++s) {
      const traj::IndexRange r = seg.stays[s].range;
      view.push_back({&items[i].pt->features, r.begin, r.size()});
      rows += r.size();
      if (s < c.end_sp && seg.moves[s + 1].has_points) {
        const traj::IndexRange mr = seg.moves[s + 1].range;
        view.push_back({&items[i].pt->features, mr.begin, mr.size()});
        rows += mr.size();
      }
    }
    lengths[i] = rows;
    item_weight[i] = 1.0f / (static_cast<float>(rows) *
                             static_cast<float>(options_.feature_dims) *
                             static_cast<float>(num_items));
  }

  const std::vector<LengthBucket> buckets =
      BucketByLength(lengths, kSegmentMaxBatch, kSegmentMaxPadding);
  std::vector<nn::Variable> bucket_cvecs;
  std::vector<int> concat_order;
  concat_order.reserve(num_items);
  for (const LengthBucket& bucket : buckets) {
    std::vector<nn::SeqView> bucket_views;
    bucket_views.reserve(bucket.items.size());
    for (int item : bucket.items) {
      bucket_views.push_back(views[item]);
    }
    const nn::StepBatch packed = nn::PackViews(bucket_views);
    const nn::Variable cvec = comp_flat_->ForwardBatch(packed);
    if (loss != nullptr) {
      const std::vector<nn::Variable> decoded =
          dec_flat_->ForwardSteps(cvec, packed.max_len());
      AccumulateDecodeLoss(decoded, packed,
                           BucketWeights(bucket.items, item_weight, nullptr),
                           loss);
    }
    bucket_cvecs.push_back(cvec);
    concat_order.insert(concat_order.end(), bucket.items.begin(),
                        bucket.items.end());
  }
  std::vector<int> row_in_concat(num_items);
  for (int i = 0; i < num_items; ++i) {
    row_in_concat[concat_order[i]] = i;
  }
  return nn::GatherRows(nn::ConcatRows(bucket_cvecs),
                        std::move(row_in_concat));
}

nn::Variable HierarchicalAutoencoder::EncodeCandidateBatch(
    const std::vector<CandidateBatchItem>& items) const {
  LEAD_CHECK(!items.empty());
  return options_.hierarchical ? ForwardBatchHierarchical(items, nullptr)
                               : ForwardBatchFlat(items, nullptr);
}

nn::Matrix HierarchicalAutoencoder::EncodeCandidatesPlanned(
    const ProcessedTrajectory& pt, nn::PlanCache* cache) const {
  LEAD_CHECK(cache != nullptr);
  LEAD_CHECK(!pt.candidates.empty());
  nn::NoGradGuard no_grad;
  // The key pins everything that shapes the recorded op graph besides the
  // feature values themselves: the stay/move segment ranges (they become
  // PackRows row lists) and the candidate set (it drives the bucketing).
  std::string key = nn::PlanKeyRoot("encode", this);
  nn::AppendKeyInt(&key, options_.hierarchical ? 1 : 0);
  nn::AppendKeyInt(&key, pt.features.rows());
  nn::AppendKeyInt(&key, pt.features.cols());
  const traj::Segmentation& seg = pt.segmentation;
  nn::AppendKeyInt(&key, seg.num_stays());
  for (const traj::StayPoint& sp : seg.stays) {
    nn::AppendKeyInt(&key, sp.range.begin);
    nn::AppendKeyInt(&key, sp.range.end);
  }
  for (const traj::MoveSegment& move : seg.moves) {
    nn::AppendKeyInt(&key, move.has_points ? 1 : 0);
    nn::AppendKeyInt(&key, move.has_points ? move.range.begin : 0);
    nn::AppendKeyInt(&key, move.has_points ? move.range.end : 0);
  }
  nn::AppendKeyInt(&key, static_cast<int64_t>(pt.candidates.size()));
  for (const traj::Candidate& c : pt.candidates) {
    nn::AppendKeyInt(&key, c.start_sp);
    nn::AppendKeyInt(&key, c.end_sp);
  }

  auto eager_items = [&pt]() {
    std::vector<CandidateBatchItem> items;
    items.reserve(pt.candidates.size());
    for (const traj::Candidate& c : pt.candidates) {
      items.push_back({&pt, c});
    }
    return items;
  };
  bool was_hit = false;
  nn::Matrix recorded;
  const std::shared_ptr<const nn::PlanCache::Entry> entry = cache->GetOrRecord(
      key,
      [&](std::vector<int>* /*meta*/) -> nn::Variable {
        nn::PlanRecorder::Active()->RegisterInputMatrix(&pt.features);
        return EncodeCandidateBatch(eager_items());
      },
      &recorded, &was_hit);
  if (entry == nullptr) {
    // Recording failed for this signature (negative-cached): eager path.
    return EncodeCandidateBatch(eager_items()).value();
  }
  if (!was_hit) return recorded;
  nn::Matrix out;
  entry->plan->Execute({&pt.features}, &out);
  return out;
}

nn::Variable HierarchicalAutoencoder::ReconstructionLossBatch(
    const std::vector<CandidateBatchItem>& items) const {
  LEAD_CHECK(!items.empty());
  nn::Variable loss;
  if (options_.hierarchical) {
    ForwardBatchHierarchical(items, &loss);
  } else {
    ForwardBatchFlat(items, &loss);
  }
  return loss;
}

}  // namespace lead::core
