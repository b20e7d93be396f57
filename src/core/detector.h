// Forward / backward detectors (paper §V-B, Figure 7) and the LEAD-NoGro
// MLP scorer (§VI-A variant 4).
//
// A detector is a stacked BiLSTM with L layers. Each subgroup (a sequence
// of candidate c-vecs) passes through every layer; after each BiLSTM the
// concatenated directions are projected back to the hidden width (Eq. 9).
// A final FC maps each position to a score (Eq. 10); the detector's
// output distribution is the softmax over the concatenated scores of all
// subgroups, so it is a proper probability distribution over the
// candidate trajectories (§II/§V call the output exactly that; a
// per-subgroup softmax would sum to n-1 and make the KLD against the
// global label ill-formed, and would degenerate to probability 1 on
// single-member subgroups).
#pragma once

#include <memory>
#include <vector>

#include "common/rng.h"
#include "nn/batch.h"
#include "nn/linear.h"
#include "nn/lstm.h"
#include "nn/module.h"

namespace lead::core {

struct DetectorOptions {
  int input_dims = 64;  // c-vec dimension
  int hidden = 64;      // paper: all detector LSTMs have 64 hidden units
  int num_layers = 4;   // paper: best L = 4
};

// Subgroup length-bucketing knobs shared by detector training and
// inference: subgroups are packed into [B x cvec] step batches of at most
// this many members, with at most this much padding per member (padded
// scores are sliced away before the softmax, so padding only costs
// compute).
inline constexpr int kSubgroupMaxBatch = 128;
inline constexpr int kSubgroupMaxPadding = 2;

// ExecStrategy::kFast bucket-fusion knobs (core/batching.h
// FuseSmallBuckets): buckets smaller than kFastFuseMinBatch are merged
// into cross-length mega-batches of up to kFastFuseMaxBatch members,
// accepting up to kFastFuseMaxPadding rows of padding per absorbed
// member. Padded scores are masked/sliced exactly like ordinary bucket
// padding, so fusion changes launch granularity, never which scores
// exist.
inline constexpr int kFastFuseMinBatch = 32;
inline constexpr int kFastFuseMaxBatch = 512;
inline constexpr int kFastFuseMaxPadding = 16;

// Gather layout of one detector pass over a trajectory's candidate
// c-vecs: `member_rows` lists each grouped row's forward flatten index in
// subgroup-concatenation order, `lengths` the subgroup sizes. The layout
// depends only on (num_stays, direction), so it doubles as the cached
// metadata of a compiled scoring plan (nn/plan.h).
struct GroupScoringLayout {
  std::vector<int> member_rows;
  std::vector<int> lengths;
};

// Layout of the forward (or backward) subgroup pass for `num_stays` stay
// points (core/grouping.h order).
GroupScoringLayout BuildGroupScoringLayout(int num_stays, bool forward);

class StackedBiLstmDetector : public nn::Module {
 public:
  StackedBiLstmDetector(const DetectorOptions& options, Rng* rng);

  // subgroup: [T x input_dims] (T >= 1 candidate c-vecs).
  // Returns the subgroup's raw scores [1 x T]; concatenate all subgroups'
  // scores and softmax once for the detector's output distribution.
  nn::Variable ScoreSubgroup(const nn::Variable& subgroup) const;

  // Convenience: scores every subgroup and applies the global softmax;
  // output is [1 x sum(T_i)] in the given subgroup order.
  nn::Variable ForwardGroup(const std::vector<nn::Variable>& subgroups) const;

  // Batch-major scoring of many subgroups at once: input row b is subgroup
  // b (one c-vec per step), the [B x max_len] result holds its raw scores.
  // Columns at t >= lengths[b] of a ragged batch are padding garbage —
  // masked updates keep them out of every valid score, but callers must
  // slice row b to its first lengths[b] columns before the softmax.
  nn::Variable ScoreSubgroupsBatch(const nn::StepBatch& input) const;

  // Whole-pass scoring used by inference: gathers the subgroup members
  // out of the [NumCandidates x cvec] matrix, scores every subgroup in
  // deterministic length buckets, and applies the global softmax. Column
  // i of the [1 x sum(T_g)] result is the probability of the candidate at
  // layout.member_rows[i]. The pass is one recordable op graph, so it can
  // be compiled into an execution plan (nn/plan.h) keyed on the layout.
  nn::Variable ScoreGrouped(const nn::Variable& cvecs,
                            const GroupScoringLayout& layout) const;

  const DetectorOptions& options() const { return options_; }

 private:
  // Fused no-grad scoring (nn/infer_kernels.h) over stacked subgroup rows
  // x [steps * batch x input_dims] (uniform StackedLayout, nn/batch.h).
  // Each layer's BiLSTM writes one [steps * batch x 2H] matrix, so the
  // per-step ConcatCols / projection / score Linears become one GEMM plus
  // bias each; rows are independent, so this is bit-identical to the
  // per-step op path. Returns the [batch x steps] scores.
  nn::Variable InferStacked(const nn::StackedLayout& layout,
                            const float* x) const;

  DetectorOptions options_;
  std::vector<std::unique_ptr<nn::BiLstm>> layers_;
  std::vector<std::unique_ptr<nn::Linear>> projections_;  // 2h -> h
  std::unique_ptr<nn::Linear> score_;                     // h -> 1
};

// LEAD-NoGro replacement: scores each c-vec independently with a
// 64-32-32-1 MLP, sigmoid on the last layer (paper §VI-A). Hidden layers
// use ReLU.
class MlpScorer : public nn::Module {
 public:
  MlpScorer(int input_dims, Rng* rng);

  // cvecs: [N x input_dims] -> independent probabilities [N x 1].
  nn::Variable Forward(const nn::Variable& cvecs) const;

 private:
  nn::Linear fc1_;
  nn::Linear fc2_;
  nn::Linear fc3_;
  nn::Linear fc4_;
};

}  // namespace lead::core

