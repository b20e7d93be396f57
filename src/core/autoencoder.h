// Hierarchical autoencoder (paper §IV-B, Figure 5).
//
// The compressor has two phases of compression operators (LSTM +
// last-query self-attention + two FC layers with tanh, Eqs. 2-4):
// phase 1 compresses each stay-point / move-point feature sequence into a
// sp-c-vec / mp-c-vec; phase 2 compresses the SP-c-vec-seq and
// MP-c-vec-seq into SP-c-vec and MP-c-vec, whose concatenation is the
// candidate's c-vec. The decompressor mirrors it with input-repeating
// LSTM decompression operators (Eqs. 5-6). Training minimizes the MSE of
// the reconstructed feature sequence (Eq. 8).
//
// Variant switches:
//  - use_attention=false (LEAD-NoSel): operators use the last hidden
//    state instead of the attention aggregate.
//  - hierarchical=false (LEAD-NoHie): a single compression and a single
//    decompression operator process the flat feature sequence.
#pragma once

#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/pipeline.h"
#include "nn/attention.h"
#include "nn/linear.h"
#include "nn/lstm.h"
#include "nn/module.h"

namespace lead::nn {
class PlanCache;
}  // namespace lead::nn

namespace lead::core {

struct AutoencoderOptions {
  int feature_dims = kFeatureDims;
  // Paper: 32 hidden units everywhere in the autoencoder; c-vec dim 64.
  int hidden = 32;
  bool use_attention = true;
  bool hierarchical = true;

  int cvec_dims() const { return 2 * hidden; }
};

// One compression operator: LSTM over the sequence, attention (or last
// hidden state) aggregation, then Tanh((h W1 + b1) W2 + b2) (Eq. 4).
class CompressionOperator : public nn::Module {
 public:
  CompressionOperator(int input_dims, int hidden, int output_dims,
                      bool use_attention, Rng* rng);

  // seq: [T x input_dims] with T >= 1 -> [1 x output_dims].
  nn::Variable Forward(const nn::Variable& seq) const;

  // Batch-major forward over packed step inputs -> [B x output_dims].
  // Ragged batches rely on the masked LSTM freezing finished rows, so both
  // the attention query and the last-hidden fallback see each row's state
  // at its own final valid step.
  nn::Variable ForwardBatch(const nn::StepBatch& input) const;

  // Fused no-grad form of ForwardBatch (nn/infer_kernels.h) over stacked
  // inputs x [layout.total_rows() x input_dims] in the uniform
  // StackedLayout order (nn/batch.h). `lengths` is non-null exactly when
  // the batch is ragged (layout then carries the masks). Writes
  // [batch x output_dims] to out, bit-identical to ForwardBatch.
  void InferStacked(const nn::StackedLayout& layout, const float* x,
                    const int* lengths, float* out) const;

  // Fused no-grad compression of prefix-shared sequences: `layout` is a
  // shrinking (step_rows) layout of sequences sorted longest first, and
  // query q compresses the first steps[q] steps of the sequence at rank
  // ranks[q]. Row q of out [num_queries x output_dims] is bit-identical to
  // ForwardBatch over that prefix as a uniform batch.
  void InferPrefixes(const nn::StackedLayout& layout, const float* x,
                     const int* ranks, const int* steps, int num_queries,
                     float* out) const;

  int input_dims() const { return lstm_.input_size(); }
  int output_dims() const { return output_dims_; }

 private:
  // fc1 -> fc2 -> tanh over aggregated rows agg [rows x hidden].
  void InferHead(const float* agg, int rows, float* out) const;

  int output_dims_;
  bool use_attention_;
  nn::LstmCell lstm_;
  std::unique_ptr<nn::LastQueryAttention> attention_;
  nn::Linear fc1_;
  nn::Linear fc2_;
};

// One decompression operator: an LSTM fed the same input vector at every
// step, followed by Tanh((H' Wd1 + bd1) Wd2 + bd2) (Eqs. 5-6).
class DecompressionOperator : public nn::Module {
 public:
  DecompressionOperator(int input_dims, int hidden, int output_dims,
                        Rng* rng);

  // v: [1 x input_dims] -> [steps x output_dims].
  nn::Variable Forward(const nn::Variable& v, int steps) const;

  // Batched unroll: v is [B x input_dims] (one compressed vector per row);
  // returns `steps` outputs, [B x output_dims] each.
  std::vector<nn::Variable> ForwardSteps(const nn::Variable& v,
                                         int steps) const;

 private:
  nn::LstmCell lstm_;
  nn::Linear fc1_;
  nn::Linear fc2_;
};

// Feature sequences of one candidate, segment by segment.
// sp_seqs has (end_sp - start_sp + 1) entries; mp_seqs has
// (end_sp - start_sp) entries, where an entry is an undefined Variable
// when the move slot holds no GPS points.
struct CandidateSegments {
  std::vector<nn::Variable> sp_seqs;
  std::vector<nn::Variable> mp_seqs;
};

// Builds the candidate's segment features from a processed trajectory.
CandidateSegments BuildCandidateSegments(const ProcessedTrajectory& pt,
                                         const traj::Candidate& candidate);

// One candidate of a mini-batch. Items of the same batch may come from
// different trajectories; `pt` must outlive the batched call.
struct CandidateBatchItem {
  const ProcessedTrajectory* pt = nullptr;
  traj::Candidate candidate;
};

// Phase-1 compression of every segment of a whole trajectory, computed
// once and shared by all candidates ("once forward computation", §VI-B).
struct TrajectoryEncoding {
  std::vector<nn::Variable> sp_cvecs;  // n entries, each [1 x hidden]
  std::vector<nn::Variable> mp_cvecs;  // n+1 entries (move slots)
};

class HierarchicalAutoencoder : public nn::Module {
 public:
  HierarchicalAutoencoder(const AutoencoderOptions& options, Rng* rng);

  const AutoencoderOptions& options() const { return options_; }
  int cvec_dims() const { return options_.cvec_dims(); }

  // Phase-1 compression of all segments of a trajectory. Only valid in
  // hierarchical mode.
  TrajectoryEncoding EncodeSegments(const ProcessedTrajectory& pt) const;

  // Phase-2 compression of one candidate from shared phase-1 results.
  nn::Variable EncodeCandidateFromSegments(const TrajectoryEncoding& enc,
                                           const traj::Candidate& c) const;

  // Full (naive) encoding of a single candidate: phase 1 + phase 2 in
  // hierarchical mode, flat compression otherwise. [1 x cvec_dims()].
  nn::Variable EncodeCandidate(const ProcessedTrajectory& pt,
                               const traj::Candidate& c) const;

  // Self-supervised reconstruction loss of one candidate (Eq. 8),
  // a scalar Variable suitable for Backward().
  nn::Variable ReconstructionLoss(const ProcessedTrajectory& pt,
                                  const traj::Candidate& c) const;

  // Batch-major encoding of many candidates at once: row i of the
  // [B x cvec_dims()] result is the c-vec of items[i]. Segments are
  // bucketed by length (core/batching.h) and run through the operators as
  // true [B x d] mini-batches.
  nn::Variable EncodeCandidateBatch(
      const std::vector<CandidateBatchItem>& items) const;

  // Plan-compiled all-candidate encoding (inference only): looks up or
  // records a compiled execution plan (nn/plan.h) keyed on this module
  // and the trajectory's full shape signature (segment ranges and
  // candidate set), then replays it against pt.features. Bit-identical to
  // EncodeCandidateBatch over all candidates; falls back to the eager
  // batch path when the pass cannot be compiled.
  nn::Matrix EncodeCandidatesPlanned(const ProcessedTrajectory& pt,
                                     nn::PlanCache* cache) const;

  // Mean of the per-candidate reconstruction losses over the batch
  // ([1 x 1]). Matches the mean of per-item ReconstructionLoss values up
  // to floating-point summation order.
  nn::Variable ReconstructionLossBatch(
      const std::vector<CandidateBatchItem>& items) const;

 private:
  nn::Variable EncodeHierarchical(const CandidateSegments& segments) const;
  nn::Variable EncodeFlat(const CandidateSegments& segments) const;
  // Shared batched forward: returns [B x cvec_dims()] c-vecs and, when
  // `loss` is non-null, also decodes and stores the mean reconstruction
  // loss there.
  nn::Variable ForwardBatchHierarchical(
      const std::vector<CandidateBatchItem>& items, nn::Variable* loss) const;
  nn::Variable ForwardBatchFlat(const std::vector<CandidateBatchItem>& items,
                                nn::Variable* loss) const;
  // Compresses a possibly-undefined (empty) move sequence.
  nn::Variable CompressMove(const nn::Variable& seq) const;
  // Flat [T x F] feature sequence of a candidate, segments in order.
  static nn::Variable FlatSequence(const CandidateSegments& segments);

  AutoencoderOptions options_;
  // Hierarchical mode: 4 compression + 4 decompression operators.
  std::unique_ptr<CompressionOperator> comp_sp1_;
  std::unique_ptr<CompressionOperator> comp_mp1_;
  std::unique_ptr<CompressionOperator> comp_sp2_;
  std::unique_ptr<CompressionOperator> comp_mp2_;
  std::unique_ptr<DecompressionOperator> dec_sp2_;
  std::unique_ptr<DecompressionOperator> dec_mp2_;
  std::unique_ptr<DecompressionOperator> dec_sp1_;
  std::unique_ptr<DecompressionOperator> dec_mp1_;
  // Flat mode (NoHie): 1 + 1.
  std::unique_ptr<CompressionOperator> comp_flat_;
  std::unique_ptr<DecompressionOperator> dec_flat_;
};

}  // namespace lead::core

