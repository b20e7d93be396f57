// LEAD: the end-to-end loaded-trajectory detection framework (paper §II-B,
// Figure 2).
//
// Offline stage: Train() fits the Z-score normalizer, trains the
// hierarchical autoencoder self-supervisedly on candidate feature
// sequences (Eq. 8), freezes the compressor, caches candidate c-vecs, and
// trains the forward/backward detectors on eps-smoothed labels with the
// KLD loss (Eqs. 11-12).
//
// Online stage: Detect() processes an unseen raw trajectory, encodes all
// candidates (phase-1 segment compression shared across candidates), runs
// both detectors, merges and min-max-rescales the two distributions, and
// returns the argmax candidate (Eq. 13).
//
// All six ablation variants of §VI-A are configuration switches; see
// MakeVariantOptions.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/exec_strategy.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/autoencoder.h"
#include "core/detector.h"
#include "core/labels.h"
#include "core/pipeline.h"
#include "core/train_loop.h"
#include "nn/adam.h"

namespace lead::core {

// One supervised sample: a raw trajectory plus its archived loaded
// trajectory, expressed as the (loading, unloading) stay-point pair the
// pipeline options produce.
struct LabeledRawTrajectory {
  traj::RawTrajectory raw;
  traj::Candidate loaded;
};

struct TrainOptions {
  int autoencoder_epochs = 14;
  int detector_epochs = 25;
  float learning_rate = 1e-4f;  // paper: Adam, scheduled lr 1e-4
  // Mini-batch size B: each optimizer step backpropagates the average
  // loss of B samples, computed as one batch-major [B x d] forward
  // (paper §VI-A; see DESIGN.md §"Batch-major execution").
  int batch_size = 64;
  int early_stopping_patience = 3;
  // Minimum validation-loss improvement that resets patience.
  float early_stopping_min_delta = 1e-3f;
  // Step-decay learning-rate schedule (paper: "scheduled learning rate"):
  // rate is multiplied by lr_decay_gamma every lr_decay_epochs epochs;
  // gamma 1.0 disables.
  float lr_decay_gamma = 1.0f;
  int lr_decay_epochs = 10;
  float label_epsilon = kDefaultLabelEpsilon;
  // Autoencoder epochs subsample at most this many candidates per
  // trajectory (<=0 trains on all candidates, the paper's setting; the
  // cap is a CPU-budget knob, see DESIGN.md §3).
  int max_candidates_per_trajectory = 6;
  uint64_t seed = 42;
  bool verbose = false;
  // Resilience knobs (see DESIGN.md §"Failure model and recovery"): an
  // epoch whose loss goes non-finite or diverges rolls the stage back to
  // its last good weights and retries with the learning rate multiplied
  // by recovery_lr_backoff, at most max_recoveries times per stage.
  int max_recoveries = 3;
  float recovery_lr_backoff = 0.5f;
  // A good epoch's validation loss above
  // divergence_factor * (best_so_far + 1) counts as divergence.
  float divergence_factor = 100.0f;
  // When non-empty, Train() writes a durable checkpoint into this
  // directory after every epoch (atomic write, CRC-verified on load) and
  // resumes from it when one exists; the file is removed on success.
  std::string checkpoint_dir;
  // Worker lanes for preprocessing and sharded gradient accumulation.
  // <= 0 resolves to std::thread::hardware_concurrency(). Every thread
  // count produces bit-identical results (DESIGN.md §"Parallel execution
  // and determinism"); 1 degenerates to the serial code path.
  int threads = 0;
  // kDeterministic keeps the bit-parity contract above. kFast sizes
  // gradient shards to the lane count, schedules them through the
  // work-stealing loop, and reduces with one flat pass — loss curves
  // agree with the oracle only within the tests/differential.h epsilon
  // bands (DESIGN.md §"Fast execution strategy").
  ExecStrategy strategy = ExecStrategy::kDeterministic;
  // Observability sinks (see DESIGN.md §"Observability"). When non-empty,
  // Train() records a Chrome trace-event JSON / metrics JSON of the run
  // into these paths. Tracing never changes results: outputs stay
  // bit-identical with sinks on or off.
  std::string trace_out;
  std::string metrics_out;
  // "error" | "warn" | "info" | "debug"; empty keeps the process level.
  std::string log_level;
};

// Online-stage knobs.
struct DetectOptions {
  // Worker lanes for Preprocess and the bucketed batch scoring inside
  // Detect/DetectProcessed. Same semantics as TrainOptions::threads.
  int threads = 0;
  // kDeterministic (default) is the bit-parity oracle. kFast trades
  // schedule determinism for throughput — dynamic work-stealing loops,
  // fused cross-length score batches (core/batching.h FuseSmallBuckets),
  // and a DetectStream that overlaps provider reads with preprocessing
  // and scores the whole batch in one cross-trajectory window. Decisions
  // (argmax candidates) are asserted equivalent and probabilities agree
  // within a documented FP tolerance (tests/differential.h).
  ExecStrategy strategy = ExecStrategy::kDeterministic;
  // Observability sinks; same semantics as the TrainOptions fields. The
  // library does not scope a collection session per Detect() call (they
  // are sub-millisecond); the CLI owns the session for detect runs.
  std::string trace_out;
  std::string metrics_out;
  std::string log_level;
  // Wall-clock budget per Detect/DetectStream call, measured from entry on
  // the monotonic clock; <= 0 means no deadline. Composes with any ambient
  // CancelToken (the tighter deadline wins). A single Detect past its
  // deadline returns kDeadlineExceeded; work completed before the poll
  // point that observed the deadline is bit-identical to an uncancelled
  // run (DESIGN.md §"Deadlines, cancellation, and budgets").
  int64_t deadline_ms = 0;
  // Batch-mode degradation policy (DetectStream/DetectBatch): when true,
  // cancellation mid-batch returns the trajectories scored so far, marking
  // the rest `degraded` with a typed per-item status and bumping
  // lead.detect.shed — never an all-or-nothing failure. When false, the
  // batch call returns the typed error Status instead.
  bool partial_results = true;
};

struct LeadOptions {
  PipelineOptions pipeline;
  AutoencoderOptions autoencoder;
  DetectorOptions detector;
  TrainOptions train;
  DetectOptions detect;
  // Variant switches (paper §VI-A). use_grouping=false replaces both
  // detectors with the independent MLP scorer (LEAD-NoGro).
  bool use_grouping = true;
  bool use_forward = true;
  bool use_backward = true;
};

// The paper's ablation variants as option transforms.
enum class LeadVariant {
  kFull,
  kNoPoi,
  kNoSel,
  kNoHie,
  kNoGro,
  kNoFor,
  kNoBac,
};
const char* LeadVariantName(LeadVariant variant);
LeadOptions MakeVariantOptions(LeadOptions base, LeadVariant variant);

// Per-epoch loss curves recorded during Train() (Figures 9-10).
struct TrainingLog {
  std::vector<float> autoencoder_mse;       // train, per epoch
  std::vector<float> autoencoder_val_mse;   // val, per epoch
  std::vector<float> forward_kld;           // train, per epoch
  std::vector<float> forward_val_kld;
  std::vector<float> backward_kld;
  std::vector<float> backward_val_kld;
  std::vector<float> nogro_bce;             // only for LEAD-NoGro
  std::vector<float> nogro_val_bce;
  // Sentinel rollbacks, checkpoint resumes, and discarded checkpoints.
  std::vector<RecoveryEvent> recoveries;
};

// The online-stage output for one raw trajectory.
struct Detection {
  traj::Candidate loaded;
  int num_stays = 0;
  std::vector<traj::Candidate> candidates;    // forward flatten order
  // Merged, min-max-rescaled probabilities by forward flatten index.
  std::vector<float> probabilities;
};

// The k most probable candidates of a detection, most probable first
// (ties broken by flatten order). k is clamped to the candidate count.
std::vector<std::pair<traj::Candidate, float>> TopKCandidates(
    const Detection& detection, int k);

// One entry of a batch detection. Exactly one of these holds: status.ok()
// with a populated detection, or a non-OK status (degraded = true when the
// item was shed by cancellation/deadline/budget rather than failed on its
// own merits).
struct DetectionOutcome {
  Status status;
  bool degraded = false;
  Detection detection;
};

// Result of DetectStream/DetectBatch over N trajectories.
struct BatchDetection {
  // One outcome per input index, in input order.
  std::vector<DetectionOutcome> outcomes;
  int completed = 0;  // outcomes with status.ok()
  int shed = 0;       // degraded outcomes (also counted in lead.detect.shed)
  // Why the batch degraded; kNone when every item ran to completion.
  CancelCause cause = CancelCause::kNone;
};

// Produces the raw trajectory for batch index `i` — typically a closure
// over an I/O source, so slow reads are covered by the same deadline as
// scoring. Returning a non-OK status records it on that item's outcome; a
// cancellation-family code sheds the rest of the batch per
// DetectOptions::partial_results.
using TrajectoryProvider =
    std::function<StatusOr<traj::RawTrajectory>(int index)>;

class LeadModel {
 public:
  explicit LeadModel(const LeadOptions& options);

  // Offline stage. `validation` drives early stopping; `log` (optional)
  // receives loss curves and recovery events. With
  // TrainOptions::checkpoint_dir set, training checkpoints durably after
  // every epoch and a rerun resumes where the previous attempt died.
  Status Train(const std::vector<LabeledRawTrajectory>& training,
               const std::vector<LabeledRawTrajectory>& validation,
               const poi::PoiIndex& poi_index, TrainingLog* log);

  // Online stage: detects the loaded trajectory of an unseen raw
  // trajectory.
  StatusOr<Detection> Detect(const traj::RawTrajectory& raw,
                             const poi::PoiIndex& poi_index) const;

  // Detection from an already-processed trajectory (features must have
  // been produced with this model's normalizer).
  StatusOr<Detection> DetectProcessed(const ProcessedTrajectory& pt) const;

  // Batch detection with graceful degradation: processes trajectories
  // 0..count-1 from `provider` under DetectOptions::deadline_ms. On
  // cancellation with partial_results set, already-scored items are
  // returned intact and the remainder is shed (see BatchDetection);
  // without partial_results the typed error Status is returned. Per-item
  // non-cancellation errors are recorded on their outcome and the batch
  // continues.
  StatusOr<BatchDetection> DetectStream(int count,
                                        const TrajectoryProvider& provider,
                                        const poi::PoiIndex& poi_index) const;

  // Convenience over DetectStream for an in-memory batch.
  StatusOr<BatchDetection> DetectBatch(
      const std::vector<traj::RawTrajectory>& raws,
      const poi::PoiIndex& poi_index) const;

  // Runs the processing pipeline with this model's fitted normalizer.
  StatusOr<ProcessedTrajectory> Preprocess(
      const traj::RawTrajectory& raw, const poi::PoiIndex& poi_index) const;

  // Candidate c-vecs of a processed trajectory as one
  // [NumCandidates x cvec_dims] matrix, row per forward flatten index
  // (inference mode; one batched forward with shared phase-1 segments).
  nn::Matrix EncodeCandidates(const ProcessedTrajectory& pt) const;

  Status Save(const std::string& path) const;
  Status Load(const std::string& path);

  // Copies the fitted normalizer and trained autoencoder weights from a
  // model with an identical feature/autoencoder configuration. Lets
  // detector-side ablations (NoGro/NoFor/NoBac) share the expensive
  // self-supervised stage: combine with train.autoencoder_epochs = 0.
  Status CopyEncoderFrom(const LeadModel& other);

  const LeadOptions& options() const { return options_; }
  bool trained() const { return normalizer_.fitted(); }
  const nn::ZScoreNormalizer& normalizer() const { return normalizer_; }
  const HierarchicalAutoencoder& autoencoder() const {
    return *autoencoder_;
  }

 private:
  struct PreparedSample {
    ProcessedTrajectory pt;
    traj::Candidate loaded;
  };

  Status Prepare(const std::vector<LabeledRawTrajectory>& labeled,
                 const poi::PoiIndex& poi_index, bool fit_normalizer,
                 std::vector<PreparedSample>* out);
  // Both stages report sentinel rollbacks through log->recoveries and
  // fail with kInternal once the recovery budget is exhausted.
  // `start_epoch` / `start_stage` are non-zero only when resuming from a
  // durable checkpoint; `checkpoint` may be empty.
  Status TrainAutoencoder(const std::vector<PreparedSample>& training,
                          const std::vector<PreparedSample>& validation,
                          int start_epoch, TrainingLog* log,
                          const TrainCheckpointFn& checkpoint);
  Status TrainDetectors(const std::vector<PreparedSample>& training,
                        const std::vector<PreparedSample>& validation,
                        int start_stage, int start_epoch, TrainingLog* log,
                        const TrainCheckpointFn& checkpoint);
  // The online stage's one scoring core (Eq. 13; DESIGN.md §"One detect
  // core"), behind DetectProcessed and DetectStream: encodes every
  // candidate of N preprocessed, admitted trajectories, scores both
  // detector directions (or the NoGro MLP), merges, min-max-rescales and
  // takes each item's argmax. Fills *results with one result per item (a
  // non-finite distribution fails only its own item); a cancellation
  // observed mid-way is returned instead and leaves *results untouched.
  Status ScoreBatch(const std::vector<const ProcessedTrajectory*>& items,
                    std::vector<StatusOr<Detection>>* results) const;
  // Full model state (normalizer header + per-module parameter sections),
  // each section CRC-32 protected.
  Status SerializeModel(std::ostream& out) const;
  Status DeserializeModel(std::istream& in);
  // Durable training checkpoint: stage/epoch cursor + full model state,
  // written atomically.
  Status WriteTrainCheckpoint(const std::string& path, int stage,
                              int next_epoch) const;
  // Loads a training checkpoint into *this (via a scratch model, so a
  // corrupt file cannot leave half-loaded weights) and returns the
  // (stage, next_epoch) cursor through the out parameters.
  Status TryResumeFromCheckpoint(const std::string& path, int* stage,
                                 int* next_epoch);

  LeadOptions options_;
  nn::ZScoreNormalizer normalizer_;
  std::unique_ptr<HierarchicalAutoencoder> autoencoder_;
  std::unique_ptr<StackedBiLstmDetector> forward_detector_;
  std::unique_ptr<StackedBiLstmDetector> backward_detector_;
  std::unique_ptr<MlpScorer> mlp_scorer_;
};

}  // namespace lead::core

