#include "core/lead.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <numeric>
#include <sstream>
#include <thread>
#include <utility>

#include "common/atomic_io.h"
#include "common/budget.h"
#include "common/cancel.h"
#include "common/check.h"
#include "common/crc32.h"
#include "common/fault.h"
#include "common/retry.h"
#include "common/stage_queue.h"
#include "common/thread_pool.h"
#include "core/batching.h"
#include "core/grad_parallel.h"
#include "core/grouping.h"
#include "nn/batch.h"
#include "nn/ops.h"
#include "nn/serialize.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace lead::core {
namespace {

// Checkpoint stage cursor: which training stage a durable checkpoint's
// model state belongs to, and therefore where a resumed Train() restarts.
// Forward/backward apply to grouped variants, mlp to LEAD-NoGro; a cursor
// past the variant's last stage means "all training finished".
constexpr int kStageAutoencoder = 0;
constexpr int kStageForward = 1;
constexpr int kStageBackward = 2;
constexpr int kStageMlp = 3;
constexpr int kMaxStage = 4;

// Train-checkpoint header (its own CRC; the model body that follows has
// per-section CRCs from SerializeModel).
constexpr char kTrainCkptMagic[8] = {'L', 'E', 'A', 'D',
                                     'T', 'R', 'N', 'C'};
constexpr uint32_t kTrainCkptVersion = 1;

// Model-file header (v2 added the magic and the CRC-protected
// normalizer section; v1 files started with a bare dims word and are no
// longer readable).
constexpr char kModelMagic[8] = {'L', 'E', 'A', 'D', 'M', 'O', 'D', 'L'};
constexpr uint32_t kModelVersion = 2;

void AppendU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

// Binary cross-entropy of independent candidate probabilities against a
// one-hot target (LEAD-NoGro training objective).
nn::Variable BinaryCrossEntropy(const nn::Variable& probs,
                                const nn::Variable& one_hot) {
  const nn::Variable one_minus_p =
      nn::AddScalar(nn::ScalarMul(probs, -1.0f), 1.0f);
  const nn::Variable one_minus_y =
      nn::AddScalar(nn::ScalarMul(one_hot, -1.0f), 1.0f);
  const nn::Variable ll = nn::Add(nn::Mul(one_hot, nn::Log(probs)),
                                  nn::Mul(one_minus_y, nn::Log(one_minus_p)));
  return nn::ScalarMul(nn::Mean(ll), -1.0f);
}

// Element-wise parallel loop under the given strategy: kDeterministic
// uses the static contiguous-block schedule, kFast the work-stealing
// chunk loop. Both require fn to write only index-private state; only
// kDeterministic guarantees a thread-count-independent schedule.
void StrategyParallelFor(ExecStrategy strategy, int64_t n, int threads,
                         const std::function<void(int64_t i)>& fn) {
  if (strategy == ExecStrategy::kFast) {
    ThreadPool::Global().ParallelForDynamic(
        n, threads, DynamicChunk(n, threads),
        [&fn](int64_t begin, int64_t end, int /*lane*/) {
          for (int64_t i = begin; i < end; ++i) fn(i);
        });
  } else {
    ThreadPool::Global().ParallelFor(n, threads, fn);
  }
}

}  // namespace

const char* LeadVariantName(LeadVariant variant) {
  switch (variant) {
    case LeadVariant::kFull: return "LEAD";
    case LeadVariant::kNoPoi: return "LEAD-NoPoi";
    case LeadVariant::kNoSel: return "LEAD-NoSel";
    case LeadVariant::kNoHie: return "LEAD-NoHie";
    case LeadVariant::kNoGro: return "LEAD-NoGro";
    case LeadVariant::kNoFor: return "LEAD-NoFor";
    case LeadVariant::kNoBac: return "LEAD-NoBac";
  }
  return "LEAD-?";
}

LeadOptions MakeVariantOptions(LeadOptions base, LeadVariant variant) {
  switch (variant) {
    case LeadVariant::kFull:
      break;
    case LeadVariant::kNoPoi:
      base.pipeline.features.use_poi = false;
      break;
    case LeadVariant::kNoSel:
      base.autoencoder.use_attention = false;
      break;
    case LeadVariant::kNoHie:
      base.autoencoder.hierarchical = false;
      break;
    case LeadVariant::kNoGro:
      base.use_grouping = false;
      break;
    case LeadVariant::kNoFor:
      base.use_forward = false;
      break;
    case LeadVariant::kNoBac:
      base.use_backward = false;
      break;
  }
  return base;
}

LeadModel::LeadModel(const LeadOptions& options) : options_(options) {
  LEAD_CHECK(options_.use_grouping ||
             (options_.use_forward && options_.use_backward));
  LEAD_CHECK(options_.use_forward || options_.use_backward);
  Rng rng(options_.train.seed);
  options_.detector.input_dims = options_.autoencoder.cvec_dims();
  autoencoder_ =
      std::make_unique<HierarchicalAutoencoder>(options_.autoencoder, &rng);
  if (options_.use_grouping) {
    if (options_.use_forward) {
      forward_detector_ =
          std::make_unique<StackedBiLstmDetector>(options_.detector, &rng);
    }
    if (options_.use_backward) {
      backward_detector_ =
          std::make_unique<StackedBiLstmDetector>(options_.detector, &rng);
    }
  } else {
    mlp_scorer_ =
        std::make_unique<MlpScorer>(options_.autoencoder.cvec_dims(), &rng);
  }
  plan_cache_ = std::make_unique<nn::PlanCache>();
}

Status LeadModel::Prepare(const std::vector<LabeledRawTrajectory>& labeled,
                          const poi::PoiIndex& poi_index,
                          bool fit_normalizer,
                          std::vector<PreparedSample>* out) {
  obs::ScopedSpan span(obs::kCatPreprocess, "prepare");
  span.Arg("trajectories", static_cast<double>(labeled.size()));
  const int threads = ResolveThreads(options_.train.threads);
  const ExecStrategy strategy = options_.train.strategy;
  PipelineOptions popt = options_.pipeline;
  // Within one trajectory the per-point POI queries parallelize too; the
  // nested ParallelFor runs inline on whichever lane processes the
  // trajectory, so the two levels never oversubscribe the pool.
  popt.features.threads = threads;
  popt.features.strategy = strategy;
  const int n = static_cast<int>(labeled.size());

  // First pass: pipeline without normalization. Trajectories are
  // independent, so lanes fill indexed slots; the first failure in sample
  // order wins, matching the serial loop's error.
  std::vector<std::unique_ptr<ProcessedTrajectory>> slots(n);
  std::vector<Status> statuses(n);
  StrategyParallelFor(strategy, n, threads, [&](int64_t i) {
    const LabeledRawTrajectory& sample = labeled[i];
    auto processed = ProcessTrajectory(sample.raw, poi_index, popt, nullptr);
    if (!processed.ok()) {
      statuses[i] = processed.status();
      return;
    }
    if (sample.loaded.end_sp >= processed->num_stays()) {
      statuses[i] = InvalidArgumentError(
          "label stay index out of range for trajectory " +
          sample.raw.trajectory_id +
          " (label derived with different pipeline options?)");
      return;
    }
    slots[i] = std::make_unique<ProcessedTrajectory>(*std::move(processed));
  });
  // Cancelled lanes skip blocks and leave null slots; poll before reading
  // them (cancel.h rule 2).
  LEAD_RETURN_IF_ERROR(PollCancel("prepare"));
  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }
  out->clear();
  out->reserve(n);
  for (int i = 0; i < n; ++i) {
    out->push_back(PreparedSample{std::move(*slots[i]), labeled[i].loaded});
  }
  if (fit_normalizer) {
    // Moment accumulation stays serial and in sample order so the fitted
    // statistics are bit-identical for every thread count.
    std::vector<std::vector<float>> rows;
    for (const PreparedSample& s : *out) {
      for (int r = 0; r < s.pt.features.rows(); ++r) {
        rows.emplace_back(s.pt.features.row(r),
                          s.pt.features.row(r) + s.pt.features.cols());
      }
    }
    LEAD_RETURN_IF_ERROR(normalizer_.Fit(rows));
  }
  if (!normalizer_.fitted()) {
    return FailedPreconditionError("normalizer not fitted");
  }
  // Second pass: standardize in place (disjoint per-sample writes).
  StrategyParallelFor(strategy, n, threads, [&](int64_t i) {
    PreparedSample& s = (*out)[i];
    for (int r = 0; r < s.pt.features.rows(); ++r) {
      std::vector<float> row(s.pt.features.row(r),
                             s.pt.features.row(r) + s.pt.features.cols());
      normalizer_.Apply(&row);
      std::copy(row.begin(), row.end(), s.pt.features.row(r));
    }
  });
  // Skipped standardization blocks leave raw rows behind; a cancelled
  // Prepare must not hand them out.
  LEAD_RETURN_IF_ERROR(PollCancel("prepare"));
  return Status::Ok();
}

Status LeadModel::Train(const std::vector<LabeledRawTrajectory>& training,
                        const std::vector<LabeledRawTrajectory>& validation,
                        const poi::PoiIndex& poi_index, TrainingLog* log) {
  if (training.empty()) return InvalidArgumentError("empty training set");

  if (!options_.train.log_level.empty()) {
    obs::LogLevel level;
    if (!obs::ParseLogLevel(options_.train.log_level, &level)) {
      return InvalidArgumentError("bad log level: " +
                                  options_.train.log_level);
    }
    obs::SetLogLevel(level);
  }
  // Starts tracing when trace_out is set and writes the trace / metrics
  // files when Train() returns on any path. Tracing never feeds back into
  // the computation, so results are bit-identical either way.
  obs::ScopedCollection collection(options_.train.trace_out,
                                   options_.train.metrics_out);

  std::string ckpt_path;
  int start_stage = 0;
  int start_epoch = 0;
  bool resumed = false;
  TrainCheckpointFn checkpoint;  // stays empty without a checkpoint dir
  if (!options_.train.checkpoint_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options_.train.checkpoint_dir, ec);
    if (ec) {
      return IoError("cannot create checkpoint directory " +
                     options_.train.checkpoint_dir + ": " + ec.message());
    }
    ckpt_path = options_.train.checkpoint_dir + "/lead_train.ckpt";
    if (std::filesystem::exists(ckpt_path)) {
      const Status loaded =
          TryResumeFromCheckpoint(ckpt_path, &start_stage, &start_epoch);
      if (loaded.ok()) {
        resumed = true;
        if (log != nullptr) {
          log->recoveries.push_back(RecoveryEvent{
              "train", start_stage, 1.0f,
              "resumed from checkpoint (stage " +
                  std::to_string(start_stage) + ", epoch " +
                  std::to_string(start_epoch) + ")"});
        }
      } else {
        // A checkpoint that fails validation (truncated, bit rot, other
        // model architecture) must not stop a fresh run.
        start_stage = 0;
        start_epoch = 0;
        if (log != nullptr) {
          log->recoveries.push_back(RecoveryEvent{
              "train", 0, 1.0f,
              "checkpoint discarded: " + loaded.ToString()});
        }
      }
    }
    checkpoint = [this, ckpt_path](int stage, int next_epoch) -> Status {
      LEAD_RETURN_IF_ERROR(WriteTrainCheckpoint(ckpt_path, stage,
                                                next_epoch));
      // Fault "train.epoch": the process dies right after a durable
      // checkpoint; the next Train() call must resume from it.
      if (LEAD_FAULT_FIRED("train.epoch")) {
        return InternalError("injected fault: train.epoch");
      }
      return Status::Ok();
    };
  }

  std::vector<PreparedSample> train_samples;
  std::vector<PreparedSample> val_samples;
  // On resume the normalizer must stay the checkpoint's: the saved
  // weights were trained against its standardization.
  LEAD_RETURN_IF_ERROR(Prepare(training, poi_index,
                               /*fit_normalizer=*/!resumed, &train_samples));
  LEAD_RETURN_IF_ERROR(Prepare(validation, poi_index,
                               /*fit_normalizer=*/false, &val_samples));
  if (start_stage <= kStageAutoencoder) {
    LEAD_RETURN_IF_ERROR(TrainAutoencoder(
        train_samples, val_samples,
        start_stage == kStageAutoencoder ? start_epoch : 0, log,
        checkpoint));
  }
  LEAD_RETURN_IF_ERROR(TrainDetectors(train_samples, val_samples,
                                      start_stage, start_epoch, log,
                                      checkpoint));
  if (!ckpt_path.empty()) {
    std::error_code ec;
    std::filesystem::remove(ckpt_path, ec);  // best effort
  }
  return Status::Ok();
}

namespace {

// Maps TrainOptions onto the resilient stage harness.
StageOptions MakeStageOptions(const TrainOptions& topt, const char* tag,
                              const char* stage_name, int stage_index,
                              int epochs, int start_epoch) {
  StageOptions sopt;
  sopt.tag = tag;
  sopt.stage_name = stage_name;
  sopt.stage_index = stage_index;
  sopt.epochs = epochs;
  sopt.start_epoch = start_epoch;
  sopt.learning_rate = topt.learning_rate;
  sopt.clip_grad_norm = 5.0f;
  sopt.lr_decay_gamma = topt.lr_decay_gamma;
  sopt.lr_decay_epochs = topt.lr_decay_epochs;
  sopt.early_stopping_patience = topt.early_stopping_patience;
  sopt.early_stopping_min_delta = topt.early_stopping_min_delta;
  sopt.max_recoveries = topt.max_recoveries;
  sopt.recovery_lr_backoff = topt.recovery_lr_backoff;
  sopt.divergence_factor = topt.divergence_factor;
  sopt.verbose = topt.verbose;
  sopt.trace_category =
      stage_index == kStageAutoencoder ? obs::kCatAe : obs::kCatDet;
  return sopt;
}

}  // namespace

Status LeadModel::TrainAutoencoder(
    const std::vector<PreparedSample>& training,
    const std::vector<PreparedSample>& validation, int start_epoch,
    TrainingLog* log, const TrainCheckpointFn& checkpoint) {
  const TrainOptions& topt = options_.train;
  const int threads = ResolveThreads(topt.threads);

  // Candidate subsampler (see TrainOptions::max_candidates_per_trajectory).
  // Each (domain, trajectory-index) pair owns a SplitMix64-derived stream,
  // so the selection depends only on the seed and the indices — never on
  // how many draws other trajectories made — and stays stable under
  // reordering or parallel execution.
  auto sample_candidates = [&](const PreparedSample& s, uint64_t domain,
                               uint64_t index) {
    std::vector<traj::Candidate> cands = s.pt.candidates;
    const int cap = topt.max_candidates_per_trajectory;
    if (cap > 0 && static_cast<int>(cands.size()) > cap) {
      Rng r = Rng::ForStream(domain, index);
      r.Shuffle(&cands);
      cands.resize(cap);
    }
    return cands;
  };

  ShardedGradAccumulator accumulator(
      autoencoder_.get(), [this]() -> std::unique_ptr<nn::Module> {
        Rng init(0);  // replica init weights are overwritten by the sync
        return std::make_unique<HierarchicalAutoencoder>(
            options_.autoencoder, &init);
      });

  // Counts train_epoch invocations (including sentinel retries) so every
  // epoch attempt draws fresh subsample/shuffle streams; starting at the
  // resume cursor keeps a resumed run on the uninterrupted run's streams.
  int epoch_ticket = start_epoch;

  auto train_epoch = [&](nn::Optimizer* optimizer) -> float {
    // Collect this epoch's (trajectory, candidate) pairs and shuffle them
    // across trajectories (paper: all f-seqs are shuffled for training).
    const uint64_t epoch_domain =
        SplitMix64(topt.seed ^ 0xae0001) +
        static_cast<uint64_t>(epoch_ticket++);
    std::vector<std::pair<int, traj::Candidate>> samples;
    for (int i = 0; i < static_cast<int>(training.size()); ++i) {
      for (const traj::Candidate& c :
           sample_candidates(training[i], epoch_domain, i)) {
        samples.emplace_back(i, c);
      }
    }
    Rng shuffle_rng = Rng::ForStream(epoch_domain, 0xffffffffull);
    shuffle_rng.Shuffle(&samples);

    double epoch_loss = 0.0;
    const float inv_b = 1.0f / static_cast<float>(topt.batch_size);
    for (size_t begin = 0; begin < samples.size();
         begin += static_cast<size_t>(topt.batch_size)) {
      // Chunk-boundary poll point: a cancelled epoch stops stepping here
      // and the stage harness converts the sticky token into a typed
      // Status right after train_epoch returns.
      if (CurrentCancel().Cancelled()) break;
      const size_t end = std::min(
          samples.size(), begin + static_cast<size_t>(topt.batch_size));
      const int chunk_n = static_cast<int>(end - begin);
      const int shard_samples =
          GradShardSamples(topt.strategy, chunk_n, threads);
      const int num_shards =
          (chunk_n + shard_samples - 1) / shard_samples;
      std::vector<float> shard_mse(num_shards);
      accumulator.AccumulateGrads(
          topt.strategy, chunk_n, threads,
          [&](nn::Module* m, int s_begin, int s_end) {
            auto* ae = static_cast<HierarchicalAutoencoder*>(m);
            std::vector<CandidateBatchItem> batch;
            batch.reserve(s_end - s_begin);
            for (int i = s_begin; i < s_end; ++i) {
              const auto& [ti, cand] = samples[begin + i];
              batch.push_back({&training[ti].pt, cand});
            }
            const nn::Variable loss = ae->ReconstructionLossBatch(batch);
            shard_mse[s_begin / shard_samples] = loss.value().at(0, 0);
            // shard / batch_size rescales the shard mean back to a
            // per-sample weight of 1/batch_size, so a partial final shard
            // contributes the same gradient as a full one.
            return nn::ScalarMul(
                loss, static_cast<float>(s_end - s_begin) * inv_b);
          });
      // A poisoned shard loss means the weights are already bad; drop the
      // accumulated gradient, skip the rest of the epoch, and let the
      // sentinel roll back.
      bool poisoned = false;
      for (int s = 0; s < num_shards; ++s) {
        if (!std::isfinite(shard_mse[s])) poisoned = true;
      }
      if (poisoned) {
        autoencoder_->ZeroGrad();
        return std::numeric_limits<float>::quiet_NaN();
      }
      for (int s = 0; s < num_shards; ++s) {
        const int shard_n = std::min(chunk_n, (s + 1) * shard_samples) -
                            s * shard_samples;
        epoch_loss += static_cast<double>(shard_mse[s]) * shard_n;
      }
      optimizer->StepAndZeroGrad();
    }
    return samples.empty()
               ? 0.0f
               : static_cast<float>(
                     epoch_loss / static_cast<double>(samples.size()));
  };

  // Validation MSE (same subsampling policy, deterministic). Samples are
  // scored concurrently into indexed slots and reduced in sample order,
  // so the result is bit-identical for every thread count.
  auto validation_loss = [&](float train_mse) -> float {
    if (validation.empty()) return train_mse;
    const uint64_t val_domain = topt.seed ^ 0xae0002;
    const int vn = static_cast<int>(validation.size());
    std::vector<double> totals(vn, 0.0);
    std::vector<int> counts(vn, 0);
    StrategyParallelFor(topt.strategy, vn, threads, [&](int64_t i) {
      nn::NoGradGuard no_grad;  // thread-local: every lane needs its own
      const PreparedSample& s = validation[i];
      std::vector<CandidateBatchItem> batch;
      for (const traj::Candidate& c : sample_candidates(s, val_domain, i)) {
        batch.push_back({&s.pt, c});
      }
      if (batch.empty()) return;
      totals[i] = static_cast<double>(
                      autoencoder_->ReconstructionLossBatch(batch).value().at(
                          0, 0)) *
                  static_cast<double>(batch.size());
      counts[i] = static_cast<int>(batch.size());
    });
    double total = 0.0;
    int count = 0;
    for (int i = 0; i < vn; ++i) {
      total += totals[i];
      count += counts[i];
    }
    return count > 0 ? static_cast<float>(total / count) : train_mse;
  };

  return RunTrainingStage(
      autoencoder_.get(),
      MakeStageOptions(topt, "AE", "autoencoder", kStageAutoencoder,
                       topt.autoencoder_epochs, start_epoch),
      train_epoch, validation_loss,
      log != nullptr ? &log->autoencoder_mse : nullptr,
      log != nullptr ? &log->autoencoder_val_mse : nullptr,
      log != nullptr ? &log->recoveries : nullptr, checkpoint);
}

Status LeadModel::TrainDetectors(
    const std::vector<PreparedSample>& training,
    const std::vector<PreparedSample>& validation, int start_stage,
    int start_epoch, TrainingLog* log, const TrainCheckpointFn& checkpoint) {
  const TrainOptions& topt = options_.train;

  // Freeze the compressor and cache every candidate's c-vec (paper: the
  // trained compressor produces the detection component's inputs). For
  // the grouped detectors every subgroup's member c-vecs are materialized
  // as one contiguous [T x cvec] matrix, so mini-batches can pack them as
  // SeqSpans without per-step copies.
  struct CachedSample {
    int num_stays = 0;
    traj::Candidate loaded;
    nn::Matrix cvecs;                    // [NumCandidates x cvec], flat order
    std::vector<nn::Matrix> fwd_groups;  // per forward subgroup [T x cvec]
    std::vector<nn::Matrix> bwd_groups;  // per backward subgroup
  };
  auto subgroup_matrices = [](const nn::Matrix& cvecs, int n,
                              const std::vector<Subgroup>& groups) {
    std::vector<nn::Matrix> out;
    out.reserve(groups.size());
    for (const Subgroup& g : groups) {
      nn::Matrix m(static_cast<int>(g.members.size()), cvecs.cols());
      for (size_t j = 0; j < g.members.size(); ++j) {
        const float* src =
            cvecs.row(traj::CandidateFlatIndex(n, g.members[j]));
        std::copy(src, src + cvecs.cols(), m.row(static_cast<int>(j)));
      }
      out.push_back(std::move(m));
    }
    return out;
  };
  const int threads = ResolveThreads(topt.threads);
  auto cache = [&](const std::vector<PreparedSample>& samples) {
    // Frozen-compressor inference per sample; samples are independent and
    // fill indexed slots (EncodeCandidates installs its own NoGradGuard
    // on whichever lane runs it).
    std::vector<CachedSample> cached(samples.size());
    StrategyParallelFor(
        topt.strategy, static_cast<int64_t>(samples.size()), threads,
        [&](int64_t i) {
          const PreparedSample& s = samples[i];
          CachedSample c;
          c.num_stays = s.pt.num_stays();
          c.loaded = s.loaded;
          c.cvecs = EncodeCandidates(s.pt);
          if (options_.use_grouping) {
            c.fwd_groups = subgroup_matrices(c.cvecs, c.num_stays,
                                             ForwardGroups(c.num_stays));
            c.bwd_groups = subgroup_matrices(c.cvecs, c.num_stays,
                                             BackwardGroups(c.num_stays));
          }
          cached[i] = std::move(c);
        });
    return cached;
  };
  const std::vector<CachedSample> train_cached = cache(training);
  const std::vector<CachedSample> val_cached = cache(validation);
  // The cache ParallelFors fill indexed slots; skipped (cancelled) lanes
  // leave empty matrices behind, so poll before training on them.
  LEAD_RETURN_IF_ERROR(PollCancel("train_detectors"));

  // Sum of the chunk's per-sample KLD losses against one detector. Every
  // subgroup of the chunk is scored in length-bucketed [B x cvec] batches;
  // the per-sample distributions are then sliced back out for the global
  // softmax and the KLD against the smoothed label.
  auto group_chunk_loss = [&](const StackedBiLstmDetector& detector,
                              bool forward,
                              const std::vector<const CachedSample*>& chunk) {
    std::vector<const nn::Matrix*> mats;
    std::vector<int> lengths;
    for (const CachedSample* s : chunk) {
      const std::vector<nn::Matrix>& groups =
          forward ? s->fwd_groups : s->bwd_groups;
      for (const nn::Matrix& g : groups) {
        mats.push_back(&g);
        lengths.push_back(g.rows());
      }
    }
    const std::vector<LengthBucket> buckets =
        BucketByLength(lengths, kSubgroupMaxBatch, kSubgroupMaxPadding);
    std::vector<nn::Variable> scores(buckets.size());
    std::vector<std::pair<int, int>> where(mats.size());  // (bucket, row)
    for (size_t kb = 0; kb < buckets.size(); ++kb) {
      const LengthBucket& bucket = buckets[kb];
      std::vector<nn::SeqView> views;
      views.reserve(bucket.items.size());
      for (size_t j = 0; j < bucket.items.size(); ++j) {
        const int pi = bucket.items[j];
        views.push_back({nn::SeqSpan{mats[pi], 0, lengths[pi]}});
        where[pi] = {static_cast<int>(kb), static_cast<int>(j)};
      }
      scores[kb] = detector.ScoreSubgroupsBatch(nn::PackViews(views));
    }
    nn::Variable total;
    int pair_index = 0;
    for (const CachedSample* s : chunk) {
      const std::vector<nn::Matrix>& groups =
          forward ? s->fwd_groups : s->bwd_groups;
      std::vector<nn::Variable> parts;
      parts.reserve(groups.size());
      for (const nn::Matrix& g : groups) {
        const auto [kb, row] = where[pair_index++];
        parts.push_back(
            nn::SliceCols(nn::SliceRows(scores[kb], row, 1), 0, g.rows()));
      }
      const nn::Variable label = nn::Variable::Constant(nn::Matrix::RowVector(
          forward ? ForwardLabel(s->num_stays, s->loaded, topt.label_epsilon)
                  : BackwardLabel(s->num_stays, s->loaded,
                                  topt.label_epsilon)));
      const nn::Variable kld =
          nn::KlDivergence(label, nn::SoftmaxRows(nn::ConcatCols(parts)));
      total = total.defined() ? nn::Add(total, kld) : kld;
    }
    return total;
  };

  // Sum of the chunk's per-sample BCE losses: one MLP forward over the
  // chunk's stacked c-vecs, then per-sample row slices.
  auto mlp_chunk_loss = [&](MlpScorer* scorer,
                            const std::vector<const CachedSample*>& chunk) {
    std::vector<nn::Variable> rows;
    rows.reserve(chunk.size());
    for (const CachedSample* s : chunk) {
      rows.push_back(nn::Variable::Constant(s->cvecs));
    }
    const nn::Variable probs = scorer->Forward(nn::ConcatRows(rows));
    nn::Variable total;
    int row = 0;
    for (const CachedSample* s : chunk) {
      const int num_candidates = s->cvecs.rows();
      nn::Matrix one_hot(num_candidates, 1);
      one_hot.at(traj::CandidateFlatIndex(s->num_stays, s->loaded), 0) = 1.0f;
      const nn::Variable bce =
          BinaryCrossEntropy(nn::SliceRows(probs, row, num_candidates),
                             nn::Variable::Constant(std::move(one_hot)));
      total = total.defined() ? nn::Add(total, bce) : bce;
      row += num_candidates;
    }
    return total;
  };

  // Mini-batch training loop via the resilient stage harness. chunk_loss
  // returns the SUM of the chunk's per-sample losses against the given
  // module (the master or a gradient-shard replica); scaling by
  // 1/batch_size keeps the per-sample gradient weight of the retired
  // simulated-batch loop.
  auto run = [&](nn::Module* module,
                 const std::function<std::unique_ptr<nn::Module>()>&
                     make_replica,
                 const std::function<nn::Variable(
                     nn::Module*,
                     const std::vector<const CachedSample*>&)>& chunk_loss,
                 std::vector<float>* train_curve,
                 std::vector<float>* val_curve, const char* tag,
                 const char* stage_name, int stage_index,
                 int stage_start_epoch) -> Status {
    Rng rng(topt.seed ^ 0xde0001);
    std::vector<int> order(train_cached.size());
    std::iota(order.begin(), order.end(), 0);
    const float inv_b = 1.0f / static_cast<float>(topt.batch_size);
    ShardedGradAccumulator accumulator(module, make_replica);

    auto train_epoch = [&](nn::Optimizer* optimizer) -> float {
      rng.Shuffle(&order);
      double epoch_loss = 0.0;
      for (size_t begin = 0; begin < order.size();
           begin += static_cast<size_t>(topt.batch_size)) {
        // Chunk-boundary poll point (same contract as the autoencoder
        // epoch loop): stop stepping, let the stage harness unwind.
        if (CurrentCancel().Cancelled()) break;
        const size_t end = std::min(
            order.size(), begin + static_cast<size_t>(topt.batch_size));
        const int chunk_n = static_cast<int>(end - begin);
        const int shard_samples =
            GradShardSamples(topt.strategy, chunk_n, threads);
        const int num_shards =
            (chunk_n + shard_samples - 1) / shard_samples;
        std::vector<float> shard_sum(num_shards);
        accumulator.AccumulateGrads(
            topt.strategy, chunk_n, threads,
            [&](nn::Module* m, int s_begin, int s_end) {
              std::vector<const CachedSample*> shard;
              shard.reserve(s_end - s_begin);
              for (int i = s_begin; i < s_end; ++i) {
                shard.push_back(&train_cached[order[begin + i]]);
              }
              const nn::Variable loss = chunk_loss(m, shard);
              shard_sum[s_begin / shard_samples] = loss.value().at(0, 0);
              return nn::ScalarMul(loss, inv_b);
            });
        bool poisoned = false;
        for (int s = 0; s < num_shards; ++s) {
          if (!std::isfinite(shard_sum[s])) poisoned = true;
        }
        if (poisoned) {
          module->ZeroGrad();
          return std::numeric_limits<float>::quiet_NaN();
        }
        for (int s = 0; s < num_shards; ++s) {
          epoch_loss += static_cast<double>(shard_sum[s]);
        }
        optimizer->StepAndZeroGrad();
      }
      return train_cached.empty()
                 ? 0.0f
                 : static_cast<float>(epoch_loss /
                                       static_cast<double>(train_cached.size()));
    };

    // Chunks are scored concurrently against the frozen master (read-only
    // forwards under per-lane NoGradGuards) and reduced in chunk order.
    auto validation_loss = [&](float train_loss) -> float {
      if (val_cached.empty()) return train_loss;
      const size_t b = static_cast<size_t>(topt.batch_size);
      const int64_t num_chunks =
          static_cast<int64_t>((val_cached.size() + b - 1) / b);
      std::vector<double> chunk_totals(num_chunks, 0.0);
      StrategyParallelFor(topt.strategy, num_chunks, threads, [&](int64_t k) {
        nn::NoGradGuard no_grad;
        const size_t begin = static_cast<size_t>(k) * b;
        const size_t end = std::min(val_cached.size(), begin + b);
        std::vector<const CachedSample*> chunk;
        chunk.reserve(end - begin);
        for (size_t i = begin; i < end; ++i) {
          chunk.push_back(&val_cached[i]);
        }
        chunk_totals[k] = chunk_loss(module, chunk).value().at(0, 0);
      });
      double total = 0.0;
      for (int64_t k = 0; k < num_chunks; ++k) total += chunk_totals[k];
      return static_cast<float>(total /
                                static_cast<double>(val_cached.size()));
    };

    return RunTrainingStage(
        module,
        MakeStageOptions(topt, tag, stage_name, stage_index,
                         topt.detector_epochs, stage_start_epoch),
        train_epoch, validation_loss, train_curve, val_curve,
        log != nullptr ? &log->recoveries : nullptr, checkpoint);
  };

  const auto make_detector_replica = [this]() -> std::unique_ptr<nn::Module> {
    Rng init(0);  // replica init weights are overwritten by the sync
    return std::make_unique<StackedBiLstmDetector>(options_.detector, &init);
  };
  if (options_.use_grouping) {
    if (forward_detector_ != nullptr && start_stage <= kStageForward) {
      LEAD_RETURN_IF_ERROR(run(
          forward_detector_.get(), make_detector_replica,
          [&](nn::Module* m, const std::vector<const CachedSample*>& chunk) {
            return group_chunk_loss(*static_cast<StackedBiLstmDetector*>(m),
                                    /*forward=*/true, chunk);
          },
          log != nullptr ? &log->forward_kld : nullptr,
          log != nullptr ? &log->forward_val_kld : nullptr, "fwd",
          "forward", kStageForward,
          start_stage == kStageForward ? start_epoch : 0));
    }
    if (backward_detector_ != nullptr && start_stage <= kStageBackward) {
      LEAD_RETURN_IF_ERROR(run(
          backward_detector_.get(), make_detector_replica,
          [&](nn::Module* m, const std::vector<const CachedSample*>& chunk) {
            return group_chunk_loss(*static_cast<StackedBiLstmDetector*>(m),
                                    /*forward=*/false, chunk);
          },
          log != nullptr ? &log->backward_kld : nullptr,
          log != nullptr ? &log->backward_val_kld : nullptr, "bwd",
          "backward", kStageBackward,
          start_stage == kStageBackward ? start_epoch : 0));
    }
  } else if (start_stage <= kStageMlp) {
    LEAD_RETURN_IF_ERROR(run(
        mlp_scorer_.get(),
        [this]() -> std::unique_ptr<nn::Module> {
          Rng init(0);
          return std::make_unique<MlpScorer>(options_.autoencoder.cvec_dims(),
                                             &init);
        },
        [&](nn::Module* m, const std::vector<const CachedSample*>& chunk) {
          return mlp_chunk_loss(static_cast<MlpScorer*>(m), chunk);
        },
        log != nullptr ? &log->nogro_bce : nullptr,
        log != nullptr ? &log->nogro_val_bce : nullptr, "mlp", "mlp",
        kStageMlp, start_stage == kStageMlp ? start_epoch : 0));
  }
  return Status::Ok();
}

StatusOr<ProcessedTrajectory> LeadModel::Preprocess(
    const traj::RawTrajectory& raw, const poi::PoiIndex& poi_index) const {
  if (!normalizer_.fitted()) {
    return FailedPreconditionError("model is not trained");
  }
  PipelineOptions popt = options_.pipeline;
  popt.features.threads = ResolveThreads(options_.detect.threads);
  popt.features.strategy = options_.detect.strategy;
  return ProcessTrajectory(raw, poi_index, popt, &normalizer_);
}

nn::Matrix LeadModel::EncodeCandidates(const ProcessedTrajectory& pt) const {
  obs::ScopedSpan span(obs::kCatInfer, "encode_candidates");
  span.Arg("candidates", static_cast<double>(pt.candidates.size()));
  nn::NoGradGuard no_grad;
  if (options_.detect.exec_mode == ExecMode::kPlan && plan_cache_ != nullptr &&
      !pt.candidates.empty()) {
    return autoencoder_->EncodeCandidatesPlanned(pt, plan_cache_.get());
  }
  std::vector<CandidateBatchItem> items;
  items.reserve(pt.candidates.size());
  for (const traj::Candidate& c : pt.candidates) {
    items.push_back({&pt, c});
  }
  // The encode-only batch path compresses each shared segment once, the
  // batched analogue of the retired EncodeSegments sharing.
  return autoencoder_->EncodeCandidateBatch(items).value();
}

StatusOr<Detection> LeadModel::DetectProcessed(
    const ProcessedTrajectory& pt) const {
  if (!normalizer_.fitted()) {
    return FailedPreconditionError("model is not trained");
  }
  static obs::Histogram& detect_us = obs::GetHistogram("stage.detect.us");
  // Deadline-margin histogram plus the cancellation counter family,
  // registered eagerly so every --metrics-out snapshot of a detect run
  // exports them (as zeros) even when nothing fires.
  static obs::Histogram& margin_us = obs::GetHistogram(
      "lead.stage.deadline_margin_us", obs::DefaultLatencyBoundsUs());
  static const bool cancel_metrics_registered = [] {
    (void)obs::GetCounter("lead.detect.shed");
    (void)obs::GetCounter("lead.cancel.deadline");
    (void)obs::GetCounter("lead.cancel.user");
    (void)obs::GetCounter("lead.cancel.budget");
    (void)obs::GetCounter("lead.cancel.fault");
    return true;
  }();
  (void)cancel_metrics_registered;
  obs::ScopedTimerUs timer(&detect_us);
  obs::ScopedSpan span(obs::kCatInfer, "detect");
  span.Arg("candidates", static_cast<double>(pt.candidates.size()));
  // Tighten the ambient token with this call's own deadline (idempotent
  // when Detect/DetectStream already installed the same one upstream).
  ScopedCancel scoped_cancel(
      TightenDeadline(CurrentCancel(), options_.detect.deadline_ms));
  WatchdogScope watchdog("detect");
  LEAD_RETURN_IF_ERROR(PollCancel("detect"));
  const int n = pt.num_stays();
  if (n < 2 || pt.candidates.empty()) {
    // Degenerate input (e.g. a hand-built ProcessedTrajectory): no
    // loading/unloading pair exists, so there is nothing to rank.
    return InvalidArgumentError(
        "trajectory has fewer than 2 stay points; no candidates to score");
  }
  // Admission control: the dominant transient allocations are the c-vec
  // matrix plus (per direction) the grouped member-row matrix, each
  // [NumCandidates x cvec_dims]. Rejecting here — before any scoring —
  // means in-flight trajectories are never revoked mid-way.
  const int64_t score_bytes = 3ll * traj::NumCandidates(n) *
                              options_.autoencoder.cvec_dims() *
                              static_cast<int64_t>(sizeof(float));
  const MemoryBudget::Reservation reservation =
      MemoryBudget::Global().Reserve(score_bytes, "detect");
  if (!reservation.ok()) return reservation.status();
  nn::NoGradGuard no_grad;
  const nn::Matrix cvecs = EncodeCandidates(pt);
  LEAD_RETURN_IF_ERROR(PollCancel("detect.encode"));
  const int num_candidates = cvecs.rows();
  LEAD_CHECK_EQ(num_candidates, traj::NumCandidates(n));

  const int threads = ResolveThreads(options_.detect.threads);
  std::vector<float> merged(num_candidates, 0.0f);
  if (options_.use_grouping) {
    // Plan-mode detector pass: look up (or record) the compiled grouped
    // scoring plan for this (detector, direction, shape) and replay it
    // against the c-vec matrix. Returns false when no plan is available
    // for the signature, in which case the eager path below runs.
    auto accumulate_planned = [&](const StackedBiLstmDetector& detector,
                                  bool forward) -> bool {
      if (options_.detect.exec_mode != ExecMode::kPlan ||
          plan_cache_ == nullptr) {
        return false;
      }
      // The outer guard belongs to this scope either way; recording
      // additionally requires it on the recorder's thread.
      nn::NoGradGuard plan_no_grad;
      std::string key = nn::PlanKeyRoot("det_groups", &detector);
      nn::AppendKeyInt(&key, forward ? 1 : 0);
      nn::AppendKeyInt(&key, n);
      nn::AppendKeyInt(&key, cvecs.rows());
      nn::AppendKeyInt(&key, cvecs.cols());
      bool was_hit = false;
      nn::Matrix probs;
      const std::shared_ptr<const nn::PlanCache::Entry> entry =
          plan_cache_->GetOrRecord(
              key,
              [&](std::vector<int>* meta) -> nn::Variable {
                const GroupScoringLayout layout =
                    BuildGroupScoringLayout(n, forward);
                *meta = layout.member_rows;
                const nn::Variable cv =
                    nn::PlanRecorder::Active()->MakeInput(cvecs);
                return detector.ScoreGrouped(cv, layout);
              },
              &probs, &was_hit);
      if (entry == nullptr) return false;
      if (was_hit) entry->plan->Execute({&cvecs}, &probs);
      // The cached layout doubles as the merge map, so a hit also skips
      // re-deriving the subgroup packing.
      const std::vector<int>& member_rows = entry->meta;
      LEAD_CHECK_EQ(probs.cols(), static_cast<int>(member_rows.size()));
      for (size_t i = 0; i < member_rows.size(); ++i) {
        merged[member_rows[i]] += probs.at(0, static_cast<int>(i));
      }
      return true;
    };
    auto accumulate = [&](const StackedBiLstmDetector& detector,
                          bool forward) -> Status {
      const std::vector<Subgroup> groups =
          forward ? ForwardGroups(n) : BackwardGroups(n);
      // Materialize every subgroup's member c-vecs contiguously.
      int total_rows = 0;
      for (const Subgroup& g : groups) {
        total_rows += static_cast<int>(g.members.size());
      }
      nn::Matrix grouped(total_rows, cvecs.cols());
      std::vector<nn::SeqView> views;
      std::vector<const traj::Candidate*> order;
      std::vector<int> lengths;
      views.reserve(groups.size());
      lengths.reserve(groups.size());
      order.reserve(total_rows);
      int row = 0;
      for (const Subgroup& g : groups) {
        views.push_back({nn::SeqSpan{&grouped, row,
                                     static_cast<int>(g.members.size())}});
        lengths.push_back(static_cast<int>(g.members.size()));
        for (const traj::Candidate& c : g.members) {
          const float* src = cvecs.row(traj::CandidateFlatIndex(n, c));
          std::copy(src, src + cvecs.cols(), grouped.row(row++));
          order.push_back(&c);
        }
      }
      // Score the n-1 subgroups in length buckets. The split depends only
      // on the subgroup lengths, so it is identical for every thread
      // count; buckets run concurrently against the read-only detector
      // (per-row values are independent of batch composition, so the
      // bucketed scores match the retired single-ragged-batch path), and
      // the softmax/merge below reassembles them in subgroup order.
      std::vector<LengthBucket> buckets =
          BucketByLength(lengths, kSubgroupMaxBatch, kSubgroupMaxPadding);
      if (options_.detect.strategy == ExecStrategy::kFast) {
        // Fast mode fuses the tail of tiny buckets into cross-length
        // mega-batches: fewer, larger kernel launches at the price of a
        // bounded amount of masked padding compute. Padded columns are
        // sliced away below exactly like ordinary bucket padding.
        buckets = FuseSmallBuckets(std::move(buckets), lengths,
                                   kFastFuseMinBatch, kFastFuseMaxBatch,
                                   kFastFuseMaxPadding);
      }
      std::vector<nn::Variable> scores(buckets.size());
      std::vector<std::pair<int, int>> where(groups.size());  // (bucket,row)
      for (size_t kb = 0; kb < buckets.size(); ++kb) {
        for (size_t j = 0; j < buckets[kb].items.size(); ++j) {
          where[buckets[kb].items[j]] = {static_cast<int>(kb),
                                         static_cast<int>(j)};
        }
      }
      StrategyParallelFor(
          options_.detect.strategy, static_cast<int64_t>(buckets.size()),
          threads, [&](int64_t kb) {
            nn::NoGradGuard lane_no_grad;  // thread-local: lanes need their own
            const LengthBucket& bucket = buckets[kb];
            // Emitted on whichever lane scores the bucket, so the trace
            // shows the real per-thread schedule of bucket work.
            obs::ScopedSpan bucket_span(obs::kCatDet, "score_bucket");
            bucket_span.Arg("subgroups",
                            static_cast<double>(bucket.items.size()));
            bucket_span.Arg("max_len", static_cast<double>(bucket.max_len));
            std::vector<nn::SeqView> bucket_views;
            bucket_views.reserve(bucket.items.size());
            for (const int pi : bucket.items) {
              bucket_views.push_back(views[pi]);
            }
            scores[kb] =
                detector.ScoreSubgroupsBatch(nn::PackViews(bucket_views));
          });
      // Cancelled lanes skip buckets, leaving undefined score slots; the
      // softmax below couples every subgroup, so there is no partial
      // answer inside one trajectory — unwind before touching scores.
      LEAD_RETURN_IF_ERROR(PollCancel("detect.score"));
      std::vector<nn::Variable> parts;
      parts.reserve(groups.size());
      for (size_t gi = 0; gi < groups.size(); ++gi) {
        const auto [kb, brow] = where[gi];
        parts.push_back(nn::SliceCols(
            nn::SliceRows(scores[kb], brow, 1), 0,
            static_cast<int>(groups[gi].members.size())));
      }
      const nn::Variable probs = nn::SoftmaxRows(nn::ConcatCols(parts));
      for (size_t i = 0; i < order.size(); ++i) {
        merged[traj::CandidateFlatIndex(n, *order[i])] +=
            probs.value().at(0, static_cast<int>(i));
      }
      return Status::Ok();
    };
    if (options_.use_forward && forward_detector_ != nullptr) {
      LEAD_RETURN_IF_ERROR(PollCancel("detect.forward"));
      if (!accumulate_planned(*forward_detector_, /*forward=*/true)) {
        LEAD_RETURN_IF_ERROR(accumulate(*forward_detector_, /*forward=*/true));
      }
    }
    if (options_.use_backward && backward_detector_ != nullptr) {
      LEAD_RETURN_IF_ERROR(PollCancel("detect.backward"));
      if (!accumulate_planned(*backward_detector_, /*forward=*/false)) {
        LEAD_RETURN_IF_ERROR(
            accumulate(*backward_detector_, /*forward=*/false));
      }
    }
  } else {
    const nn::Variable probs =
        mlp_scorer_->Forward(nn::Variable::Constant(cvecs));
    for (int i = 0; i < num_candidates; ++i) {
      merged[i] = probs.value().at(i, 0);
    }
  }

  // Min-max rescale to [0, 1] (Eq. 13's normalization step).
  const auto [min_it, max_it] =
      std::minmax_element(merged.begin(), merged.end());
  const float lo = *min_it;
  const float hi = *max_it;
  if (!std::isfinite(lo) || !std::isfinite(hi)) {
    return InternalError(
        "detector produced non-finite probabilities (corrupt weights or "
        "degenerate features)");
  }
  if (hi > lo) {
    for (float& p : merged) p = (p - lo) / (hi - lo);
  } else {
    // A single candidate (2 stays) or an all-tied ranking: every
    // candidate ties at the max, which the rescale maps to 1.
    std::fill(merged.begin(), merged.end(), 1.0f);
  }

  Detection detection;
  detection.num_stays = n;
  detection.candidates = pt.candidates;
  const int best = static_cast<int>(
      std::max_element(merged.begin(), merged.end()) - merged.begin());
  detection.loaded = pt.candidates[best];
  detection.probabilities = std::move(merged);
  // How much headroom the stage finished with (deadline runs only).
  if (CurrentCancel().has_deadline()) {
    margin_us.Observe(static_cast<double>(CurrentCancel().RemainingMicros()));
  }
  return detection;
}

StatusOr<Detection> LeadModel::Detect(const traj::RawTrajectory& raw,
                                      const poi::PoiIndex& poi_index) const {
  // The deadline covers preprocessing too; DetectProcessed re-tightening
  // with the same budget is a no-op (the earlier absolute deadline wins).
  ScopedCancel scoped_cancel(
      TightenDeadline(CurrentCancel(), options_.detect.deadline_ms));
  auto processed = Preprocess(raw, poi_index);
  if (!processed.ok()) return processed.status();
  return DetectProcessed(*processed);
}

StatusOr<BatchDetection> LeadModel::DetectStream(
    int count, const TrajectoryProvider& provider,
    const poi::PoiIndex& poi_index) const {
  if (count < 0) return InvalidArgumentError("negative batch count");
  if (provider == nullptr) {
    return InvalidArgumentError("null trajectory provider");
  }
  // The fast strategy runs the whole batch through the overlapped,
  // cross-trajectory fused pipeline (grouping variants; the MLP scorer
  // has no subgroup batches to fuse and keeps the sequential loop).
  if (options_.detect.strategy == ExecStrategy::kFast &&
      options_.use_grouping) {
    return DetectStreamFused(count, provider, poi_index);
  }
  static obs::Counter& shed_counter = obs::GetCounter("lead.detect.shed");
  obs::ScopedSpan span(obs::kCatInfer, "detect_stream");
  span.Arg("count", static_cast<double>(count));
  ScopedCancel scoped_cancel(
      TightenDeadline(CurrentCancel(), options_.detect.deadline_ms));
  WatchdogScope watchdog("detect_stream");
  const CancelToken token = CurrentCancel();

  BatchDetection batch;
  batch.outcomes.resize(static_cast<size_t>(count));
  auto shed_item = [&](int index, const Status& status,
                       CancelCause cause) {
    DetectionOutcome& outcome = batch.outcomes[static_cast<size_t>(index)];
    outcome.status = status;
    outcome.degraded = true;
    shed_counter.Increment();
    ++batch.shed;
    if (batch.cause == CancelCause::kNone) batch.cause = cause;
  };

  int next = 0;
  Status cancel_status = Status::Ok();
  for (; next < count; ++next) {
    // Per-trajectory poll point: the only place the batch gives up work.
    cancel_status = token.Check("detect_stream");
    if (!cancel_status.ok()) break;
    DetectionOutcome& outcome = batch.outcomes[static_cast<size_t>(next)];
    auto raw = provider(next);
    if (!raw.ok()) {
      if (IsCancellation(raw.status()) && token.Cancelled()) {
        cancel_status = raw.status();
        break;
      }
      if (raw.status().code() == StatusCode::kResourceExhausted) {
        // Budget rejection is per-item: admission may succeed again once
        // in-flight work releases its reservation. Shed and move on.
        shed_item(next, raw.status(), CancelCause::kBudget);
        continue;
      }
      outcome.status = raw.status();
      continue;
    }
    auto detection = Detect(*raw, poi_index);
    if (!detection.ok()) {
      if (IsCancellation(detection.status()) && token.Cancelled()) {
        cancel_status = detection.status();
        break;
      }
      if (detection.status().code() == StatusCode::kResourceExhausted) {
        shed_item(next, detection.status(), CancelCause::kBudget);
        continue;
      }
      outcome.status = detection.status();
      continue;
    }
    outcome.detection = *std::move(detection);
    ++batch.completed;
  }
  if (!cancel_status.ok()) {
    // Batch-level cancellation: deadline/user/fault. Either fail the call
    // or return what completed, marking the remainder shed.
    if (!options_.detect.partial_results) return cancel_status;
    const CancelCause cause = token.cause();
    for (int i = next; i < count; ++i) {
      shed_item(i, cancel_status,
                cause != CancelCause::kNone ? cause : CancelCause::kUser);
    }
  }
  return batch;
}

StatusOr<BatchDetection> LeadModel::DetectStreamFused(
    int count, const TrajectoryProvider& provider,
    const poi::PoiIndex& poi_index) const {
  if (!normalizer_.fitted()) {
    return FailedPreconditionError("model is not trained");
  }
  static obs::Counter& shed_counter = obs::GetCounter("lead.detect.shed");
  obs::ScopedSpan span(obs::kCatInfer, "detect_stream_fused");
  span.Arg("count", static_cast<double>(count));
  ScopedCancel scoped_cancel(
      TightenDeadline(CurrentCancel(), options_.detect.deadline_ms));
  WatchdogScope watchdog("detect_stream");
  const CancelToken token = CurrentCancel();
  const int threads = ResolveThreads(options_.detect.threads);

  BatchDetection batch;
  batch.outcomes.resize(static_cast<size_t>(count));
  // resolved[i]: outcome i is final (completed, failed, or shed); only
  // unresolved items are swept into the shed set on cancellation.
  std::vector<char> resolved(static_cast<size_t>(count), 0);
  auto shed_item = [&](int index, const Status& status, CancelCause cause) {
    DetectionOutcome& outcome = batch.outcomes[static_cast<size_t>(index)];
    outcome.status = status;
    outcome.degraded = true;
    resolved[static_cast<size_t>(index)] = 1;
    shed_counter.Increment();
    ++batch.shed;
    if (batch.cause == CancelCause::kNone) batch.cause = cause;
  };
  auto fail_item = [&](int index, const Status& status) {
    batch.outcomes[static_cast<size_t>(index)].status = status;
    resolved[static_cast<size_t>(index)] = 1;
  };
  // Cancellation epilogue shared by every stage: either fail the whole
  // call or return what resolved so far, shedding the remainder
  // (DetectStream's exact partial_results contract).
  auto degrade = [&](const Status& status) -> StatusOr<BatchDetection> {
    if (!options_.detect.partial_results) return status;
    const CancelCause cause = token.cause();
    for (int i = 0; i < count; ++i) {
      if (!resolved[static_cast<size_t>(i)]) {
        shed_item(i, status,
                  cause != CancelCause::kNone ? cause : CancelCause::kUser);
      }
    }
    return batch;
  };

  // Stage 1 — overlapped read + preprocess: a dedicated producer thread
  // pulls raw trajectories (sequentially, so the provider is never called
  // concurrently) through a bounded queue while this thread preprocesses
  // and admits them. The producer inherits the caller's token, so a
  // deadline cancels a stalled read exactly like the sequential loop.
  struct StageItem {
    int index;
    StatusOr<traj::RawTrajectory> raw;
  };
  struct PendingItem {
    int index;
    ProcessedTrajectory pt;
    MemoryBudget::Reservation reservation;
  };
  BoundedQueue<StageItem> queue(
      static_cast<size_t>(std::max(2, 2 * threads)));
  std::thread producer([&] {
    ScopedCancel producer_cancel(token);
    for (int i = 0; i < count; ++i) {
      if (token.Cancelled()) break;
      if (!queue.Push(StageItem{i, provider(i)})) break;
    }
    queue.Close();
  });

  std::vector<PendingItem> ready;
  Status cancel_status = Status::Ok();
  StageItem item{0, StatusOr<traj::RawTrajectory>(traj::RawTrajectory{})};
  while (queue.Pop(&item)) {
    cancel_status = token.Check("detect_stream");
    if (!cancel_status.ok()) break;
    const int i = item.index;
    if (!item.raw.ok()) {
      if (IsCancellation(item.raw.status()) && token.Cancelled()) {
        cancel_status = item.raw.status();
        break;
      }
      if (item.raw.status().code() == StatusCode::kResourceExhausted) {
        shed_item(i, item.raw.status(), CancelCause::kBudget);
        continue;
      }
      fail_item(i, item.raw.status());
      continue;
    }
    auto processed = Preprocess(*item.raw, poi_index);
    if (!processed.ok()) {
      if (IsCancellation(processed.status()) && token.Cancelled()) {
        cancel_status = processed.status();
        break;
      }
      if (processed.status().code() == StatusCode::kResourceExhausted) {
        shed_item(i, processed.status(), CancelCause::kBudget);
        continue;
      }
      fail_item(i, processed.status());
      continue;
    }
    const int n = processed->num_stays();
    if (n < 2 || processed->candidates.empty()) {
      fail_item(i, InvalidArgumentError(
                       "trajectory has fewer than 2 stay points; no "
                       "candidates to score"));
      continue;
    }
    // Same admission formula as DetectProcessed; each item's reservation
    // is held until its scores are finalized (or the item is shed).
    const int64_t score_bytes = 3ll * traj::NumCandidates(n) *
                                options_.autoencoder.cvec_dims() *
                                static_cast<int64_t>(sizeof(float));
    MemoryBudget::Reservation reservation =
        MemoryBudget::Global().Reserve(score_bytes, "detect");
    if (!reservation.ok()) {
      shed_item(i, reservation.status(), CancelCause::kBudget);
      continue;
    }
    ready.push_back(
        PendingItem{i, *std::move(processed), std::move(reservation)});
  }
  // Unblock a producer stuck on a full queue, then ALWAYS join before any
  // return below — the producer captures this frame's locals.
  queue.Close();
  producer.join();
  // A cancellation that drained the queue before the consumer saw any
  // item (e.g. a pre-cancelled token) leaves cancel_status untouched;
  // the final poll catches it so all-or-nothing mode still fails typed.
  if (cancel_status.ok()) cancel_status = token.Check("detect_stream");
  if (!cancel_status.ok()) return degrade(cancel_status);
  if (ready.empty()) return batch;

  // Stage 2 — fused encode: every admitted trajectory's candidates in one
  // cross-trajectory EncodeCandidateBatch (items of one batch may come
  // from different trajectories by design). base_row maps each item to
  // its first row of the shared c-vec matrix.
  nn::NoGradGuard no_grad;
  std::vector<int> base_row(ready.size(), 0);
  std::vector<CandidateBatchItem> encode_items;
  {
    int total = 0;
    for (size_t r = 0; r < ready.size(); ++r) {
      base_row[r] = total;
      total += static_cast<int>(ready[r].pt.candidates.size());
    }
    encode_items.reserve(static_cast<size_t>(total));
    for (const PendingItem& p : ready) {
      for (const traj::Candidate& c : p.pt.candidates) {
        encode_items.push_back({&p.pt, c});
      }
    }
  }
  const nn::Matrix cvecs =
      autoencoder_->EncodeCandidateBatch(encode_items).value();
  cancel_status = token.Check("detect.encode");
  if (!cancel_status.ok()) return degrade(cancel_status);

  // Stage 3 — fused scoring: per direction, every subgroup of every item
  // goes through one bucketed (and bucket-fused) scoring sweep; the
  // per-item softmax over its own concatenated subgroup scores keeps each
  // output a proper distribution, exactly as in DetectProcessed.
  std::vector<std::vector<float>> merged(ready.size());
  std::vector<std::vector<Subgroup>> groups_per_item(ready.size());
  for (size_t r = 0; r < ready.size(); ++r) {
    merged[r].assign(ready[r].pt.candidates.size(), 0.0f);
  }
  auto accumulate_fused =
      [&](const StackedBiLstmDetector& detector, bool forward) -> Status {
    int total_rows = 0;
    for (size_t r = 0; r < ready.size(); ++r) {
      const int n = ready[r].pt.num_stays();
      groups_per_item[r] = forward ? ForwardGroups(n) : BackwardGroups(n);
      for (const Subgroup& g : groups_per_item[r]) {
        total_rows += static_cast<int>(g.members.size());
      }
    }
    nn::Matrix grouped(total_rows, cvecs.cols());
    std::vector<nn::SeqView> views;
    std::vector<int> lengths;
    // (item, flat candidate index) of each grouped row, in row order.
    std::vector<std::pair<int, int>> member_target;
    member_target.reserve(static_cast<size_t>(total_rows));
    int row = 0;
    for (size_t r = 0; r < ready.size(); ++r) {
      const int n = ready[r].pt.num_stays();
      for (const Subgroup& g : groups_per_item[r]) {
        views.push_back({nn::SeqSpan{&grouped, row,
                                     static_cast<int>(g.members.size())}});
        lengths.push_back(static_cast<int>(g.members.size()));
        for (const traj::Candidate& c : g.members) {
          const int flat = traj::CandidateFlatIndex(n, c);
          const float* src = cvecs.row(base_row[r] + flat);
          std::copy(src, src + cvecs.cols(), grouped.row(row++));
          member_target.emplace_back(static_cast<int>(r), flat);
        }
      }
    }
    std::vector<LengthBucket> buckets =
        BucketByLength(lengths, kSubgroupMaxBatch, kSubgroupMaxPadding);
    buckets = FuseSmallBuckets(std::move(buckets), lengths,
                               kFastFuseMinBatch, kFastFuseMaxBatch,
                               kFastFuseMaxPadding);
    std::vector<nn::Variable> scores(buckets.size());
    std::vector<std::pair<int, int>> where(views.size());  // (bucket, row)
    for (size_t kb = 0; kb < buckets.size(); ++kb) {
      for (size_t j = 0; j < buckets[kb].items.size(); ++j) {
        where[static_cast<size_t>(buckets[kb].items[j])] = {
            static_cast<int>(kb), static_cast<int>(j)};
      }
    }
    StrategyParallelFor(
        ExecStrategy::kFast, static_cast<int64_t>(buckets.size()), threads,
        [&](int64_t kb) {
          nn::NoGradGuard lane_no_grad;  // thread-local: lanes need their own
          const LengthBucket& bucket = buckets[static_cast<size_t>(kb)];
          obs::ScopedSpan bucket_span(obs::kCatDet, "score_bucket");
          bucket_span.Arg("subgroups",
                          static_cast<double>(bucket.items.size()));
          bucket_span.Arg("max_len", static_cast<double>(bucket.max_len));
          std::vector<nn::SeqView> bucket_views;
          bucket_views.reserve(bucket.items.size());
          for (const int pi : bucket.items) {
            bucket_views.push_back(views[static_cast<size_t>(pi)]);
          }
          scores[static_cast<size_t>(kb)] =
              detector.ScoreSubgroupsBatch(nn::PackViews(bucket_views));
        });
    // Cancelled lanes leave undefined score slots; unwind before slicing.
    LEAD_RETURN_IF_ERROR(PollCancel("detect.score"));
    size_t subgroup_cursor = 0;
    size_t member_cursor = 0;
    for (size_t r = 0; r < ready.size(); ++r) {
      std::vector<nn::Variable> parts;
      parts.reserve(groups_per_item[r].size());
      for (const Subgroup& g : groups_per_item[r]) {
        const auto [kb, brow] = where[subgroup_cursor++];
        parts.push_back(nn::SliceCols(
            nn::SliceRows(scores[static_cast<size_t>(kb)], brow, 1), 0,
            static_cast<int>(g.members.size())));
      }
      const nn::Variable probs = nn::SoftmaxRows(nn::ConcatCols(parts));
      const int cols = probs.value().cols();
      for (int j = 0; j < cols; ++j) {
        const auto [item_r, flat] = member_target[member_cursor++];
        merged[static_cast<size_t>(item_r)][static_cast<size_t>(flat)] +=
            probs.value().at(0, j);
      }
    }
    return Status::Ok();
  };
  if (options_.use_forward && forward_detector_ != nullptr) {
    const Status s = accumulate_fused(*forward_detector_, /*forward=*/true);
    if (!s.ok()) return degrade(s);
  }
  if (options_.use_backward && backward_detector_ != nullptr) {
    const Status s = accumulate_fused(*backward_detector_, /*forward=*/false);
    if (!s.ok()) return degrade(s);
  }

  // Finalize: min-max rescale and argmax per item (Eq. 13), releasing the
  // item's budget reservation as it leaves `ready` scope at return.
  for (size_t r = 0; r < ready.size(); ++r) {
    const PendingItem& p = ready[r];
    std::vector<float>& m = merged[r];
    const auto [min_it, max_it] = std::minmax_element(m.begin(), m.end());
    const float lo = *min_it;
    const float hi = *max_it;
    if (!std::isfinite(lo) || !std::isfinite(hi)) {
      fail_item(p.index,
                InternalError(
                    "detector produced non-finite probabilities (corrupt "
                    "weights or degenerate features)"));
      continue;
    }
    if (hi > lo) {
      for (float& v : m) v = (v - lo) / (hi - lo);
    } else {
      std::fill(m.begin(), m.end(), 1.0f);  // all tied at the max
    }
    Detection detection;
    detection.num_stays = p.pt.num_stays();
    detection.candidates = p.pt.candidates;
    const int best = static_cast<int>(
        std::max_element(m.begin(), m.end()) - m.begin());
    detection.loaded = detection.candidates[static_cast<size_t>(best)];
    detection.probabilities = std::move(m);
    batch.outcomes[static_cast<size_t>(p.index)].detection =
        std::move(detection);
    resolved[static_cast<size_t>(p.index)] = 1;
    ++batch.completed;
  }
  return batch;
}

StatusOr<BatchDetection> LeadModel::DetectBatch(
    const std::vector<traj::RawTrajectory>& raws,
    const poi::PoiIndex& poi_index) const {
  return DetectStream(
      static_cast<int>(raws.size()),
      [&raws](int index) -> StatusOr<traj::RawTrajectory> {
        return raws[static_cast<size_t>(index)];
      },
      poi_index);
}

std::vector<std::pair<traj::Candidate, float>> TopKCandidates(
    const Detection& detection, int k) {
  LEAD_CHECK_EQ(detection.candidates.size(),
                detection.probabilities.size());
  std::vector<int> order(detection.candidates.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return detection.probabilities[a] > detection.probabilities[b];
  });
  const int count =
      std::min<int>(std::max(0, k), static_cast<int>(order.size()));
  std::vector<std::pair<traj::Candidate, float>> top;
  top.reserve(count);
  for (int i = 0; i < count; ++i) {
    top.emplace_back(detection.candidates[order[i]],
                     detection.probabilities[order[i]]);
  }
  return top;
}

Status LeadModel::SerializeModel(std::ostream& out) const {
  // CRC-protected normalizer header, then one self-delimiting
  // (CRC-footed) nn::SaveParameters section per module.
  std::string header;
  header.append(kModelMagic, sizeof(kModelMagic));
  AppendU32(&header, kModelVersion);
  const uint32_t dims = static_cast<uint32_t>(normalizer_.dims());
  AppendU32(&header, dims);
  header.append(reinterpret_cast<const char*>(normalizer_.mean().data()),
                dims * sizeof(float));
  header.append(reinterpret_cast<const char*>(normalizer_.std().data()),
                dims * sizeof(float));
  const uint32_t crc = Crc32(header.data(), header.size());
  out.write(header.data(), static_cast<std::streamsize>(header.size()));
  out.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
  if (!out.good()) return IoError("failed writing model header");
  LEAD_RETURN_IF_ERROR(nn::SaveParameters(*autoencoder_, out));
  if (forward_detector_ != nullptr) {
    LEAD_RETURN_IF_ERROR(nn::SaveParameters(*forward_detector_, out));
  }
  if (backward_detector_ != nullptr) {
    LEAD_RETURN_IF_ERROR(nn::SaveParameters(*backward_detector_, out));
  }
  if (mlp_scorer_ != nullptr) {
    LEAD_RETURN_IF_ERROR(nn::SaveParameters(*mlp_scorer_, out));
  }
  if (!out.good()) return IoError("failed writing model stream");
  return Status::Ok();
}

Status LeadModel::DeserializeModel(std::istream& in) {
  Crc32Reader reader(&in);
  char magic[8];
  if (!reader.Read(magic, sizeof(magic)) ||
      !std::equal(magic, magic + 8, kModelMagic)) {
    return IoError("bad model file magic");
  }
  uint32_t version = 0;
  uint32_t dims = 0;
  if (!reader.Read(&version, sizeof(version)) || version != kModelVersion) {
    return IoError("unsupported model file version");
  }
  if (!reader.Read(&dims, sizeof(dims)) || dims == 0 || dims > 4096) {
    return IoError("bad model file header");
  }
  std::vector<float> mean(dims);
  std::vector<float> std_dev(dims);
  if (!reader.Read(mean.data(), dims * sizeof(float)) ||
      !reader.Read(std_dev.data(), dims * sizeof(float))) {
    return IoError("truncated model file header");
  }
  const uint32_t computed = reader.crc();
  uint32_t stored = 0;
  in.read(reinterpret_cast<char*>(&stored), sizeof(stored));
  if (in.fail()) return IoError("truncated model header CRC");
  if (stored != computed) {
    return IoError("model header CRC mismatch (corrupted file)");
  }
  normalizer_ =
      nn::ZScoreNormalizer::FromMoments(std::move(mean), std::move(std_dev));
  LEAD_RETURN_IF_ERROR(nn::LoadParameters(autoencoder_.get(), in));
  if (forward_detector_ != nullptr) {
    LEAD_RETURN_IF_ERROR(nn::LoadParameters(forward_detector_.get(), in));
  }
  if (backward_detector_ != nullptr) {
    LEAD_RETURN_IF_ERROR(nn::LoadParameters(backward_detector_.get(), in));
  }
  if (mlp_scorer_ != nullptr) {
    LEAD_RETURN_IF_ERROR(nn::LoadParameters(mlp_scorer_.get(), in));
  }
  return Status::Ok();
}

Status LeadModel::WriteTrainCheckpoint(const std::string& path, int stage,
                                       int next_epoch) const {
  obs::ScopedSpan span(obs::kCatIo, "checkpoint_write");
  span.Arg("stage", static_cast<double>(stage));
  span.Arg("next_epoch", static_cast<double>(next_epoch));
  static obs::Counter& writes = obs::GetCounter("checkpoint.writes");
  writes.Increment();
  std::string header;
  header.append(kTrainCkptMagic, sizeof(kTrainCkptMagic));
  AppendU32(&header, kTrainCkptVersion);
  AppendU32(&header, static_cast<uint32_t>(stage));
  AppendU32(&header, static_cast<uint32_t>(next_epoch));
  const uint32_t crc = Crc32(header.data(), header.size());
  // Serialize inside the retried op so a transient serialize-time fault
  // (e.g. an armed serialize.write that fires once) heals on retry; the
  // atomic rename keeps every failed attempt invisible on disk.
  RetryOptions retry;
  retry.seed = options_.train.seed;
  return RetryWithBackoff("checkpoint_write", retry, [&] {
    std::ostringstream buffer;
    buffer.write(header.data(), static_cast<std::streamsize>(header.size()));
    buffer.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
    LEAD_RETURN_IF_ERROR(SerializeModel(buffer));
    return WriteFileAtomic(path, buffer.str());
  });
}

Status LeadModel::TryResumeFromCheckpoint(const std::string& path,
                                          int* stage, int* next_epoch) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return IoError("cannot open checkpoint: " + path);
  Crc32Reader reader(&in);
  char magic[8];
  if (!reader.Read(magic, sizeof(magic)) ||
      !std::equal(magic, magic + 8, kTrainCkptMagic)) {
    return IoError("bad training-checkpoint magic");
  }
  uint32_t version = 0;
  uint32_t raw_stage = 0;
  uint32_t raw_epoch = 0;
  if (!reader.Read(&version, sizeof(version)) ||
      version != kTrainCkptVersion) {
    return IoError("unsupported training-checkpoint version");
  }
  if (!reader.Read(&raw_stage, sizeof(raw_stage)) ||
      !reader.Read(&raw_epoch, sizeof(raw_epoch)) ||
      raw_stage > kMaxStage || raw_epoch > 1000000) {
    return IoError("bad training-checkpoint cursor");
  }
  const uint32_t computed = reader.crc();
  uint32_t stored = 0;
  in.read(reinterpret_cast<char*>(&stored), sizeof(stored));
  if (in.fail()) return IoError("truncated training-checkpoint header");
  if (stored != computed) {
    return IoError("training-checkpoint CRC mismatch (corrupted file)");
  }
  // Deserialize into a scratch model so a file that fails mid-load (bit
  // rot in a later section) cannot leave *this half-overwritten.
  LeadModel scratch(options_);
  LEAD_RETURN_IF_ERROR(scratch.DeserializeModel(in));
  normalizer_ = std::move(scratch.normalizer_);
  autoencoder_ = std::move(scratch.autoencoder_);
  forward_detector_ = std::move(scratch.forward_detector_);
  backward_detector_ = std::move(scratch.backward_detector_);
  mlp_scorer_ = std::move(scratch.mlp_scorer_);
  if (plan_cache_ != nullptr) plan_cache_->Clear();  // module pointers changed
  *stage = static_cast<int>(raw_stage);
  *next_epoch = static_cast<int>(raw_epoch);
  return Status::Ok();
}

Status LeadModel::Save(const std::string& path) const {
  if (!normalizer_.fitted()) {
    return FailedPreconditionError("model is not trained");
  }
  LEAD_TRACE_SCOPE(obs::kCatIo, "model_save");
  RetryOptions retry;
  retry.seed = options_.train.seed;
  return RetryWithBackoff("model_save", retry, [&] {
    std::ostringstream buffer;
    LEAD_RETURN_IF_ERROR(SerializeModel(buffer));
    return WriteFileAtomic(path, buffer.str());
  });
}

Status LeadModel::CopyEncoderFrom(const LeadModel& other) {
  if (!other.trained()) {
    return FailedPreconditionError("source model is not trained");
  }
  const AutoencoderOptions& a = options_.autoencoder;
  const AutoencoderOptions& b = other.options_.autoencoder;
  if (a.feature_dims != b.feature_dims || a.hidden != b.hidden ||
      a.use_attention != b.use_attention ||
      a.hierarchical != b.hierarchical ||
      options_.pipeline.features.use_poi !=
          other.options_.pipeline.features.use_poi) {
    return InvalidArgumentError(
        "autoencoder/feature configurations do not match");
  }
  std::stringstream buffer;
  LEAD_RETURN_IF_ERROR(nn::SaveParameters(*other.autoencoder_, buffer));
  LEAD_RETURN_IF_ERROR(nn::LoadParameters(autoencoder_.get(), buffer));
  normalizer_ = other.normalizer_;
  if (plan_cache_ != nullptr) plan_cache_->Clear();
  return Status::Ok();
}

Status LeadModel::Load(const std::string& path) {
  // Load through a scratch model so a corrupt file never leaves *this
  // with a half-overwritten normalizer or weight set. Retry covers
  // transient opens/reads; persistent corruption simply exhausts the
  // (short) attempt budget and reports the same kIoError it always did.
  RetryOptions retry;
  retry.seed = options_.train.seed;
  LeadModel scratch(options_);
  LEAD_RETURN_IF_ERROR(RetryWithBackoff("model_load", retry, [&] {
    std::ifstream in(path, std::ios::binary);
    if (!in) return IoError("cannot open for read: " + path);
    return scratch.DeserializeModel(in);
  }));
  normalizer_ = std::move(scratch.normalizer_);
  autoencoder_ = std::move(scratch.autoencoder_);
  forward_detector_ = std::move(scratch.forward_detector_);
  backward_detector_ = std::move(scratch.backward_detector_);
  mlp_scorer_ = std::move(scratch.mlp_scorer_);
  if (plan_cache_ != nullptr) plan_cache_->Clear();  // module pointers changed
  return Status::Ok();
}

}  // namespace lead::core
