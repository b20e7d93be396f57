// Differential-oracle harness for ExecStrategy::kFast (the tentpole of
// the throughput-first execution mode): deterministic mode is the
// unchanged bit-parity oracle, and every fast-mode result is judged
// against it with the tests/differential.h contract — identical
// decisions, probabilities within a documented absolute tolerance, and
// training-loss curves within relative + absolute bands. On top of the
// golden-style fixture corpus, a seeded fuzz sweep (~50 simulated
// trajectories from worlds derived via Rng::ForStream) keeps the
// contract honest on inputs nobody hand-picked, and chaos-style stress
// (stalled reads vs. deadline, tiny memory budget, all-or-nothing
// cancellation) reuses the fault points from chaos_test to show the
// overlapped fused-stream pipeline degrades exactly like the
// deterministic one.
//
// Fault-driven tests GTEST_SKIP unless the build has
// -DLEAD_FAULT_INJECTION=ON (ci.sh's fault stage runs them).
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/budget.h"
#include "common/cancel.h"
#include "common/exec_strategy.h"
#include "common/fault.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/lead.h"
#include "eval/harness.h"
#include "io/csv.h"
#include "obs/metrics.h"
#include "differential.h"

namespace lead {
namespace {

// Probabilities are min-max-rescaled softmax outputs in [0, 1]; 1e-4
// is orders of magnitude above any FP drift the fast schedule can
// introduce while still far below the smallest decision-relevant gap
// observed on the fixture corpus.
constexpr float kProbTol = 1e-4f;

int64_t ElapsedMillis(uint64_t start_us) {
  return static_cast<int64_t>((obs::NowMicros() - start_us) / 1000);
}

// Same corpus recipe as chaos_test: one small simulated world, models
// trained with zero epochs (weights are then a pure function of the
// seed, so every strategy/thread combination trains byte-identical
// weights and differences can only come from the detect path).
class FastModeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    config_ =
        std::make_unique<eval::ExperimentConfig>(eval::DefaultConfig(1.0));
    config_->world.num_background_pois = 300;
    config_->dataset.num_trajectories = 40;
    config_->dataset.num_trucks = 10;
    config_->sim.sample_interval_mean_s = 240.0;
    config_->lead.train.autoencoder_epochs = 0;
    config_->lead.train.detector_epochs = 0;
    auto data = eval::BuildExperiment(*config_);
    ASSERT_TRUE(data.ok()) << data.status();
    data_ = std::make_unique<eval::ExperimentData>(std::move(*data));

    raws_ = std::make_unique<std::vector<traj::RawTrajectory>>();
    csv_ = std::make_unique<std::vector<std::string>>();
    ASSERT_GE(data_->split.test.size(), 3u);
    for (const sim::SimulatedDay& day : data_->split.test) {
      raws_->push_back(day.raw);
      std::ostringstream out;
      ASSERT_TRUE(io::WriteTrajectories({day.raw}, out).ok());
      csv_->push_back(out.str());
    }
  }

  static void TearDownTestSuite() {
    csv_.reset();
    raws_.reset();
    data_.reset();
    config_.reset();
  }

  static std::unique_ptr<core::LeadModel> ModelWith(ExecStrategy strategy,
                                                    int threads,
                                                    int64_t deadline_ms = 0) {
    core::LeadOptions options = config_->lead;
    options.train.strategy = strategy;
    options.train.threads = threads;
    options.detect.strategy = strategy;
    options.detect.threads = threads;
    options.detect.deadline_ms = deadline_ms;
    auto model = std::make_unique<core::LeadModel>(options);
    const Status trained =
        model->Train(data_->TrainLabeled(), data_->ValLabeled(),
                     data_->world->poi_index(), nullptr);
    EXPECT_TRUE(trained.ok()) << trained;
    return model;
  }

  static core::TrajectoryProvider CsvProvider() {
    return [](int index) -> StatusOr<traj::RawTrajectory> {
      std::istringstream in((*csv_)[static_cast<size_t>(index)]);
      auto rows = io::ReadTrajectories(in);
      if (!rows.ok()) return rows.status();
      if (rows->empty()) return InternalError("empty csv blob");
      return std::move((*rows)[0]);
    };
  }

  static int Count() { return static_cast<int>(csv_->size()); }

  static std::unique_ptr<eval::ExperimentConfig> config_;
  static std::unique_ptr<eval::ExperimentData> data_;
  static std::unique_ptr<std::vector<traj::RawTrajectory>> raws_;
  static std::unique_ptr<std::vector<std::string>> csv_;
};

std::unique_ptr<eval::ExperimentConfig> FastModeTest::config_;
std::unique_ptr<eval::ExperimentData> FastModeTest::data_;
std::unique_ptr<std::vector<traj::RawTrajectory>> FastModeTest::raws_;
std::unique_ptr<std::vector<std::string>> FastModeTest::csv_;

// Acceptance: on the fixture corpus, fast-mode batch detection (the
// overlapped fused-stream pipeline) is decision-equivalent to the
// deterministic 1-thread oracle at every thread count, with
// probabilities inside the documented tolerance.
TEST_F(FastModeTest, BatchDecisionsMatchOracleAcrossThreads) {
  const auto oracle = ModelWith(ExecStrategy::kDeterministic, 1);
  const auto ref =
      oracle->DetectBatch(*raws_, data_->world->poi_index());
  ASSERT_TRUE(ref.ok()) << ref.status();
  ASSERT_EQ(ref->completed, Count());

  for (const int threads : {1, 2, 4, 8}) {
    SCOPED_TRACE("fast threads=" + std::to_string(threads));
    const auto fast = ModelWith(ExecStrategy::kFast, threads);
    const auto got = fast->DetectBatch(*raws_, data_->world->poi_index());
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_EQ(got->completed, Count());
    ASSERT_EQ(got->outcomes.size(), ref->outcomes.size());
    for (size_t i = 0; i < ref->outcomes.size(); ++i) {
      SCOPED_TRACE("item " + std::to_string(i));
      const core::Detection& want = ref->outcomes[i].detection;
      const core::Detection& have = got->outcomes[i].detection;
      EXPECT_TRUE(diff::SameDecision(want, have));
      EXPECT_TRUE(
          diff::ProbsWithin(want.probabilities, have.probabilities, kProbTol));
    }
  }
}

// The single-trajectory Detect path (DetectProcessed with fused
// small-bucket batches and dynamic loops) meets the same contract.
TEST_F(FastModeTest, SingleDetectMatchesOracle) {
  const auto oracle = ModelWith(ExecStrategy::kDeterministic, 1);
  const auto fast = ModelWith(ExecStrategy::kFast, 4);
  for (size_t i = 0; i < raws_->size(); ++i) {
    SCOPED_TRACE("trajectory " + std::to_string(i));
    const auto want = oracle->Detect((*raws_)[i], data_->world->poi_index());
    const auto have = fast->Detect((*raws_)[i], data_->world->poi_index());
    ASSERT_TRUE(want.ok()) << want.status();
    ASSERT_TRUE(have.ok()) << have.status();
    EXPECT_TRUE(diff::SameDecision(*want, *have));
    EXPECT_TRUE(
        diff::ProbsWithin(want->probabilities, have->probabilities, kProbTol));
  }
}

// Fast mode is allowed to diverge (within tolerance) from the oracle,
// but it must be invariant in itself: the dynamic schedule decides WHO
// scores a bucket, never WHAT a bucket computes, so every thread count
// produces bit-identical probabilities. Tolerance 0 keeps this sharp —
// a future schedule-dependent kernel must loosen it consciously.
TEST_F(FastModeTest, FastResultsInvariantAcrossThreads) {
  const auto base = ModelWith(ExecStrategy::kFast, 1);
  const auto ref = base->DetectBatch(*raws_, data_->world->poi_index());
  ASSERT_TRUE(ref.ok()) << ref.status();
  ASSERT_EQ(ref->completed, Count());
  for (const int threads : {2, 4, 8}) {
    SCOPED_TRACE("fast threads=" + std::to_string(threads));
    const auto fast = ModelWith(ExecStrategy::kFast, threads);
    const auto got = fast->DetectBatch(*raws_, data_->world->poi_index());
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_EQ(got->outcomes.size(), ref->outcomes.size());
    for (size_t i = 0; i < ref->outcomes.size(); ++i) {
      SCOPED_TRACE("item " + std::to_string(i));
      EXPECT_TRUE(diff::SameDecision(ref->outcomes[i].detection,
                                     got->outcomes[i].detection));
      EXPECT_TRUE(diff::ProbsWithin(ref->outcomes[i].detection.probabilities,
                                    got->outcomes[i].detection.probabilities,
                                    0.0f));
    }
  }
}

// Seeded fuzzing: ~50 trajectories from 5 worlds whose seeds derive
// from Rng::ForStream, detected by the SAME trained weights under both
// strategies. Simulation failures (too few stay points) skip the item;
// the sweep must still compare a large majority of the corpus so a
// regression cannot hide behind "everything got skipped".
TEST_F(FastModeTest, FuzzedTrajectoriesAgreeAcrossStrategies) {
  const auto oracle = ModelWith(ExecStrategy::kDeterministic, 1);
  const auto fast = ModelWith(ExecStrategy::kFast, 4);
  int compared = 0;
  int skipped = 0;
  constexpr int kWorlds = 5;
  for (int k = 0; k < kWorlds; ++k) {
    SCOPED_TRACE("fuzz world " + std::to_string(k));
    Rng rng = Rng::ForStream(0xf22d, static_cast<uint64_t>(k));
    eval::ExperimentConfig config = *config_;
    config.world.seed = static_cast<uint64_t>(rng.UniformInt(1, 1 << 30));
    config.dataset.seed = static_cast<uint64_t>(rng.UniformInt(1, 1 << 30));
    // One day per truck; fewer trucks would leave the by-truck split
    // with an empty val/test bucket (BuildExperiment rejects that).
    config.dataset.num_trajectories = 10;
    config.dataset.num_trucks = 10;
    auto fuzz = eval::BuildExperiment(config);
    ASSERT_TRUE(fuzz.ok()) << fuzz.status();
    std::vector<const sim::SimulatedDay*> days;
    for (const auto& day : fuzz->split.train) days.push_back(&day);
    for (const auto& day : fuzz->split.val) days.push_back(&day);
    for (const auto& day : fuzz->split.test) days.push_back(&day);
    for (const sim::SimulatedDay* day : days) {
      SCOPED_TRACE("trajectory " + day->raw.trajectory_id);
      const auto want =
          oracle->Detect(day->raw, fuzz->world->poi_index());
      const auto have = fast->Detect(day->raw, fuzz->world->poi_index());
      // Both strategies must agree on detectability too.
      ASSERT_EQ(want.ok(), have.ok())
          << "oracle: " << want.status() << ", fast: " << have.status();
      if (!want.ok()) {
        ++skipped;
        continue;
      }
      EXPECT_TRUE(diff::SameDecision(*want, *have));
      EXPECT_TRUE(diff::ProbsWithin(want->probabilities, have->probabilities,
                                    kProbTol));
      ++compared;
    }
  }
  EXPECT_GE(compared, 40) << "only " << compared << " of "
                          << compared + skipped
                          << " fuzzed trajectories were comparable";
}

// The NoGro MLP scorer and the backward-only NoFor detector run through
// the same batch core as the full model. Under kFast a DetectBatch is one
// multi-item window (for NoGro, the MLP scorer's first multi-item one) and
// must meet the oracle contract; under kDeterministic every item must stay
// bit-identical to a per-item Detect.
TEST_F(FastModeTest, ScoringVariantsMatchOracleThroughBatchPath) {
  for (const core::LeadVariant variant :
       {core::LeadVariant::kNoGro, core::LeadVariant::kNoFor}) {
    SCOPED_TRACE(core::LeadVariantName(variant));
    const auto variant_model = [&](ExecStrategy strategy, int threads) {
      core::LeadOptions options =
          core::MakeVariantOptions(config_->lead, variant);
      options.train.strategy = strategy;
      options.train.threads = threads;
      options.detect.strategy = strategy;
      options.detect.threads = threads;
      auto model = std::make_unique<core::LeadModel>(options);
      const Status trained =
          model->Train(data_->TrainLabeled(), data_->ValLabeled(),
                       data_->world->poi_index(), nullptr);
      EXPECT_TRUE(trained.ok()) << trained;
      return model;
    };
    const auto oracle = variant_model(ExecStrategy::kDeterministic, 1);
    const auto fast = variant_model(ExecStrategy::kFast, 4);
    const auto fast_batch =
        fast->DetectBatch(*raws_, data_->world->poi_index());
    const auto det_batch =
        oracle->DetectBatch(*raws_, data_->world->poi_index());
    ASSERT_TRUE(fast_batch.ok()) << fast_batch.status();
    ASSERT_TRUE(det_batch.ok()) << det_batch.status();
    ASSERT_EQ(fast_batch->completed, Count());
    ASSERT_EQ(det_batch->completed, Count());
    for (size_t i = 0; i < raws_->size(); ++i) {
      SCOPED_TRACE("item " + std::to_string(i));
      const auto want = oracle->Detect((*raws_)[i], data_->world->poi_index());
      ASSERT_TRUE(want.ok()) << want.status();
      const core::Detection& fast_have = fast_batch->outcomes[i].detection;
      EXPECT_TRUE(diff::SameDecision(*want, fast_have));
      EXPECT_TRUE(diff::ProbsWithin(want->probabilities,
                                    fast_have.probabilities, kProbTol));
      const core::Detection& det_have = det_batch->outcomes[i].detection;
      EXPECT_TRUE(diff::SameDecision(*want, det_have));
      EXPECT_TRUE(diff::ProbsWithin(want->probabilities,
                                    det_have.probabilities, 0.0f));
    }
  }
}

// Training-loss bands: with real epochs, the fast gradient schedule
// (thread-sized shards, flat reduction) may drift from the oracle's
// fixed 16-sample shards and pairwise tree, but each per-epoch loss must
// stay inside a 5% relative band and early stopping must fire on the
// same epoch (curve length is part of the contract).
TEST_F(FastModeTest, TrainingLossCurvesStayWithinBands) {
  eval::ExperimentConfig config = *config_;
  config.lead.train.autoencoder_epochs = 2;
  config.lead.train.detector_epochs = 2;
  config.lead.train.threads = 4;

  const auto train = [&](ExecStrategy strategy) -> core::TrainingLog {
    core::LeadOptions options = config.lead;
    options.train.strategy = strategy;
    core::LeadModel model(options);
    core::TrainingLog log;
    const Status trained =
        model.Train(data_->TrainLabeled(), data_->ValLabeled(),
                    data_->world->poi_index(), &log);
    EXPECT_TRUE(trained.ok()) << trained;
    return log;
  };
  const core::TrainingLog ref = train(ExecStrategy::kDeterministic);
  const core::TrainingLog got = train(ExecStrategy::kFast);

  constexpr float kRelTol = 0.05f;
  constexpr float kAbsTol = 1e-3f;
  ASSERT_FALSE(ref.autoencoder_mse.empty());
  EXPECT_TRUE(diff::LossesWithin(ref.autoencoder_mse, got.autoencoder_mse,
                                 kRelTol, kAbsTol));
  EXPECT_TRUE(diff::LossesWithin(ref.autoencoder_val_mse,
                                 got.autoencoder_val_mse, kRelTol, kAbsTol));
  EXPECT_TRUE(diff::LossesWithin(ref.forward_kld, got.forward_kld, kRelTol,
                                 kAbsTol));
  EXPECT_TRUE(diff::LossesWithin(ref.forward_val_kld, got.forward_val_kld,
                                 kRelTol, kAbsTol));
  EXPECT_TRUE(diff::LossesWithin(ref.backward_kld, got.backward_kld, kRelTol,
                                 kAbsTol));
  EXPECT_TRUE(diff::LossesWithin(ref.backward_val_kld, got.backward_val_kld,
                                 kRelTol, kAbsTol));
}

// ---------------------------------------------------------------------------
// Chaos-style stress: the fused-stream pipeline under faults, deadlines,
// and budgets (mirrors chaos_test's deterministic-path coverage).
// ---------------------------------------------------------------------------

// A read stalled inside the producer thread must not outlive the
// deadline: the consumer sheds the batch and the producer is joined
// before DetectStream returns.
TEST_F(FastModeTest, FastStreamHonorsDeadlineUnderStalledReads) {
  if (!fault::Enabled()) GTEST_SKIP() << "fault injection compiled out";
  const auto model = ModelWith(ExecStrategy::kFast, 4, /*deadline_ms=*/300);
  fault::ArmStall("io.read.stall", 1, 10'000);
  const uint64_t t0 = obs::NowMicros();
  const auto batch =
      model->DetectStream(Count(), CsvProvider(), data_->world->poi_index());
  const int64_t elapsed_ms = ElapsedMillis(t0);
  const int fires = fault::Fires("io.read.stall");
  fault::DisarmAll();

  ASSERT_TRUE(batch.ok()) << batch.status();
  EXPECT_LT(elapsed_ms, 600) << "stall outlived 2x the 300 ms deadline";
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(batch->completed, 0);
  EXPECT_EQ(batch->shed, Count());
  EXPECT_EQ(batch->cause, CancelCause::kDeadline);
  for (const core::DetectionOutcome& outcome : batch->outcomes) {
    EXPECT_TRUE(outcome.degraded);
    EXPECT_EQ(outcome.status.code(), StatusCode::kDeadlineExceeded)
        << outcome.status;
  }
}

// Budget admission inside the fused stream degrades items, never the
// batch; lifting the cap restores full completion on the same inputs.
TEST_F(FastModeTest, FastTinyBudgetShedsItemsNotTheBatch) {
  const auto model = ModelWith(ExecStrategy::kFast, 4);
  MemoryBudget::Global().SetCapBytes(64);
  const auto batch =
      model->DetectStream(Count(), CsvProvider(), data_->world->poi_index());
  MemoryBudget::Global().SetCapBytes(0);

  ASSERT_TRUE(batch.ok()) << batch.status();
  EXPECT_EQ(batch->completed, 0);
  EXPECT_EQ(batch->shed, Count());
  EXPECT_EQ(batch->cause, CancelCause::kBudget);
  for (const core::DetectionOutcome& outcome : batch->outcomes) {
    EXPECT_TRUE(outcome.degraded);
    EXPECT_EQ(outcome.status.code(), StatusCode::kResourceExhausted)
        << outcome.status;
  }
  const auto retry =
      model->DetectStream(Count(), CsvProvider(), data_->world->poi_index());
  ASSERT_TRUE(retry.ok()) << retry.status();
  EXPECT_EQ(retry->completed, Count());
  EXPECT_EQ(retry->shed, 0);
}

// Without partial_results, fast streaming fails the whole call with the
// typed cancellation status — and still joins its producer thread on
// the early-return path (ASan/TSan in ci.sh would flag a leak or race).
TEST_F(FastModeTest, FastAllOrNothingReturnsTypedError) {
  core::LeadOptions options = config_->lead;
  options.detect.strategy = ExecStrategy::kFast;
  options.detect.threads = 4;
  options.detect.partial_results = false;
  core::LeadModel model(options);
  ASSERT_TRUE(model
                  .Train(data_->TrainLabeled(), data_->ValLabeled(),
                         data_->world->poi_index(), nullptr)
                  .ok());
  CancelToken token = CancelToken::Cancellable();
  token.Cancel(CancelCause::kUser);
  ScopedCancel scoped(token);
  const auto batch =
      model.DetectStream(Count(), CsvProvider(), data_->world->poi_index());
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kCancelled) << batch.status();
}

}  // namespace
}  // namespace lead
