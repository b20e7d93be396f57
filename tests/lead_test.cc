// End-to-end tests: LEAD training/detection, variants, save/load, and the
// baselines, over a small simulated corpus shared across tests.
#include <cstdio>
#include <memory>

#include <gtest/gtest.h>

#include "baselines/sp_rnn.h"
#include "baselines/sp_rule.h"
#include "common/exec_strategy.h"
#include "core/lead.h"
#include "eval/harness.h"

namespace lead {
namespace {

// One small corpus for the whole binary (building it is the slow part).
class LeadEndToEnd : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    eval::ExperimentConfig config = eval::DefaultConfig(1.0);
    config.world.num_background_pois = 3000;
    config.world.num_loading_facilities = 10;
    config.world.num_unloading_facilities = 20;
    config.world.num_rest_areas = 24;
    config.world.num_depots = 8;
    config.dataset.num_trajectories = 120;
    config.dataset.num_trucks = 60;
    config.sim.sample_interval_mean_s = 240.0;
    config.lead.train.autoencoder_epochs = 8;
    config.lead.train.detector_epochs = 40;
    config.lead.train.max_candidates_per_trajectory = 4;
    config.lead.train.batch_size = 8;
    config.lead.train.learning_rate = 1e-3f;
    config_ = std::make_unique<eval::ExperimentConfig>(config);
    auto data = eval::BuildExperiment(config);
    ASSERT_TRUE(data.ok()) << data.status();
    data_ = std::make_unique<eval::ExperimentData>(std::move(data).value());
  }
  static void TearDownTestSuite() {
    data_.reset();
    config_.reset();
  }

  static std::unique_ptr<eval::ExperimentConfig> config_;
  static std::unique_ptr<eval::ExperimentData> data_;
};

std::unique_ptr<eval::ExperimentConfig> LeadEndToEnd::config_;
std::unique_ptr<eval::ExperimentData> LeadEndToEnd::data_;

double EvaluateAccuracy(const eval::ExperimentData& data,
                        const eval::DetectFn& detect) {
  const eval::MethodResult result =
      eval::EvaluateMethod("m", data.split.test, detect);
  return result.accuracy.overall().accuracy_pct();
}

TEST_F(LeadEndToEnd, TrainedLeadBeatsChance) {
  core::LeadModel model(config_->lead);
  core::TrainingLog log;
  const Status status = model.Train(data_->TrainLabeled(),
                                    data_->ValLabeled(),
                                    data_->world->poi_index(), &log);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_FALSE(log.autoencoder_mse.empty());
  EXPECT_FALSE(log.forward_kld.empty());
  EXPECT_FALSE(log.backward_kld.empty());

  const double acc = EvaluateAccuracy(*data_, [&](const auto& raw) {
    auto detection = model.Detect(raw, data_->world->poi_index());
    if (!detection.ok()) return StatusOr<traj::Candidate>(detection.status());
    return StatusOr<traj::Candidate>(detection->loaded);
  });
  // Random guessing over 3~91 candidates averages ~4%; the simulated
  // world is deliberately ambiguous (see DESIGN.md §3), so a small
  // corpus trained briefly clears a modest bar.
  EXPECT_GT(acc, 30.0);

  // Detection output invariants.
  auto detection =
      model.Detect(data_->split.test[0].raw, data_->world->poi_index());
  ASSERT_TRUE(detection.ok()) << detection.status();
  EXPECT_EQ(detection->candidates.size(), detection->probabilities.size());
  float max_p = 0.0f;
  for (float p : detection->probabilities) {
    EXPECT_GE(p, 0.0f);
    EXPECT_LE(p, 1.0f);
    max_p = std::max(max_p, p);
  }
  EXPECT_NEAR(max_p, 1.0f, 1e-5);  // min-max rescaled

  // Save/load round-trip must reproduce detections exactly.
  const std::string path = ::testing::TempDir() + "/lead_model.bin";
  ASSERT_TRUE(model.Save(path).ok());
  core::LeadModel reloaded(config_->lead);
  ASSERT_TRUE(reloaded.Load(path).ok());
  for (int i = 0; i < 5 && i < static_cast<int>(data_->split.test.size());
       ++i) {
    auto a = model.Detect(data_->split.test[i].raw,
                          data_->world->poi_index());
    auto b = reloaded.Detect(data_->split.test[i].raw,
                             data_->world->poi_index());
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a->loaded, b->loaded);
  }
  std::remove(path.c_str());
}

TEST_F(LeadEndToEnd, UntrainedModelRefusesToDetect) {
  core::LeadModel model(config_->lead);
  const auto result =
      model.Detect(data_->split.test[0].raw, data_->world->poi_index());
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(model.Save("/tmp/never_written.bin").ok());
}

TEST_F(LeadEndToEnd, VariantOptionsToggleTheRightKnobs) {
  const core::LeadOptions base = config_->lead;
  EXPECT_FALSE(core::MakeVariantOptions(base, core::LeadVariant::kNoPoi)
                   .pipeline.features.use_poi);
  EXPECT_FALSE(core::MakeVariantOptions(base, core::LeadVariant::kNoSel)
                   .autoencoder.use_attention);
  EXPECT_FALSE(core::MakeVariantOptions(base, core::LeadVariant::kNoHie)
                   .autoencoder.hierarchical);
  EXPECT_FALSE(core::MakeVariantOptions(base, core::LeadVariant::kNoGro)
                   .use_grouping);
  EXPECT_FALSE(core::MakeVariantOptions(base, core::LeadVariant::kNoFor)
                   .use_forward);
  EXPECT_FALSE(core::MakeVariantOptions(base, core::LeadVariant::kNoBac)
                   .use_backward);
  EXPECT_STREQ(core::LeadVariantName(core::LeadVariant::kNoGro),
               "LEAD-NoGro");
}

TEST_F(LeadEndToEnd, NoGroVariantTrainsAndDetects) {
  core::LeadOptions options =
      core::MakeVariantOptions(config_->lead, core::LeadVariant::kNoGro);
  options.train.autoencoder_epochs = 2;
  options.train.detector_epochs = 4;
  core::LeadModel model(options);
  core::TrainingLog log;
  ASSERT_TRUE(model
                  .Train(data_->TrainLabeled(), data_->ValLabeled(),
                         data_->world->poi_index(), &log)
                  .ok());
  EXPECT_FALSE(log.nogro_bce.empty());
  EXPECT_TRUE(log.forward_kld.empty());
  auto detection =
      model.Detect(data_->split.test[0].raw, data_->world->poi_index());
  ASSERT_TRUE(detection.ok()) << detection.status();
  EXPECT_LT(detection->loaded.start_sp, detection->loaded.end_sp);
}

TEST_F(LeadEndToEnd, NoForUsesOnlyBackwardDetector) {
  core::LeadOptions options =
      core::MakeVariantOptions(config_->lead, core::LeadVariant::kNoFor);
  options.train.autoencoder_epochs = 2;
  options.train.detector_epochs = 4;
  core::LeadModel model(options);
  core::TrainingLog log;
  ASSERT_TRUE(model
                  .Train(data_->TrainLabeled(), data_->ValLabeled(),
                         data_->world->poi_index(), &log)
                  .ok());
  EXPECT_TRUE(log.forward_kld.empty());
  EXPECT_FALSE(log.backward_kld.empty());
  EXPECT_TRUE(model.Detect(data_->split.test[0].raw,
                           data_->world->poi_index())
                  .ok());
}

TEST_F(LeadEndToEnd, SpRuleBaselineTrainsAndDetects) {
  baselines::SpRuleBaseline sp_r(config_->lead.pipeline, {});
  ASSERT_TRUE(sp_r.Train(data_->TrainLabeled()).ok());
  // Both endpoints of every training trajectory enter the white list.
  EXPECT_EQ(sp_r.whitelist_size(),
            2 * static_cast<int>(data_->split.train.size()));
  const auto detection = sp_r.Detect(data_->split.test[0].raw);
  ASSERT_TRUE(detection.ok()) << detection.status();
  EXPECT_LT(detection->loaded.start_sp, detection->loaded.end_sp);
  EXPECT_LT(detection->loaded.end_sp, detection->num_stays);
}

TEST_F(LeadEndToEnd, SpRnnBaselineLearnsSomething) {
  baselines::SpRnnOptions options;
  options.cell = baselines::RnnCellType::kLstm;
  options.hidden = 32;  // small for test speed
  options.train.detector_epochs = 6;
  options.train.batch_size = 32;
  options.train.learning_rate = 1e-3f;
  baselines::SpRnnBaseline sp_lstm(config_->lead.pipeline, options);
  std::vector<float> losses;
  ASSERT_TRUE(sp_lstm
                  .Train(data_->TrainLabeled(), data_->ValLabeled(),
                         data_->world->poi_index(), &losses, nullptr)
                  .ok());
  ASSERT_GE(losses.size(), 2u);
  EXPECT_LT(losses.back(), losses.front());
  const auto detection =
      sp_lstm.Detect(data_->split.test[0].raw, data_->world->poi_index());
  ASSERT_TRUE(detection.ok()) << detection.status();
}

// Probabilities are min-max rescaled into [0, 1] and `loaded` is their
// argmax.
void ExpectRescaledArgmax(const core::Detection& detection) {
  ASSERT_EQ(detection.candidates.size(), detection.probabilities.size());
  ASSERT_FALSE(detection.probabilities.empty());
  size_t best = 0;
  for (size_t i = 0; i < detection.probabilities.size(); ++i) {
    EXPECT_GE(detection.probabilities[i], 0.0f);
    EXPECT_LE(detection.probabilities[i], 1.0f);
    if (detection.probabilities[i] > detection.probabilities[best]) best = i;
  }
  EXPECT_EQ(detection.probabilities[best], 1.0f);
  EXPECT_EQ(detection.loaded, detection.candidates[best]);
}

// A 2-stay trajectory has a single candidate, so both detectors' softmax
// puts 1 on it and the merged score is 2 for every candidate: min == max.
// Every candidate then ties at the max and must rescale to 1, not stay 2.
TEST_F(LeadEndToEnd, SingleCandidateRescalesToOneOnEveryDetectPath) {
  for (const ExecStrategy strategy :
       {ExecStrategy::kDeterministic, ExecStrategy::kFast}) {
    SCOPED_TRACE(ExecStrategyName(strategy));
    core::LeadOptions options = config_->lead;
    options.train.autoencoder_epochs = 0;
    options.train.detector_epochs = 0;
    options.train.strategy = strategy;
    options.detect.strategy = strategy;
    core::LeadModel model(options);
    ASSERT_TRUE(model.Train(data_->TrainLabeled(), data_->ValLabeled(),
                            data_->world->poi_index(), nullptr)
                    .ok());
    // Cut a test trajectory just before its third stay: the cleaned
    // prefix keeps exactly the first two stays.
    const traj::RawTrajectory& full = data_->split.test[0].raw;
    auto pt = model.Preprocess(full, data_->world->poi_index());
    ASSERT_TRUE(pt.ok()) << pt.status();
    ASSERT_GE(pt->num_stays(), 3);
    traj::RawTrajectory cut = pt->cleaned;
    cut.points.resize(
        static_cast<size_t>(pt->segmentation.stays[2].range.begin));
    auto cut_pt = model.Preprocess(cut, data_->world->poi_index());
    ASSERT_TRUE(cut_pt.ok()) << cut_pt.status();
    ASSERT_EQ(cut_pt->num_stays(), 2);

    auto single = model.Detect(cut, data_->world->poi_index());
    ASSERT_TRUE(single.ok()) << single.status();
    ASSERT_EQ(single->probabilities.size(), 1u);
    ExpectRescaledArgmax(*single);

    auto batch = model.DetectBatch({cut, full}, data_->world->poi_index());
    ASSERT_TRUE(batch.ok()) << batch.status();
    ASSERT_EQ(batch->outcomes.size(), 2u);
    for (const core::DetectionOutcome& outcome : batch->outcomes) {
      ASSERT_TRUE(outcome.status.ok()) << outcome.status;
      ExpectRescaledArgmax(outcome.detection);
    }
    EXPECT_EQ(batch->outcomes[0].detection.probabilities,
              std::vector<float>{1.0f});
  }
}

TEST(GreedyDetectTest, EndpointCases) {
  using baselines::GreedyDetect;
  // Normal: first and last l/u become the endpoints.
  auto d = GreedyDetect({false, true, false, true, false});
  EXPECT_EQ(d.loaded, (traj::Candidate{1, 3}));
  EXPECT_FALSE(d.used_default);
  // Insufficient l/u stay points -> default full span.
  d = GreedyDetect({false, true, false});
  EXPECT_TRUE(d.used_default);
  EXPECT_EQ(d.loaded, (traj::Candidate{0, 2}));
  d = GreedyDetect({false, false});
  EXPECT_TRUE(d.used_default);
  EXPECT_EQ(d.loaded, (traj::Candidate{0, 1}));
  // All l/u.
  d = GreedyDetect({true, true, true});
  EXPECT_EQ(d.loaded, (traj::Candidate{0, 2}));
  EXPECT_FALSE(d.used_default);
}

TEST(MetricsTest, BucketBoundaries) {
  EXPECT_EQ(eval::BucketOf(3), 0);
  EXPECT_EQ(eval::BucketOf(5), 0);
  EXPECT_EQ(eval::BucketOf(6), 1);
  EXPECT_EQ(eval::BucketOf(11), 2);
  EXPECT_EQ(eval::BucketOf(14), 3);
  EXPECT_EQ(eval::BucketOf(2), -1);
  EXPECT_EQ(eval::BucketOf(15), -1);
  EXPECT_EQ(eval::BucketLabel(0), "3~5");
  EXPECT_EQ(eval::BucketLabel(eval::kNumBuckets), "3~14");
}

TEST(MetricsTest, AccuracyTableAggregates) {
  eval::AccuracyTable table;
  table.Add(4, true);
  table.Add(4, false);
  table.Add(13, true);
  EXPECT_EQ(table.bucket(0).total, 2);
  EXPECT_EQ(table.bucket(0).hits, 1);
  EXPECT_DOUBLE_EQ(table.bucket(0).accuracy_pct(), 50.0);
  EXPECT_EQ(table.bucket(3).total, 1);
  EXPECT_DOUBLE_EQ(table.overall().accuracy_pct(), 100.0 * 2 / 3);
}

TEST(MetricsTest, TimingTableMeans) {
  eval::TimingTable table;
  table.Add(4, 1.0);
  table.Add(4, 3.0);
  table.Add(7, 5.0);
  EXPECT_DOUBLE_EQ(table.mean_seconds(0), 2.0);
  EXPECT_DOUBLE_EQ(table.mean_seconds(1), 5.0);
  EXPECT_DOUBLE_EQ(table.overall_mean_seconds(), 3.0);
}

}  // namespace
}  // namespace lead
