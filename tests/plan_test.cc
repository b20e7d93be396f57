// Compiled execution plans (nn/plan.h): bit-parity against the eager
// tape, arena reuse, and cache behavior.
//
// The parity tests mirror the golden-detect harness: a fixed simulated
// corpus and a fixed-seed model (0 epochs) make every probability a pure
// deterministic function of the code, and %.9g strings make float
// comparison bit-exact. A plan-mode model must reproduce the eager
// model's Detect output exactly — across trajectories (many shapes),
// after mutating feature values under a cached plan, and for every
// thread count.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/lead.h"
#include "eval/harness.h"
#include "nn/matrix.h"
#include "nn/ops.h"
#include "nn/plan.h"
#include "nn/variable.h"
#include "obs/metrics.h"

namespace lead {
namespace {

// Small corpus: enough trajectories for several distinct stay-count
// shapes, cheap enough to build per test case.
eval::ExperimentConfig MakeConfig(core::ExecMode mode, int threads) {
  eval::ExperimentConfig config = eval::DefaultConfig(1.0);
  config.world.num_background_pois = 800;
  config.world.num_loading_facilities = 6;
  config.world.num_unloading_facilities = 8;
  config.world.num_rest_areas = 8;
  config.world.num_depots = 4;
  config.dataset.num_trajectories = 24;
  config.dataset.num_trucks = 12;
  config.sim.sample_interval_mean_s = 240.0;
  config.lead.train.autoencoder_epochs = 0;
  config.lead.train.detector_epochs = 0;
  config.lead.detect.exec_mode = mode;
  config.lead.detect.threads = threads;
  config.lead.train.threads = threads;
  return config;
}

// Identical seeds and 0 training epochs give every model built from the
// same config bit-identical weights, so an eager and a plan model are
// directly comparable.
std::unique_ptr<core::LeadModel> MakeTrainedModel(
    const eval::ExperimentConfig& config, const eval::ExperimentData& data) {
  auto model = std::make_unique<core::LeadModel>(config.lead);
  const Status trained =
      model->Train(data.TrainLabeled(), data.ValLabeled(),
                   data.world->poi_index(), nullptr);
  EXPECT_TRUE(trained.ok()) << trained;
  return model;
}

std::string ProbLine(const std::string& id, size_t i, float p) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%s %zu %.9g", id.c_str(), i,
                static_cast<double>(p));
  return buf;
}

// Detect probabilities of every test trajectory as %.9g strings (string
// equality == bit equality).
std::vector<std::string> DetectLines(const core::LeadModel& model,
                                     const eval::ExperimentData& data) {
  std::vector<std::string> lines;
  for (const sim::SimulatedDay& day : data.split.test) {
    auto detection = model.Detect(day.raw, data.world->poi_index());
    if (!detection.ok()) continue;
    for (size_t i = 0; i < detection->probabilities.size(); ++i) {
      lines.push_back(ProbLine(day.raw.trajectory_id, i,
                               detection->probabilities[i]));
    }
  }
  EXPECT_FALSE(lines.empty());
  return lines;
}

TEST(PlanParityTest, DetectMatchesEagerBitExactAcrossShapes) {
  const eval::ExperimentConfig eager_cfg =
      MakeConfig(core::ExecMode::kEager, 1);
  const eval::ExperimentConfig plan_cfg = MakeConfig(core::ExecMode::kPlan, 1);
  auto data = eval::BuildExperiment(eager_cfg);
  ASSERT_TRUE(data.ok()) << data.status();

  const auto eager_model = MakeTrainedModel(eager_cfg, *data);
  const auto plan_model = MakeTrainedModel(plan_cfg, *data);
  EXPECT_EQ(DetectLines(*eager_model, *data), DetectLines(*plan_model, *data));
}

TEST(PlanParityTest, CachedPlanTracksMutatedFeatureValues) {
  const eval::ExperimentConfig eager_cfg =
      MakeConfig(core::ExecMode::kEager, 1);
  const eval::ExperimentConfig plan_cfg = MakeConfig(core::ExecMode::kPlan, 1);
  auto data = eval::BuildExperiment(eager_cfg);
  ASSERT_TRUE(data.ok()) << data.status();
  const auto eager_model = MakeTrainedModel(eager_cfg, *data);
  const auto plan_model = MakeTrainedModel(plan_cfg, *data);

  auto pt = plan_model->Preprocess(data->split.test.front().raw,
                                   data->world->poi_index());
  ASSERT_TRUE(pt.ok()) << pt.status();

  // First plan-mode detect records the plans for this shape signature.
  ASSERT_TRUE(plan_model->DetectProcessed(*pt).ok());

  // Same shapes, different values: the cached plan must replay against
  // the mutated features and still match eager bit-for-bit.
  for (int r = 0; r < pt->features.rows(); ++r) {
    for (int c = 0; c < pt->features.cols(); c += 3) {
      pt->features.at(r, c) += 0.125f * static_cast<float>((r + c) % 5);
    }
  }
  auto eager_det = eager_model->DetectProcessed(*pt);
  auto plan_det = plan_model->DetectProcessed(*pt);
  ASSERT_TRUE(eager_det.ok()) << eager_det.status();
  ASSERT_TRUE(plan_det.ok()) << plan_det.status();
  ASSERT_EQ(eager_det->probabilities.size(), plan_det->probabilities.size());
  for (size_t i = 0; i < eager_det->probabilities.size(); ++i) {
    EXPECT_EQ(ProbLine("m", i, eager_det->probabilities[i]),
              ProbLine("m", i, plan_det->probabilities[i]))
        << "candidate " << i;
  }
}

TEST(PlanParityTest, PlanModeIsThreadCountInvariant) {
  const eval::ExperimentConfig cfg1 = MakeConfig(core::ExecMode::kPlan, 1);
  const eval::ExperimentConfig cfg4 = MakeConfig(core::ExecMode::kPlan, 4);
  auto data = eval::BuildExperiment(cfg1);
  ASSERT_TRUE(data.ok()) << data.status();
  const auto model1 = MakeTrainedModel(cfg1, *data);
  const auto model4 = MakeTrainedModel(cfg4, *data);
  EXPECT_EQ(DetectLines(*model1, *data), DetectLines(*model4, *data));
}

TEST(PlanCacheTest, RepeatDetectsHitTheCacheAndStopAllocating) {
  const eval::ExperimentConfig cfg = MakeConfig(core::ExecMode::kPlan, 1);
  auto data = eval::BuildExperiment(cfg);
  ASSERT_TRUE(data.ok()) << data.status();
  const auto model = MakeTrainedModel(cfg, *data);
  auto pt = model->Preprocess(data->split.test.front().raw,
                              data->world->poi_index());
  ASSERT_TRUE(pt.ok()) << pt.status();

  obs::Counter& hits = obs::GetCounter("nn.plan.cache_hits");
  obs::Counter& misses = obs::GetCounter("nn.plan.cache_misses");

  // Warm-up: records the encode plan and both detector plans.
  const int64_t recording_before = nn::TensorAllocsThisThread();
  ASSERT_TRUE(model->DetectProcessed(*pt).ok());
  const int64_t recording_allocs =
      nn::TensorAllocsThisThread() - recording_before;
  const int64_t misses_after_warmup = misses.Value();
  const int64_t hits_after_warmup = hits.Value();
  EXPECT_GE(misses_after_warmup, 3);

  constexpr int kRepeats = 5;
  for (int i = 0; i < kRepeats; ++i) {
    const int64_t allocs_before = nn::TensorAllocsThisThread();
    ASSERT_TRUE(model->DetectProcessed(*pt).ok());
    const int64_t allocs = nn::TensorAllocsThisThread() - allocs_before;
    // Steady state: only the per-call result copies remain (encode output
    // + one probability row per detector), far below the thousands of
    // tape temporaries an eager detect allocates.
    EXPECT_LT(allocs, 32) << "steady-state detect " << i;
  }
  // Every warm detect hit all three plans and recorded nothing new.
  EXPECT_EQ(misses.Value(), misses_after_warmup);
  EXPECT_GE(hits.Value(), hits_after_warmup + 3 * kRepeats);

  // The recording pass, by contrast, runs the op-by-op path the plans
  // were compiled from, which allocates a tensor per tape node. Eager
  // inference runs the fused no-grad kernels (nn/infer_kernels.h), which
  // keep only per-bucket results.
  EXPECT_GT(recording_allocs, 1000);
  const eval::ExperimentConfig eager_cfg =
      MakeConfig(core::ExecMode::kEager, 1);
  const auto eager_model = MakeTrainedModel(eager_cfg, *data);
  const int64_t eager_before = nn::TensorAllocsThisThread();
  ASSERT_TRUE(eager_model->DetectProcessed(*pt).ok());
  EXPECT_LT(nn::TensorAllocsThisThread() - eager_before, recording_allocs);
}

TEST(PlanRecorderTest, ArenaColoringSharesBuffersAcrossDeadTemps) {
  nn::Matrix in(4, 8);
  for (int i = 0; i < in.size(); ++i) {
    in.data()[i] = 0.1f * static_cast<float>(i % 13) - 0.5f;
  }

  nn::NoGradGuard no_grad;
  std::shared_ptr<const nn::Plan> plan;
  nn::Matrix eager_value;
  {
    nn::PlanRecorder recorder;
    const nn::Variable v = recorder.MakeInput(in);
    // A straight-line chain: every temp dies as soon as the next step
    // consumes it, so liveness coloring needs far fewer buffers than
    // temps.
    nn::Variable h = nn::Tanh(v);
    h = nn::Relu(h);
    h = nn::Tanh(h);
    h = nn::AddScalar(h, 0.25f);
    h = nn::ScalarMul(h, 1.5f);
    h = nn::Sigmoid(h);
    recorder.SetRoot(h);
    eager_value = h.value();
    plan = recorder.Finish();
  }
  ASSERT_NE(plan, nullptr);
  const nn::Plan::Stats& stats = plan->stats();
  EXPECT_EQ(stats.num_inputs, 1);
  EXPECT_EQ(stats.num_steps, 6);
  EXPECT_EQ(stats.num_temps, 6);
  EXPECT_LT(stats.num_buffers, stats.num_temps);
  EXPECT_GT(stats.arena_bytes, 0u);

  nn::Matrix out;
  plan->Execute({&in}, &out);
  ASSERT_TRUE(out.SameShape(eager_value));
  for (int i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out.data()[i], eager_value.data()[i]) << "element " << i;
  }

  // Replays against new values in the same buffers, allocation-free once
  // the output matrix has its final shape.
  for (int i = 0; i < in.size(); ++i) in.data()[i] += 0.03125f;
  const int64_t allocs_before = nn::TensorAllocsThisThread();
  plan->Execute({&in}, &out);
  EXPECT_EQ(nn::TensorAllocsThisThread(), allocs_before);
  nn::Variable fresh = nn::Sigmoid(nn::ScalarMul(
      nn::AddScalar(nn::Tanh(nn::Relu(nn::Tanh(nn::Variable::Constant(in)))),
                    0.25f),
      1.5f));
  for (int i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out.data()[i], fresh.value().data()[i]) << "element " << i;
  }
}

}  // namespace
}  // namespace lead
