// Tests of the benchmark itself: input determinism, the percentile
// helper, the output check, and a tiny run of every workload.
#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench_core.h"
#include "workloads.h"

namespace lead::perfbench {
namespace {

// Order-sensitive 64-bit fingerprint (FNV-1a) of a trajectory's id and
// points.
uint64_t Fingerprint(const traj::RawTrajectory& raw) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a
  auto mix = [&h](const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      h ^= bytes[i];
      h *= 1099511628211ULL;
    }
  };
  mix(raw.trajectory_id.data(), raw.trajectory_id.size());
  for (const traj::GpsPoint& p : raw.points) {
    mix(&p.pos.lat, sizeof(p.pos.lat));
    mix(&p.pos.lng, sizeof(p.pos.lng));
    mix(&p.t, sizeof(p.t));
  }
  return h;
}

std::vector<uint64_t> Fingerprints(uint64_t seed, int count) {
  const BenchWorld world = MakeWorld();
  std::vector<uint64_t> prints;
  for (int i = 0; i < count; ++i) {
    auto day = SimulateTrajectory(world, seed, Stream::kMeasured, i, 12, 14,
                                  120.0);
    EXPECT_TRUE(day.ok()) << day.status().ToString();
    if (!day.ok()) break;
    EXPECT_GE(day->num_stay_points, 12);
    EXPECT_LE(day->num_stay_points, 14);
    prints.push_back(Fingerprint(day->raw));
  }
  return prints;
}

TEST(InputsTest, SameSeedGivesIdenticalInputs) {
  EXPECT_EQ(Fingerprints(7, 4), Fingerprints(7, 4));
}

TEST(InputsTest, OtherSeedGivesDifferentInputs) {
  const std::vector<uint64_t> a = Fingerprints(7, 4);
  const std::vector<uint64_t> b = Fingerprints(8, 4);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_NE(a[i], b[i]) << i;
}

TEST(InputsTest, NoTrajectoryRepeatsWithinAStream) {
  const std::vector<uint64_t> prints = Fingerprints(3, 24);
  const std::set<uint64_t> distinct(prints.begin(), prints.end());
  EXPECT_EQ(distinct.size(), prints.size());
}

TEST(InputsTest, StreamsAreIndependent) {
  const BenchWorld world = MakeWorld();
  auto measured =
      SimulateTrajectory(world, 5, Stream::kMeasured, 0, 3, 5, 30.0);
  auto train = SimulateTrajectory(world, 5, Stream::kTrain, 0, 3, 5, 30.0);
  ASSERT_TRUE(measured.ok());
  ASSERT_TRUE(train.ok());
  EXPECT_NE(Fingerprint(measured->raw), Fingerprint(train->raw));
}

TEST(PercentileTest, KnownSamples) {
  const std::vector<double> four = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(Percentile(four, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(four, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(Percentile(four, 90.0), 3.7);
  EXPECT_DOUBLE_EQ(Percentile(four, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(Median({5.0, 1.0, 9.0}), 5.0);
  EXPECT_DOUBLE_EQ(Percentile({42.0}, 99.0), 42.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 50.0), 0.0);
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  EXPECT_DOUBLE_EQ(Percentile(hundred, 99.0), 99.01);
  EXPECT_DOUBLE_EQ(Percentile(hundred, 50.0), 50.5);
}

core::Detection ValidDetection() {
  core::Detection d;
  d.num_stays = 3;
  d.candidates = {{0, 1}, {0, 2}, {1, 2}};
  d.probabilities = {0.2f, 1.0f, 0.0f};
  d.loaded = {0, 2};
  return d;
}

TEST(CheckDetectionTest, AcceptsValidDetection) {
  EXPECT_EQ(CheckDetection(ValidDetection()), "");
}

TEST(CheckDetectionTest, RejectsCorruptedDetections) {
  core::Detection wrong_argmax = ValidDetection();
  wrong_argmax.loaded = {1, 2};
  EXPECT_NE(CheckDetection(wrong_argmax), "");

  core::Detection nan = ValidDetection();
  nan.probabilities[0] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_NE(CheckDetection(nan), "");

  core::Detection out_of_range = ValidDetection();
  out_of_range.probabilities[1] = 1.5f;
  EXPECT_NE(CheckDetection(out_of_range), "");

  core::Detection negative = ValidDetection();
  negative.probabilities[2] = -0.1f;
  EXPECT_NE(CheckDetection(negative), "");

  core::Detection missing_candidate = ValidDetection();
  missing_candidate.candidates.pop_back();
  missing_candidate.probabilities.pop_back();
  EXPECT_NE(CheckDetection(missing_candidate), "");

  core::Detection wrong_stays = ValidDetection();
  wrong_stays.num_stays = 4;
  EXPECT_NE(CheckDetection(wrong_stays), "");
}

const std::vector<std::string>& EndToEndMetrics() {
  static const std::vector<std::string> names = {
      "setup_s",       "peak_rss_mb",   "detect_acc", "detect_ms_p50",
      "detect_ms_p90", "window_ms_p50", "window_ms_p90", "pts_per_s",
      "train_s"};
  return names;
}

const std::vector<std::string>& PerLayerMetrics() {
  static const std::vector<std::string> names = {
      "traj.filter_ms", "traj.stay_ms", "traj.segment_ms", "traj.points_in",
      "traj.points_kept", "traj.stays", "poi.features_ms",
      "poi.radius_queries", "core.preprocess_ms",
      "core.preprocess_uncovered_ms", "core.preprocess_uncovered_pct",
      "core.encode_ms", "core.score_ms", "core.detect_ms",
      "core.detect_residual_ms", "core.window_ms", "core.candidates",
      "nn.tensor_allocs_per_call", "nn.plan.hit_ratio", "nn.plan.misses",
      "nn.plan.arena_bytes", "common.pool.tasks", "common.pool.busy_ms",
      "common.pool.utilization", "core.train.prepare_ms", "core.train.ae_ms",
      "core.train.det_ms", "core.train.ae_samples_per_s",
      "core.train.det_samples_per_s", "nn.optimizer.skipped_steps",
      "core.train.recoveries", "trace.overhead_ms", "trace.overhead_pct"};
  return names;
}

class SmokeRunTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SmokeRunTest, UntracedRunReportsEveryEndToEndMetric) {
  WorkloadParams params;
  ASSERT_TRUE(LookupWorkload(GetParam(), &params));
  RunConfig config;
  config.seed = 11;
  config.seconds = 0.2;
  const RunResult result = RunWorkload(SmokeParams(params), config);
  ASSERT_TRUE(result.correct) << (result.errors.empty() ? ""
                                                        : result.errors[0]);
  EXPECT_GE(result.attempted, 4);
  EXPECT_EQ(result.failed, 0);
  ASSERT_EQ(result.metrics.size(), EndToEndMetrics().size());
  for (const std::string& name : EndToEndMetrics()) {
    ASSERT_TRUE(result.metrics.count(name)) << name;
    EXPECT_TRUE(std::isfinite(result.metrics.at(name).value)) << name;
  }
  EXPECT_GT(result.metrics.at("detect_ms_p50").value, 0.0);
  EXPECT_GT(result.metrics.at("setup_s").value, 0.0);
}

TEST_P(SmokeRunTest, TracedRunReportsEveryPerLayerMetric) {
  WorkloadParams params;
  ASSERT_TRUE(LookupWorkload(GetParam(), &params));
  RunConfig config;
  config.seed = 12;
  config.seconds = 0.2;
  config.trace = true;
  const RunResult result = RunWorkload(SmokeParams(params), config);
  ASSERT_TRUE(result.correct) << (result.errors.empty() ? ""
                                                        : result.errors[0]);
  ASSERT_EQ(result.metrics.size(), PerLayerMetrics().size());
  for (const std::string& name : PerLayerMetrics()) {
    ASSERT_TRUE(result.metrics.count(name)) << name;
    EXPECT_TRUE(std::isfinite(result.metrics.at(name).value)) << name;
  }
  EXPECT_GT(result.metrics.at("core.detect_ms").value, 0.0);
  EXPECT_GT(result.metrics.at("poi.radius_queries").value, 0.0);
  // The pool side pass runs at several lanes, so the pool does work.
  EXPECT_GT(result.metrics.at("common.pool.tasks").value, 0.0);
  EXPECT_NE(result.self_time_table.find("core.detect"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(Workloads, SmokeRunTest,
                         ::testing::ValuesIn(WorkloadNames()));

}  // namespace
}  // namespace lead::perfbench
