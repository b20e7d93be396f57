// Golden-file regression test for the Detect probability pipeline.
//
// A fixed simulated corpus and a fixed-seed model (0 training epochs: the
// normalizer is fitted, the weights stay at their seeded init) make the
// merged candidate probabilities a pure deterministic function of the
// code. The expected values live in tests/golden/detect_probs.txt; any
// numeric drift — an op reordered, a reduction changed, a normalizer
// tweak — fails with a per-line diff.
//
// To regenerate after an intentional change:
//   LEAD_UPDATE_GOLDEN=1 ./build/tests/golden_detect_test
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/exec_strategy.h"
#include "core/lead.h"
#include "eval/harness.h"

namespace lead {
namespace {

#ifndef LEAD_GOLDEN_DIR
#error "build must define LEAD_GOLDEN_DIR"
#endif

constexpr int kMaxTrajectories = 6;

std::string GoldenPath() {
  return std::string(LEAD_GOLDEN_DIR) + "/detect_probs.txt";
}

// The golden corpus: a fixed simulated world, dataset and seed.
eval::ExperimentConfig GoldenConfig() {
  eval::ExperimentConfig config = eval::DefaultConfig(1.0);
  config.world.num_background_pois = 1500;
  config.world.num_loading_facilities = 8;
  config.world.num_unloading_facilities = 12;
  config.world.num_rest_areas = 12;
  config.world.num_depots = 6;
  config.dataset.num_trajectories = 40;
  config.dataset.num_trucks = 20;
  config.sim.sample_interval_mean_s = 240.0;
  config.lead.train.autoencoder_epochs = 0;
  config.lead.train.detector_epochs = 0;
  return config;
}

// A model on the golden corpus with `lead` options (0 epochs: the
// normalizer is fitted, the weights stay at their seeded init).
std::unique_ptr<core::LeadModel> TrainedModel(
    const core::LeadOptions& lead, const eval::ExperimentData& data) {
  auto model = std::make_unique<core::LeadModel>(lead);
  const Status trained =
      model->Train(data.TrainLabeled(), data.ValLabeled(),
                   data.world->poi_index(), nullptr);
  EXPECT_TRUE(trained.ok()) << trained;
  return model;
}

// One line per candidate: "<trajectory_id> <flat_index> <probability>".
// %.9g round-trips a float exactly, so string equality is bit equality.
void AppendLines(const std::string& trajectory_id,
                 const core::Detection& detection,
                 std::vector<std::string>* lines) {
  for (size_t i = 0; i < detection.probabilities.size(); ++i) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%s %zu %.9g", trajectory_id.c_str(), i,
                  static_cast<double>(detection.probabilities[i]));
    lines->emplace_back(buf);
  }
}

std::vector<std::string> CurrentLines() {
  const eval::ExperimentConfig config = GoldenConfig();
  auto data = eval::BuildExperiment(config);
  EXPECT_TRUE(data.ok()) << data.status();
  const auto model = TrainedModel(config.lead, *data);

  std::vector<std::string> lines;
  int used = 0;
  for (const sim::SimulatedDay& day : data->split.test) {
    if (used >= kMaxTrajectories) break;
    auto detection = model->Detect(day.raw, data->world->poi_index());
    if (!detection.ok()) continue;
    ++used;
    AppendLines(day.raw.trajectory_id, *detection, &lines);
  }
  EXPECT_GT(used, 0);
  return lines;
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    lines.push_back(line);
  }
  return lines;
}

TEST(GoldenDetectTest, ProbabilitiesMatchGoldenFile) {
  const std::vector<std::string> actual = CurrentLines();
  ASSERT_FALSE(actual.empty());

  if (std::getenv("LEAD_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(GoldenPath());
    ASSERT_TRUE(out.good()) << "cannot write " << GoldenPath();
    out << "# Expected Detect probabilities for the golden corpus.\n"
        << "# Format: <trajectory_id> <candidate_flat_index> <probability>\n"
        << "# Regenerate: LEAD_UPDATE_GOLDEN=1 ./golden_detect_test\n";
    for (const std::string& line : actual) out << line << "\n";
    GTEST_SKIP() << "golden file regenerated with " << actual.size()
                 << " lines at " << GoldenPath();
  }

  const std::vector<std::string> expected = ReadLines(GoldenPath());
  ASSERT_FALSE(expected.empty())
      << "no golden fixture at " << GoldenPath()
      << "; run with LEAD_UPDATE_GOLDEN=1 to create it";

  // Readable diff: report every drifted line, not just the first.
  std::ostringstream diff;
  int mismatches = 0;
  const size_t n = std::max(expected.size(), actual.size());
  for (size_t i = 0; i < n; ++i) {
    const std::string& want =
        i < expected.size() ? expected[i] : "<missing>";
    const std::string& got = i < actual.size() ? actual[i] : "<missing>";
    if (want != got) {
      ++mismatches;
      if (mismatches <= 20) {
        diff << "  line " << (i + 1) << ": expected \"" << want
             << "\" got \"" << got << "\"\n";
      }
    }
  }
  EXPECT_EQ(mismatches, 0)
      << "Detect probabilities drifted from " << GoldenPath() << ":\n"
      << diff.str()
      << (mismatches > 20 ? "  ...and " + std::to_string(mismatches - 20) +
                                " more\n"
                          : "")
      << "If the change is intentional, regenerate with "
         "LEAD_UPDATE_GOLDEN=1.";
}

// The batch paths share Detect's scoring core, so they must reproduce the
// fixture byte for byte: DetectBatch and a DetectStream provider under the
// deterministic strategy for every lane count.
TEST(GoldenDetectTest, BatchPathsMatchGoldenFile) {
  const std::vector<std::string> expected = ReadLines(GoldenPath());
  ASSERT_FALSE(expected.empty()) << "no golden fixture at " << GoldenPath();
  const eval::ExperimentConfig config = GoldenConfig();
  auto data = eval::BuildExperiment(config);
  ASSERT_TRUE(data.ok()) << data.status();
  std::vector<traj::RawTrajectory> raws;
  for (const sim::SimulatedDay& day : data->split.test) {
    raws.push_back(day.raw);
  }

  struct Run {
    bool stream;
    ExecStrategy strategy;
    int threads;
  };
  std::vector<Run> runs;
  for (const bool stream : {false, true}) {
    for (const int threads : {1, 4}) {
      runs.push_back({stream, ExecStrategy::kDeterministic, threads});
    }
  }

  for (const Run& run : runs) {
    SCOPED_TRACE(std::string(run.stream ? "DetectStream" : "DetectBatch") +
                 " strategy=" + ExecStrategyName(run.strategy) +
                 " threads=" + std::to_string(run.threads));
    core::LeadOptions lead = config.lead;
    lead.detect.strategy = run.strategy;
    lead.detect.threads = run.threads;
    const auto model = TrainedModel(lead, *data);
    const StatusOr<core::BatchDetection> batch = [&] {
      const poi::PoiIndex& poi = data->world->poi_index();
      if (!run.stream) return model->DetectBatch(raws, poi);
      return model->DetectStream(
          static_cast<int>(raws.size()),
          [&raws](int index) -> StatusOr<traj::RawTrajectory> {
            return raws[static_cast<size_t>(index)];
          },
          poi);
    }();
    ASSERT_TRUE(batch.ok()) << batch.status();
    std::vector<std::string> actual;
    int used = 0;
    for (size_t i = 0; i < raws.size() && used < kMaxTrajectories; ++i) {
      const core::DetectionOutcome& outcome = batch->outcomes[i];
      if (!outcome.status.ok()) continue;
      ++used;
      AppendLines(raws[i].trajectory_id, outcome.detection, &actual);
    }
    EXPECT_EQ(actual, expected);
  }
}

}  // namespace
}  // namespace lead
