// Shared helpers for the bench binaries: method construction, training and
// paper-reference tables.
#pragma once

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/sp_rnn.h"
#include "baselines/sp_rule.h"
#include "core/lead.h"
#include "eval/harness.h"
#include "nn/simd_gemm.h"
#include "obs/trace.h"

namespace lead::bench {

// Prints a banner with the bench name and active scale.
inline void PrintHeader(const char* title, double scale,
                        const eval::ExperimentConfig& config) {
  std::printf("==========================================================\n");
  std::printf("%s\n", title);
  std::printf(
      "LEAD_BENCH_SCALE=%.2f  (corpus: %d trajectories, %d trucks, "
      "~%.0fs GPS interval)\n",
      scale, config.dataset.num_trajectories, config.dataset.num_trucks,
      config.sim.sample_interval_mean_s);
  std::printf("==========================================================\n");
}

// Trains the full LEAD model; aborts the bench on failure. Prints the
// training wall-clock so batch-size / batching changes show up as a
// throughput number alongside the quality tables.
inline std::unique_ptr<core::LeadModel> TrainLead(
    const core::LeadOptions& options, const eval::ExperimentData& data,
    core::TrainingLog* log) {
  auto model = std::make_unique<core::LeadModel>(options);
  // obs::Stopwatch so bench tables read the same clock as trace spans and
  // metrics timers (ISSUE 5 satellite: one clock source).
  const obs::Stopwatch watch;
  const Status status = model->Train(data.TrainLabeled(), data.ValLabeled(),
                                     data.world->poi_index(), log);
  if (!status.ok()) {
    std::fprintf(stderr, "LEAD training failed: %s\n",
                 status.ToString().c_str());
    std::exit(1);
  }
  std::printf("[train] LEAD wall-clock %.1fs (batch_size=%d)\n",
              watch.ElapsedSeconds(), options.train.batch_size);
  return model;
}

// Hardware tag of a bench row, as JSON members to splice into its object:
// host core count, the GEMM ISA this host dispatches, build type and git
// revision, so rows are only ever compared with rows from the same
// hardware and build.
inline std::string HardwareTagFields() {
  const char* isa = nn::internal::GemmAvx512Available() ? "avx512"
                    : nn::internal::GemmAvx2Available() ? "avx2"
                                                        : "scalar";
  char fields[256];
  std::snprintf(fields, sizeof(fields),
                "\"host_cores\": %u, \"isa\": \"%s\", \"build_type\": "
                "\"%s\", \"git_rev\": \"%s\"",
                std::thread::hardware_concurrency(), isa,
                LEAD_BENCH_BUILD_TYPE, LEAD_BENCH_GIT_REV);
  return fields;
}

// Appends one JSON object as a single line to `path`. The BENCH_*.json
// files are JSON-lines logs: successive bench runs accumulate records
// instead of overwriting each other.
inline void AppendJsonLine(const std::string& path, const std::string& json) {
  std::ofstream out(path, std::ios::app);
  if (!out.good()) {
    std::fprintf(stderr, "warning: cannot append to %s\n", path.c_str());
    return;
  }
  out << json << "\n";
}

inline eval::DetectFn LeadDetectFn(const core::LeadModel& model,
                                   const eval::ExperimentData& data) {
  return [&](const traj::RawTrajectory& raw) -> StatusOr<traj::Candidate> {
    auto detection = model.Detect(raw, data.world->poi_index());
    if (!detection.ok()) return detection.status();
    return detection->loaded;
  };
}

inline eval::DetectFn SpRuleDetectFn(
    const baselines::SpRuleBaseline& baseline) {
  return [&](const traj::RawTrajectory& raw) -> StatusOr<traj::Candidate> {
    auto detection = baseline.Detect(raw);
    if (!detection.ok()) return detection.status();
    return detection->loaded;
  };
}

inline eval::DetectFn SpRnnDetectFn(const baselines::SpRnnBaseline& baseline,
                                    const eval::ExperimentData& data) {
  return [&](const traj::RawTrajectory& raw) -> StatusOr<traj::Candidate> {
    auto detection = baseline.Detect(raw, data.world->poi_index());
    if (!detection.ok()) return detection.status();
    return detection->loaded;
  };
}

// Paper Table III reference numbers for side-by-side comparison.
inline void PrintPaperTable3() {
  std::printf(
      "\nPaper Table III (Nantong corpus, for shape comparison):\n"
      "Acc(%%)       |    3~5( 22%%) |    6~8( 34%%) |   9~11( 25%%) |  "
      "12~14( 19%%) |   3~14(100%%)\n"
      "SP-R         |        60.2 |        54.2 |        46.8 |        33.3 "
      "|        49.7\n"
      "SP-GRU       |        66.4 |        63.5 |        54.7 |        49.2 "
      "|        59.2\n"
      "SP-LSTM      |        67.2 |        63.9 |        56.2 |        51.6 "
      "|        60.4\n"
      "LEAD         |        95.6 |        92.4 |        87.5 |        83.8 "
      "|        90.2\n");
}

// Paper Table IV reference numbers.
inline void PrintPaperTable4() {
  std::printf(
      "\nPaper Table IV (Nantong corpus, for shape comparison):\n"
      "Acc(%%)       |         3~5 |         6~8 |        9~11 |       12~14 "
      "|        3~14\n"
      "LEAD-NoPoi   |        85.7 |        83.1 |        77.6 |        72.4 "
      "|        80.3\n"
      "LEAD-NoSel   |        93.6 |        89.4 |        82.7 |        78.3 "
      "|        86.5\n"
      "LEAD-NoHie   |        90.4 |        86.7 |        81.3 |        76.4 "
      "|        84.2\n"
      "LEAD-NoGro   |        88.6 |        85.2 |        80.9 |        77.2 "
      "|        83.4\n"
      "LEAD-NoFor   |        94.0 |        91.3 |        85.8 |        82.7 "
      "|        88.9\n"
      "LEAD-NoBac   |        93.5 |        90.6 |        86.3 |        82.2 "
      "|        88.6\n"
      "LEAD         |        95.6 |        92.4 |        87.5 |        83.8 "
      "|        90.2\n");
}

}  // namespace lead::bench

