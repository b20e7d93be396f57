// Reproduces paper Figure 8: mean end-to-end inference time per method per
// stay-point-count bucket.
//
// Absolute numbers differ from the paper (CPU autograd vs. V100 + Python),
// so the reproduction target is the ordering: LEAD fastest (shared
// phase-1 "once forward computation" and 32-hidden operators), then
// SP-GRU/SP-LSTM (128-hidden classifiers over every stay point), with
// SP-R slowest per classified stay point relative to its trivial compute
// (full white-list traversal). Training here uses a reduced schedule:
// inference cost does not depend on fit quality.
#include <cstdint>
#include <cstdio>

#include "bench/bench_util.h"
#include "obs/trace.h"

using namespace lead;

int main() {
  // Top-level catch-all span so a sampling profile of this binary
  // (LEAD_PROFILE=hz) attributes every phase to a named category; the
  // narrower per-phase spans below refine the hot ones.
  LEAD_TRACE_SCOPE(obs::kCatBench, "fig8_main");
  const double scale = eval::BenchScaleFromEnv();
  eval::ExperimentConfig config = eval::DefaultConfig(scale);
  // Reduced training: this bench measures inference wall-clock only.
  config.lead.train.autoencoder_epochs = 2;
  config.lead.train.detector_epochs = 4;
  bench::PrintHeader("Figure 8 - mean inference time per bucket", scale,
                     config);

  auto data_or = eval::BuildExperiment(config);
  if (!data_or.ok()) {
    std::fprintf(stderr, "experiment build failed: %s\n",
                 data_or.status().ToString().c_str());
    return 1;
  }
  const eval::ExperimentData data = std::move(data_or).value();

  std::vector<eval::MethodResult> results;

  {
    LEAD_TRACE_SCOPE(obs::kCatBench, "baselines");
    baselines::SpRuleBaseline sp_r(config.lead.pipeline, {});
    if (const Status s = sp_r.Train(data.TrainLabeled()); !s.ok()) {
      std::fprintf(stderr, "SP-R training failed: %s\n",
                   s.ToString().c_str());
      return 1;
    }
    results.push_back(eval::EvaluateMethod("SP-R", data.split.test,
                                           bench::SpRuleDetectFn(sp_r)));

    std::vector<std::unique_ptr<baselines::SpRnnBaseline>> rnns;
    for (const auto cell :
         {baselines::RnnCellType::kGru, baselines::RnnCellType::kLstm}) {
      baselines::SpRnnOptions options;
      options.cell = cell;
      options.train = config.lead.train;
      options.train.detector_epochs = 2;
      rnns.push_back(std::make_unique<baselines::SpRnnBaseline>(
          config.lead.pipeline, options));
      if (const Status s =
              rnns.back()->Train(data.TrainLabeled(), data.ValLabeled(),
                                 data.world->poi_index(), nullptr, nullptr);
          !s.ok()) {
        std::fprintf(stderr, "training failed: %s\n", s.ToString().c_str());
        return 1;
      }
      results.push_back(
          eval::EvaluateMethod(baselines::RnnCellTypeName(cell),
                               data.split.test,
                               bench::SpRnnDetectFn(*rnns.back(), data)));
    }
  }

  core::TrainingLog log;
  const auto lead_model = [&] {
    LEAD_TRACE_SCOPE(obs::kCatBench, "train_lead");
    return bench::TrainLead(config.lead, data, &log);
  }();
  {
    LEAD_TRACE_SCOPE(obs::kCatBench, "evaluate_lead");
    results.push_back(eval::EvaluateMethod("LEAD", data.split.test,
                                           bench::LeadDetectFn(*lead_model,
                                                               data)));
  }

  std::printf("\nMeasured mean inference seconds per trajectory:\n%s",
              eval::FormatTimingTable(results).c_str());
  std::printf(
      "\nPaper Figure 8 (V100 + Python, seconds): LEAD ~12-25s, SP-GRU and\n"
      "SP-LSTM ~14-33s, SP-R ~33-86s; LEAD fastest in every bucket and the\n"
      "gap widens with more stay points. Compare orderings, not absolutes.\n");

  // Strategy x thread sweep for the batch Detect path: the same trained
  // weights reloaded per cell of {deterministic, fast} x {1, 2, 4, 8}
  // threads, end-to-end DetectBatch wall-clock over the full test split
  // (fast scores the whole split as one overlapped window). Each cell
  // reports its best of kPasses passes — on a shared core the minimum is
  // the least-interference estimate — plus per-trajectory latency and
  // GPS-point throughput. Speedups are relative to the deterministic
  // 1-thread best. Deterministic outputs are bit-identical across thread
  // counts (parallel_parity_test); fast outputs are decision-equivalent
  // within the differential contract (fast_mode_test). Records append to
  // BENCH_parallel.json as JSON lines with a "strategy" field.
  const std::string snapshot = "fig8_lead_model_snapshot.bin";
  if (const Status s = lead_model->Save(snapshot); !s.ok()) {
    std::fprintf(stderr, "model snapshot failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::vector<traj::RawTrajectory> test_raws;
  int64_t test_points = 0;
  for (const sim::SimulatedDay& day : data.split.test) {
    test_raws.push_back(day.raw);
    test_points += static_cast<int64_t>(day.raw.points.size());
  }
  std::printf(
      "\nBatch Detect sweep (same weights, --strategy x --threads):\n");
  constexpr int kPasses = 5;
  double baseline_seconds = 0.0;
  for (const ExecStrategy strategy :
       {ExecStrategy::kDeterministic, ExecStrategy::kFast}) {
    LEAD_TRACE_SCOPE(obs::kCatBench, "detect_sweep");
    for (const int threads : {1, 2, 4, 8}) {
      core::LeadOptions options = config.lead;
      options.detect.threads = threads;
      options.detect.strategy = strategy;
      core::LeadModel model(options);
      if (const Status s = model.Load(snapshot); !s.ok()) {
        std::fprintf(stderr, "model reload failed: %s\n",
                     s.ToString().c_str());
        return 1;
      }
      int detected = 0;
      double best = 0.0;
      for (int pass = 0; pass < kPasses; ++pass) {
        const obs::Stopwatch watch;
        auto batch = model.DetectBatch(test_raws, data.world->poi_index());
        const double seconds = watch.ElapsedSeconds();
        if (!batch.ok()) {
          std::fprintf(stderr, "batch detect failed: %s\n",
                       batch.status().ToString().c_str());
          return 1;
        }
        detected = batch->completed;
        if (pass == 0 || seconds < best) best = seconds;
      }
      if (strategy == ExecStrategy::kDeterministic && threads == 1) {
        baseline_seconds = best;
      }
      const double speedup = best > 0.0 ? baseline_seconds / best : 0.0;
      const double sec_per_traj =
          detected > 0 ? best / static_cast<double>(detected) : 0.0;
      const double points_per_sec =
          best > 0.0 ? static_cast<double>(test_points) / best : 0.0;
      std::printf(
          "  %-13s threads=%d  %6.2fs best of %d over %d trajectories  "
          "%.1f pts/s  speedup x%.2f\n",
          ExecStrategyName(strategy), threads, best, kPasses, detected,
          points_per_sec, speedup);
      char record[640];
      std::snprintf(
          record, sizeof(record),
          "{\"bench\": \"fig8_detect\", \"strategy\": \"%s\", "
          "\"threads\": %d, \"seconds\": %.4f, \"passes\": %d, "
          "\"trajectories\": %d, \"sec_per_trajectory\": %.5f, "
          "\"points_per_sec\": %.1f, \"speedup_vs_serial\": %.3f, "
          "\"scale\": %.2f, %s}",
          ExecStrategyName(strategy), threads, best, kPasses, detected,
          sec_per_traj, points_per_sec, speedup, scale,
          bench::HardwareTagFields().c_str());
      bench::AppendJsonLine("BENCH_parallel.json", record);
    }
  }
  std::remove(snapshot.c_str());
  return 0;
}
