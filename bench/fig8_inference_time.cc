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
#include "nn/matrix.h"
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
  // (fast dispatches to the overlapped fused-stream pipeline). Each cell
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
          "\"exec_mode\": \"%s\", "
          "\"threads\": %d, \"seconds\": %.4f, \"passes\": %d, "
          "\"trajectories\": %d, \"sec_per_trajectory\": %.5f, "
          "\"points_per_sec\": %.1f, \"speedup_vs_serial\": %.3f, "
          "\"scale\": %.2f, %s}",
          ExecStrategyName(strategy),
          options.detect.exec_mode == core::ExecMode::kPlan ? "plan"
                                                            : "eager",
          threads, best, kPasses, detected, sec_per_traj, points_per_sec,
          speedup, scale, bench::HardwareTagFields().c_str());
      bench::AppendJsonLine("BENCH_parallel.json", record);
    }
  }
  // Eager vs. compiled-plan inference on one thread: the same weights,
  // preprocessing hoisted out of the timed loop so only the network
  // forward is measured. Plan mode replays cached arena-backed schedules
  // after one warm-up detect per shape signature, so its steady state
  // performs no tensor allocations; the eager tape allocates one tensor
  // per node. Records append to BENCH_plan.json.
  std::printf("\nExec-mode sweep (threads=1, preprocessing hoisted):\n");
  {
    LEAD_TRACE_SCOPE(obs::kCatBench, "exec_mode_sweep");
    core::LeadOptions options = config.lead;
    options.detect.threads = 1;
    options.detect.exec_mode = core::ExecMode::kEager;
    core::LeadModel eager(options);
    options.detect.exec_mode = core::ExecMode::kPlan;
    core::LeadModel plan(options);
    if (!eager.Load(snapshot).ok() || !plan.Load(snapshot).ok()) {
      std::fprintf(stderr, "model reload failed\n");
      return 1;
    }
    std::vector<core::ProcessedTrajectory> pts;
    for (const sim::SimulatedDay& day : data.split.test) {
      auto pt = eager.Preprocess(day.raw, data.world->poi_index());
      if (pt.ok()) pts.push_back(std::move(pt).value());
    }
    // Warm-up records every shape signature's plans outside the timing.
    for (const auto& pt : pts) {
      if (const auto d = plan.DetectProcessed(pt); !d.ok()) {
        std::fprintf(stderr, "warm-up detect failed: %s\n",
                     d.status().ToString().c_str());
        return 1;
      }
    }

    constexpr int kIters = 5;
    const int64_t detects = static_cast<int64_t>(kIters) *
                            static_cast<int64_t>(pts.size());
    struct ModeRun {
      double seconds;  // best single pass over the test split
      int64_t allocs_per_detect;
      int64_t ok;
    };
    // Best-of-kIters per mode: on a shared core the minimum pass time is
    // the least-interference estimate, so the eager/plan ratio is not
    // skewed by whichever mode happened to share its slice with noise.
    auto run = [&](core::LeadModel& model) -> ModeRun {
      int64_t ok = 0;
      double best = 0.0;
      const int64_t allocs_before = nn::TensorAllocsThisThread();
      for (int it = 0; it < kIters; ++it) {
        const obs::Stopwatch watch;
        for (const auto& pt : pts) {
          if (model.DetectProcessed(pt).ok()) ++ok;
        }
        const double pass = watch.ElapsedSeconds();
        if (it == 0 || pass < best) best = pass;
      }
      const int64_t allocs = nn::TensorAllocsThisThread() - allocs_before;
      return {best, detects > 0 ? allocs / detects : 0, ok};
    };
    const ModeRun eager_run = run(eager);
    const ModeRun plan_run = run(plan);
    if (eager_run.ok != detects || plan_run.ok != detects) {
      std::fprintf(stderr, "exec-mode sweep: detect failures (eager %lld, "
                   "plan %lld of %lld)\n",
                   static_cast<long long>(eager_run.ok),
                   static_cast<long long>(plan_run.ok),
                   static_cast<long long>(detects));
      return 1;
    }
    const double speedup =
        plan_run.seconds > 0.0 ? eager_run.seconds / plan_run.seconds : 0.0;
    std::printf(
        "  eager  %6.3fs best pass  %lld tensor allocs/detect\n"
        "  plan   %6.3fs best pass  %lld tensor allocs/detect  "
        "speedup x%.2f\n",
        eager_run.seconds,
        static_cast<long long>(eager_run.allocs_per_detect), plan_run.seconds,
        static_cast<long long>(plan_run.allocs_per_detect), speedup);
    char record[384];
    std::snprintf(
        record, sizeof(record),
        "{\"bench\": \"fig8_exec_mode\", \"iters\": %d, "
        "\"trajectories\": %d, \"eager_seconds\": %.4f, "
        "\"plan_seconds\": %.4f, \"speedup_plan_vs_eager\": %.3f, "
        "\"eager_allocs_per_detect\": %lld, "
        "\"plan_allocs_per_detect\": %lld, \"scale\": %.2f}",
        kIters, static_cast<int>(pts.size()), eager_run.seconds,
        plan_run.seconds, speedup,
        static_cast<long long>(eager_run.allocs_per_detect),
        static_cast<long long>(plan_run.allocs_per_detect), scale);
    bench::AppendJsonLine("BENCH_plan.json", record);
  }
  std::remove(snapshot.c_str());
  return 0;
}
