#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "core/features.h"
#include "nn/matrix.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "traj/noise_filter.h"
#include "traj/segmentation.h"
#include "traj/stay_point.h"

namespace lead::perfbench {

namespace {

// Hard cap on one round of the measured loop, whatever min_calls asks
// for, so one run always ends well inside its time limit.
constexpr double kMaxRoundSeconds = 20.0;
// Redraws allowed for one trajectory to land in its stay-point range.
constexpr int kMaxRedraws = 200;
// Rounds of an untraced run, each a full set-up followed by a third of
// the measured loop; setup_s and train_s are the median of the rounds.
constexpr int kRounds = 3;
// The thread pool does no work at one lane, so the traced run measures
// it in a side pass: this many fresh windows detected by a copy of the
// model set to kPoolLanes lanes.
constexpr int kPoolWindows = 8;
constexpr int kPoolLanes = 4;
// Invalid outputs quoted in full; the rest are only counted.
constexpr size_t kMaxQuotedErrors = 5;
// The map, the training archive and the accuracy audit set are fixed:
// they are drawn from this constant, never from --seed, so every run
// trains the same model and detect_acc repeats exactly. --seed draws the
// measured traffic.
constexpr uint64_t kFixedSeed = 20220901;

uint64_t StreamSeed(uint64_t seed, Stream stream) {
  return seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(stream);
}

double Ms(uint64_t us) { return static_cast<double>(us) * 1e-3; }

void AddMetric(RunResult* result, const std::string& name, double value,
               const std::string& unit) {
  result->metrics[name] = Metric{value, unit};
}

void RecordInvalid(RunResult* result, const std::string& what) {
  result->failed += 1;
  result->correct = false;
  if (result->errors.size() < kMaxQuotedErrors) result->errors.push_back(what);
}

// Checks one detect outcome; true when valid.
bool CheckOutcome(const StatusOr<core::Detection>& detection,
                  const std::string& id, RunResult* result) {
  result->attempted += 1;
  if (!detection.ok()) {
    RecordInvalid(result, id + ": " + detection.status().ToString());
    return false;
  }
  const std::string problem = CheckDetection(*detection);
  if (!problem.empty()) {
    RecordInvalid(result, id + ": " + problem);
    return false;
  }
  return true;
}

// Keeps only the simulator's target buckets (3-5, 6-8, 9-11, 12-14 stay
// points) that overlap [min_stays, max_stays], at their default shares;
// the realized count is filtered again in SimulateTrajectory.
void AimStayBuckets(int min_stays, int max_stays, sim::SimOptions* sim) {
  for (int b = 0; b < 4; ++b) {
    if (3 + 3 * b > max_stays || 5 + 3 * b < min_stays) {
      sim->bucket_shares[b] = 0.0;
    }
  }
}

// Sum of the per-lane busy counters the ThreadPool exports.
int64_t PoolBusyMicros() {
  int64_t busy = 0;
  for (int lane = 0; lane < 16; ++lane) {
    busy += obs::GetCounter("pool.lane" + std::to_string(lane) + ".busy_us")
                .Value();
  }
  return busy;
}

// Everything set up before a workload's measured loop.
struct Setup {
  BenchWorld world;
  std::vector<core::LabeledRawTrajectory> train;
  std::vector<core::LabeledRawTrajectory> val;
  std::unique_ptr<core::LeadModel> model;  // detect workloads and traced
  double train_seconds = 0.0;
};

Status BuildCorpus(const WorkloadParams& params, Setup* setup) {
  setup->world = MakeWorld();
  auto train = MakeCorpus(setup->world, kFixedSeed, Stream::kTrain,
                          params.train_trajectories, 120.0);
  if (!train.ok()) return train.status();
  auto val = MakeCorpus(setup->world, kFixedSeed, Stream::kVal,
                        params.val_trajectories, 120.0);
  if (!val.ok()) return val.status();
  setup->train = *std::move(train);
  setup->val = *std::move(val);
  return Status::Ok();
}

Status TrainModel(const WorkloadParams& params, Setup* setup) {
  setup->model =
      std::make_unique<core::LeadModel>(BenchLeadOptions(params));
  const obs::Stopwatch watch;
  LEAD_RETURN_IF_ERROR(setup->model->Train(setup->train, setup->val,
                                           setup->world.poi(), nullptr));
  setup->train_seconds = watch.ElapsedSeconds();
  return Status::Ok();
}

// Measured inputs: the next `count` trajectories of the measured stream
// starting at `first`.
StatusOr<std::vector<sim::SimulatedDay>> NextInputs(
    const WorkloadParams& params, const Setup& setup, uint64_t seed,
    int64_t first, int count) {
  std::vector<sim::SimulatedDay> days;
  days.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    auto day = SimulateTrajectory(setup.world, seed, Stream::kMeasured,
                                  first + i, params.min_stays,
                                  params.max_stays, params.sample_interval_s);
    if (!day.ok()) return day.status();
    days.push_back(*std::move(day));
  }
  return days;
}

// Latency samples of one measured detect loop.
struct DetectLoop {
  std::vector<double> detect_ms;  // per trajectory
  std::vector<double> window_ms;  // per window of params.window
  int64_t points = 0;
  double busy_seconds = 0.0;  // time inside detect calls
  int64_t next_index = 0;     // first unused input index
};

// Detects one window of inputs the workload's way -- one DetectBatch
// call (fleet) or one Detect call per trajectory -- and checks every
// output. Appends each trajectory's latency to `per_trajectory_ms` (a
// fleet window's time split evenly) and returns the window's time in ms.
StatusOr<double> DetectWindow(const WorkloadParams& params,
                              const Setup& setup,
                              const std::vector<sim::SimulatedDay>& days,
                              RunResult* result,
                              std::vector<double>* per_trajectory_ms) {
  const core::LeadModel& model = *setup.model;
  double window_ms = 0.0;
  if (params.kind == WorkloadKind::kFleet) {
    std::vector<traj::RawTrajectory> raws;
    raws.reserve(days.size());
    for (const auto& day : days) raws.push_back(day.raw);
    const uint64_t t0 = obs::NowMicros();
    auto batch = model.DetectBatch(raws, setup.world.poi());
    window_ms = Ms(obs::NowMicros() - t0);
    if (!batch.ok()) return batch.status();
    for (size_t i = 0; i < days.size(); ++i) {
      core::DetectionOutcome& outcome = batch->outcomes[i];
      if (outcome.status.ok()) {
        CheckOutcome(std::move(outcome.detection), raws[i].trajectory_id,
                     result);
      } else {
        CheckOutcome(outcome.status, raws[i].trajectory_id, result);
      }
      per_trajectory_ms->push_back(window_ms /
                                   static_cast<double>(days.size()));
    }
    return window_ms;
  }
  for (const auto& day : days) {
    const uint64_t t0 = obs::NowMicros();
    const StatusOr<core::Detection> detection =
        model.Detect(day.raw, setup.world.poi());
    const double ms = Ms(obs::NowMicros() - t0);
    CheckOutcome(detection, day.raw.trajectory_id, result);
    per_trajectory_ms->push_back(ms);
    window_ms += ms;
  }
  return window_ms;
}

int64_t CountPoints(const std::vector<sim::SimulatedDay>& days) {
  int64_t points = 0;
  for (const auto& day : days) points += day.raw.size();
  return points;
}

// Detects windows of fresh trajectories, from loop->next_index on, until
// `seconds` have passed and `loop` holds at least `min_calls` detections
// (bounded by kMaxRoundSeconds).
Status RunDetectLoop(const WorkloadParams& params, const Setup& setup,
                     uint64_t seed, double seconds, int64_t min_calls,
                     RunResult* result, DetectLoop* loop) {
  const obs::Stopwatch wall;
  while ((static_cast<int64_t>(loop->detect_ms.size()) < min_calls ||
          wall.ElapsedSeconds() < seconds) &&
         wall.ElapsedSeconds() < kMaxRoundSeconds) {
    auto days = NextInputs(params, setup, seed, loop->next_index,
                           params.window);
    if (!days.ok()) return days.status();
    loop->next_index += params.window;
    auto window_ms =
        DetectWindow(params, setup, *days, result, &loop->detect_ms);
    if (!window_ms.ok()) return window_ms.status();
    loop->window_ms.push_back(*window_ms);
    loop->busy_seconds += *window_ms * 1e-3;
    loop->points += CountPoints(*days);
  }
  return Status::Ok();
}

void ReportDetectLoop(const DetectLoop& loop, RunResult* result) {
  AddMetric(result, "detect_ms_p50", Percentile(loop.detect_ms, 50.0), "ms");
  AddMetric(result, "detect_ms_p90", Percentile(loop.detect_ms, 90.0), "ms");
  AddMetric(result, "window_ms_p50", Percentile(loop.window_ms, 50.0), "ms");
  AddMetric(result, "window_ms_p90", Percentile(loop.window_ms, 90.0), "ms");
  AddMetric(result, "pts_per_s",
            loop.busy_seconds > 0.0
                ? static_cast<double>(loop.points) / loop.busy_seconds
                : 0.0,
            "1/s");
}

// detect_acc: the share of the fixed audit set whose detection equals
// the simulated ground truth. Untimed; every output is checked.
Status RunAudit(const WorkloadParams& params, const Setup& setup,
                RunResult* result) {
  int64_t hits = 0;
  for (int i = 0; i < params.audit_trajectories; ++i) {
    auto day = SimulateTrajectory(setup.world, kFixedSeed, Stream::kAudit, i,
                                  params.min_stays, params.max_stays,
                                  params.sample_interval_s);
    if (!day.ok()) return day.status();
    const StatusOr<core::Detection> detection =
        setup.model->Detect(day->raw, setup.world.poi());
    if (CheckOutcome(detection, day->raw.trajectory_id, result) &&
        detection->loaded == day->loaded_label) {
      ++hits;
    }
  }
  AddMetric(result, "detect_acc",
            static_cast<double>(hits) /
                static_cast<double>(std::max(1, params.audit_trajectories)),
            "ratio");
  return Status::Ok();
}

// ---------------------------------------------------------------------
// Untraced run: end-to-end metrics.
// ---------------------------------------------------------------------

Status RunUntraced(const WorkloadParams& params, const RunConfig& config,
                   RunResult* result) {
  std::vector<double> setup_seconds;
  std::vector<double> train_seconds;
  Setup setup;
  DetectLoop loop;
  // Every round sets up from scratch -- map, archive and training, which
  // is deterministic, so each round trains the same model -- and then
  // detects fresh inputs for a third of the run. Set-up samples thus
  // spread over the whole run instead of one stretch of it; the latency
  // samples of all rounds are pooled.
  for (int round = 0; round < kRounds; ++round) {
    setup = Setup{};
    const obs::Stopwatch watch;
    LEAD_RETURN_IF_ERROR(BuildCorpus(params, &setup));
    LEAD_RETURN_IF_ERROR(TrainModel(params, &setup));
    setup_seconds.push_back(watch.ElapsedSeconds());
    train_seconds.push_back(setup.train_seconds);
    LEAD_RETURN_IF_ERROR(RunDetectLoop(
        params, setup, config.seed, config.seconds / kRounds,
        params.min_calls * (round + 1) / kRounds, result, &loop));
  }
  AddMetric(result, "setup_s", Median(setup_seconds), "s");
  AddMetric(result, "train_s", Median(train_seconds), "s");
  ReportDetectLoop(loop, result);
  LEAD_RETURN_IF_ERROR(RunAudit(params, setup, result));
  AddMetric(result, "peak_rss_mb", PeakRssMb(), "MB");
  return Status::Ok();
}

// ---------------------------------------------------------------------
// Traced run: per-layer metrics.
// ---------------------------------------------------------------------

// Per-trajectory counts of the layer-by-layer pass.
struct LayerCounters {
  int64_t trajectories = 0;
  int64_t points_in = 0;
  int64_t points_kept = 0;
  int64_t stays = 0;
  int64_t candidates = 0;
  int64_t radius_queries = 0;
  int64_t tensor_allocs = 0;
  int64_t detect_calls = 0;
};

// Layer-by-layer pass over one trajectory: the public entry points of
// each layer called in pipeline order on the same input, then the
// end-to-end Detect on it. Counter deltas are taken around the one call
// they describe.
void TraceOneTrajectory(const Setup& setup, const sim::SimulatedDay& day,
                        SpanRecorder* rec, LayerCounters* counters,
                        RunResult* result) {
  const core::LeadModel& model = *setup.model;
  const core::LeadOptions& options = model.options();
  static obs::Counter& radius_queries = obs::GetCounter("poi.radius_queries");
  const traj::RawTrajectory& raw = day.raw;
  counters->trajectories += 1;
  counters->points_in += raw.size();

  // traj: the pipeline's three trajectory stages.
  traj::RawTrajectory cleaned;
  {
    LayerSpan span(rec, "traj.filter");
    cleaned = traj::FilterNoise(raw, options.pipeline.noise).cleaned;
  }
  counters->points_kept += cleaned.size();
  std::vector<traj::StayPoint> stays;
  {
    LayerSpan span(rec, "traj.stay");
    stays = traj::ExtractStayPoints(cleaned, options.pipeline.stay);
  }
  counters->stays += static_cast<int64_t>(stays.size());
  {
    LayerSpan span(rec, "traj.segment");
    const traj::Segmentation segmentation =
        traj::Segment(cleaned, std::move(stays));
    counters->candidates += static_cast<int64_t>(
        traj::GenerateCandidates(segmentation.num_stays()).size());
  }
  // poi: per-point radius queries behind feature extraction, with the
  // lane count Preprocess uses.
  {
    core::FeatureOptions features = options.pipeline.features;
    features.threads = options.detect.threads;
    features.strategy = options.detect.strategy;
    const int64_t q0 = radius_queries.Value();
    LayerSpan span(rec, "poi.features");
    const auto rows = core::ExtractPointFeatures(cleaned, setup.world.poi(),
                                                 features);
    counters->radius_queries += radius_queries.Value() - q0;
  }
  // core: preprocess, encode, score.
  const StatusOr<core::ProcessedTrajectory> pt = [&] {
    LayerSpan span(rec, "core.preprocess");
    return model.Preprocess(raw, setup.world.poi());
  }();
  if (!pt.ok()) {
    CheckOutcome(pt.status(), raw.trajectory_id, result);
    return;
  }
  {
    LayerSpan span(rec, "core.encode");
    const nn::Matrix cvecs = model.EncodeCandidates(*pt);
    if (cvecs.rows() != static_cast<int>(pt->candidates.size())) {
      RecordInvalid(result, raw.trajectory_id + ": encode row count");
    }
  }
  CheckOutcome(
      [&] {
        LayerSpan span(rec, "core.detect_processed");
        return model.DetectProcessed(*pt);
      }(),
      raw.trajectory_id, result);
  // End to end, with the tensor-allocation delta of the calling thread.
  const int64_t a0 = nn::TensorAllocsThisThread();
  const StatusOr<core::Detection> detection = [&] {
    LayerSpan span(rec, "core.detect");
    return model.Detect(raw, setup.world.poi());
  }();
  counters->tensor_allocs += nn::TensorAllocsThisThread() - a0;
  counters->detect_calls += 1;
  CheckOutcome(detection, raw.trajectory_id, result);
}

// Staged training from outside: prepare (Preprocess over the corpus),
// the autoencoder stage alone, then the detector stage alone on the
// copied encoder. Leaves the detector-stage model in setup->model.
Status TraceTraining(const WorkloadParams& params, Setup* setup,
                     SpanRecorder* rec, RunResult* result) {
  static obs::Counter& skipped = obs::GetCounter("optimizer.skipped_steps");
  static obs::Counter& recoveries = obs::GetCounter("train.recoveries");
  const int64_t skipped0 = skipped.Value();
  const int64_t recoveries0 = recoveries.Value();

  core::LeadOptions ae_options = BenchLeadOptions(params);
  ae_options.train.detector_epochs = 0;
  core::LeadModel ae_model(ae_options);
  double ae_call_ms = 0.0;
  {
    LayerSpan span(rec, "core.train.ae");
    const uint64_t t0 = obs::NowMicros();
    LEAD_RETURN_IF_ERROR(ae_model.Train(setup->train, setup->val,
                                        setup->world.poi(), nullptr));
    ae_call_ms = Ms(obs::NowMicros() - t0);
  }

  double prepare_ms = 0.0;
  int64_t ae_samples_per_epoch = 0;
  {
    LayerSpan span(rec, "core.train.prepare");
    const uint64_t t0 = obs::NowMicros();
    for (const auto* corpus : {&setup->train, &setup->val}) {
      for (const auto& item : *corpus) {
        auto pt = ae_model.Preprocess(item.raw, setup->world.poi());
        if (!pt.ok()) return pt.status();
        if (corpus == &setup->train) {
          const int cap = ae_options.train.max_candidates_per_trajectory;
          const int n = static_cast<int>(pt->candidates.size());
          ae_samples_per_epoch += cap > 0 ? std::min(cap, n) : n;
        }
      }
    }
    prepare_ms = Ms(obs::NowMicros() - t0);
  }

  core::LeadOptions det_options = BenchLeadOptions(params);
  det_options.train.autoencoder_epochs = 0;
  setup->model = std::make_unique<core::LeadModel>(det_options);
  LEAD_RETURN_IF_ERROR(setup->model->CopyEncoderFrom(ae_model));
  double det_call_ms = 0.0;
  {
    LayerSpan span(rec, "core.train.det");
    const uint64_t t0 = obs::NowMicros();
    LEAD_RETURN_IF_ERROR(setup->model->Train(setup->train, setup->val,
                                             setup->world.poi(), nullptr));
    det_call_ms = Ms(obs::NowMicros() - t0);
  }

  // Each Train call prepares the corpus once; the stage times exclude it.
  const double ae_ms = std::max(ae_call_ms - prepare_ms, 1e-3);
  const double det_ms = std::max(det_call_ms - prepare_ms, 1e-3);
  AddMetric(result, "core.train.prepare_ms", prepare_ms, "ms");
  AddMetric(result, "core.train.ae_ms", ae_ms, "ms");
  AddMetric(result, "core.train.det_ms", det_ms, "ms");
  AddMetric(result, "core.train.ae_samples_per_s",
            static_cast<double>(ae_samples_per_epoch *
                                params.autoencoder_epochs) /
                (ae_ms * 1e-3),
            "1/s");
  AddMetric(result, "core.train.det_samples_per_s",
            static_cast<double>(static_cast<int64_t>(setup->train.size()) *
                                params.detector_epochs) /
                (det_ms * 1e-3),
            "1/s");
  AddMetric(result, "nn.optimizer.skipped_steps",
            static_cast<double>(skipped.Value() - skipped0), "count");
  AddMetric(result, "core.train.recoveries",
            static_cast<double>(recoveries.Value() - recoveries0), "count");
  return Status::Ok();
}

// One pass of the traced loop: windows of fresh inputs, each detected end
// to end (span core.window, plan counters read around it) and then run
// layer by layer. With a null recorder nothing is recorded: that is the
// untraced reference for the tracing overhead, doing the same work.
struct LayerPass {
  DetectLoop e2e;
  LayerCounters counters;
  int64_t plan_hits = 0;
  int64_t plan_misses = 0;
};

Status RunLayerPass(const WorkloadParams& params, const Setup& setup,
                    uint64_t seed, double seconds, SpanRecorder* rec,
                    RunResult* result, LayerPass* pass) {
  static obs::Counter& plan_hits = obs::GetCounter("nn.plan.cache_hits");
  static obs::Counter& plan_misses = obs::GetCounter("nn.plan.cache_misses");
  DetectLoop& e2e = pass->e2e;
  const obs::Stopwatch wall;
  while (wall.ElapsedSeconds() < seconds || e2e.window_ms.empty()) {
    auto days = NextInputs(params, setup, seed, e2e.next_index, params.window);
    if (!days.ok()) return days.status();
    e2e.next_index += params.window;
    const int64_t hits0 = plan_hits.Value();
    const int64_t misses0 = plan_misses.Value();
    StatusOr<double> window_ms = 0.0;
    {
      LayerSpan span(rec, "core.window");
      window_ms = DetectWindow(params, setup, *days, result, &e2e.detect_ms);
    }
    if (!window_ms.ok()) return window_ms.status();
    e2e.window_ms.push_back(*window_ms);
    e2e.busy_seconds += *window_ms * 1e-3;
    e2e.points += CountPoints(*days);
    pass->plan_hits += plan_hits.Value() - hits0;
    pass->plan_misses += plan_misses.Value() - misses0;
    for (const auto& day : *days) {
      TraceOneTrajectory(setup, day, rec, &pass->counters, result);
    }
  }
  return Status::Ok();
}

// common: kPoolWindows fresh windows, from `first_index` on, detected by
// a copy of the model (saved and loaded through `work_dir`) set to
// kPoolLanes lanes, with the pool counters read around each window.
// Leaves the copy in setup->model.
Status RunPoolPass(const WorkloadParams& params, Setup* setup,
                   const RunConfig& config, int64_t first_index,
                   RunResult* result) {
  static obs::Counter& pool_tasks = obs::GetCounter("pool.tasks");
  const std::string path = config.work_dir + "/lead_bench_pool.model";
  LEAD_RETURN_IF_ERROR(setup->model->Save(path));
  core::LeadOptions options = setup->model->options();
  options.detect.threads = kPoolLanes;
  setup->model = std::make_unique<core::LeadModel>(options);
  const Status loaded = setup->model->Load(path);
  std::remove(path.c_str());
  LEAD_RETURN_IF_ERROR(loaded);
  int64_t tasks = 0;
  int64_t busy_us = 0;
  double wall_ms = 0.0;
  std::vector<double> per_trajectory_ms;
  for (int w = 0; w < kPoolWindows; ++w) {
    auto days = NextInputs(params, *setup, config.seed,
                           first_index + int64_t{w} * params.window,
                           params.window);
    if (!days.ok()) return days.status();
    const int64_t tasks0 = pool_tasks.Value();
    const int64_t busy0 = PoolBusyMicros();
    auto window_ms =
        DetectWindow(params, *setup, *days, result, &per_trajectory_ms);
    if (!window_ms.ok()) return window_ms.status();
    tasks += pool_tasks.Value() - tasks0;
    busy_us += PoolBusyMicros() - busy0;
    wall_ms += *window_ms;
  }
  const double busy_ms = Ms(static_cast<uint64_t>(busy_us));
  AddMetric(result, "common.pool.tasks",
            static_cast<double>(tasks) / kPoolWindows, "count");
  AddMetric(result, "common.pool.busy_ms", busy_ms / kPoolWindows, "ms");
  AddMetric(result, "common.pool.utilization",
            busy_ms / (wall_ms * kPoolLanes), "ratio");
  return Status::Ok();
}

Status RunTraced(const WorkloadParams& params, const RunConfig& config,
                 RunResult* result) {
  Setup setup;
  LEAD_RETURN_IF_ERROR(BuildCorpus(params, &setup));
  SpanRecorder rec;
  LEAD_RETURN_IF_ERROR(TraceTraining(params, &setup, &rec, result));

  // The untraced reference runs a quarter of the time before and a
  // quarter after the traced half, so drift in machine speed cancels.
  const double quarter = std::max(config.seconds * 0.25, 0.25);
  LayerPass reference;
  LEAD_RETURN_IF_ERROR(RunLayerPass(params, setup, config.seed, quarter,
                                    nullptr, result, &reference));
  // Traced pass: library tracing on, counters reset first. The Chrome
  // trace covers this pass (training stages are in the self-time table).
  obs::MetricsRegistry::Global().ResetValues();
  obs::Tracer& tracer = obs::Tracer::Global();
  LayerPass traced;
  traced.e2e.next_index = reference.e2e.next_index;
  tracer.Start();
  const Status traced_status = RunLayerPass(
      params, setup, config.seed, 2 * quarter, &rec, result, &traced);
  tracer.Stop();
  LEAD_RETURN_IF_ERROR(traced_status);
  if (!config.trace_out.empty()) {
    std::string error;
    if (!tracer.WriteJson(config.trace_out, &error)) {
      return InternalError("trace write failed: " + error);
    }
  }
  static obs::Gauge& arena_bytes = obs::GetGauge("nn.plan.arena_bytes");
  const double plan_arena_bytes = arena_bytes.Value();
  reference.e2e.next_index = traced.e2e.next_index;
  LEAD_RETURN_IF_ERROR(RunLayerPass(params, setup, config.seed, quarter,
                                    nullptr, result, &reference));
  LEAD_RETURN_IF_ERROR(RunPoolPass(params, &setup, config,
                                   reference.e2e.next_index, result));

  const LayerCounters& counters = traced.counters;
  const DetectLoop& traced_loop = traced.e2e;
  const double n =
      static_cast<double>(std::max<int64_t>(1, counters.trajectories));
  const double windows = static_cast<double>(traced_loop.window_ms.size());
  const double e2e_wall_ms = traced_loop.busy_seconds * 1e3;
  auto per_traj = [&](const char* span) { return rec.TotalMs(span) / n; };
  const double filter_ms = per_traj("traj.filter");
  const double stay_ms = per_traj("traj.stay");
  const double segment_ms = per_traj("traj.segment");
  const double features_ms = per_traj("poi.features");
  const double preprocess_ms = per_traj("core.preprocess");
  const double encode_ms = per_traj("core.encode");
  const double detect_processed_ms = per_traj("core.detect_processed");
  const double detect_ms = per_traj("core.detect");
  const double uncovered_ms =
      preprocess_ms - (filter_ms + stay_ms + segment_ms + features_ms);
  AddMetric(result, "traj.filter_ms", filter_ms, "ms");
  AddMetric(result, "traj.stay_ms", stay_ms, "ms");
  AddMetric(result, "traj.segment_ms", segment_ms, "ms");
  AddMetric(result, "traj.points_in",
            static_cast<double>(counters.points_in) / n, "count");
  AddMetric(result, "traj.points_kept",
            static_cast<double>(counters.points_kept) / n, "count");
  AddMetric(result, "traj.stays", static_cast<double>(counters.stays) / n,
            "count");
  AddMetric(result, "poi.features_ms", features_ms, "ms");
  AddMetric(result, "poi.radius_queries",
            static_cast<double>(counters.radius_queries) / n, "count");
  AddMetric(result, "core.preprocess_ms", preprocess_ms, "ms");
  AddMetric(result, "core.preprocess_uncovered_ms", uncovered_ms, "ms");
  AddMetric(result, "core.preprocess_uncovered_pct",
            preprocess_ms > 0.0 ? 100.0 * uncovered_ms / preprocess_ms : 0.0,
            "%");
  AddMetric(result, "core.encode_ms", encode_ms, "ms");
  AddMetric(result, "core.score_ms", detect_processed_ms - encode_ms, "ms");
  AddMetric(result, "core.detect_ms", detect_ms, "ms");
  AddMetric(result, "core.detect_residual_ms",
            detect_ms - (preprocess_ms + detect_processed_ms), "ms");
  AddMetric(result, "core.window_ms", e2e_wall_ms / windows, "ms");
  AddMetric(result, "core.candidates",
            static_cast<double>(counters.candidates) / n, "count");
  AddMetric(result, "nn.tensor_allocs_per_call",
            static_cast<double>(counters.tensor_allocs) /
                static_cast<double>(
                    std::max<int64_t>(1, counters.detect_calls)),
            "count");
  const int64_t lookups = traced.plan_hits + traced.plan_misses;
  AddMetric(result, "nn.plan.hit_ratio",
            lookups > 0 ? static_cast<double>(traced.plan_hits) /
                              static_cast<double>(lookups)
                        : 0.0,
            "ratio");
  AddMetric(result, "nn.plan.misses",
            static_cast<double>(traced.plan_misses) / windows, "count");
  AddMetric(result, "nn.plan.arena_bytes", plan_arena_bytes, "B");
  // Tracing overhead: traced minus untraced end-to-end cost per GPS
  // point (the two passes see different fresh inputs, so cost is
  // normalized by size), scaled to the traced pass's mean window.
  const double untraced_ms_per_pt =
      reference.e2e.busy_seconds * 1e3 /
      static_cast<double>(std::max<int64_t>(1, reference.e2e.points));
  const double traced_ms_per_pt =
      e2e_wall_ms /
      static_cast<double>(std::max<int64_t>(1, traced_loop.points));
  AddMetric(result, "trace.overhead_ms",
            (traced_ms_per_pt - untraced_ms_per_pt) *
                static_cast<double>(traced_loop.points) / windows,
            "ms");
  AddMetric(result, "trace.overhead_pct",
            100.0 * (traced_ms_per_pt - untraced_ms_per_pt) /
                untraced_ms_per_pt,
            "%");
  result->self_time_table = FormatSelfTimeTable(rec.Totals());
  return Status::Ok();
}

}  // namespace

bool LookupWorkload(const std::string& name, WorkloadParams* params) {
  WorkloadParams p;
  p.name = name;
  if (name == "online_long") {
    p.kind = WorkloadKind::kOnline;
    p.min_stays = 12;
    p.max_stays = 14;
    p.sample_interval_s = 120.0;
    // p90 has at least 100 samples above it.
    p.min_calls = 1000;
  } else if (name == "fleet_dense") {
    p.kind = WorkloadKind::kFleet;
    p.min_stays = 3;
    p.max_stays = 5;
    p.sample_interval_s = 30.0;
    // 100 windows: window p90 has at least 10 samples above it.
    p.min_calls = 1600;
  } else {
    return false;
  }
  *params = p;
  return true;
}

std::vector<std::string> WorkloadNames() {
  return {"online_long", "fleet_dense"};
}

WorkloadParams SmokeParams(WorkloadParams params) {
  params.train_trajectories = 12;
  params.val_trajectories = 4;
  params.autoencoder_epochs = 1;
  params.detector_epochs = 1;
  params.window = 4;
  params.min_calls = 4;
  params.audit_trajectories = 4;
  return params;
}

core::LeadOptions BenchLeadOptions(const WorkloadParams& params) {
  core::LeadOptions options;
  options.train.threads = params.threads;
  options.detect.threads = params.threads;
  options.train.autoencoder_epochs = params.autoencoder_epochs;
  options.train.detector_epochs = params.detector_epochs;
  // A fixed schedule: early stopping never triggers.
  options.train.early_stopping_patience = 1 << 20;
  // Small-corpus schedule (as the repository's experiment harness uses):
  // the library's lr/batch defaults are sized for the paper's corpus.
  options.train.learning_rate = 1e-3f;
  options.train.batch_size = 8;
  options.train.max_candidates_per_trajectory = 4;
  return options;
}

BenchWorld MakeWorld() {
  sim::WorldOptions options;
  options.seed = kFixedSeed;
  return BenchWorld{sim::World::Generate(options)};
}

StatusOr<sim::SimulatedDay> SimulateTrajectory(
    const BenchWorld& world, uint64_t seed, Stream stream, int64_t index,
    int min_stays, int max_stays, double sample_interval_s) {
  sim::SimOptions sim_options;
  sim_options.sample_interval_mean_s = sample_interval_s;
  sim_options.sample_interval_jitter_s =
      sim_options.sample_interval_jitter_s * sample_interval_s / 120.0;
  AimStayBuckets(min_stays, max_stays, &sim_options);
  const core::PipelineOptions pipeline;
  const sim::TruckSimulator simulator(world.world.get(), sim_options,
                                      pipeline.noise, pipeline.stay);
  Rng rng = Rng::ForStream(StreamSeed(seed, stream),
                           static_cast<uint64_t>(index));
  std::string id = "s";
  id += std::to_string(static_cast<int>(stream));
  id += "-";
  id += std::to_string(index);
  for (int attempt = 0; attempt < kMaxRedraws; ++attempt) {
    std::optional<sim::SimulatedDay> day = simulator.SimulateDay(
        "truck-" + id, id, static_cast<int>(index % 28), &rng);
    if (day.has_value() && day->num_stay_points >= min_stays &&
        day->num_stay_points <= max_stays) {
      return *std::move(day);
    }
  }
  return InternalError("no trajectory with " + std::to_string(min_stays) +
                       "-" + std::to_string(max_stays) +
                       " stay points for " + id);
}

StatusOr<std::vector<core::LabeledRawTrajectory>> MakeCorpus(
    const BenchWorld& world, uint64_t seed, Stream stream, int count,
    double sample_interval_s) {
  std::vector<core::LabeledRawTrajectory> corpus;
  corpus.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    auto day = SimulateTrajectory(world, seed, stream, i, 3, 14,
                                  sample_interval_s);
    if (!day.ok()) return day.status();
    corpus.push_back(core::LabeledRawTrajectory{std::move(day->raw),
                                                day->loaded_label});
  }
  return corpus;
}

RunResult RunWorkload(const WorkloadParams& params, const RunConfig& config) {
  RunResult result;
  result.params.Str("workload", params.name)
      .Int("seed", static_cast<int64_t>(config.seed))
      .Num("seconds", config.seconds)
      .Bool("trace", config.trace)
      .Int("threads", params.threads)
      .Int("min_stays", params.min_stays)
      .Int("max_stays", params.max_stays)
      .Num("sample_interval_s", params.sample_interval_s)
      .Int("window", params.window)
      .Int("min_calls", params.min_calls)
      .Int("audit_trajectories", params.audit_trajectories)
      .Int("train_trajectories", params.train_trajectories)
      .Int("val_trajectories", params.val_trajectories)
      .Int("autoencoder_epochs", params.autoencoder_epochs)
      .Int("detector_epochs", params.detector_epochs)
      .Int("rounds", kRounds);
  Status status = Status::Ok();
  if (config.trace) {
    status = RunTraced(params, config, &result);
  } else {
    status = RunUntraced(params, config, &result);
  }
  if (!status.ok()) {
    result.correct = false;
    result.errors.push_back("run aborted: " + status.ToString());
  }
  return result;
}

}  // namespace lead::perfbench
