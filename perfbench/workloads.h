// The LEAD benchmark's workloads: fresh-input generation from a seed,
// model set-up, the closed-loop measurement of each workload, and the
// traced layer-by-layer pass.
//
//   online_long  single LeadModel::Detect calls, 12-14 stay points, 120 s
//   fleet_dense  LeadModel::DetectBatch over windows of 16 trajectories,
//                3-5 stay points, 30 s sampling
//
// Both train the model on a fixed corpus and schedule during set-up, so
// LeadModel::Train is timed on every workload.
//
// Every measured trajectory is simulated from (seed, stream, index)
// alone, so the same seed reproduces the same inputs in any order, and
// no index is used twice in a run: the program never sees a trajectory
// again. The map, the training archive and the accuracy audit set are
// fixed (seed-independent), so every run trains the same model and
// detect_acc repeats exactly.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_core.h"
#include "common/status.h"
#include "core/lead.h"
#include "sim/truck_sim.h"
#include "sim/world.h"
#include "span_trace.h"

namespace lead::perfbench {

enum class WorkloadKind { kOnline, kFleet };

struct WorkloadParams {
  std::string name;
  WorkloadKind kind = WorkloadKind::kOnline;
  // Lanes for every LeadModel call (TrainOptions/DetectOptions::threads).
  // One lane: on a shared 4-vCPU host, keeping several vCPUs busy draws
  // hypervisor steal, which swings multi-lane timings by about +-17%
  // between stretches of a few minutes, against about +-4% on one lane.
  int threads = 1;
  // Measured inputs: realized stay-point range and GPS sampling.
  int min_stays = 3;
  int max_stays = 14;
  double sample_interval_s = 120.0;
  // Trajectories per window: consecutive Detect calls (online) or one
  // DetectBatch call (fleet).
  int window = 16;
  // The measured loop runs at least this many detections.
  int min_calls = 0;
  // detect_acc is taken over this many trajectories of the fixed audit
  // set (same stay range and sampling as the measured inputs).
  int audit_trajectories = 256;
  // Training corpus (paper's stay-count mix at 120 s) and schedule.
  int train_trajectories = 32;
  int val_trajectories = 8;
  int autoencoder_epochs = 1;
  int detector_epochs = 4;
};

// Parameters of a named workload; false when the name is unknown.
bool LookupWorkload(const std::string& name, WorkloadParams* params);
std::vector<std::string> WorkloadNames();
// Shrinks a workload to a few seconds (for the benchmark's own tests).
WorkloadParams SmokeParams(WorkloadParams params);

// LeadOptions used by every workload: library defaults (eager,
// deterministic) except the lane count and a training schedule that
// early stopping cannot cut short.
core::LeadOptions BenchLeadOptions(const WorkloadParams& params);

// The simulated world plus the simulator that draws trajectories in it.
struct BenchWorld {
  std::unique_ptr<sim::World> world;
  const poi::PoiIndex& poi() const { return world->poi_index(); }
};
// The fixed simulated map every workload runs in.
BenchWorld MakeWorld();

// Input streams: each (seed, stream) pair is an independent sequence.
enum class Stream : uint64_t {
  kTrain = 1,
  kVal = 2,
  kMeasured = 3,
  kAudit = 5,
};

// Trajectory `index` of a stream: simulated from (seed, stream, index)
// only, redrawn until its realized stay-point count is in
// [min_stays, max_stays].
StatusOr<sim::SimulatedDay> SimulateTrajectory(
    const BenchWorld& world, uint64_t seed, Stream stream, int64_t index,
    int min_stays, int max_stays, double sample_interval_s);

// `count` trajectories of a stream with the paper's stay-count mix.
StatusOr<std::vector<core::LabeledRawTrajectory>> MakeCorpus(
    const BenchWorld& world, uint64_t seed, Stream stream, int count,
    double sample_interval_s);

// What one run measured. `metrics` holds name -> (value, unit).
struct Metric {
  double value = 0.0;
  std::string unit;
};
struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;  // first few invalid outputs
  std::map<std::string, Metric> metrics;
  JsonObject params;  // workload parameters, for provenance
  std::string self_time_table;  // traced runs only
};

struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Traced runs write the Chrome trace-event JSON here (empty: none).
  std::string trace_out;
  // Traced runs pass a copy of the model through a file in this
  // directory (removed again at once).
  std::string work_dir = ".";
};

// Runs one workload end to end: set-up, the measured closed loop and the
// output checks. With config.trace the result carries the per-layer
// metrics instead of the end-to-end ones.
RunResult RunWorkload(const WorkloadParams& params, const RunConfig& config);

}  // namespace lead::perfbench
