// lead_cli — command-line front end for the LEAD library.
//
//   lead_cli simulate --out DIR [--trajectories N] [--trucks N] [--seed S]
//       Generates a synthetic HCT corpus (trajectories.csv, pois.csv,
//       labels.csv) into DIR.
//   lead_cli train --data DIR --model FILE [--ae-epochs N]
//       [--det-epochs N] [--lr X] [--seed S] [--threads N]
//       Trains a LEAD model on the corpus in DIR (truck-disjoint 8:1:1
//       split) and writes the checkpoint to FILE. --threads 0 (default)
//       uses all hardware threads; any value gives bit-identical results.
//   lead_cli detect --data DIR --model FILE [--trajectory ID] [--threads N]
//       [--strategy deterministic|fast] [--deadline-ms N]
//       [--memory-budget-mb N]
//       Detects the loaded trajectory of one trajectory (default: the
//       first) and prints the candidate distribution. --strategy fast opts
//       into the throughput-first execution strategy (work-stealing loops,
//       fused score batches; decisions equivalent, probabilities within
//       the documented FP tolerance — DESIGN.md §"Fast execution
//       strategy"); deterministic (default) stays the bit-parity oracle.
//   lead_cli evaluate --data DIR --model FILE
//       Evaluates detection accuracy per stay-count bucket on the
//       held-out test split.
//   lead_cli obs report FILE
//       Pretty-prints a post-mortem dump (leaddump-*.json, written on
//       anomalies when LEAD_DUMP_DIR / --dump-dir is set): trigger
//       cause, build/config provenance, top spans by self-time,
//       histogram percentiles, and the shed/retry/recovery/cancel
//       event timeline. The dump file itself loads in Perfetto.
//
// train/detect/evaluate accept observability flags (DESIGN.md
// §"Observability"): --trace-out FILE writes a Chrome trace-event JSON
// (open in Perfetto or chrome://tracing), --metrics-out FILE writes the
// metrics-registry JSON, --log-level error|warn|info|debug sets the
// library log threshold. Tracing never changes results.
//
// Robustness flags (DESIGN.md §"Deadlines, cancellation, and budgets"):
// --deadline-ms N bounds each detect call — on expiry it returns a
// DEADLINE_EXCEEDED status instead of running to completion.
// --memory-budget-mb N caps admission-controlled allocations (detect
// scratch); over-budget work sheds with RESOURCE_EXHAUSTED rather than
// OOM-ing. 0 (the
// default) disables each limit. --dump-dir DIR enables anomaly-triggered
// post-mortem dumps into DIR (DESIGN.md §"Post-mortem diagnostics").
//
// A real deployment replaces `simulate` with government GPS archives in
// the same CSV formats (see src/io/csv.h).
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>

#include <fstream>
#include <sstream>

#include "common/budget.h"
#include "core/lead.h"
#include "eval/harness.h"
#include "io/csv.h"
#include "obs/dump.h"
#include "obs/log.h"
#include "obs/report.h"
#include "obs/trace.h"

using namespace lead;

namespace {

using Flags = std::map<std::string, std::string>;

Flags ParseFlags(int argc, char** argv, int first) {
  Flags flags;
  for (int i = first; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) == 0) key = key.substr(2);
    flags[key] = argv[i + 1];
  }
  return flags;
}

std::string FlagOr(const Flags& flags, const std::string& key,
                   const std::string& fallback) {
  const auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: lead_cli <simulate|train|detect|evaluate|obs> [--flags]\n"
      "       lead_cli obs report FILE\n"
      "see the header of cli/lead_cli.cc for details\n");
  return 2;
}

// Loads corpus + labels and produces the truck-disjoint split.
struct Corpus {
  std::vector<poi::Poi> pois;
  sim::DatasetSplit split;
};

StatusOr<Corpus> LoadCorpus(const std::string& dir, uint64_t seed) {
  Corpus corpus;
  auto trajectories = io::ReadTrajectoriesFromFile(dir + "/trajectories.csv");
  if (!trajectories.ok()) return trajectories.status();
  auto pois = io::ReadPoisFromFile(dir + "/pois.csv");
  if (!pois.ok()) return pois.status();
  corpus.pois = *std::move(pois);
  auto labels = io::ReadLabelsFromFile(dir + "/labels.csv");
  if (!labels.ok()) return labels.status();

  // Rebuild SimulatedDay-shaped records so the eval harness applies.
  sim::Dataset dataset;
  for (traj::RawTrajectory& raw : *trajectories) {
    const auto it = labels->find(raw.trajectory_id);
    if (it == labels->end()) {
      return InvalidArgumentError("no label for trajectory " +
                                  raw.trajectory_id);
    }
    sim::SimulatedDay day;
    day.loaded_label = it->second;
    day.num_stay_points = it->second.end_sp + 1;  // refined below
    day.raw = std::move(raw);
    dataset.days.push_back(std::move(day));
  }
  // Recompute exact stay counts through the canonical pipeline.
  const core::PipelineOptions pipeline;
  for (sim::SimulatedDay& day : dataset.days) {
    const traj::RawTrajectory cleaned =
        traj::FilterNoise(day.raw, pipeline.noise).cleaned;
    day.num_stay_points = static_cast<int>(
        traj::ExtractStayPoints(cleaned, pipeline.stay).size());
    if (day.loaded_label.end_sp >= day.num_stay_points) {
      return InvalidArgumentError(
          "label out of range for trajectory " + day.raw.trajectory_id +
          " (was it produced with different pipeline thresholds?)");
    }
  }
  sim::DatasetOptions split_options;
  split_options.seed = seed;
  corpus.split = sim::SplitByTruck(std::move(dataset), split_options);
  return corpus;
}

int RunSimulate(const Flags& flags) {
  const std::string out_dir = FlagOr(flags, "out", "");
  if (out_dir.empty()) return Usage();
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);

  eval::ExperimentConfig config = eval::DefaultConfig(1.0);
  config.dataset.num_trajectories =
      std::atoi(FlagOr(flags, "trajectories", "240").c_str());
  config.dataset.num_trucks =
      std::atoi(FlagOr(flags, "trucks", "110").c_str());
  config.dataset.seed = std::strtoull(
      FlagOr(flags, "seed", "17").c_str(), nullptr, 10);
  auto data = eval::BuildExperiment(config);
  if (!data.ok()) return Fail(data.status());

  std::vector<traj::RawTrajectory> trajectories;
  io::LabelMap labels;
  auto append = [&](const std::vector<sim::SimulatedDay>& days) {
    for (const sim::SimulatedDay& day : days) {
      trajectories.push_back(day.raw);
      labels[day.raw.trajectory_id] = day.loaded_label;
    }
  };
  append(data->split.train);
  append(data->split.val);
  append(data->split.test);

  if (const Status s = io::WriteTrajectoriesToFile(
          trajectories, out_dir + "/trajectories.csv");
      !s.ok()) {
    return Fail(s);
  }
  if (const Status s = io::WritePoisToFile(data->world->poi_index().pois(),
                                           out_dir + "/pois.csv");
      !s.ok()) {
    return Fail(s);
  }
  if (const Status s = io::WriteLabelsToFile(labels, out_dir + "/labels.csv");
      !s.ok()) {
    return Fail(s);
  }
  std::printf("wrote %zu trajectories, %d POIs, %zu labels to %s\n",
              trajectories.size(), data->world->poi_index().size(),
              labels.size(), out_dir.c_str());
  return 0;
}

core::LeadOptions CliLeadOptions(const Flags& flags) {
  core::LeadOptions options = eval::DefaultConfig(1.0).lead;
  options.train.autoencoder_epochs =
      std::atoi(FlagOr(flags, "ae-epochs", "12").c_str());
  options.train.detector_epochs =
      std::atoi(FlagOr(flags, "det-epochs", "60").c_str());
  options.train.learning_rate =
      std::strtof(FlagOr(flags, "lr", "1e-3").c_str(), nullptr);
  options.train.seed =
      std::strtoull(FlagOr(flags, "seed", "42").c_str(), nullptr, 10);
  options.train.verbose = FlagOr(flags, "verbose", "0") == "1";
  // <= 0 (the default) resolves to hardware_concurrency; results are
  // bit-identical for every thread count.
  options.train.threads = std::atoi(FlagOr(flags, "threads", "0").c_str());
  options.detect.threads = options.train.threads;
  options.train.trace_out = FlagOr(flags, "trace-out", "");
  options.train.metrics_out = FlagOr(flags, "metrics-out", "");
  options.train.log_level = FlagOr(flags, "log-level", "");
  options.detect.trace_out = options.train.trace_out;
  options.detect.metrics_out = options.train.metrics_out;
  options.detect.log_level = options.train.log_level;
  // --strategy=fast opts train AND detect into the throughput-first
  // execution strategy; deterministic (default) keeps bit parity.
  const std::string strategy = FlagOr(flags, "strategy", "deterministic");
  ExecStrategy parsed_strategy = ExecStrategy::kDeterministic;
  if (ParseExecStrategy(strategy, &parsed_strategy)) {
    options.train.strategy = parsed_strategy;
    options.detect.strategy = parsed_strategy;
  } else {
    std::fprintf(stderr,
                 "warning: unknown --strategy '%s'; using deterministic\n",
                 strategy.c_str());
  }
  // --deadline-ms bounds each detect call; --memory-budget-mb installs
  // the process-wide admission-control cap. Both default to "off".
  options.detect.deadline_ms =
      std::atoll(FlagOr(flags, "deadline-ms", "0").c_str());
  const int64_t budget_mb =
      std::atoll(FlagOr(flags, "memory-budget-mb", "0").c_str());
  if (budget_mb > 0) {
    MemoryBudget::Global().SetCapBytes(budget_mb * 1024 * 1024);
  }
  // --dump-dir enables anomaly-triggered post-mortem dumps (same effect
  // as the LEAD_DUMP_DIR environment variable).
  const std::string dump_dir = FlagOr(flags, "dump-dir", "");
  if (!dump_dir.empty()) obs::SetDumpDir(dump_dir);
  return options;
}

// Applies --log-level for the commands whose collection session lives in
// the CLI (detect/evaluate; train applies it inside LeadModel::Train).
int ApplyLogLevel(const std::string& log_level) {
  if (log_level.empty()) return 0;
  obs::LogLevel level;
  if (!obs::ParseLogLevel(log_level, &level)) {
    return Fail(InvalidArgumentError("bad log level: " + log_level));
  }
  obs::SetLogLevel(level);
  return 0;
}

int RunTrain(const Flags& flags) {
  const std::string data_dir = FlagOr(flags, "data", "");
  const std::string model_path = FlagOr(flags, "model", "");
  if (data_dir.empty() || model_path.empty()) return Usage();
  const core::LeadOptions options = CliLeadOptions(flags);
  // Reject a bad --log-level before the corpus load; Train() re-applies
  // the same option for callers that bypass the CLI.
  if (const int rc = ApplyLogLevel(options.train.log_level); rc != 0) {
    return rc;
  }
  auto corpus = LoadCorpus(data_dir, options.train.seed);
  if (!corpus.ok()) return Fail(corpus.status());
  const poi::PoiIndex poi_index(std::move(corpus->pois));
  std::printf("corpus: %zu train / %zu val / %zu test\n",
              corpus->split.train.size(), corpus->split.val.size(),
              corpus->split.test.size());

  core::LeadModel model(options);
  core::TrainingLog log;
  if (const Status s =
          model.Train(eval::ToLabeled(corpus->split.train),
                      eval::ToLabeled(corpus->split.val), poi_index, &log);
      !s.ok()) {
    return Fail(s);
  }
  if (const Status s = model.Save(model_path); !s.ok()) return Fail(s);
  std::printf("model written to %s (AE epochs %zu, fwd %zu, bwd %zu)\n",
              model_path.c_str(), log.autoencoder_mse.size(),
              log.forward_kld.size(), log.backward_kld.size());
  return 0;
}

int RunDetect(const Flags& flags) {
  const std::string data_dir = FlagOr(flags, "data", "");
  const std::string model_path = FlagOr(flags, "model", "");
  if (data_dir.empty() || model_path.empty()) return Usage();
  auto corpus = LoadCorpus(data_dir, 42);
  if (!corpus.ok()) return Fail(corpus.status());
  const poi::PoiIndex poi_index(std::move(corpus->pois));
  core::LeadModel model(CliLeadOptions(flags));
  if (const Status s = model.Load(model_path); !s.ok()) return Fail(s);
  const core::DetectOptions& dopt = model.options().detect;
  if (const int rc = ApplyLogLevel(dopt.log_level); rc != 0) return rc;
  obs::ScopedCollection collection(dopt.trace_out, dopt.metrics_out);

  const std::string wanted = FlagOr(flags, "trajectory", "");
  const sim::SimulatedDay* day = nullptr;
  for (const auto* part :
       {&corpus->split.test, &corpus->split.val, &corpus->split.train}) {
    for (const sim::SimulatedDay& d : *part) {
      if (wanted.empty() || d.raw.trajectory_id == wanted) {
        day = &d;
        break;
      }
    }
    if (day != nullptr) break;
  }
  if (day == nullptr) {
    return Fail(NotFoundError("trajectory not found: " + wanted));
  }
  auto detection = model.Detect(day->raw, poi_index);
  if (!detection.ok()) return Fail(detection.status());
  std::printf("trajectory %s: %d stay points\n",
              day->raw.trajectory_id.c_str(), detection->num_stays);
  std::printf("detected loaded trajectory: stay %d -> stay %d\n",
              detection->loaded.start_sp, detection->loaded.end_sp);
  std::printf("archived label:             stay %d -> stay %d (%s)\n",
              day->loaded_label.start_sp, day->loaded_label.end_sp,
              detection->loaded == day->loaded_label ? "HIT" : "MISS");
  for (size_t i = 0; i < detection->candidates.size(); ++i) {
    std::printf("  <sp%-2d --> sp%-2d>  %.3f\n",
                detection->candidates[i].start_sp,
                detection->candidates[i].end_sp,
                detection->probabilities[i]);
  }
  return 0;
}

int RunEvaluate(const Flags& flags) {
  const std::string data_dir = FlagOr(flags, "data", "");
  const std::string model_path = FlagOr(flags, "model", "");
  if (data_dir.empty() || model_path.empty()) return Usage();
  auto corpus = LoadCorpus(data_dir, 42);
  if (!corpus.ok()) return Fail(corpus.status());
  const poi::PoiIndex poi_index(std::move(corpus->pois));
  core::LeadModel model(CliLeadOptions(flags));
  if (const Status s = model.Load(model_path); !s.ok()) return Fail(s);
  const core::DetectOptions& dopt = model.options().detect;
  if (const int rc = ApplyLogLevel(dopt.log_level); rc != 0) return rc;
  obs::ScopedCollection collection(dopt.trace_out, dopt.metrics_out);

  const eval::MethodResult result = eval::EvaluateMethod(
      "LEAD", corpus->split.test,
      [&](const traj::RawTrajectory& raw) -> StatusOr<traj::Candidate> {
        auto detection = model.Detect(raw, poi_index);
        if (!detection.ok()) return detection.status();
        return detection->loaded;
      });
  std::printf("%s",
              eval::FormatAccuracyTable({result}, corpus->split.test).c_str());
  std::printf("%s", eval::FormatTimingTable({result}).c_str());
  return 0;
}

int RunObsReport(int argc, char** argv) {
  if (argc < 4) return Usage();
  const std::string path = argv[3];
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    return Fail(NotFoundError("cannot read dump: " + path));
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string report;
  std::string error;
  if (!obs::FormatDumpReport(buffer.str(), &report, &error)) {
    return Fail(InvalidArgumentError(path + ": " + error));
  }
  std::printf("%s", report.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "obs") {
    if (argc < 3 || std::string(argv[2]) != "report") return Usage();
    return RunObsReport(argc, argv);
  }
  const Flags flags = ParseFlags(argc, argv, 2);
  if (command == "simulate") return RunSimulate(flags);
  if (command == "train") return RunTrain(flags);
  if (command == "detect") return RunDetect(flags);
  if (command == "evaluate") return RunEvaluate(flags);
  return Usage();
}
