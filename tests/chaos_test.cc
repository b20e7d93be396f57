// Chaos harness: deadline/cancellation honor under injected stalls,
// graceful degradation (partial batch results, budget sheds), thread-pool
// shutdown/cancellation behavior, and — the flip side — bit-parity with
// the golden Detect fixture when the robustness substrate is active but
// nothing fires.
//
// Fault-driven tests GTEST_SKIP unless the build has
// -DLEAD_FAULT_INJECTION=ON (ci.sh's fault stage). The ChaosEnv test is
// env-tolerant by design: ci.sh re-runs it under each LEAD_FAULT=<point>
// to exercise runtime activation end-to-end, and its assertions hold
// whether or not (and wherever) the armed point fires.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/budget.h"
#include "common/cancel.h"
#include "common/fault.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/lead.h"
#include "eval/harness.h"
#include "io/csv.h"
#include "obs/dump.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/report.h"
#include "obs/trace.h"

namespace lead {
namespace {

#ifndef LEAD_GOLDEN_DIR
#error "build must define LEAD_GOLDEN_DIR"
#endif

int64_t ElapsedMillis(uint64_t start_us) {
  return static_cast<int64_t>((obs::NowMicros() - start_us) / 1000);
}

// ---------------------------------------------------------------------------
// Batch detection under stalls, deadlines, and budgets.
// ---------------------------------------------------------------------------

// One small simulated corpus and one trained baseline model, built once:
// every test here exercises the online stage, not training.
class ChaosDetectTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    config_ =
        std::make_unique<eval::ExperimentConfig>(eval::DefaultConfig(1.0));
    config_->world.num_background_pois = 300;
    // 10% of trucks land in the test split; 4 days per truck gives the
    // batch tests at least 4 test trajectories.
    config_->dataset.num_trajectories = 40;
    config_->dataset.num_trucks = 10;
    config_->sim.sample_interval_mean_s = 240.0;
    config_->lead.train.autoencoder_epochs = 0;
    config_->lead.train.detector_epochs = 0;
    auto data = eval::BuildExperiment(*config_);
    ASSERT_TRUE(data.ok()) << data.status();
    data_ = std::make_unique<eval::ExperimentData>(std::move(*data));
    model_ = TrainedModel(0);

    // Per-trajectory CSV blobs: the provider re-reads them through the
    // real reader so io.read.stall sits on the batch's critical path.
    csv_ = std::make_unique<std::vector<std::string>>();
    ASSERT_GE(data_->split.test.size(), 3u);
    for (const sim::SimulatedDay& day : data_->split.test) {
      std::ostringstream out;
      ASSERT_TRUE(io::WriteTrajectories({day.raw}, out).ok());
      csv_->push_back(out.str());
    }
  }

  static void TearDownTestSuite() {
    model_.reset();
    csv_.reset();
    data_.reset();
    config_.reset();
  }

  // A freshly trained model with the given Detect deadline (cheap: zero
  // training epochs, the normalizer fit dominates).
  static std::unique_ptr<core::LeadModel> TrainedModel(int64_t deadline_ms) {
    core::LeadOptions options = config_->lead;
    options.detect.deadline_ms = deadline_ms;
    auto model = std::make_unique<core::LeadModel>(options);
    const Status trained =
        model->Train(data_->TrainLabeled(), data_->ValLabeled(),
                     data_->world->poi_index(), nullptr);
    EXPECT_TRUE(trained.ok()) << trained;
    return model;
  }

  static core::TrajectoryProvider CsvProvider() {
    return [](int index) -> StatusOr<traj::RawTrajectory> {
      std::istringstream in((*csv_)[static_cast<size_t>(index)]);
      auto rows = io::ReadTrajectories(in);
      if (!rows.ok()) return rows.status();
      if (rows->empty()) return InternalError("empty csv blob");
      return std::move((*rows)[0]);
    };
  }

  static int Count() { return static_cast<int>(csv_->size()); }

  static std::unique_ptr<eval::ExperimentConfig> config_;
  static std::unique_ptr<eval::ExperimentData> data_;
  static std::unique_ptr<core::LeadModel> model_;
  static std::unique_ptr<std::vector<std::string>> csv_;
};

std::unique_ptr<eval::ExperimentConfig> ChaosDetectTest::config_;
std::unique_ptr<eval::ExperimentData> ChaosDetectTest::data_;
std::unique_ptr<core::LeadModel> ChaosDetectTest::model_;
std::unique_ptr<std::vector<std::string>> ChaosDetectTest::csv_;

// Acceptance: with io.read.stall injected and deadline_ms = 200, the
// batch returns kDeadlineExceeded-tagged partial results within 2x the
// deadline instead of hanging for the 10 s stall.
TEST_F(ChaosDetectTest, StalledReadHonorsDeadlineWithinTwoX) {
  if (!fault::Enabled()) GTEST_SKIP() << "fault injection compiled out";
  const auto model = TrainedModel(200);
  fault::ArmStall("io.read.stall", 1, 10'000);
  const uint64_t t0 = obs::NowMicros();
  const auto batch =
      model->DetectStream(Count(), CsvProvider(), data_->world->poi_index());
  const int64_t elapsed_ms = ElapsedMillis(t0);
  const int fires = fault::Fires("io.read.stall");
  fault::DisarmAll();

  ASSERT_TRUE(batch.ok()) << batch.status();
  EXPECT_LT(elapsed_ms, 400) << "stall outlived 2x the 200 ms deadline";
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(batch->completed, 0);
  EXPECT_EQ(batch->shed, Count());
  EXPECT_EQ(batch->cause, CancelCause::kDeadline);
  for (const core::DetectionOutcome& outcome : batch->outcomes) {
    EXPECT_TRUE(outcome.degraded);
    EXPECT_EQ(outcome.status.code(), StatusCode::kDeadlineExceeded)
        << outcome.status;
  }
}

// Graceful degradation: a stall that hits only the third trajectory's
// read leaves the first two fully scored; just the remainder sheds.
TEST_F(ChaosDetectTest, MidBatchStallKeepsCompletedItems) {
  if (!fault::Enabled()) GTEST_SKIP() << "fault injection compiled out";
  const auto model = TrainedModel(500);
  // The reader hits io.read.stall once per line (header + points), so
  // this lands the stall on item 2's first line.
  const size_t lines_0 = 1 + data_->split.test[0].raw.points.size();
  const size_t lines_1 = 1 + data_->split.test[1].raw.points.size();
  fault::ArmStall("io.read.stall", static_cast<int>(lines_0 + lines_1 + 1),
                  10'000);
  const uint64_t t0 = obs::NowMicros();
  const auto batch =
      model->DetectStream(Count(), CsvProvider(), data_->world->poi_index());
  const int64_t elapsed_ms = ElapsedMillis(t0);
  fault::DisarmAll();

  ASSERT_TRUE(batch.ok()) << batch.status();
  EXPECT_LT(elapsed_ms, 1000);
  EXPECT_EQ(batch->completed, 2);
  EXPECT_EQ(batch->shed, Count() - 2);
  EXPECT_EQ(batch->cause, CancelCause::kDeadline);
  EXPECT_TRUE(batch->outcomes[0].status.ok()) << batch->outcomes[0].status;
  EXPECT_TRUE(batch->outcomes[1].status.ok()) << batch->outcomes[1].status;
  for (int i = 2; i < Count(); ++i) {
    EXPECT_TRUE(batch->outcomes[static_cast<size_t>(i)].degraded);
    EXPECT_EQ(batch->outcomes[static_cast<size_t>(i)].status.code(),
              StatusCode::kDeadlineExceeded);
  }
}

// Without partial_results the same cancellation fails the whole call
// with the typed status instead of returning a degraded batch.
TEST_F(ChaosDetectTest, AllOrNothingModeReturnsTypedError) {
  core::LeadOptions options = config_->lead;
  options.detect.partial_results = false;
  core::LeadModel model(options);
  ASSERT_TRUE(model
                  .Train(data_->TrainLabeled(), data_->ValLabeled(),
                         data_->world->poi_index(), nullptr)
                  .ok());
  CancelToken token = CancelToken::Cancellable();
  token.Cancel(CancelCause::kUser);
  ScopedCancel scoped(token);
  const auto batch =
      model.DetectStream(Count(), CsvProvider(), data_->world->poi_index());
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kCancelled) << batch.status();
}

// A tiny memory budget sheds every item with kResourceExhausted but the
// batch call itself still succeeds — admission control degrades work,
// it never turns into an OOM or an all-or-nothing failure.
TEST_F(ChaosDetectTest, TinyMemoryBudgetShedsItemsNotTheBatch) {
  MemoryBudget::Global().SetCapBytes(64);
  const auto batch =
      model_->DetectStream(Count(), CsvProvider(), data_->world->poi_index());
  MemoryBudget::Global().SetCapBytes(0);

  ASSERT_TRUE(batch.ok()) << batch.status();
  EXPECT_EQ(batch->completed, 0);
  EXPECT_EQ(batch->shed, Count());
  EXPECT_EQ(batch->cause, CancelCause::kBudget);
  for (const core::DetectionOutcome& outcome : batch->outcomes) {
    EXPECT_TRUE(outcome.degraded);
    EXPECT_EQ(outcome.status.code(), StatusCode::kResourceExhausted)
        << outcome.status;
  }
  // The cap only gates new admissions; with it lifted the same batch
  // completes in full.
  const auto retry =
      model_->DetectStream(Count(), CsvProvider(), data_->world->poi_index());
  ASSERT_TRUE(retry.ok()) << retry.status();
  EXPECT_EQ(retry->completed, Count());
  EXPECT_EQ(retry->shed, 0);
}

// ci.sh re-runs this test under LEAD_FAULT=<point> for every chaos
// point. Whatever fires (or doesn't), the batch call must return a
// coherent, bounded result: no hang, no crash, every item accounted for.
TEST_F(ChaosDetectTest, EnvArmedFaultsDegradeGracefullyWithinBounds) {
  // With a fault armed, the deadline is what bounds a persistent stall;
  // without one, run deadline-free so the full-completion assertion holds
  // even under sanitizer slowdowns.
  const bool env_armed = std::getenv("LEAD_FAULT") != nullptr;
  const auto model = TrainedModel(env_armed ? 400 : 0);
  const uint64_t t0 = obs::NowMicros();
  const auto batch =
      model->DetectStream(Count(), CsvProvider(), data_->world->poi_index());
  const int64_t elapsed_ms = ElapsedMillis(t0);

  ASSERT_TRUE(batch.ok()) << batch.status();
  // Generous bound: a persistently armed io.read.stall would otherwise
  // cost minutes (one stall per CSV line); instrumented builds get slack.
  EXPECT_LT(elapsed_ms, 30'000);
  int errored = 0;
  for (const core::DetectionOutcome& outcome : batch->outcomes) {
    if (outcome.status.ok()) continue;
    if (outcome.degraded) {
      EXPECT_TRUE(IsCancellation(outcome.status)) << outcome.status;
    } else {
      ++errored;
    }
  }
  EXPECT_EQ(batch->completed + batch->shed + errored, Count());
  if (!env_armed) {
    EXPECT_EQ(batch->completed, Count());
    EXPECT_EQ(batch->shed, 0);
    EXPECT_EQ(batch->cause, CancelCause::kNone);
  }
}

// ---------------------------------------------------------------------------
// Bit-parity: the robustness substrate must not perturb results.
// ---------------------------------------------------------------------------

// Mirrors golden_detect_test's corpus and line format exactly; the only
// knobs that vary are thread count and an (unfired) deadline.
std::vector<std::string> GoldenConfigLines(int threads, int64_t deadline_ms) {
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
  config.lead.detect.threads = threads;
  config.lead.detect.deadline_ms = deadline_ms;
  auto data = eval::BuildExperiment(config);
  EXPECT_TRUE(data.ok()) << data.status();

  core::LeadModel model(config.lead);
  const Status trained =
      model.Train(data->TrainLabeled(), data->ValLabeled(),
                  data->world->poi_index(), nullptr);
  EXPECT_TRUE(trained.ok()) << trained;

  std::vector<std::string> lines;
  int used = 0;
  constexpr int kMaxTrajectories = 6;
  for (const sim::SimulatedDay& day : data->split.test) {
    if (used >= kMaxTrajectories) break;
    auto detection = model.Detect(day.raw, data->world->poi_index());
    if (!detection.ok()) continue;
    ++used;
    for (size_t i = 0; i < detection->probabilities.size(); ++i) {
      char buf[128];
      std::snprintf(buf, sizeof(buf), "%s %zu %.9g",
                    day.raw.trajectory_id.c_str(), i,
                    static_cast<double>(detection->probabilities[i]));
      lines.emplace_back(buf);
    }
  }
  EXPECT_GT(used, 0);
  return lines;
}

std::vector<std::string> GoldenFileLines() {
  std::ifstream in(std::string(LEAD_GOLDEN_DIR) + "/detect_probs.txt");
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    lines.push_back(line);
  }
  return lines;
}

// Acceptance: with no (firing) deadline the golden fixture stays
// bit-identical across threads {1, 4} — the poll points, watchdog scopes,
// and budget accounting sit on the hot path but only observe, never
// reorder. A generous armed-but-unfired deadline must be
// equally invisible.
TEST(ChaosParityTest, DetectBitIdenticalAcrossModesThreadsAndArmedDeadline) {
  const std::vector<std::string> expected = GoldenFileLines();
  ASSERT_FALSE(expected.empty()) << "no golden fixture";
  struct Run {
    int threads;
    int64_t deadline_ms;
  };
  const std::vector<Run> runs = {{1, 0}, {4, 0}, {4, 600'000}};
  for (const Run& run : runs) {
    SCOPED_TRACE("threads=" + std::to_string(run.threads) +
                 " deadline_ms=" + std::to_string(run.deadline_ms));
    const std::vector<std::string> actual =
        GoldenConfigLines(run.threads, run.deadline_ms);
    EXPECT_EQ(actual, expected);
  }
}

// ---------------------------------------------------------------------------
// Thread pool: shutdown while busy, cancellation across lanes.
// ---------------------------------------------------------------------------

TEST(ChaosPoolTest, ShutdownWhileBusyDrainsQueuedBlocks) {
  auto pool = std::make_unique<ThreadPool>(2);
  std::atomic<int> ran{0};
  // The caller holds a raw pointer: `pool.reset()` below must not race
  // with the unique_ptr object itself, only with the pool's shutdown.
  ThreadPool* raw = pool.get();
  std::thread caller([&ran, raw] {
    raw->ParallelForBlocks(8, 8, [&ran](int64_t, int64_t, int) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      ran.fetch_add(1, std::memory_order_relaxed);
    });
  });
  // Destroy the pool while blocks are still queued: workers must drain
  // the queue (the caller waits on the completion latch) instead of
  // abandoning it, and the destructor must not deadlock.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  pool.reset();
  caller.join();
  EXPECT_EQ(ran.load(), 8);
}

TEST(ChaosPoolTest, PreCancelledTokenSkipsEveryBlock) {
  CancelToken token = CancelToken::Cancellable();
  token.Cancel(CancelCause::kUser);
  ScopedCancel scoped(token);
  std::atomic<int> ran{0};
  ThreadPool::Global().ParallelForBlocks(
      64, 8,
      [&](int64_t, int64_t, int) { ran.fetch_add(1); });
  // Lane 0 runs through the same cancellation gate as queued lanes, so a
  // pre-cancelled caller executes nothing — deterministically.
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(token.cause(), CancelCause::kUser);
}

TEST(ChaosPoolTest, MidRunCancellationStopsLaterBlocksAndNestedLoops) {
  CancelToken token = CancelToken::Cancellable();
  ScopedCancel scoped(token);
  std::atomic<int> executed{0};
  ThreadPool::Global().ParallelForBlocks(
      8, 8, [&](int64_t, int64_t, int) {
        executed.fetch_add(1);
        token.Cancel(CancelCause::kUser);
        // A nested loop on a cancelled token must still return promptly
        // (inline, no deadlock) — its blocks are simply skipped or empty.
        ThreadPool::Global().ParallelFor(4, 4, [](int64_t) {});
      });
  EXPECT_GE(executed.load(), 1);
  EXPECT_LE(executed.load(), 8);
  EXPECT_EQ(token.cause(), CancelCause::kUser);
  const Status status = token.Check("chaos_pool");
  EXPECT_EQ(status.code(), StatusCode::kCancelled) << status;
}

// ---------------------------------------------------------------------------
// Budget, fault framework, and watchdog unit-level behavior.
// ---------------------------------------------------------------------------

TEST(ChaosBudgetTest, AllocFailFaultForcesOneRejection) {
  if (!fault::Enabled()) GTEST_SKIP() << "fault injection compiled out";
  fault::ArmFail("alloc.fail", 1);
  const Status first = MemoryBudget::Global().Admit(16, "chaos_test");
  EXPECT_EQ(first.code(), StatusCode::kResourceExhausted) << first;
  const Status second = MemoryBudget::Global().Admit(16, "chaos_test");
  EXPECT_TRUE(second.ok()) << second;
  MemoryBudget::Global().Release(16);
  fault::DisarmAll();
}

TEST(ChaosFaultTest, PersistentArmingFiresUntilDisarmed) {
  if (!fault::Enabled()) GTEST_SKIP() << "fault injection compiled out";
  fault::ArmFail("chaos.unit.point", 0);  // nth <= 0: every hit fires
  EXPECT_TRUE(fault::internal::FireFail("chaos.unit.point"));
  EXPECT_TRUE(fault::internal::FireFail("chaos.unit.point"));
  EXPECT_TRUE(fault::internal::FireFail("chaos.unit.point"));
  EXPECT_EQ(fault::Fires("chaos.unit.point"), 3);
  fault::Disarm("chaos.unit.point");
  EXPECT_FALSE(LEAD_FAULT_FIRED("chaos.unit.point"));
}

TEST(ChaosWatchdogTest, OverrunningStageBumpsTheCounter) {
  const int64_t before =
      obs::GetCounter("lead.watchdog.overruns").Value();
  SetWatchdogThresholdMillis(20);
  {
    WatchdogScope scope("chaos_test.slow_stage");
    // The scanner idles at a 200 ms cadence while the threshold is 0
    // (earlier tests reset it); outlive one full idle sleep plus the
    // armed cadence so the overrun is observed regardless of where in
    // the idle sleep the new threshold landed.
    std::this_thread::sleep_for(std::chrono::milliseconds(450));
  }
  SetWatchdogThresholdMillis(0);
  EXPECT_GT(obs::GetCounter("lead.watchdog.overruns").Value(), before);
}

// ---------------------------------------------------------------------------
// Anomaly-triggered post-mortem dumps on the real detect path.
// ---------------------------------------------------------------------------

std::set<std::string> DumpFilesIn(const std::string& dir) {
  std::set<std::string> files;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("leaddump-", 0) == 0) files.insert(entry.path().string());
  }
  return files;
}

// Configures a dump directory for one test. When ci.sh passes
// LEAD_DUMP_DIR the environment-configured directory is used as-is (so
// the stage can inspect the file afterwards); otherwise a private temp
// dir is created and cleaned up.
class ScopedDumpDir {
 public:
  ScopedDumpDir() : prior_dir_(obs::DumpDir()) {
    if (std::getenv("LEAD_DUMP_DIR") != nullptr && !prior_dir_.empty()) {
      dir_ = prior_dir_;
    } else {
      dir_ = ::testing::TempDir() + "/chaos_dumps";
      std::filesystem::create_directories(dir_);
      owns_dir_ = true;
      obs::SetDumpDir(dir_);
    }
    obs::SetAnomalyDumpIntervalMicros(0);  // every trigger fires
    was_recording_ = obs::Recorder::Global().enabled();
    obs::Recorder::Global().SetEnabled(true);
    before_ = DumpFilesIn(dir_);
  }
  ~ScopedDumpDir() {
    obs::Recorder::Global().SetEnabled(was_recording_);
    obs::SetAnomalyDumpIntervalMicros(5'000'000);
    obs::SetDumpDir(prior_dir_);
    if (owns_dir_) std::filesystem::remove_all(dir_);
  }

  const std::string& dir() const { return dir_; }

  // Dump files that appeared since construction.
  std::vector<std::string> NewDumps() const {
    std::vector<std::string> fresh;
    for (const std::string& f : DumpFilesIn(dir_)) {
      if (before_.count(f) == 0) fresh.push_back(f);
    }
    return fresh;
  }

 private:
  std::string prior_dir_;
  std::string dir_;
  bool owns_dir_ = false;
  bool was_recording_ = false;
  std::set<std::string> before_;
};

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Acceptance: a deadline-expired detect run emits one self-contained
// post-mortem dump whose trigger cause is the sticky first cause
// (deadline), and the dump renders through the report formatter.
TEST_F(ChaosDetectTest, DeadlineExpiredDetectEmitsParseableDump) {
  if (!fault::Enabled()) GTEST_SKIP() << "fault injection compiled out";
  ScopedDumpDir dumps;
  const auto model = TrainedModel(200);
  fault::ArmStall("io.read.stall", 1, 10'000);
  const auto batch =
      model->DetectStream(Count(), CsvProvider(), data_->world->poi_index());
  fault::DisarmAll();
  ASSERT_TRUE(batch.ok()) << batch.status();
  ASSERT_EQ(batch->cause, CancelCause::kDeadline);

  const std::vector<std::string> fresh = dumps.NewDumps();
  ASSERT_EQ(fresh.size(), 1u)
      << "expected exactly one dump (sticky first cause reports once)";
  const std::string json = ReadWholeFile(fresh[0]);
  std::string report;
  std::string error;
  ASSERT_TRUE(obs::FormatDumpReport(json, &report, &error)) << error;
  EXPECT_NE(report.find("cause: deadline"), std::string::npos) << report;
  // The header carries the stage that first observed the expiry.
  EXPECT_NE(json.find("\"cause\":\"deadline\""), std::string::npos);
}

// Acceptance (ci.sh post-mortem stage runs this under LEAD_DUMP_DIR and
// validates the file with `lead_cli obs report`): a stage stalled past
// the watchdog threshold emits a dump with cause "watchdog" while the
// stall is still in progress — no cancellation or crash required.
TEST_F(ChaosDetectTest, StalledStageEmitsPostMortemDump) {
  if (!fault::Enabled()) GTEST_SKIP() << "fault injection compiled out";
  ScopedDumpDir dumps;
  SetWatchdogThresholdMillis(50);
  fault::ArmStall("io.read.stall", 1, 400);
  // No deadline: the watchdog is the only anomaly detector in play.
  const auto batch = model_->DetectStream(Count(), CsvProvider(),
                                          data_->world->poi_index());
  fault::DisarmAll();
  SetWatchdogThresholdMillis(0);
  ASSERT_TRUE(batch.ok()) << batch.status();

  // The scanner thread writes the dump mid-stall; give a slow host a
  // grace window before declaring it missing.
  std::vector<std::string> fresh = dumps.NewDumps();
  for (int waited_ms = 0; fresh.empty() && waited_ms < 2000;
       waited_ms += 50) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    fresh = dumps.NewDumps();
  }
  ASSERT_FALSE(fresh.empty()) << "watchdog overrun produced no dump";
  const std::string json = ReadWholeFile(fresh[0]);
  std::string report;
  std::string error;
  ASSERT_TRUE(obs::FormatDumpReport(json, &report, &error)) << error;
  EXPECT_NE(report.find("cause: watchdog"), std::string::npos) << report;
  // The detail names the stuck stage stack.
  EXPECT_NE(json.find("detect"), std::string::npos);
}

// The flight recorder observes the hot path by default; like the poll
// points and watchdog scopes, it must never perturb results. Same golden
// fixture, recorder forced on and forced off: bit-identical.
TEST(ChaosParityTest, DetectBitIdenticalWithRecorderOnAndOff) {
  const std::vector<std::string> expected = GoldenFileLines();
  ASSERT_FALSE(expected.empty()) << "no golden fixture";
  const bool was_recording = obs::Recorder::Global().enabled();
  obs::Recorder::Global().SetEnabled(true);
  const std::vector<std::string> with_recorder = GoldenConfigLines(4, 0);
  obs::Recorder::Global().SetEnabled(false);
  const std::vector<std::string> without_recorder = GoldenConfigLines(4, 0);
  obs::Recorder::Global().SetEnabled(was_recording);
  EXPECT_EQ(with_recorder, expected);
  EXPECT_EQ(without_recorder, expected);
}

}  // namespace
}  // namespace lead
