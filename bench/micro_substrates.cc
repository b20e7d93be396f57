// Microbenchmarks of the substrates (google-benchmark): noise filtering,
// stay-point extraction, candidate generation, POI index queries, GEMM,
// LSTM steps and the full processing pipeline. These quantify the design
// choices DESIGN.md calls out (grid index, i-k-j GEMM order, shared
// phase-1 encoding is covered by ablation_shared_encoding).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/autoencoder.h"
#include "core/pipeline.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "nn/batch.h"
#include "nn/lstm.h"
#include "nn/ops.h"
#include "nn/vec_math.h"
#include "sim/truck_sim.h"
#include "sim/world.h"
#include "traj/noise_filter.h"
#include "traj/segmentation.h"
#include "traj/stay_point.h"

namespace {

using namespace lead;

// Shared fixtures built once.
const sim::World& TestWorld() {
  static const sim::World* world = [] {
    sim::WorldOptions options;
    options.num_background_pois = 8000;
    options.seed = 11;
    return sim::World::Generate(options).release();
  }();
  return *world;
}

const traj::RawTrajectory& TestTrajectory() {
  static const traj::RawTrajectory* trajectory = [] {
    const sim::TruckSimulator simulator(&TestWorld(), sim::SimOptions(),
                                        traj::NoiseFilterOptions(),
                                        traj::StayPointOptions());
    Rng rng(21);
    auto day = simulator.SimulateDay("bench", "bench", 0, &rng);
    LEAD_CHECK(day.has_value());
    // Leaked on purpose (function-local singleton).
    return new traj::RawTrajectory(day->raw);  // lead-lint: allow(raw-new)
  }();
  return *trajectory;
}

void BM_NoiseFilter(benchmark::State& state) {
  const traj::RawTrajectory& raw = TestTrajectory();
  for (auto _ : state) {
    benchmark::DoNotOptimize(traj::FilterNoise(raw));
  }
  state.SetItemsProcessed(state.iterations() * raw.size());
}
BENCHMARK(BM_NoiseFilter);

void BM_StayPointExtraction(benchmark::State& state) {
  const traj::RawTrajectory cleaned =
      traj::FilterNoise(TestTrajectory()).cleaned;
  for (auto _ : state) {
    benchmark::DoNotOptimize(traj::ExtractStayPoints(cleaned));
  }
  state.SetItemsProcessed(state.iterations() * cleaned.size());
}
BENCHMARK(BM_StayPointExtraction);

void BM_CandidateGeneration(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(traj::GenerateCandidates(n));
  }
}
BENCHMARK(BM_CandidateGeneration)->Arg(5)->Arg(10)->Arg(14);

void BM_PoiIndexCount100m(benchmark::State& state) {
  const poi::PoiIndex& index = TestWorld().poi_index();
  Rng rng(31);
  const geo::BoundingBox& b = TestWorld().bounds();
  for (auto _ : state) {
    const geo::LatLng center{rng.Uniform(b.min.lat, b.max.lat),
                             rng.Uniform(b.min.lng, b.max.lng)};
    benchmark::DoNotOptimize(index.CountByCategory(center, 100.0));
  }
}
BENCHMARK(BM_PoiIndexCount100m);

void BM_PoiBruteForceCount100m(benchmark::State& state) {
  // The design-choice ablation: counting without the grid index.
  const auto& pois = TestWorld().poi_index().pois();
  Rng rng(31);
  const geo::BoundingBox& b = TestWorld().bounds();
  for (auto _ : state) {
    const geo::LatLng center{rng.Uniform(b.min.lat, b.max.lat),
                             rng.Uniform(b.min.lng, b.max.lng)};
    poi::CategoryCounts counts{};
    for (const poi::Poi& p : pois) {
      if (geo::DistanceMeters(center, p.pos) <= 100.0) {
        ++counts[static_cast<int>(p.category)];
      }
    }
    benchmark::DoNotOptimize(counts);
  }
}
BENCHMARK(BM_PoiBruteForceCount100m);

// Args are (m, k, n): square shapes, plus the small-M shapes of the
// detector's recurrent step ([B x 64] * [64 x 256] with buckets of B~3),
// where rows left over after the 4-row blocks share each load of b.
void BM_Gemm(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  const int n = static_cast<int>(state.range(2));
  Rng rng(41);
  const nn::Matrix a = nn::Matrix::Uniform(m, k, 1.0f, &rng);
  const nn::Matrix b = nn::Matrix::Uniform(k, n, 1.0f, &rng);
  nn::Matrix out(m, n);
  for (auto _ : state) {
    out.Fill(0.0f);
    nn::MatMulAccumulate(a, b, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * m * k * n);
}
BENCHMARK(BM_Gemm)
    ->Args({32, 32, 32})
    ->Args({64, 64, 64})
    ->Args({128, 128, 128})
    ->Args({1, 64, 256})
    ->Args({2, 64, 256})
    ->Args({3, 64, 256})
    ->Args({4, 64, 256});

void BM_GemmSparseAware(benchmark::State& state) {
  // Same dense operands through the sparse-aware kernel. The dense
  // MatMulAccumulate used to carry an `if (a_ip == 0.0f) continue;` guard
  // in its inner loop; on dense activations the branch never skips work
  // but still costs a compare per multiply and blocks vectorization, so
  // the guard now lives only in MatMulAccumulateSparseA (profitable for
  // mostly-zero `a`, e.g. one-hot rows). Compare against BM_Gemm at the
  // same size to see the dense-path win.
  const int n = static_cast<int>(state.range(0));
  Rng rng(41);
  const nn::Matrix a = nn::Matrix::Uniform(n, n, 1.0f, &rng);
  const nn::Matrix b = nn::Matrix::Uniform(n, n, 1.0f, &rng);
  nn::Matrix out(n, n);
  for (auto _ : state) {
    out.Fill(0.0f);
    nn::MatMulAccumulateSparseA(a, b, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_GemmSparseAware)->Arg(32)->Arg(64)->Arg(128);

void BM_LstmForwardSequence(benchmark::State& state) {
  const int steps = static_cast<int>(state.range(0));
  Rng rng(51);
  nn::LstmCell lstm(32, 32, &rng);
  const nn::Variable x =
      nn::Variable::Constant(nn::Matrix::Uniform(steps, 32, 1.0f, &rng));
  nn::NoGradGuard no_grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lstm.ForwardSequence(x).value().data());
  }
  state.SetItemsProcessed(state.iterations() * steps);
}
BENCHMARK(BM_LstmForwardSequence)->Arg(16)->Arg(64)->Arg(256);

// The batch-major refactor's headline comparison: running B sequences one
// at a time (the retired row-vector path) versus one time-major batched
// forward over the same B sequences. Arg is B; sequences are 32 steps of
// 32 features through a 32-unit cell. The batched path issues one
// [B x d] GEMM per gate per step instead of B [1 x d] GEMVs and builds
// ~B x fewer autograd nodes.
void BM_LstmSequenceRowLoop(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  constexpr int kSteps = 32;
  Rng rng(51);
  nn::LstmCell lstm(32, 32, &rng);
  std::vector<nn::Variable> sequences;
  sequences.reserve(batch);
  for (int i = 0; i < batch; ++i) {
    sequences.push_back(
        nn::Variable::Constant(nn::Matrix::Uniform(kSteps, 32, 1.0f, &rng)));
  }
  nn::NoGradGuard no_grad;
  for (auto _ : state) {
    for (const nn::Variable& x : sequences) {
      benchmark::DoNotOptimize(lstm.ForwardSequence(x).value().data());
    }
  }
  state.SetItemsProcessed(state.iterations() * batch * kSteps);
}
BENCHMARK(BM_LstmSequenceRowLoop)->Arg(1)->Arg(16)->Arg(64);

void BM_LstmSequenceBatched(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  constexpr int kSteps = 32;
  Rng rng(51);
  nn::LstmCell lstm(32, 32, &rng);
  std::vector<nn::Matrix> backing;
  backing.reserve(batch);
  for (int i = 0; i < batch; ++i) {
    backing.push_back(nn::Matrix::Uniform(kSteps, 32, 1.0f, &rng));
  }
  std::vector<nn::SeqView> views;
  views.reserve(batch);
  for (const nn::Matrix& m : backing) {
    views.push_back({nn::SeqSpan{&m, 0, m.rows()}});
  }
  nn::NoGradGuard no_grad;
  for (auto _ : state) {
    const nn::StepBatch input = nn::PackViews(views);
    benchmark::DoNotOptimize(
        lstm.ForwardSequenceSteps(input).back().value().data());
  }
  state.SetItemsProcessed(state.iterations() * batch * kSteps);
}
BENCHMARK(BM_LstmSequenceBatched)->Arg(1)->Arg(16)->Arg(64);

// The fused no-grad recurrence alone (nn/infer_kernels.h) at the
// detector's shape: a 64 -> 64 cell over B stacked sequences of T steps
// (buckets are B ~ 3 over T <= 12 at 13 stays). Args are (B, T).
void BM_LstmSequenceInfer(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  const int steps = static_cast<int>(state.range(1));
  Rng rng(53);
  nn::LstmCell lstm(64, 64, &rng);
  const nn::Matrix x = nn::Matrix::Uniform(steps * batch, 64, 1.0f, &rng);
  nn::Matrix out(steps * batch, 64);
  const nn::StackedLayout layout{steps, batch};
  nn::NoGradGuard no_grad;
  for (auto _ : state) {
    lstm.InferStacked(layout, x.data(), /*reversed=*/false, out.data(), 64);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * batch * steps);
}
BENCHMARK(BM_LstmSequenceInfer)
    ->Args({1, 3})
    ->Args({1, 12})
    ->Args({3, 3})
    ->Args({3, 12})
    ->Args({12, 3})
    ->Args({12, 12});

// Phase-2 encode of every candidate of an n-stay trajectory (Arg n) with
// one-point segments, so phase 1 is negligible and the time is the
// prefix-shared phase-2 compressors: one stay and one move sequence per
// start stay instead of one per candidate.
void BM_Phase2Encode(benchmark::State& state) {
  const int stays = static_cast<int>(state.range(0));
  Rng rng(57);
  core::ProcessedTrajectory pt;
  int index = 0;
  pt.segmentation.moves.push_back(traj::MoveSegment{});
  for (int s = 0; s < stays; ++s) {
    if (s > 0) {
      traj::MoveSegment move;
      move.has_points = true;
      move.range = {index, index};
      pt.segmentation.moves.push_back(move);
      ++index;
    }
    traj::StayPoint stay;
    stay.range = {index, index};
    pt.segmentation.stays.push_back(stay);
    ++index;
  }
  pt.segmentation.moves.push_back(traj::MoveSegment{});
  pt.candidates = traj::GenerateCandidates(stays);
  pt.features = nn::Matrix::Uniform(index, core::kFeatureDims, 1.0f, &rng);
  const core::HierarchicalAutoencoder ae(core::AutoencoderOptions{}, &rng);
  std::vector<core::CandidateBatchItem> items;
  for (const traj::Candidate& c : pt.candidates) items.push_back({&pt, c});
  nn::NoGradGuard no_grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ae.EncodeCandidateBatch(items).value().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(items.size()));
}
BENCHMARK(BM_Phase2Encode)->Arg(13);

// The gate nonlinearities (nn/vec_math.h) over n inputs in the gate range
// (Arg 1): the dispatched vector kernel (Arg 0 = 1, labelled with its ISA)
// against the std:: loop it reproduces bit for bit (Arg 0 = 0).
void VecMathBench(benchmark::State& state, bool tanh) {
  const bool vector = state.range(0) != 0;
  const int n = static_cast<int>(state.range(1));
  Rng rng(59);
  const nn::Matrix in = nn::Matrix::Uniform(1, n, 4.0f, &rng);
  const nn::internal::VecMathKernels kernels =
      vector ? nn::internal::DispatchedVecMath()
             : nn::internal::ScalarVecMath();
  const nn::internal::VecMathFn fn = tanh ? kernels.tanh : kernels.sigmoid;
  std::vector<float> buf(static_cast<size_t>(n));
  for (auto _ : state) {
    std::copy(in.data(), in.data() + n, buf.data());
    fn(buf.data(), n);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel(vector ? kernels.isa : "std");
}

void BM_VecTanh(benchmark::State& state) { VecMathBench(state, true); }
BENCHMARK(BM_VecTanh)->ArgsProduct({{0, 1}, {64, 4096}});

void BM_VecSigmoid(benchmark::State& state) { VecMathBench(state, false); }
BENCHMARK(BM_VecSigmoid)->ArgsProduct({{0, 1}, {64, 4096}});

void BM_LstmTrainStep(benchmark::State& state) {
  // Forward + backward through a 64-step sequence (training-path cost).
  Rng rng(61);
  nn::LstmCell lstm(32, 32, &rng);
  const nn::Variable x =
      nn::Variable::Constant(nn::Matrix::Uniform(64, 32, 1.0f, &rng));
  const nn::Variable target =
      nn::Variable::Constant(nn::Matrix::Uniform(64, 32, 1.0f, &rng));
  for (auto _ : state) {
    const nn::Variable loss = nn::MseLoss(lstm.ForwardSequence(x), target);
    nn::Backward(loss);
    lstm.ZeroGrad();
    benchmark::DoNotOptimize(loss.value().data());
  }
}
BENCHMARK(BM_LstmTrainStep);

// Training-path version of the row-loop vs batched comparison: forward +
// backward over B 32-step sequences, accumulating gradients either one
// sequence at a time or through a single batched graph.
void BM_LstmTrainRowLoop(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  constexpr int kSteps = 32;
  Rng rng(61);
  nn::LstmCell lstm(32, 32, &rng);
  std::vector<nn::Variable> sequences;
  std::vector<nn::Variable> targets;
  for (int i = 0; i < batch; ++i) {
    sequences.push_back(
        nn::Variable::Constant(nn::Matrix::Uniform(kSteps, 32, 1.0f, &rng)));
    targets.push_back(
        nn::Variable::Constant(nn::Matrix::Uniform(kSteps, 32, 1.0f, &rng)));
  }
  for (auto _ : state) {
    for (int i = 0; i < batch; ++i) {
      const nn::Variable loss =
          nn::MseLoss(lstm.ForwardSequence(sequences[i]), targets[i]);
      nn::Backward(loss);
      benchmark::DoNotOptimize(loss.value().data());
    }
    lstm.ZeroGrad();
  }
  state.SetItemsProcessed(state.iterations() * batch * kSteps);
}
BENCHMARK(BM_LstmTrainRowLoop)->Arg(16)->Arg(64);

void BM_LstmTrainBatched(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  constexpr int kSteps = 32;
  Rng rng(61);
  nn::LstmCell lstm(32, 32, &rng);
  std::vector<nn::Matrix> backing;
  for (int i = 0; i < batch; ++i) {
    backing.push_back(nn::Matrix::Uniform(kSteps, 32, 1.0f, &rng));
  }
  std::vector<nn::SeqView> views;
  for (const nn::Matrix& m : backing) {
    views.push_back({nn::SeqSpan{&m, 0, m.rows()}});
  }
  const nn::Variable target =
      nn::Variable::Constant(nn::Matrix::Uniform(batch, 32, 1.0f, &rng));
  for (auto _ : state) {
    const nn::StepBatch input = nn::PackViews(views);
    const std::vector<nn::Variable> hidden =
        lstm.ForwardSequenceSteps(input);
    nn::Variable loss;
    for (const nn::Variable& h : hidden) {
      const nn::Variable step = nn::MseLoss(h, target);
      loss = loss.defined() ? nn::Add(loss, step) : step;
    }
    nn::Backward(loss);
    lstm.ZeroGrad();
    benchmark::DoNotOptimize(loss.value().data());
  }
  state.SetItemsProcessed(state.iterations() * batch * kSteps);
}
BENCHMARK(BM_LstmTrainBatched)->Arg(16)->Arg(64);

// Thread sweep for the per-trajectory parallel Preprocess path: the full
// pipeline (noise filter -> stay points -> segmentation -> features with
// POI radius counts) over a fixed batch of trajectories, fanned out on
// the shared pool with Arg = lanes; Arg(1) is the serial baseline. The
// serial per-item time is cached from the Arg(1) run so later args can
// report speedup, and each run appends a JSON-lines record to
// BENCH_parallel.json alongside the fig8 Detect sweep.
void BM_ParallelPreprocess(benchmark::State& state) {
  const int lanes = static_cast<int>(state.range(0));
  static const std::vector<traj::RawTrajectory>* batch = [] {
    // Leaked on purpose (function-local singleton).
    auto* trajectories =
        new std::vector<traj::RawTrajectory>();  // lead-lint: allow(raw-new)
    const sim::TruckSimulator simulator(&TestWorld(), sim::SimOptions(),
                                        traj::NoiseFilterOptions(),
                                        traj::StayPointOptions());
    Rng rng(71);
    for (int i = 0; i < 16; ++i) {
      auto day = simulator.SimulateDay("bench", "bench", i, &rng);
      if (day.has_value()) trajectories->push_back(day->raw);
    }
    return trajectories;
  }();
  static double serial_per_item = 0.0;
  const core::PipelineOptions options;
  double elapsed = 0.0;
  int64_t items = 0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    ThreadPool::Global().ParallelFor(
        static_cast<int64_t>(batch->size()), lanes, [&](int64_t i) {
          auto pt = core::ProcessTrajectory(
              (*batch)[i], TestWorld().poi_index(), options, nullptr);
          benchmark::DoNotOptimize(pt);
        });
    elapsed +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    items += static_cast<int64_t>(batch->size());
  }
  const double per_item = items > 0 ? elapsed / static_cast<double>(items)
                                    : 0.0;
  if (lanes == 1) serial_per_item = per_item;
  const double speedup =
      per_item > 0.0 && serial_per_item > 0.0 ? serial_per_item / per_item
                                              : 0.0;
  state.counters["speedup_vs_serial"] = speedup;
  char record[256];
  std::snprintf(record, sizeof(record),
                "{\"bench\": \"micro_preprocess\", "
                "\"strategy\": \"deterministic\", \"threads\": %d, "
                "\"seconds_per_trajectory\": %.6f, "
                "\"speedup_vs_serial\": %.3f}",
                lanes, per_item, speedup);
  std::ofstream("BENCH_parallel.json", std::ios::app) << record << "\n";
  state.SetItemsProcessed(items);
}
BENCHMARK(BM_ParallelPreprocess)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// Disabled-path cost of the span macro — the acceptance bar for leaving
// LEAD_TRACE_SCOPE in hot library code. With no sink attached this must
// be a relaxed atomic load plus a branch: low single-digit ns, no
// allocation, no lock, no clock read.
void BM_TraceOverhead(benchmark::State& state) {
  LEAD_CHECK(!obs::Tracer::Global().enabled());
  // The flight recorder is on by default; park it so this measures the
  // everything-off fast path the acceptance bar is written against.
  const bool was_recording = obs::Recorder::Global().enabled();
  obs::Recorder::Global().SetEnabled(false);
  for (auto _ : state) {
    LEAD_TRACE_SCOPE(obs::kCatPool, "bm_span");
  }
  obs::Recorder::Global().SetEnabled(was_recording);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceOverhead);

// Flight-recorder-only cost (tracing off, recorder on): two clock reads
// plus sixteen relaxed word stores into the per-thread ring. This is the
// always-on price every span pays in production; the bar is staying
// within 2x of BM_TraceOverheadEnabled's per-span cost.
void BM_RecorderSpan(benchmark::State& state) {
  LEAD_CHECK(!obs::Tracer::Global().enabled());
  const bool was_recording = obs::Recorder::Global().enabled();
  obs::Recorder::Global().SetEnabled(true);
  for (auto _ : state) {
    LEAD_TRACE_SCOPE(obs::kCatPool, "bm_span");
  }
  obs::Recorder::Global().SetEnabled(was_recording);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecorderSpan);

// Enabled-path cost: two clock reads plus one buffer append per span.
// The per-thread buffer fills after kEventsPerThread iterations, so long
// runs measure a mix of append and counted-drop; both are the "tracing
// on" steady-state costs.
void BM_TraceOverheadEnabled(benchmark::State& state) {
  const bool was_recording = obs::Recorder::Global().enabled();
  obs::Recorder::Global().SetEnabled(false);
  obs::Tracer::Global().Start();
  for (auto _ : state) {
    LEAD_TRACE_SCOPE(obs::kCatPool, "bm_span");
  }
  obs::Tracer::Global().Stop();
  obs::Recorder::Global().SetEnabled(was_recording);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceOverheadEnabled);

void BM_FullProcessingPipeline(benchmark::State& state) {
  const traj::RawTrajectory& raw = TestTrajectory();
  const core::PipelineOptions options;
  for (auto _ : state) {
    auto pt = core::ProcessTrajectory(raw, TestWorld().poi_index(), options,
                                      nullptr);
    benchmark::DoNotOptimize(pt);
  }
}
BENCHMARK(BM_FullProcessingPipeline);

}  // namespace

BENCHMARK_MAIN();
