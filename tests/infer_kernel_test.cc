// Bit-exactness of the fused no-grad inference kernels (nn/infer_kernels.h)
// against the op-by-op path they replace. With gradients enabled every
// public forward runs op by op through the registered kernels (the
// training tape, and what a PlanRecorder compiles); under NoGradGuard the
// same calls take the fused kernels. Every comparison is memcmp, so a
// single flipped bit fails. Inputs are scaled to |x| ~ 20 so the gates
// saturate and the masked / padded paths see extreme values.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/autoencoder.h"
#include "core/detector.h"
#include "nn/batch.h"
#include "nn/infer_kernels.h"
#include "nn/lstm.h"
#include "nn/matrix.h"
#include "nn/simd_gemm.h"
#include "nn/variable.h"
#include "traj/segmentation.h"

namespace lead {
namespace {

constexpr float kInputScale = 20.0f;

::testing::AssertionResult SameBits(const nn::Matrix& expected,
                                    const nn::Matrix& actual) {
  if (!expected.SameShape(actual)) {
    return ::testing::AssertionFailure()
           << "shape [" << expected.rows() << " x " << expected.cols()
           << "] vs [" << actual.rows() << " x " << actual.cols() << "]";
  }
  const size_t bytes = static_cast<size_t>(expected.size()) * sizeof(float);
  if (std::memcmp(expected.data(), actual.data(), bytes) != 0) {
    for (int i = 0; i < expected.size(); ++i) {
      if (std::memcmp(expected.data() + i, actual.data() + i,
                      sizeof(float)) != 0) {
        return ::testing::AssertionFailure()
               << "first differing element " << i << ": "
               << expected.data()[i] << " vs " << actual.data()[i];
      }
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult SameBits(const std::vector<nn::Variable>& expected,
                                    const std::vector<nn::Variable>& actual) {
  if (expected.size() != actual.size()) {
    return ::testing::AssertionFailure()
           << expected.size() << " vs " << actual.size() << " steps";
  }
  for (size_t t = 0; t < expected.size(); ++t) {
    ::testing::AssertionResult same =
        SameBits(expected[t].value(), actual[t].value());
    if (!same) return same << " (step " << t << ")";
  }
  return ::testing::AssertionSuccess();
}

// Freshly initialized modules have zero biases (forget gate: one), which
// would hide any reassociation of the bias add; jitter every parameter.
void Jitter(const nn::Module& module, Rng* rng) {
  for (nn::Variable p : module.Parameters()) {
    float* w = p.mutable_value().data();
    for (int i = 0; i < p.value().size(); ++i) {
      w[i] += static_cast<float>(rng->Uniform(-0.5, 0.5));
    }
  }
}

// Runs `fn` op by op (gradients on) and fused (NoGradGuard); returns both.
template <typename Fn>
auto OpAndFused(const Fn& fn) {
  EXPECT_FALSE(nn::internal::FusedInferenceActive());
  auto op_path = fn();
  nn::NoGradGuard no_grad;
  EXPECT_TRUE(nn::internal::FusedInferenceActive());
  auto fused = fn();
  return std::make_pair(std::move(op_path), std::move(fused));
}

// B sequences of `cols` features; ragged batches get lengths 1..T with
// at least one full-length member.
struct SequenceSet {
  std::vector<nn::Matrix> backing;
  std::vector<nn::SeqView> views;
};

SequenceSet MakeSequences(int batch, int steps, int cols, bool ragged,
                          float scale, Rng* rng) {
  SequenceSet set;
  set.backing.reserve(batch);
  for (int b = 0; b < batch; ++b) {
    const int len = ragged && b > 0 ? 1 + (b * 5 + 3) % steps : steps;
    set.backing.push_back(nn::Matrix::Uniform(len, cols, scale, rng));
  }
  for (const nn::Matrix& m : set.backing) {
    set.views.push_back({nn::SeqSpan{&m, 0, m.rows()}});
  }
  return set;
}

struct LstmShape {
  int input;
  int hidden;
};

// Moderate inputs exercise every rounding of the gate arithmetic;
// saturating ones (|x| ~ 20) the clamped gates and extreme cell states.
constexpr float kScales[] = {1.0f, kInputScale};

void ExpectLstmForwardsMatch(const nn::LstmCell& cell, int batch, int steps,
                             bool ragged, float scale, Rng* rng) {
  SCOPED_TRACE(::testing::Message()
               << "H=" << cell.hidden_size() << " B=" << batch << " T="
               << steps << " ragged=" << ragged << " scale=" << scale);
  const SequenceSet seqs =
      MakeSequences(batch, steps, cell.input_size(), ragged, scale, rng);
  const nn::StepBatch input = nn::PackViews(seqs.views);
  ASSERT_EQ(input.ragged(), ragged);
  const auto fwd = OpAndFused([&] { return cell.ForwardSequenceSteps(input); });
  EXPECT_TRUE(SameBits(fwd.first, fwd.second));
  const auto bwd =
      OpAndFused([&] { return cell.ForwardSequenceStepsReversed(input); });
  EXPECT_TRUE(SameBits(bwd.first, bwd.second));
  const nn::Variable v = nn::Variable::Constant(
      nn::Matrix::Uniform(batch, cell.input_size(), scale, rng));
  const auto unroll =
      OpAndFused([&] { return cell.ForwardConstantInputSteps(v, steps); });
  EXPECT_TRUE(SameBits(unroll.first, unroll.second));
  // The single-sequence reference forwards.
  const nn::Variable x = nn::Variable::Constant(
      nn::Matrix::Uniform(steps, cell.input_size(), scale, rng));
  const auto seq = OpAndFused([&] { return cell.ForwardSequence(x); });
  EXPECT_TRUE(SameBits(seq.first.value(), seq.second.value()));
  const nn::Variable v1 = nn::Variable::Constant(
      nn::Matrix::Uniform(1, cell.input_size(), scale, rng));
  const auto unroll1 =
      OpAndFused([&] { return cell.ForwardConstantInput(v1, steps); });
  EXPECT_TRUE(SameBits(unroll1.first.value(), unroll1.second.value()));
}

TEST(InferKernelTest, LstmSequenceForwardsMatchOpPath) {
  for (const LstmShape shape : {LstmShape{5, 7}, LstmShape{32, 32}}) {
    Rng rng(101);
    const nn::LstmCell cell(shape.input, shape.hidden, &rng);
    Jitter(cell, &rng);
    for (const int batch : {1, 2, 3, 4, 5, 9}) {
      for (const int steps : {1, 2, 7, 13}) {
        for (const bool ragged : {false, true}) {
          if (ragged && (batch == 1 || steps == 1)) continue;
          for (const float scale : kScales) {
            ExpectLstmForwardsMatch(cell, batch, steps, ragged, scale, &rng);
          }
        }
      }
    }
  }
}

void ExpectDetectorScoresMatch(const core::DetectorOptions& options,
                               const std::vector<int>& lengths, float scale) {
  SCOPED_TRACE(::testing::Message() << "B=" << lengths.size() << " T="
                                    << lengths.front() << " scale=" << scale);
  Rng rng(202);
  const core::StackedBiLstmDetector detector(options, &rng);
  Jitter(detector, &rng);
  std::vector<nn::Matrix> backing;
  backing.reserve(lengths.size());
  for (const int len : lengths) {
    backing.push_back(nn::Matrix::Uniform(len, options.input_dims, scale, &rng));
  }
  std::vector<nn::SeqView> views;
  for (const nn::Matrix& m : backing) {
    views.push_back({nn::SeqSpan{&m, 0, m.rows()}});
  }
  const nn::StepBatch input = nn::PackViews(views);
  const auto scores =
      OpAndFused([&] { return detector.ScoreSubgroupsBatch(input); });
  EXPECT_TRUE(SameBits(scores.first.value(), scores.second.value()));
}

TEST(InferKernelTest, DetectorScoresMatchOpPath) {
  core::DetectorOptions small;
  small.input_dims = 6;
  small.hidden = 5;
  small.num_layers = 2;
  for (const float scale : kScales) {
    ExpectDetectorScoresMatch(small, {4}, scale);
    ExpectDetectorScoresMatch(small, {3, 3, 3}, scale);
    ExpectDetectorScoresMatch(small, {7, 6, 5, 1}, scale);
    ExpectDetectorScoresMatch(core::DetectorOptions{}, {12, 11, 10}, scale);
    ExpectDetectorScoresMatch(core::DetectorOptions{}, {3, 2, 1}, scale);
    ExpectDetectorScoresMatch(core::DetectorOptions{}, {9, 9, 8, 7, 9}, scale);
  }
}

// Padded steps of a ragged batch skip the fresh state only where the
// masked update provably returns the old one (infer_kernels.cc,
// FrozenStateHolds). A -0 state is the exception: the op path's
// (c' * 0) + (-0) takes the sign of c'. Hand-set weights drive row 0 to
// c = h = -0 at its last real step; its next (padded) step has c' > 0,
// so the op path yields +0 there.
TEST(InferKernelTest, PaddedStepOfMinusZeroStateTakesTheExactPath) {
  Rng rng(111);
  const nn::LstmCell cell(/*input_size=*/2, /*hidden_size=*/1, &rng);
  const std::vector<nn::Variable> params = cell.Parameters();
  ASSERT_EQ(params.size(), 3u);  // w_ih [2 x 4], w_hh [1 x 4], bias [1 x 4]
  nn::Variable w_ih = params[0];
  nn::Variable w_hh = params[1];
  nn::Variable bias = params[2];
  // Gate columns: i, f, g, o. x0 = 1 slams i and f shut; x1 = 1 pushes g
  // negative; with no input, g = tanh(1) > 0.
  w_ih.mutable_value() =
      nn::Matrix(2, 4, {-300.0f, -300.0f, 0.0f, 0.0f,  //
                        0.0f, 0.0f, -2.0f, 0.0f});
  w_hh.mutable_value() = nn::Matrix(1, 4);
  bias.mutable_value() = nn::Matrix(1, 4, {0.0f, 0.0f, 1.0f, 0.0f});
  // Row 0: c < 0 after step 0, then i = f = 0 gives c = h = -0 at step 1;
  // step 2 is padding. Row 1 is the full-length member.
  const nn::Matrix row0(2, 2, {0.0f, 1.0f, 1.0f, 1.0f});
  const nn::Matrix row1(3, 2, {0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f});
  const std::vector<nn::SeqView> views = {{nn::SeqSpan{&row0, 0, 2}},
                                          {nn::SeqSpan{&row1, 0, 3}}};
  const nn::StepBatch input = nn::PackViews(views);
  const auto fwd = OpAndFused([&] { return cell.ForwardSequenceSteps(input); });
  ASSERT_TRUE(SameBits(fwd.first, fwd.second));
  EXPECT_TRUE(std::signbit(fwd.first[1].value().at(0, 0)));   // h = -0
  EXPECT_FALSE(std::signbit(fwd.first[2].value().at(0, 0)));  // then +0
}

#ifndef LEAD_CHECK_SHAPES
// Every finite value matches bit for bit and every NaN stays a NaN. NaN
// payload and sign bits are outside the parity contract: x86 returns the
// first operand's NaN, and the compiler may commute a + b.
::testing::AssertionResult SameBitsOrBothNaN(
    const std::vector<nn::Variable>& expected,
    const std::vector<nn::Variable>& actual) {
  for (size_t t = 0; t < expected.size(); ++t) {
    const nn::Matrix& e = expected[t].value();
    const nn::Matrix& a = actual[t].value();
    for (int i = 0; i < e.size(); ++i) {
      const float ev = e.data()[i];
      const float av = a.data()[i];
      if (std::isnan(ev) && std::isnan(av)) continue;
      if (std::memcmp(&ev, &av, sizeof(float)) != 0) {
        return ::testing::AssertionFailure()
               << "step " << t << " element " << i << ": " << ev << " vs "
               << av;
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// Non-finite weights and inputs take the full path (no frozen-row skip).
// LEAD_CHECK_SHAPES builds abort on the first NaN instead; see the death
// test below.
TEST(InferKernelTest, NonFiniteValuesMatchOpPath) {
  Rng rng(222);
  const nn::LstmCell cell(4, 6, &rng);
  Jitter(cell, &rng);
  nn::Variable w_hh = cell.Parameters()[1];
  w_hh.mutable_value().at(2, 5) = std::numeric_limits<float>::infinity();
  SequenceSet seqs = MakeSequences(3, 5, 4, /*ragged=*/true, 1.0f, &rng);
  seqs.backing[1].at(0, 2) = std::numeric_limits<float>::quiet_NaN();
  seqs.backing[2].at(0, 0) = -std::numeric_limits<float>::infinity();
  const nn::StepBatch input = nn::PackViews(seqs.views);
  const auto fwd = OpAndFused([&] { return cell.ForwardSequenceSteps(input); });
  EXPECT_TRUE(SameBitsOrBothNaN(fwd.first, fwd.second));
  const auto bwd =
      OpAndFused([&] { return cell.ForwardSequenceStepsReversed(input); });
  EXPECT_TRUE(SameBitsOrBothNaN(bwd.first, bwd.second));
}
#endif  // LEAD_CHECK_SHAPES

// A processed trajectory built directly from a segmentation: stays of
// 1..6 points, move slots of 0..5 points (0 = empty move slot), random
// features.
core::ProcessedTrajectory SyntheticTrajectory(int num_stays, Rng* rng) {
  core::ProcessedTrajectory pt;
  int index = 0;
  auto take = [&index](int count) {
    const traj::IndexRange range{index, index + count - 1};
    index += count;
    return range;
  };
  pt.segmentation.moves.push_back(traj::MoveSegment{});  // before stay 0
  for (int s = 0; s < num_stays; ++s) {
    if (s > 0) {
      traj::MoveSegment move;
      const int len = rng->UniformInt(0, 5);
      if (len > 0) {
        move.has_points = true;
        move.range = take(len);
      }
      pt.segmentation.moves.push_back(move);
    }
    traj::StayPoint stay;
    stay.range = take(rng->UniformInt(1, 6));
    pt.segmentation.stays.push_back(stay);
  }
  pt.segmentation.moves.push_back(traj::MoveSegment{});  // after the last
  pt.candidates = traj::GenerateCandidates(num_stays);
  pt.features = nn::Matrix::Uniform(index, core::kFeatureDims, 3.0f, rng);
  return pt;
}

core::AutoencoderOptions AeOptions(int hidden, bool attention,
                                   bool hierarchical) {
  core::AutoencoderOptions options;
  options.hidden = hidden;
  options.use_attention = attention;
  options.hierarchical = hierarchical;
  return options;
}

TEST(InferKernelTest, PhaseTwoEncodeMatchesOpPathForEveryStayCount) {
  for (const bool attention : {true, false}) {
    Rng rng(303);
    const core::HierarchicalAutoencoder ae(AeOptions(8, attention, true),
                                           &rng);
    Jitter(ae, &rng);
    for (int stays = 2; stays <= 14; ++stays) {
      SCOPED_TRACE(::testing::Message()
                   << "stays=" << stays << " attention=" << attention);
      const core::ProcessedTrajectory pt = SyntheticTrajectory(stays, &rng);
      std::vector<core::CandidateBatchItem> items;
      for (const traj::Candidate& c : pt.candidates) items.push_back({&pt, c});
      const auto cvecs =
          OpAndFused([&] { return ae.EncodeCandidateBatch(items); });
      EXPECT_TRUE(SameBits(cvecs.first.value(), cvecs.second.value()));
    }
  }
}

TEST(InferKernelTest, MultiTrajectoryItemListsMatchOpPath) {
  Rng rng(404);
  const core::HierarchicalAutoencoder ae(AeOptions(32, true, true), &rng);
  Jitter(ae, &rng);
  std::vector<core::ProcessedTrajectory> pts;
  for (const int stays : {13, 5, 2, 9}) {
    pts.push_back(SyntheticTrajectory(stays, &rng));
  }
  // A shuffled, partial, interleaved list with repeats: prefix groups
  // then mix trajectories and skip some lengths of a start.
  std::vector<core::CandidateBatchItem> items;
  for (const core::ProcessedTrajectory& pt : pts) {
    for (const traj::Candidate& c : pt.candidates) {
      if (rng.Bernoulli(0.7)) items.push_back({&pt, c});
    }
  }
  items.push_back(items.front());
  rng.Shuffle(&items);
  const auto cvecs = OpAndFused([&] { return ae.EncodeCandidateBatch(items); });
  EXPECT_TRUE(SameBits(cvecs.first.value(), cvecs.second.value()));

  // The flat (NoHie) variant runs the fused compression operator alone.
  const core::HierarchicalAutoencoder flat(AeOptions(8, true, false), &rng);
  Jitter(flat, &rng);
  const auto flat_cvecs =
      OpAndFused([&] { return flat.EncodeCandidateBatch(items); });
  EXPECT_TRUE(SameBits(flat_cvecs.first.value(), flat_cvecs.second.value()));
}

TEST(InferKernelTest, ValidationLossMatchesOpPath) {
  Rng rng(505);
  const core::HierarchicalAutoencoder ae(AeOptions(8, true, true), &rng);
  Jitter(ae, &rng);
  const core::ProcessedTrajectory pt = SyntheticTrajectory(6, &rng);
  std::vector<core::CandidateBatchItem> items;
  for (const traj::Candidate& c : pt.candidates) items.push_back({&pt, c});
  const auto loss =
      OpAndFused([&] { return ae.ReconstructionLossBatch(items); });
  EXPECT_TRUE(SameBits(loss.first.value(), loss.second.value()));
}

// Reference GEMM: every cell starts at its initial value and adds each
// rounded product in k order (this file is compiled with
// -ffp-contract=off, so the product is never fused into the add).
nn::Matrix ReferenceGemm(const nn::Matrix& a, const nn::Matrix& b,
                         const nn::Matrix& init) {
  nn::Matrix out = init;
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < b.cols(); ++j) {
      float c = out.at(i, j);
      for (int p = 0; p < a.cols(); ++p) c += a.at(i, p) * b.at(p, j);
      out.at(i, j) = c;
    }
  }
  return out;
}

using GemmFn = void (*)(const float*, const float*, float*, int, int, int);

struct GemmPath {
  const char* name;
  bool available;
  GemmFn accumulate;
  GemmFn overwrite;
};

TEST(InferKernelTest, GemmSmallMBlocksMatchScalarOnEveryIsa) {
  const std::vector<GemmPath> paths = {
      {"dispatched", true, nn::GemmAccumulateRaw, nn::GemmOverwriteRaw},
      {"avx2", nn::internal::GemmAvx2Available(),
       nn::internal::GemmAccumulateRawAvx2,
       nn::internal::GemmOverwriteRawAvx2},
      {"avx512", nn::internal::GemmAvx512Available(),
       nn::internal::GemmAccumulateRawAvx512,
       nn::internal::GemmOverwriteRawAvx512},
  };
  Rng rng(606);
  for (int m = 1; m <= 9; ++m) {
    for (const int n : {1, 15, 16, 31, 32, 33, 256}) {
      for (const int k : {1, 64, 128}) {
        const nn::Matrix a = nn::Matrix::Uniform(m, k, kInputScale, &rng);
        const nn::Matrix b = nn::Matrix::Uniform(k, n, 1.0f, &rng);
        const nn::Matrix init = nn::Matrix::Uniform(m, n, 1.0f, &rng);
        const nn::Matrix acc_ref = ReferenceGemm(a, b, init);
        const nn::Matrix over_ref = ReferenceGemm(a, b, nn::Matrix(m, n));
        for (const GemmPath& path : paths) {
          if (!path.available) continue;
          SCOPED_TRACE(::testing::Message() << path.name << " m=" << m
                                            << " k=" << k << " n=" << n);
          nn::Matrix acc = init;
          path.accumulate(a.data(), b.data(), acc.data(), m, k, n);
          EXPECT_TRUE(SameBits(acc_ref, acc));
          nn::Matrix over = nn::Matrix::Full(m, n, 7.0f);
          path.overwrite(a.data(), b.data(), over.data(), m, k, n);
          EXPECT_TRUE(SameBits(over_ref, over));
        }
      }
    }
  }
}

TEST(InferKernelTest, SteadyStateFusedForwardAllocatesOnlyItsResult) {
  Rng rng(707);
  const nn::LstmCell cell(16, 16, &rng);
  const nn::Variable x =
      nn::Variable::Constant(nn::Matrix::Uniform(9, 16, kInputScale, &rng));
  nn::NoGradGuard no_grad;
  (void)cell.ForwardSequence(x);  // warms the thread-local scratch
  const int64_t before = nn::TensorAllocsThisThread();
  const nn::Variable out = cell.ForwardSequence(x);
  EXPECT_EQ(nn::TensorAllocsThisThread() - before, 1);
  EXPECT_EQ(out.rows(), 9);
}

#ifdef LEAD_CHECK_SHAPES

TEST(InferKernelDeathTest, FusedRecurrenceNamesFirstNonFiniteState) {
  Rng rng(808);
  const nn::LstmCell cell(4, 3, &rng);
  nn::Matrix poisoned = nn::Matrix::Uniform(5, 4, 1.0f, &rng);
  poisoned.at(2, 1) = std::numeric_limits<float>::quiet_NaN();
  const nn::Variable x = nn::Variable::Constant(std::move(poisoned));
  nn::NoGradGuard no_grad;
  EXPECT_DEATH((void)cell.ForwardSequence(x),
               "op LstmCell::InferStacked: first non-finite hidden state h");
}

TEST(InferKernelDeathTest, FusedPathKeepsShapeContracts) {
  Rng rng(909);
  const nn::LstmCell cell(4, 3, &rng);
  const nn::Variable x = nn::Variable::Constant(nn::Matrix::Zeros(5, 2));
  nn::NoGradGuard no_grad;
  EXPECT_DEATH((void)cell.ForwardSequence(x),
               "op LstmCell::ForwardSequence");
}

#endif  // LEAD_CHECK_SHAPES

}  // namespace
}  // namespace lead
