// Scalar loops, probe check and dispatch of the vector tanh / sigmoid; see
// vec_math.h. The vector kernels live in vec_math_avx2.cc and
// vec_math_avx512.cc.
#include "nn/vec_math.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "nn/vec_math_glibc.h"

namespace lead::nn {
namespace internal {
namespace {

template <class Op>
void ScalarInPlace(float* x, int n) {
  for (int i = 0; i < n; ++i) x[i] = Op::Scalar(x[i]);
}

// Inputs on both sides of every branch boundary (as |x| bit patterns):
// tanhf's |x| < 2^-55, |x| < 1 and |x| >= 22 tests, the expm1f ones it
// reaches through y = -2|x| (|y| < 2^-25, k = 0 up to 0.5 ln2, k = -1 up
// to 1.5 ln2) and expf's |x| >= 88 slow path.
constexpr std::uint32_t kBranchEdges[] = {
    0x24000000, 0x32800000, 0x3e317219, 0x3f051592,
    0x3f800000, 0x41b00000, 0x42b00000};

std::vector<float> ProbeInputs() {
  std::vector<float> probes;
  for (const std::uint32_t edge : kBranchEdges) {
    for (const std::uint32_t bits : {edge - 1, edge}) {
      probes.push_back(std::bit_cast<float>(bits));
      probes.push_back(-std::bit_cast<float>(bits));
    }
  }
  // expf inputs that come out one ulp off without the FMA reduction of
  // glibc's FMA variant, and their negations (sigmoid computes exp(-x)).
  for (const float x : {0x1.04845ep+5f, -0x1.f8cbb2p+5f}) {
    probes.push_back(x);
    probes.push_back(-x);
  }
  // An evenly spaced sweep over the range the gates see and past expf's
  // slow-path edge; 4099 points so every vector tail length occurs.
  constexpr int kSweep = 4099;
  for (int i = 0; i < kSweep; ++i) {
    probes.push_back(-96.0f + 192.0f * static_cast<float>(i) / kSweep);
  }
  return probes;
}

bool SameBits(float got, float want) {
  if (std::isnan(want)) return std::isnan(got);
  return std::bit_cast<std::uint32_t>(got) ==
         std::bit_cast<std::uint32_t>(want);
}

template <class Op>
bool ProbesMatch(VecMathFn fn, const std::vector<float>& probes) {
  std::vector<float> out = probes;
  fn(out.data(), static_cast<int>(out.size()));
  for (size_t i = 0; i < probes.size(); ++i) {
    if (!SameBits(out[i], Op::Scalar(probes[i]))) return false;
  }
  return true;
}

}  // namespace

VecMathKernels ScalarVecMath() {
  return {"scalar", ScalarInPlace<glibc::TanhOp>,
          ScalarInPlace<glibc::SigmoidOp>};
}

std::span<const VecMathKernels> AvailableVecMath() {
  static const std::vector<VecMathKernels> available = [] {
    std::vector<VecMathKernels> paths;
    if (VecMathAvx512Available()) {
      paths.push_back({"avx512", TanhInPlaceAvx512, SigmoidInPlaceAvx512});
    }
    if (VecMathAvx2Available()) {
      paths.push_back({"avx2", TanhInPlaceAvx2, SigmoidInPlaceAvx2});
    }
    return paths;
  }();
  return available;
}

bool VecMathProbesMatch(const VecMathKernels& kernels) {
  static const std::vector<float> probes = ProbeInputs();
  return ProbesMatch<glibc::TanhOp>(kernels.tanh, probes) &&
         ProbesMatch<glibc::SigmoidOp>(kernels.sigmoid, probes);
}

VecMathKernels SelectVecMath(std::span<const VecMathKernels> candidates) {
  for (const VecMathKernels& candidate : candidates) {
    if (VecMathProbesMatch(candidate)) return candidate;
  }
  return ScalarVecMath();
}

const VecMathKernels& DispatchedVecMath() {
  static const VecMathKernels dispatched = SelectVecMath(AvailableVecMath());
  return dispatched;
}

}  // namespace internal

void TanhInPlace(float* x, int n) {
  internal::DispatchedVecMath().tanh(x, n);
}

void SigmoidInPlace(float* x, int n) {
  internal::DispatchedVecMath().sigmoid(x, n);
}

}  // namespace lead::nn
