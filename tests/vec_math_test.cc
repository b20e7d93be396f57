// Bit-exactness of the vector tanh / sigmoid kernels (nn/vec_math.h)
// against libm. Every vector path this CPU can run (AVX-512, AVX2) is
// checked over all 2^32 float bit patterns, and with the scalar loops on
// named cases for the inputs where the transcription is most fragile: the two
// expf inputs that need glibc's FMA reduction, and both sides of every
// tanhf / expm1f / expf branch boundary. The named cases also run the expf
// core itself (the ExpInPlace* test hooks), because sigmoid hides some of
// its bits. NaN results compare by isnan; everything else compares by bits.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "nn/vec_math.h"

namespace lead {
namespace {

using nn::internal::VecMathFn;
using nn::internal::VecMathKernels;

enum class Fn { kTanh, kSigmoid, kExp };
constexpr Fn kFns[] = {Fn::kTanh, Fn::kSigmoid};

const char* NameOf(Fn fn) {
  switch (fn) {
    case Fn::kTanh: return "tanh";
    case Fn::kSigmoid: return "sigmoid";
    case Fn::kExp: return "exp";
  }
  return "?";
}

VecMathFn KernelOf(const VecMathKernels& kernels, Fn fn) {
  switch (fn) {
    case Fn::kTanh: return kernels.tanh;
    case Fn::kSigmoid: return kernels.sigmoid;
    case Fn::kExp: break;  // not dispatched; see ExpHooks()
  }
  return nullptr;
}

float Reference(Fn fn, float x) {
  switch (fn) {
    case Fn::kTanh: return std::tanh(x);
    case Fn::kSigmoid: return 1.0f / (1.0f + std::exp(-x));
    case Fn::kExp: return std::exp(x);
  }
  return 0.0f;
}

bool SameResult(float got, float want) {
  if (std::isnan(want)) return std::isnan(got);
  return std::bit_cast<std::uint32_t>(got) ==
         std::bit_cast<std::uint32_t>(want);
}

// The vector paths this CPU supports, then the scalar loops.
std::vector<VecMathKernels> AllPaths() {
  const auto available = nn::internal::AvailableVecMath();
  std::vector<VecMathKernels> paths(available.begin(), available.end());
  paths.push_back(nn::internal::ScalarVecMath());
  return paths;
}

std::string Hex(float x) {
  std::ostringstream os;
  os << std::hexfloat << x << " (0x" << std::hex
     << std::bit_cast<std::uint32_t>(x) << ")";
  return os.str();
}

struct Kernel {
  const char* isa;
  Fn fn;
  VecMathFn run;
};

// The expf core of each vector path this CPU supports.
std::vector<Kernel> ExpHooks() {
  std::vector<Kernel> hooks;
  if (nn::internal::VecMathAvx512Available()) {
    hooks.push_back({"avx512", Fn::kExp, nn::internal::ExpInPlaceAvx512});
  }
  if (nn::internal::VecMathAvx2Available()) {
    hooks.push_back({"avx2", Fn::kExp, nn::internal::ExpInPlaceAvx2});
  }
  return hooks;
}

// tanh and sigmoid of every path, then the expf hooks.
std::vector<Kernel> AllKernels() {
  std::vector<Kernel> kernels;
  for (const VecMathKernels& path : AllPaths()) {
    for (const Fn fn : kFns) {
      kernels.push_back({path.isa, fn, KernelOf(path, fn)});
    }
  }
  for (const Kernel& hook : ExpHooks()) kernels.push_back(hook);
  return kernels;
}

// Runs `inputs` through every kernel in one call (so vector tails are
// exercised too) and reports each input whose result differs.
::testing::AssertionResult AllPathsMatchLibm(const std::vector<float>& inputs) {
  std::ostringstream failures;
  int failed = 0;
  for (const Kernel& kernel : AllKernels()) {
    std::vector<float> got = inputs;
    kernel.run(got.data(), static_cast<int>(got.size()));
    for (size_t i = 0; i < inputs.size(); ++i) {
      const float want = Reference(kernel.fn, inputs[i]);
      if (!SameResult(got[i], want) && ++failed <= 10) {
        failures << "\n  " << kernel.isa << " " << NameOf(kernel.fn) << "("
                 << Hex(inputs[i]) << ") = " << Hex(got[i]) << ", libm "
                 << Hex(want);
      }
    }
  }
  if (failed == 0) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << failed << " mismatches:"
                                       << failures.str();
}

// `radius` floats on each side of `center`, for both signs.
std::vector<float> AroundBits(std::uint32_t center, std::uint32_t radius) {
  std::vector<float> out;
  for (std::uint32_t bits = center - radius; bits <= center + radius; ++bits) {
    out.push_back(std::bit_cast<float>(bits));
    out.push_back(-std::bit_cast<float>(bits));
  }
  return out;
}

std::vector<float> Around(float center, std::uint32_t radius) {
  return AroundBits(std::bit_cast<std::uint32_t>(center), radius);
}

TEST(VecMathTest, FmaSensitiveExpInputs) {
  // glibc's FMA expf computes r = fma(InvLn2N, x, -kd). Rounding the
  // product first (a plain z - kd) lands one ulp off on exactly these two
  // inputs; sigmoid reaches them through exp(-x), but rounds the error
  // away, so the expf hooks are what must catch it.
  const std::vector<float> inputs = {0x1.04845ep+5f, -0x1.f8cbb2p+5f,
                                     -0x1.04845ep+5f, 0x1.f8cbb2p+5f};
  EXPECT_TRUE(AllPathsMatchLibm(inputs));
}

TEST(VecMathTest, BranchBoundariesMatchLibm) {
  struct Edge {
    const char* what;
    std::vector<float> inputs;
  };
  // |x| as tanhf sees it; expm1f runs on y = 2|x| (|x| >= 1) or -2|x|.
  const Edge edges[] = {
      {"tanh: |x| < 2^-55 returns x(1+x)", AroundBits(0x24000000, 64)},
      {"expm1: |y| < 2^-25 returns y", AroundBits(0x32800000, 64)},
      {"expm1: k = 0 up to |y| = 0.5 ln2", AroundBits(0x3e317219, 64)},
      {"expm1: k = -1 up to |y| = 1.5 ln2", AroundBits(0x3f051592, 64)},
      {"expm1: k = -2 / -3 at y = -2.5 ln2", Around(0.8664340f, 4096)},
      {"tanh: |x| < 1 uses expm1(-2|x|)", AroundBits(0x3f800000, 64)},
      {"expm1: k = 22 / 23 at y = 22.5 ln2", Around(7.7979056f, 4096)},
      {"expm1: k = 56 / 57 at y = 56.5 ln2", Around(19.581408f, 4096)},
      {"tanh: |x| >= 22 returns +-1", AroundBits(0x41b00000, 64)},
      {"exp: |x| >= 88 takes the slow path", AroundBits(0x42b00000, 64)},
      {"exp: results go subnormal below -87.33", Around(-87.336548f, 4096)},
  };
  for (const Edge& edge : edges) {
    EXPECT_TRUE(AllPathsMatchLibm(edge.inputs)) << edge.what;
  }
}

TEST(VecMathTest, SpecialValuesMatchLibm) {
  using limits = std::numeric_limits<float>;
  std::vector<float> inputs;
  for (const float x :
       {0.0f, limits::denorm_min(), limits::min(), limits::epsilon(), 1.0f,
        22.0f, 88.0f, 88.72283f, 88.72284f, 103.97208f, 104.0f, 1e10f,
        limits::max(), limits::infinity()}) {
    inputs.push_back(x);
    inputs.push_back(-x);
  }
  inputs.push_back(limits::quiet_NaN());
  inputs.push_back(-limits::quiet_NaN());
  inputs.push_back(std::bit_cast<float>(0x7fa00001u));  // signalling NaN
  inputs.push_back(std::bit_cast<float>(0xffc12345u));  // payload, sign
  EXPECT_TRUE(AllPathsMatchLibm(inputs));
}

TEST(VecMathTest, TailsAndOffsetsTouchOnlyTheirRange) {
  constexpr float kGuard = 12345.0f;
  for (const Kernel& kernel : AllKernels()) {
    for (int offset = 0; offset < 4; ++offset) {
      for (int n = 0; n <= 40; ++n) {
        std::vector<float> buf(static_cast<size_t>(offset + n + 1), kGuard);
        for (int i = 0; i < n; ++i) {
          buf[static_cast<size_t>(offset + i)] =
              -30.0f + 1.7f * static_cast<float>(i);
        }
        const std::vector<float> in = buf;
        kernel.run(buf.data() + offset, n);
        for (size_t i = 0; i < buf.size(); ++i) {
          const bool inside = i >= static_cast<size_t>(offset) &&
                              i < static_cast<size_t>(offset + n);
          const float want = inside ? Reference(kernel.fn, in[i]) : kGuard;
          ASSERT_TRUE(SameResult(buf[i], want))
              << kernel.isa << " " << NameOf(kernel.fn) << " offset "
              << offset << " n " << n << " element " << i;
        }
      }
    }
  }
}

// A tanh that is libm's except one ulp off at 1.0, a probe input.
void OffByOneUlpTanh(float* x, int n) {
  for (int i = 0; i < n; ++i) {
    const bool probe = std::bit_cast<std::uint32_t>(x[i]) == 0x3f800000u;
    x[i] = std::tanh(x[i]);
    if (probe) x[i] = std::nextafter(x[i], 0.0f);
  }
}

TEST(VecMathTest, ProbeMismatchFallsBackToScalar) {
  VecMathKernels broken = nn::internal::ScalarVecMath();
  broken.isa = "broken";
  broken.tanh = OffByOneUlpTanh;
  EXPECT_FALSE(nn::internal::VecMathProbesMatch(broken));
  EXPECT_TRUE(nn::internal::VecMathProbesMatch(nn::internal::ScalarVecMath()));
  const VecMathKernels only_broken[] = {broken};
  EXPECT_STREQ(nn::internal::SelectVecMath(only_broken).isa, "scalar");
  for (const VecMathKernels& path : nn::internal::AvailableVecMath()) {
    EXPECT_TRUE(nn::internal::VecMathProbesMatch(path)) << path.isa;
    const VecMathKernels broken_first[] = {broken, path};
    EXPECT_STREQ(nn::internal::SelectVecMath(broken_first).isa, path.isa);
  }
  std::cout << "dispatched: " << nn::internal::DispatchedVecMath().isa
            << "\n";
}

// Every vector path against libm on all 2^32 inputs (~4.3G x 2 functions
// per path): tanh and sigmoid, the results the library ships. The scalar
// loops are left out here: they are the reference expressions themselves,
// and the named cases above cover them, as they cover the expf hooks.
// Instrumented builds check every 251st bit pattern.
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define LEAD_VEC_MATH_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    defined(LEAD_VEC_MATH_SANITIZED)
constexpr std::uint64_t kSweepStride = 251;
#else
constexpr std::uint64_t kSweepStride = 1;
#endif
constexpr int kSweepThreads = 4;
constexpr std::uint64_t kChunk = std::uint64_t{1} << 16;

struct SweepResult {
  std::uint64_t mismatches = 0;
  float first_input = 0.0f;
};

TEST(VecMathTest, EveryFloatMatchesLibmOnEveryVectorPath) {
  const auto paths = nn::internal::AvailableVecMath();
  if (paths.empty()) GTEST_SKIP() << "no vector path on this CPU";
  constexpr size_t kFnCount = std::size(kFns);
  const size_t cells = paths.size() * kFnCount;
  // results[thread][path * kFnCount + fn]
  std::vector<std::vector<SweepResult>> results(
      kSweepThreads, std::vector<SweepResult>(cells));
  const std::uint64_t patterns =
      ((std::uint64_t{1} << 32) + kSweepStride - 1) / kSweepStride;
  const std::uint64_t chunks = (patterns + kChunk - 1) / kChunk;

  std::vector<std::thread> threads;
  for (int t = 0; t < kSweepThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<float> in(kChunk), want(kChunk), got(kChunk);
      std::vector<SweepResult>& mine = results[static_cast<size_t>(t)];
      // Interleaved chunks, so every thread sees every exponent range.
      for (std::uint64_t c = static_cast<std::uint64_t>(t); c < chunks;
           c += kSweepThreads) {
        const std::uint64_t begin = c * kChunk;
        const size_t n = static_cast<size_t>(std::min(kChunk, patterns - begin));
        for (size_t i = 0; i < n; ++i) {
          in[i] = std::bit_cast<float>(
              static_cast<std::uint32_t>((begin + i) * kSweepStride));
        }
        for (size_t f = 0; f < kFnCount; ++f) {
          for (size_t i = 0; i < n; ++i) want[i] = Reference(kFns[f], in[i]);
          for (size_t p = 0; p < paths.size(); ++p) {
            std::copy(in.begin(), in.begin() + static_cast<long>(n),
                      got.begin());
            KernelOf(paths[p], kFns[f])(got.data(), static_cast<int>(n));
            SweepResult& cell = mine[p * kFnCount + f];
            for (size_t i = 0; i < n; ++i) {
              if (!SameResult(got[i], want[i]) && cell.mismatches++ == 0) {
                cell.first_input = in[i];
              }
            }
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (size_t p = 0; p < paths.size(); ++p) {
    for (size_t f = 0; f < kFnCount; ++f) {
      std::uint64_t mismatches = 0;
      float first = 0.0f;
      for (const auto& mine : results) {
        const SweepResult& cell = mine[p * kFnCount + f];
        if (cell.mismatches > 0 && mismatches == 0) first = cell.first_input;
        mismatches += cell.mismatches;
      }
      EXPECT_EQ(mismatches, 0u)
          << paths[p].isa << " " << NameOf(kFns[f]) << " over " << patterns
          << " inputs, first at " << Hex(first);
    }
  }
}

}  // namespace
}  // namespace lead
