// Runtime-dispatched, bit-exact vector tanh and sigmoid (DESIGN.md, "No-grad
// inference kernels").
//
// The LSTM gate epilogues and the registered Tanh / Sigmoid op kernels spend
// most of their time in glibc's scalar tanhf and expf. The vector paths
// here are lane-wise transcriptions of the glibc 2.36 algorithms those
// calls reach (fdlibm tanhf/expm1f, and the FMA variant of the
// optimized-routines expf that glibc's ifunc picks on AVX2+FMA CPUs; see
// vec_math_glibc.h), so every float input yields exactly libm's bits.
// On first use the widest supported path is checked against libm on a
// fixed probe set; if any probe differs (another libm, another glibc
// variant) every call stays on the scalar std:: loop. The probes catch a
// different algorithm, not every possible one-ulp difference: what proves
// bit-exactness on a host is tests/vec_math_test.cc's sweep over all 2^32
// inputs, which must pass on any machine whose glibc is not 2.36.
#pragma once

#include <span>

namespace lead::nn {

// x[i] = std::tanh(x[i]) for i in [0, n), bit for bit.
void TanhInPlace(float* x, int n);

// x[i] = 1.0f / (1.0f + std::exp(-x[i])) for i in [0, n), bit for bit
// (the expression of the Sigmoid op).
void SigmoidInPlace(float* x, int n);

namespace internal {

using VecMathFn = void (*)(float* x, int n);

// One implementation of the in-place kernels.
struct VecMathKernels {
  const char* isa = "scalar";
  VecMathFn tanh = nullptr;
  VecMathFn sigmoid = nullptr;
};

// The std:: loops: the reference, and the fallback of every dispatch.
VecMathKernels ScalarVecMath();

// Vector kernel sets this build and CPU can run, widest first. A path is
// listed only where glibc's ifunc would pick its FMA expf (AVX2 + FMA),
// because that is the variant the vector expf transcribes.
std::span<const VecMathKernels> AvailableVecMath();

// True when `kernels` reproduces libm bit for bit on every probe input:
// points on each branch boundary of tanhf/expm1f and expf, the two
// expf inputs where the FMA reduction matters, and an evenly spaced sweep.
bool VecMathProbesMatch(const VecMathKernels& kernels);

// The first candidate whose probes match, or ScalarVecMath().
VecMathKernels SelectVecMath(std::span<const VecMathKernels> candidates);

// What TanhInPlace / SigmoidInPlace run: SelectVecMath over
// AvailableVecMath(), decided once per process.
const VecMathKernels& DispatchedVecMath();

// The per-ISA kernels. Call only when the matching *Available() returned
// true; non-x86 builds compile stubs that report the paths unavailable.
bool VecMathAvx2Available();
void TanhInPlaceAvx2(float* x, int n);
void SigmoidInPlaceAvx2(float* x, int n);
bool VecMathAvx512Available();
void TanhInPlaceAvx512(float* x, int n);
void SigmoidInPlaceAvx512(float* x, int n);

// Test hook, never dispatched: x[i] = std::exp(x[i]) through the expf core
// the sigmoid kernels share. Sigmoid hides some exp bits (1 + exp(-x)
// rounds to 1 for large x), so only this reaches the two inputs where
// glibc's FMA reduction matters. Same availability rule as above.
void ExpInPlaceAvx2(float* x, int n);
void ExpInPlaceAvx512(float* x, int n);

}  // namespace internal
}  // namespace lead::nn
