// AVX2 instantiation of the glibc tanhf/expf transcriptions
// (vec_math_glibc.h), 8 float lanes. This file is the only translation
// unit compiled with -mavx2 -mfma (src/nn/CMakeLists.txt), and with
// -ffp-contract=off, so the only fused multiply-adds are the explicit
// _mm256_fmadd_pd/_mm256_fmsub_pd of expf's reduction and polynomial.
#include <cstdint>

#include "common/check.h"
#include "nn/vec_math.h"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>

#include "nn/vec_math_glibc.h"
#endif

namespace lead::nn::internal {

#if defined(__AVX2__) && defined(__FMA__)

bool VecMathAvx2Available() {
  static const bool supported = __builtin_cpu_supports("avx2") != 0 &&
                                __builtin_cpu_supports("fma") != 0;
  return supported;
}

namespace {

// Masks are all-ones / all-zero int32 lanes.
struct Avx2 {
  static constexpr int kLanes = 8;
  using F = __m256;
  using I = __m256i;
  using M = __m256i;
  using H = __m128;
  using D = __m256d;
  using Q = __m256i;

  static F Load(const float* p) { return _mm256_loadu_ps(p); }
  static void Store(float* p, F v) { _mm256_storeu_ps(p, v); }
  static F Fs(float v) { return _mm256_set1_ps(v); }
  static I Is(std::int32_t v) { return _mm256_set1_epi32(v); }
  static I Bits(F v) { return _mm256_castps_si256(v); }
  static F Flt(I v) { return _mm256_castsi256_ps(v); }

  static F Add(F a, F b) { return _mm256_add_ps(a, b); }
  static F Sub(F a, F b) { return _mm256_sub_ps(a, b); }
  static F Mul(F a, F b) { return _mm256_mul_ps(a, b); }
  static F Div(F a, F b) { return _mm256_div_ps(a, b); }
  static F Neg(F a) { return Flt(Xor(Bits(a), Is(INT32_MIN))); }
  static I Cvtt(F a) { return _mm256_cvttps_epi32(a); }
  static F Cvt(I a) { return _mm256_cvtepi32_ps(a); }

  static I And(I a, I b) { return _mm256_and_si256(a, b); }
  static I Xor(I a, I b) { return _mm256_xor_si256(a, b); }
  static I AddI(I a, I b) { return _mm256_add_epi32(a, b); }
  static I SubI(I a, I b) { return _mm256_sub_epi32(a, b); }
  static I Shl23(I a) { return _mm256_slli_epi32(a, 23); }
  static I Srlv(I a, I count) { return _mm256_srlv_epi32(a, count); }

  static M Gt(I a, I b) { return _mm256_cmpgt_epi32(a, b); }
  static M Eq(I a, I b) { return _mm256_cmpeq_epi32(a, b); }
  static M AndM(M a, M b) { return _mm256_and_si256(a, b); }
  static M OrM(M a, M b) { return _mm256_or_si256(a, b); }
  static F Sel(M m, F a, F b) {
    return _mm256_blendv_ps(b, a, _mm256_castsi256_ps(m));
  }
  static I SelI(M m, I a, I b) { return _mm256_blendv_epi8(b, a, m); }
  static unsigned Lanes(M m) {
    return static_cast<unsigned>(_mm256_movemask_ps(_mm256_castsi256_ps(m)));
  }

  static H Lo(F a) { return _mm256_castps256_ps128(a); }
  static H Hi(F a) { return _mm256_extractf128_ps(a, 1); }
  static F Join(H lo, H hi) {
    return _mm256_insertf128_ps(_mm256_castps128_ps256(lo), hi, 1);
  }

  static D Widen(H a) { return _mm256_cvtps_pd(a); }
  static H Narrow(D a) { return _mm256_cvtpd_ps(a); }
  static D Ds(double v) { return _mm256_set1_pd(v); }
  static D Fma(D a, D b, D c) { return _mm256_fmadd_pd(a, b, c); }
  static D Fms(D a, D b, D c) { return _mm256_fmsub_pd(a, b, c); }
  static D Sub(D a, D b) { return _mm256_sub_pd(a, b); }
  static D Mul(D a, D b) { return _mm256_mul_pd(a, b); }
  static Q QBits(D a) { return _mm256_castpd_si256(a); }
  static D DFrom(Q a) { return _mm256_castsi256_pd(a); }
  static Q TableAt(const std::uint64_t* table, Q index) {
    return _mm256_i64gather_epi64(
        reinterpret_cast<const long long*>(table),
        _mm256_and_si256(index, _mm256_set1_epi64x(31)), 8);
  }
  static Q Shl47(Q a) { return _mm256_slli_epi64(a, 47); }
  static Q AddQ(Q a, Q b) { return _mm256_add_epi64(a, b); }
};

}  // namespace

void TanhInPlaceAvx2(float* x, int n) {
  glibc::ApplyInPlace<Avx2, glibc::TanhOp>(x, n);
}

void SigmoidInPlaceAvx2(float* x, int n) {
  glibc::ApplyInPlace<Avx2, glibc::SigmoidOp>(x, n);
}

void ExpInPlaceAvx2(float* x, int n) {
  glibc::ApplyInPlace<Avx2, glibc::ExpOp>(x, n);
}

#else  // !(defined(__AVX2__) && defined(__FMA__))

bool VecMathAvx2Available() { return false; }

void TanhInPlaceAvx2(float*, int) {
  LEAD_CHECK(false);  // dispatch bug: called without AVX2+FMA support
}

void SigmoidInPlaceAvx2(float*, int) {
  LEAD_CHECK(false);  // dispatch bug: called without AVX2+FMA support
}

void ExpInPlaceAvx2(float*, int) {
  LEAD_CHECK(false);  // dispatch bug: called without AVX2+FMA support
}

#endif

}  // namespace lead::nn::internal
