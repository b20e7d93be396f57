// AVX-512 instantiation of the glibc tanhf/expf transcriptions
// (vec_math_glibc.h), 16 float lanes. This file is the only translation
// unit compiled with -mavx512f next to -mfma (src/nn/CMakeLists.txt), and
// with -ffp-contract=off, so the only fused multiply-adds are the explicit
// _mm512_fmadd_pd/_mm512_fmsub_pd of expf's reduction and polynomial.
#include <cstdint>

#include "common/check.h"
#include "nn/vec_math.h"

#if defined(__AVX512F__) && defined(__FMA__)
// GCC 12's avx512fintrin.h initializes its "undefined" operands from
// themselves (`__m512 __Y = __Y;`), which -Wuninitialized reports
// wherever cvt/shift/gather/insert intrinsics are inlined (GCC bug 105593,
// fixed in GCC 13). The diagnostic points into the header, so silencing it
// around the include leaves this file's own code checked.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop

#include "nn/vec_math_glibc.h"
#endif

namespace lead::nn::internal {

#if defined(__AVX512F__) && defined(__FMA__)

bool VecMathAvx512Available() {
  static const bool supported = __builtin_cpu_supports("avx512f") != 0 &&
                                __builtin_cpu_supports("avx2") != 0 &&
                                __builtin_cpu_supports("fma") != 0;
  return supported;
}

namespace {

struct Avx512 {
  static constexpr int kLanes = 16;
  using F = __m512;
  using I = __m512i;
  using M = __mmask16;
  using H = __m256;
  using D = __m512d;
  using Q = __m512i;

  static F Load(const float* p) { return _mm512_loadu_ps(p); }
  static void Store(float* p, F v) { _mm512_storeu_ps(p, v); }
  static F Fs(float v) { return _mm512_set1_ps(v); }
  static I Is(std::int32_t v) { return _mm512_set1_epi32(v); }
  static I Bits(F v) { return _mm512_castps_si512(v); }
  static F Flt(I v) { return _mm512_castsi512_ps(v); }

  static F Add(F a, F b) { return _mm512_add_ps(a, b); }
  static F Sub(F a, F b) { return _mm512_sub_ps(a, b); }
  static F Mul(F a, F b) { return _mm512_mul_ps(a, b); }
  static F Div(F a, F b) { return _mm512_div_ps(a, b); }
  static F Neg(F a) { return Flt(Xor(Bits(a), Is(INT32_MIN))); }
  static I Cvtt(F a) { return _mm512_cvttps_epi32(a); }
  static F Cvt(I a) { return _mm512_cvtepi32_ps(a); }

  static I And(I a, I b) { return _mm512_and_si512(a, b); }
  static I Xor(I a, I b) { return _mm512_xor_si512(a, b); }
  static I AddI(I a, I b) { return _mm512_add_epi32(a, b); }
  static I SubI(I a, I b) { return _mm512_sub_epi32(a, b); }
  static I Shl23(I a) { return _mm512_slli_epi32(a, 23); }
  static I Srlv(I a, I count) { return _mm512_srlv_epi32(a, count); }

  static M Gt(I a, I b) { return _mm512_cmpgt_epi32_mask(a, b); }
  static M Eq(I a, I b) { return _mm512_cmpeq_epi32_mask(a, b); }
  static M AndM(M a, M b) { return _mm512_kand(a, b); }
  static M OrM(M a, M b) { return _mm512_kor(a, b); }
  static F Sel(M m, F a, F b) { return _mm512_mask_blend_ps(m, b, a); }
  static I SelI(M m, I a, I b) { return _mm512_mask_blend_epi32(m, b, a); }
  static unsigned Lanes(M m) { return m; }

  static H Lo(F a) { return _mm512_castps512_ps256(a); }
  static H Hi(F a) {
    return _mm256_castpd_ps(_mm512_extractf64x4_pd(_mm512_castps_pd(a), 1));
  }
  static F Join(H lo, H hi) {
    return _mm512_castpd_ps(
        _mm512_insertf64x4(_mm512_castps_pd(_mm512_castps256_ps512(lo)),
                           _mm256_castps_pd(hi), 1));
  }

  static D Widen(H a) { return _mm512_cvtps_pd(a); }
  static H Narrow(D a) { return _mm512_cvtpd_ps(a); }
  static D Ds(double v) { return _mm512_set1_pd(v); }
  static D Fma(D a, D b, D c) { return _mm512_fmadd_pd(a, b, c); }
  static D Fms(D a, D b, D c) { return _mm512_fmsub_pd(a, b, c); }
  static D Sub(D a, D b) { return _mm512_sub_pd(a, b); }
  static D Mul(D a, D b) { return _mm512_mul_pd(a, b); }
  static Q QBits(D a) { return _mm512_castpd_si512(a); }
  static D DFrom(Q a) { return _mm512_castsi512_pd(a); }
  static Q TableAt(const std::uint64_t* table, Q index) {
    return _mm512_i64gather_epi64(
        _mm512_and_si512(index, _mm512_set1_epi64(31)), table, 8);
  }
  static Q Shl47(Q a) { return _mm512_slli_epi64(a, 47); }
  static Q AddQ(Q a, Q b) { return _mm512_add_epi64(a, b); }
};

}  // namespace

void TanhInPlaceAvx512(float* x, int n) {
  glibc::ApplyInPlace<Avx512, glibc::TanhOp>(x, n);
}

void SigmoidInPlaceAvx512(float* x, int n) {
  glibc::ApplyInPlace<Avx512, glibc::SigmoidOp>(x, n);
}

void ExpInPlaceAvx512(float* x, int n) {
  glibc::ApplyInPlace<Avx512, glibc::ExpOp>(x, n);
}

#else  // !(defined(__AVX512F__) && defined(__FMA__))

bool VecMathAvx512Available() { return false; }

void TanhInPlaceAvx512(float*, int) {
  LEAD_CHECK(false);  // dispatch bug: called without AVX-512 support
}

void SigmoidInPlaceAvx512(float*, int) {
  LEAD_CHECK(false);  // dispatch bug: called without AVX-512 support
}

void ExpInPlaceAvx512(float*, int) {
  LEAD_CHECK(false);  // dispatch bug: called without AVX-512 support
}

#endif

}  // namespace lead::nn::internal
