// Lane-wise transcriptions of the glibc 2.36 x86_64 routines behind
// std::tanh(float) and std::exp(float), shared by the AVX2 and AVX-512
// kernels (vec_math_avx2.cc, vec_math_avx512.cc; see vec_math.h).
//
// The templates take an ISA wrapper `V` (float/int32 lanes F/I with masks
// M, half-width float H, double D and int64 Q lanes, and one static
// function per instruction). Every float operation below is one IEEE
// operation of the scalar code, in its order and association, so each
// lane rounds exactly as libm does; the including files are compiled with
// -ffp-contract=off, so only the explicit V::Fma/V::Fms fuse.
//
//  - tanhf is fdlibm's s_tanhf.c calling s_expm1f.c, compiled by glibc to
//    plain SSE float code (no FMA). Each branch is computed for every lane
//    and the lane's branch is selected by mask.
//  - expf is optimized-routines' e_expf.c in glibc's FMA ifunc variant,
//    whose compiler contracted both `z + shift` and `z - kd` (z = xd *
//    InvLn2N) into FMAs, and the three polynomial steps too. With a plain
//    `z - kd`, expf(0x1.04845ep+5) and expf(-0x1.f8cbb2p+5) come out one
//    ulp off.
//
// Lanes a transcription does not cover (tanh: Inf/NaN; exp and sigmoid:
// |x| >= 88, Inf, NaN -- expf's own slow path) are recomputed with the
// scalar libm call. tests/vec_math_test.cc checks all 2^32 inputs.
//
// Everything down to the per-block body is always_inline: out of line,
// every call re-materializes the ~30 broadcast constants, which inlined
// into the ApplyInPlace loop are hoisted out of it.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

namespace lead::nn::internal::glibc {

// e_exp2f_data.c: tab[i] = bits(2^(i/32)) - (i << 47), then the scaled
// constants e_expf.c reads (InvLn2N = 32/ln2, poly_scaled, shift).
inline constexpr std::uint64_t kExpTable[32] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f,
    0x3fef9301d0125b51, 0x3fef72b83c7d517b, 0x3fef54873168b9aa,
    0x3fef387a6e756238, 0x3fef1e9df51fdee1, 0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429,
    0x3feea47eb03a5585, 0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74,
    0x3feea11473eb0187, 0x3feea589994cce13, 0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c,
    0x3fef3720dcef9069, 0x3fef5818dcfba487, 0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da, 0x3fefd0765b6e4540};
inline constexpr double kInvLn2N = 0x1.71547652b82fep+5;
inline constexpr double kShift = 0x1.8p+52;
inline constexpr double kExpC0 = 0x1.c6af84b912394p-20;
inline constexpr double kExpC1 = 0x1.ebfce50fac4f3p-13;
inline constexpr double kExpC2 = 0x1.62e42ff0c52d6p-6;

// s_expm1f.c constants.
inline constexpr float kLn2Hi = std::bit_cast<float>(0x3f317180u);
inline constexpr float kLn2Lo = std::bit_cast<float>(0x3717f7d1u);
inline constexpr float kInvLn2 = std::bit_cast<float>(0x3fb8aa3bu);
inline constexpr float kQ1 = std::bit_cast<float>(0xbd088889u);
inline constexpr float kQ2 = std::bit_cast<float>(0x3ad00d01u);
inline constexpr float kQ3 = std::bit_cast<float>(0xb8a670cdu);
inline constexpr float kQ4 = std::bit_cast<float>(0x36867e54u);
inline constexpr float kQ5 = std::bit_cast<float>(0xb457edbbu);

inline constexpr std::int32_t kAbsMask = 0x7fffffff;
inline constexpr std::int32_t kSignBit = INT32_MIN;

// expf of the widened lanes xd (|x| < 88): k = round(x * 32/ln2) via the
// shift trick, r = x * 32/ln2 - k, s = 2^(k/32) from the table plus the
// exponent, exp(x) = s * (C0 r^3 + C1 r^2 + C2 r + 1), still in double.
template <class V>
[[gnu::always_inline]] inline typename V::D ExpfCore(typename V::D xd) {
  using D = typename V::D;
  using Q = typename V::Q;
  const D inv_ln2n = V::Ds(kInvLn2N);
  const D shifted = V::Fma(inv_ln2n, xd, V::Ds(kShift));
  const Q ki = V::QBits(shifted);
  const D kd = V::Sub(shifted, V::Ds(kShift));
  const D r = V::Fms(inv_ln2n, xd, kd);
  const D z = V::Fma(V::Ds(kExpC0), r, V::Ds(kExpC1));
  const D r2 = V::Mul(r, r);
  D y = V::Fma(V::Ds(kExpC2), r, V::Ds(1.0));
  y = V::Fma(z, r2, y);
  const Q s = V::AddQ(V::TableAt(kExpTable, ki), V::Shl47(ki));
  return V::Mul(y, V::DFrom(s));
}

template <class V>
[[gnu::always_inline]] inline typename V::F Expf(typename V::F x) {
  return V::Join(V::Narrow(ExpfCore<V>(V::Widen(V::Lo(x)))),
                 V::Narrow(ExpfCore<V>(V::Widen(V::Hi(x)))));
}

// expm1f over the arguments tanhf passes: y = 2|x| in [2, 44) or
// y = -2|x| in (-2, -2^-54]. So y > 0 always takes the general reduction
// with k in [3, 63], and y < 0 ends with k in {0, -1, -2, -3} or as the
// |y| < 2^-25 shortcut; the k = 1 branch and the |y| >= 27 ln2 early
// returns are never reached and are left out.
template <class V>
[[gnu::always_inline]] inline typename V::F Expm1fTanhDomain(typename V::F y) {
  using F = typename V::F;
  using I = typename V::I;
  using M = typename V::M;
  const I bits = V::Bits(y);
  const I hy = V::And(bits, V::Is(kAbsMask));
  const M negative = V::Gt(V::Is(0), bits);
  // |y| < 2^-25 returns y (last line). Those lanes run the branches below
  // on -1 instead, only so their polynomial cannot go subnormal: denormal
  // operands cost a microcode assist per instruction on x86.
  const M tiny = V::Gt(V::Is(0x33000000), hy);
  y = V::Sel(tiny, V::Fs(-1.0f), y);
  // |y| >= 1.5 ln2: k = (int)(invln2 * y +- 0.5), hi = y - k ln2_hi,
  // lo = k ln2_lo.
  const F half = V::Sel(negative, V::Fs(-0.5f), V::Fs(0.5f));
  I k = V::Cvtt(V::Add(V::Mul(V::Fs(kInvLn2), y), half));
  const F tk = V::Cvt(k);
  F hi = V::Sub(y, V::Mul(tk, V::Fs(kLn2Hi)));
  F lo = V::Mul(tk, V::Fs(kLn2Lo));
  // 0.5 ln2 < |y| < 1.5 ln2 (only y < 0 here): k = -1.
  const M k_minus1 = V::AndM(V::Gt(hy, V::Is(0x3eb17218)),
                             V::Gt(V::Is(0x3f851592), hy));
  hi = V::Sel(k_minus1, V::Add(y, V::Fs(kLn2Hi)), hi);
  lo = V::Sel(k_minus1, V::Fs(-kLn2Lo), lo);
  k = V::SelI(k_minus1, V::Is(-1), k);
  F x = V::Sub(hi, lo);
  const F c = V::Sub(V::Sub(hi, x), lo);
  // |y| <= 0.5 ln2: no reduction, k = 0.
  const M k_zero = V::Gt(V::Is(0x3eb17219), hy);
  x = V::Sel(k_zero, y, x);
  k = V::SelI(k_zero, V::Is(0), k);

  const F hfx = V::Mul(x, V::Fs(0.5f));
  const F hxs = V::Mul(x, hfx);
  F r1 = V::Add(V::Mul(hxs, V::Fs(kQ5)), V::Fs(kQ4));
  r1 = V::Add(V::Mul(hxs, r1), V::Fs(kQ3));
  r1 = V::Add(V::Mul(hxs, r1), V::Fs(kQ2));
  r1 = V::Add(V::Mul(hxs, r1), V::Fs(kQ1));
  r1 = V::Add(V::Mul(hxs, r1), V::Fs(1.0f));
  const F t = V::Sub(V::Fs(3.0f), V::Mul(r1, hfx));
  const F e = V::Mul(hxs, V::Div(V::Sub(r1, t),
                                 V::Sub(V::Fs(6.0f), V::Mul(x, t))));

  // k = 0: x - (x e - hxs).
  const F res_zero = V::Sub(x, V::Sub(V::Mul(x, e), hxs));
  // k != 0: e = (x (e - c) - c) - hxs, then by k.
  const F ek = V::Sub(V::Sub(V::Mul(x, V::Sub(e, c)), c), hxs);
  const F res_minus1 =
      V::Sub(V::Mul(V::Sub(x, ek), V::Fs(0.5f)), V::Fs(0.5f));
  const F ek_minus_x = V::Sub(ek, x);
  const I exponent = V::Shl23(k);
  // k <= -2 or k > 56: y = 1 - (e - x), add k to its exponent, minus 1.
  const F res_far = V::Sub(
      V::Flt(V::AddI(V::Bits(V::Sub(V::Fs(1.0f), ek_minus_x)), exponent)),
      V::Fs(1.0f));
  // 2 <= k <= 22: y = (1 - 2^-k) - (e - x), add k to its exponent.
  const F one_minus_ulp =
      V::Flt(V::SubI(V::Is(0x3f800000), V::Srlv(V::Is(0x1000000), k)));
  const F res_near =
      V::Flt(V::AddI(V::Bits(V::Sub(one_minus_ulp, ek_minus_x)), exponent));
  // 23 <= k <= 56: y = (x - (e + 2^-k)) + 1, add k to its exponent.
  const F two_minus_k = V::Flt(V::Shl23(V::SubI(V::Is(0x7f), k)));
  const F res_mid = V::Flt(V::AddI(
      V::Bits(V::Add(V::Sub(x, V::Add(ek, two_minus_k)), V::Fs(1.0f))),
      exponent));

  F res = V::Sel(V::Gt(V::Is(23), k), res_near, res_mid);
  res = V::Sel(V::OrM(V::Gt(V::Is(-1), k), V::Gt(k, V::Is(56))), res_far,
               res);
  res = V::Sel(V::Eq(k, V::Is(-1)), res_minus1, res);
  res = V::Sel(k_zero, res_zero, res);
  // |y| < 2^-25: expm1f returns y.
  return V::Sel(tiny, V::Flt(bits), res);
}

// tanhf for finite x.
template <class V>
[[gnu::always_inline]] inline typename V::F Tanhf(typename V::F x) {
  using F = typename V::F;
  using I = typename V::I;
  using M = typename V::M;
  const I bits = V::Bits(x);
  const I ix = V::And(bits, V::Is(kAbsMask));
  const F a = V::Flt(ix);
  // |x| >= 1: z = 1 - 2 / (expm1f(2|x|) + 2);
  // else:     z = -t / (t + 2), t = expm1f(-2|x|).
  const M at_least_one = V::Gt(ix, V::Is(0x3f7fffff));
  const F t = Expm1fTanhDomain<V>(
      V::Sel(at_least_one, V::Add(a, a), V::Mul(a, V::Fs(-2.0f))));
  const F quotient = V::Div(V::Sel(at_least_one, V::Fs(2.0f), V::Neg(t)),
                            V::Add(t, V::Fs(2.0f)));
  F z = V::Sel(at_least_one, V::Sub(V::Fs(1.0f), quotient), quotient);
  // |x| >= 22: z = 1 - 1e-30, which rounds to 1.
  z = V::Sel(V::Gt(ix, V::Is(0x41afffff)), V::Fs(1.0f), z);
  const F res = V::Flt(V::Xor(V::Bits(z), V::And(bits, V::Is(kSignBit))));
  // |x| < 2^-55, zeros included: x * (1 + x).
  return V::Sel(V::Gt(V::Is(0x24000000), ix),
                V::Mul(x, V::Add(V::Fs(1.0f), x)), res);
}

// The three in-place operations: the vector body, the scalar libm
// expression it reproduces, and the largest |x| bit pattern the body
// covers (larger ones, Inf and NaN take Scalar).
struct TanhOp {
  static constexpr std::int32_t kMaxAbsBits = 0x7f7fffff;
  static float Scalar(float x) { return std::tanh(x); }
  template <class V>
  [[gnu::always_inline]] static typename V::F Vector(typename V::F x) {
    return Tanhf<V>(x);
  }
};

struct ExpOp {
  static constexpr std::int32_t kMaxAbsBits = 0x42afffff;
  static float Scalar(float x) { return std::exp(x); }
  template <class V>
  [[gnu::always_inline]] static typename V::F Vector(typename V::F x) {
    return Expf<V>(x);
  }
};

struct SigmoidOp {
  static constexpr std::int32_t kMaxAbsBits = 0x42afffff;
  static float Scalar(float x) { return 1.0f / (1.0f + std::exp(-x)); }
  template <class V>
  [[gnu::always_inline]] static typename V::F Vector(typename V::F x) {
    const typename V::F one = V::Fs(1.0f);
    return V::Div(one, V::Add(one, Expf<V>(V::Neg(x))));
  }
};

// One full vector of lanes at p, in place.
template <class V, class Op>
[[gnu::always_inline]] inline void ApplyLanes(float* p) {
  const typename V::F x = V::Load(p);
  unsigned scalar_lanes = V::Lanes(V::Gt(V::And(V::Bits(x), V::Is(kAbsMask)),
                                         V::Is(Op::kMaxAbsBits)));
  alignas(64) float in[V::kLanes];
  if (scalar_lanes != 0) V::Store(in, x);
  V::Store(p, Op::template Vector<V>(x));
  for (; scalar_lanes != 0; scalar_lanes &= scalar_lanes - 1) {
    const int lane = std::countr_zero(scalar_lanes);
    p[lane] = Op::Scalar(in[lane]);
  }
}

template <class V, class Op>
void ApplyInPlace(float* x, int n) {
  int i = 0;
  for (; i + V::kLanes <= n; i += V::kLanes) ApplyLanes<V, Op>(x + i);
  if (i < n) {
    alignas(64) float tail[V::kLanes] = {};
    std::copy(x + i, x + n, tail);
    ApplyLanes<V, Op>(tail);
    std::copy(tail, tail + (n - i), x + i);
  }
}

}  // namespace lead::nn::internal::glibc
