// Lane math for the ensemble (structure-of-arrays) engine. An ensemble
// runs K Monte-Carlo variants of one topology in lockstep; per-sample
// numbers live in contiguous double[K] lanes and the hot model loops
// iterate over lanes with branch-free bodies so the compiler can
// auto-vectorize them.
//
// fastExp/fastLog are Cephes-style double-precision kernels (Pade /
// rational polynomial plus exponent bit manipulation) accurate to a few
// ulp over the ranges the device models use. They exist because libm's
// exp/log are opaque library calls, which block vectorization of the
// lane loops; the scalar simulation path keeps std::exp / std::log and
// stays the reference.
//
// A lane loop vectorizes only if every kernel it calls is inlined into
// it; one out-of-line call leaves the whole loop scalar. GCC's inliner
// alone declines (it judged fastSoftplus a cold call, too large for
// the loop body), so every kernel here is [[gnu::always_inline]]. CI
// checks the devices and circuit archives for call relocations to them.
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace vls {

/// Compile-time cap on ensemble width. Keeps scratch sizing simple and
/// bounds the memory amplification of lane state (the MC driver splits
/// wider requests into chunks).
inline constexpr size_t kMaxLanes = 16;

/// exp(x) for |x| <= ~700, ~2 ulp. Branch-free except for the range
/// clamp (compiled to min/max); safe inside auto-vectorized lane loops.
[[gnu::always_inline]] inline double fastExp(double x) {
  // Clamp: below -700 the true result underflows to ~0 anyway and above
  // +700 it overflows; callers (softplus/sigmoid/junction limiting)
  // clamp harder than this.
  x = x > 700.0 ? 700.0 : x;
  x = x < -700.0 ? -700.0 : x;
  // x = n*ln2 + r, |r| <= ln2/2; exp(x) = 2^n * exp(r).
  const double fn = std::floor(1.4426950408889634074 * x + 0.5);
  x -= fn * 6.93145751953125e-1;    // ln2 high part
  x -= fn * 1.42860682030941723212e-6;  // ln2 low part
  const double z = x * x;
  // exp(r) = 1 + 2r P(r^2) / (Q(r^2) - r P(r^2))  (Cephes exp.c)
  double px = 1.26177193074810590878e-4;
  px = px * z + 3.02994407707441961300e-2;
  px = px * z + 9.99999999999999999910e-1;
  px *= x;
  double qx = 3.00198505138664455042e-6;
  qx = qx * z + 2.52448340349684104192e-3;
  qx = qx * z + 2.27265548208155028766e-1;
  qx = qx * z + 2.00000000000000000005e0;
  const double r = 1.0 + 2.0 * px / (qx - px);
  // Scale by 2^n through the exponent field; n is in [-1011, 1011] after
  // the clamp so the biased exponent stays normal. n is kept in 32 bits:
  // the f64->i64 vector convert needs AVX-512DQ, the i32 one only SSE2,
  // so this is what lets the surrounding lane loops vectorize on AVX2.
  const int32_t n = static_cast<int32_t>(fn);
  const double scale =
      std::bit_cast<double>(static_cast<uint64_t>(static_cast<uint32_t>(1023 + n)) << 52);
  return r * scale;
}

/// log(x) for normal positive x, ~2 ulp (Cephes log.c). No checks:
/// callers guarantee x > 0 (softplus feeds 1 + exp(r) >= 1).
[[gnu::always_inline]] inline double fastLog(double x) {
  const uint64_t bits = std::bit_cast<uint64_t>(x);
  // 32-bit exponent for the same reason as in fastExp: the i32->f64
  // vector convert is SSE2, the i64 one is AVX-512DQ.
  int32_t e = static_cast<int32_t>((bits >> 52) & 0x7ff) - 1022;
  double m = std::bit_cast<double>((bits & 0x000fffffffffffffULL) | 0x3fe0000000000000ULL);
  // m in [0.5, 1): fold into [sqrt(1/2), sqrt(2)) around 1.
  const bool low = m < 7.07106781186547524401e-1;
  m = low ? m + m : m;
  e = low ? e - 1 : e;
  m -= 1.0;
  // log(1+m) = m - m^2/2 + m^3 P(m)/Q(m).
  double p = 1.01875663804580931796e-4;
  p = p * m + 4.97494994976747001425e-1;
  p = p * m + 4.70579119878881725854e0;
  p = p * m + 1.44989225341610930846e1;
  p = p * m + 1.79368678507819816313e1;
  p = p * m + 7.70838733755885391666e0;
  double q = m + 1.12873587189167450590e1;
  q = q * m + 4.52279145837532221105e1;
  q = q * m + 8.29875266912776603211e1;
  q = q * m + 7.11544750618563894466e1;
  q = q * m + 2.31251620126765340583e1;
  const double z = m * m;
  double y = m * (z * p / q);
  const double fe = static_cast<double>(e);
  y += fe * -2.121944400546905827679e-4;  // ln2 low part
  y -= 0.5 * z;
  return m + y + fe * 0.693359375;  // ln2 high part
}

/// log(1 + y) for y >= 0. Loses relative accuracy below ~1e-16 where
/// softplus tails are physically negligible; absolute error stays tiny.
[[gnu::always_inline]] inline double fastLog1p(double y) { return fastLog(1.0 + y); }

/// Softplus value + derivative (sigmoid), matching the branch structure
/// of Dual softplus / the scalar model code: saturate at |x| > 40.
struct SoftplusVD {
  double v;  ///< softplus(x) = log(1 + e^x)
  double d;  ///< sigmoid(x) = d/dx softplus(x)
};

[[gnu::always_inline]] inline SoftplusVD fastSoftplus(double x) {
  const double xc = x > 40.0 ? 40.0 : (x < -40.0 ? -40.0 : x);
  const double e = fastExp(xc);
  const double mid_v = fastLog1p(e);
  const double mid_d = e / (1.0 + e);
  SoftplusVD out;
  out.v = x > 40.0 ? x : (x < -40.0 ? e : mid_v);
  out.d = x > 40.0 ? 1.0 : (x < -40.0 ? e : mid_d);
  return out;
}

/// sigmoid(x) with the same +-40 clamp the scalar device code uses.
[[gnu::always_inline]] inline double fastSigmoid(double x) {
  const double xc = x > 40.0 ? 40.0 : (x < -40.0 ? -40.0 : x);
  const double e = fastExp(-xc);
  return 1.0 / (1.0 + e);
}

/// tanh(x), clamped (exact saturation beyond |x| > 20 at double
/// precision).
[[gnu::always_inline]] inline double fastTanh(double x) {
  const double xc = x > 20.0 ? 20.0 : (x < -20.0 ? -20.0 : x);
  const double e2 = fastExp(2.0 * xc);
  return (e2 - 1.0) / (e2 + 1.0);
}

}  // namespace vls
