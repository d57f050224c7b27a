// NEON backend: the same radix-2 passes as the scalar reference, with a
// pair of float64x2_t covering the four double lanes of the SoA batch
// (AArch64 NEON registers are 128 bits, so element i's four lanes at
// [i * kStride, i * kStride + 4) take two loads). The twiddle factors are
// lane-invariant broadcasts and lanes never mix, so every butterfly is the
// mul/sub/add sequence of the scalar backend applied to both register
// halves; the spectral step between the passes is the shared
// spectral_step.
//
// This translation unit is compiled with -ffp-contract=off (AArch64 needs
// no extra arch flag: Advanced SIMD is baseline) and only linked when CMake
// enables it (IFDK_HAVE_NEON). AArch64 NEON double arithmetic is fully
// IEEE-754 compliant, and keeping contraction off preserves the scalar
// rounding of every mul/add pair, so the output planes are
// bitwise-identical to the scalar backend — pinned by
// tests/test_fft_backends.cpp.
#include "fft/simd/batch_kernel.h"

#if defined(__aarch64__)

#include <arm_neon.h>

#include <cstddef>

namespace ifdk::fft::simd {

namespace {

/// This backend's SoA stride (= BatchKernel::lanes): two float64x2_t.
constexpr std::size_t kStride = 4;

/// Four doubles as a NEON register pair, with the scalar-order arithmetic
/// applied half by half.
struct V4 {
  float64x2_t lo, hi;
};

inline V4 load4(const double* p) { return {vld1q_f64(p), vld1q_f64(p + 2)}; }
inline void store4(double* p, V4 v) {
  vst1q_f64(p, v.lo);
  vst1q_f64(p + 2, v.hi);
}
inline V4 splat4(double x) { return {vdupq_n_f64(x), vdupq_n_f64(x)}; }
inline V4 add4(V4 a, V4 b) {
  return {vaddq_f64(a.lo, b.lo), vaddq_f64(a.hi, b.hi)};
}
inline V4 sub4(V4 a, V4 b) {
  return {vsubq_f64(a.lo, b.lo), vsubq_f64(a.hi, b.hi)};
}
inline V4 mul4(V4 a, V4 b) {
  return {vmulq_f64(a.lo, b.lo), vmulq_f64(a.hi, b.hi)};
}

// One radix-2 pass over all four lanes at once: same swap pairs, same stage
// order, same per-lane arithmetic as the scalar fft_lane.
void fft_pass(const PlanView& p, double* re, double* im, const double* tw_re,
              const double* tw_im) {
  for (std::size_t s = 0; s < p.swaps; ++s) {
    double* const ra = re + static_cast<std::size_t>(p.swap_from[s]) * kStride;
    double* const rb = re + static_cast<std::size_t>(p.swap_to[s]) * kStride;
    const V4 va = load4(ra);
    const V4 vb = load4(rb);
    store4(ra, vb);
    store4(rb, va);
    double* const ia = im + static_cast<std::size_t>(p.swap_from[s]) * kStride;
    double* const ib = im + static_cast<std::size_t>(p.swap_to[s]) * kStride;
    const V4 wa = load4(ia);
    const V4 wb = load4(ib);
    store4(ia, wb);
    store4(ib, wa);
  }

  for (std::size_t len = 2; len <= p.n; len <<= 1) {
    const std::size_t half = len / 2;
    const double* wr = tw_re + (half - 1);
    const double* wi = tw_im + (half - 1);
    for (std::size_t i = 0; i < p.n; i += len) {
      for (std::size_t k = 0; k < half; ++k) {
        const V4 wre = splat4(wr[k]);
        const V4 wim = splat4(wi[k]);
        double* const pru = re + (i + k) * kStride;
        double* const piu = im + (i + k) * kStride;
        double* const prv = re + (i + k + half) * kStride;
        double* const piv = im + (i + k + half) * kStride;
        const V4 bre = load4(prv);
        const V4 bim = load4(piv);
        const V4 vre = sub4(mul4(bre, wre), mul4(bim, wim));
        const V4 vim = add4(mul4(bre, wim), mul4(bim, wre));
        const V4 ure = load4(pru);
        const V4 uim = load4(piu);
        store4(pru, add4(ure, vre));
        store4(piu, add4(uim, vim));
        store4(prv, sub4(ure, vre));
        store4(piv, sub4(uim, vim));
      }
    }
  }
}

void convolve(const PlanView& p, double* re, double* im,
              std::size_t /*lanes*/) {
  fft_pass(p, re, im, p.fwd_re, p.fwd_im);
  spectral_step<kStride>(p, re, im, kStride);
  fft_pass(p, re, im, p.inv_re, p.inv_im);
}

}  // namespace

const BatchKernel& neon_kernel_impl() {
  static constexpr BatchKernel kernel{"neon", kStride, convolve};
  return kernel;
}

}  // namespace ifdk::fft::simd

#endif  // defined(__aarch64__)
