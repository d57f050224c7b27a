// AVX-512 backend: the same radix-2 passes as the scalar reference, with one
// __m512d covering eight double lanes of the SoA batch — twice the AVX2
// width, so one batch filters eight detector rows. The twiddle factors are
// lane-invariant broadcasts, and element i's eight lanes sit contiguously
// at [i * kStride, i * kStride + 8), so every butterfly is two 64-byte
// loads, the mul/sub/add sequence of the scalar backend, and two 64-byte
// stores — no shuffles, no gathers, no cross-lane mixing, and (unlike the
// column kernel) no masking: inactive lanes are zero-filled by the caller
// and 0 stays 0 through every butterfly and the spectral step between the
// passes (spectral_step, shared with every backend).
//
// This translation unit is compiled with -mavx512f -mavx512dq -mavx512vl
// -mfma -ffp-contract=off and only linked when CMake enables it
// (IFDK_HAVE_AVX512); runtime CPUID dispatch decides whether it actually
// runs. -ffp-contract=off matters: fusing any mul/add pair of the butterfly
// into an FMA would round differently from the scalar backend and break the
// bitwise-equivalence contract.
#include "fft/simd/batch_kernel.h"

#if defined(__AVX512F__) && defined(__AVX512DQ__) && defined(__AVX512VL__)

#include <immintrin.h>

#include <cstddef>

namespace ifdk::fft::simd {

namespace {

/// This backend's SoA stride (= BatchKernel::lanes): one __m512d.
constexpr std::size_t kStride = 8;

// One radix-2 pass over all eight lanes at once: same swap pairs, same stage
// order, same per-lane arithmetic as the scalar fft_lane.
void fft_pass(const PlanView& p, double* re, double* im, const double* tw_re,
              const double* tw_im) {
  for (std::size_t s = 0; s < p.swaps; ++s) {
    double* const ra = re + static_cast<std::size_t>(p.swap_from[s]) * kStride;
    double* const rb = re + static_cast<std::size_t>(p.swap_to[s]) * kStride;
    const __m512d va = _mm512_loadu_pd(ra);
    const __m512d vb = _mm512_loadu_pd(rb);
    _mm512_storeu_pd(ra, vb);
    _mm512_storeu_pd(rb, va);
    double* const ia = im + static_cast<std::size_t>(p.swap_from[s]) * kStride;
    double* const ib = im + static_cast<std::size_t>(p.swap_to[s]) * kStride;
    const __m512d wa = _mm512_loadu_pd(ia);
    const __m512d wb = _mm512_loadu_pd(ib);
    _mm512_storeu_pd(ia, wb);
    _mm512_storeu_pd(ib, wa);
  }

  for (std::size_t len = 2; len <= p.n; len <<= 1) {
    const std::size_t half = len / 2;
    const double* wr = tw_re + (half - 1);
    const double* wi = tw_im + (half - 1);
    for (std::size_t i = 0; i < p.n; i += len) {
      for (std::size_t k = 0; k < half; ++k) {
        const __m512d wre = _mm512_set1_pd(wr[k]);
        const __m512d wim = _mm512_set1_pd(wi[k]);
        double* const pru = re + (i + k) * kStride;
        double* const piu = im + (i + k) * kStride;
        double* const prv = re + (i + k + half) * kStride;
        double* const piv = im + (i + k + half) * kStride;
        const __m512d bre = _mm512_loadu_pd(prv);
        const __m512d bim = _mm512_loadu_pd(piv);
        const __m512d vre =
            _mm512_sub_pd(_mm512_mul_pd(bre, wre), _mm512_mul_pd(bim, wim));
        const __m512d vim =
            _mm512_add_pd(_mm512_mul_pd(bre, wim), _mm512_mul_pd(bim, wre));
        const __m512d ure = _mm512_loadu_pd(pru);
        const __m512d uim = _mm512_loadu_pd(piu);
        _mm512_storeu_pd(pru, _mm512_add_pd(ure, vre));
        _mm512_storeu_pd(piu, _mm512_add_pd(uim, vim));
        _mm512_storeu_pd(prv, _mm512_sub_pd(ure, vre));
        _mm512_storeu_pd(piv, _mm512_sub_pd(uim, vim));
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

const BatchKernel& avx512_kernel_impl() {
  static constexpr BatchKernel kernel{"avx512", kStride, convolve};
  return kernel;
}

}  // namespace ifdk::fft::simd

#endif  // __AVX512F__ && __AVX512DQ__ && __AVX512VL__
