// AVX2 backend: the same radix-2 passes as the scalar reference, with one
// __m256d covering the four double lanes of the SoA batch. The twiddle
// factors are lane-invariant broadcasts, and element i's four lanes sit
// contiguously at [i * kStride, i * kStride + 4), so every butterfly is two
// 32-byte loads, the mul/sub/add sequence of the scalar backend, and two
// 32-byte stores — no shuffles, no gathers, no cross-lane mixing. The
// spectral step between the passes is the shared spectral_step.
//
// This translation unit is compiled with -mavx2 -mfma -ffp-contract=off and
// only linked when CMake enables it (IFDK_HAVE_AVX2); runtime CPUID dispatch
// decides whether it actually runs. -ffp-contract=off matters: fusing any
// mul/add pair of the butterfly into an FMA would round differently from the
// scalar backend and break the bitwise-equivalence contract. Inactive lanes
// are zero-filled by the caller, so transforming all four unconditionally is
// harmless (0 stays 0 through every butterfly).
#include "fft/simd/batch_kernel.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <cstddef>

namespace ifdk::fft::simd {

namespace {

/// This backend's SoA stride (= BatchKernel::lanes): one __m256d.
constexpr std::size_t kStride = 4;

// One radix-2 pass over all four lanes at once: same swap pairs, same stage
// order, same per-lane arithmetic as the scalar fft_lane.
void fft_pass(const PlanView& p, double* re, double* im, const double* tw_re,
              const double* tw_im) {
  for (std::size_t s = 0; s < p.swaps; ++s) {
    double* const ra = re + static_cast<std::size_t>(p.swap_from[s]) * kStride;
    double* const rb = re + static_cast<std::size_t>(p.swap_to[s]) * kStride;
    const __m256d va = _mm256_loadu_pd(ra);
    const __m256d vb = _mm256_loadu_pd(rb);
    _mm256_storeu_pd(ra, vb);
    _mm256_storeu_pd(rb, va);
    double* const ia = im + static_cast<std::size_t>(p.swap_from[s]) * kStride;
    double* const ib = im + static_cast<std::size_t>(p.swap_to[s]) * kStride;
    const __m256d wa = _mm256_loadu_pd(ia);
    const __m256d wb = _mm256_loadu_pd(ib);
    _mm256_storeu_pd(ia, wb);
    _mm256_storeu_pd(ib, wa);
  }

  for (std::size_t len = 2; len <= p.n; len <<= 1) {
    const std::size_t half = len / 2;
    const double* wr = tw_re + (half - 1);
    const double* wi = tw_im + (half - 1);
    for (std::size_t i = 0; i < p.n; i += len) {
      for (std::size_t k = 0; k < half; ++k) {
        const __m256d wre = _mm256_set1_pd(wr[k]);
        const __m256d wim = _mm256_set1_pd(wi[k]);
        double* const pru = re + (i + k) * kStride;
        double* const piu = im + (i + k) * kStride;
        double* const prv = re + (i + k + half) * kStride;
        double* const piv = im + (i + k + half) * kStride;
        const __m256d bre = _mm256_loadu_pd(prv);
        const __m256d bim = _mm256_loadu_pd(piv);
        const __m256d vre =
            _mm256_sub_pd(_mm256_mul_pd(bre, wre), _mm256_mul_pd(bim, wim));
        const __m256d vim =
            _mm256_add_pd(_mm256_mul_pd(bre, wim), _mm256_mul_pd(bim, wre));
        const __m256d ure = _mm256_loadu_pd(pru);
        const __m256d uim = _mm256_loadu_pd(piu);
        _mm256_storeu_pd(pru, _mm256_add_pd(ure, vre));
        _mm256_storeu_pd(piu, _mm256_add_pd(uim, vim));
        _mm256_storeu_pd(prv, _mm256_sub_pd(ure, vre));
        _mm256_storeu_pd(piv, _mm256_sub_pd(uim, vim));
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

const BatchKernel& avx2_kernel_impl() {
  static constexpr BatchKernel kernel{"avx2", kStride, convolve};
  return kernel;
}

}  // namespace ifdk::fft::simd

#endif  // defined(__AVX2__)
