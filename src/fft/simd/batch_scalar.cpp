// Scalar reference backend: radix-2 DIT forward pass, the shared spectral
// step, radix-2 inverse pass, replayed one lane at a time over the SoA
// batch. Twiddles come from the plan tables — the exact values of
// fft::forward's w *= wn recurrence — and the complex multiplies spell out
// the (ac - bd, ad + bc) association of std::complex's finite fast path.
// This is the reference the vector backends must match lane for lane.
#include <cstddef>
#include <utility>

#include "fft/simd/batch_kernel.h"

namespace ifdk::fft::simd {

namespace {

/// This backend's SoA stride (= BatchKernel::lanes).
constexpr std::size_t kStride = 4;

// One radix-2 pass over lane `l`: bit-reversal permutation (precomputed swap
// pairs), then the butterfly stages with stage-packed twiddles. Identical
// loop structure and operation order to the seed's radix2().
void fft_lane(const PlanView& p, double* re, double* im, std::size_t l,
              const double* tw_re, const double* tw_im) {
  for (std::size_t s = 0; s < p.swaps; ++s) {
    const std::size_t a =
        static_cast<std::size_t>(p.swap_from[s]) * kStride + l;
    const std::size_t b = static_cast<std::size_t>(p.swap_to[s]) * kStride + l;
    std::swap(re[a], re[b]);
    std::swap(im[a], im[b]);
  }

  for (std::size_t len = 2; len <= p.n; len <<= 1) {
    const std::size_t half = len / 2;
    const double* wr = tw_re + (half - 1);
    const double* wi = tw_im + (half - 1);
    for (std::size_t i = 0; i < p.n; i += len) {
      for (std::size_t k = 0; k < half; ++k) {
        const std::size_t ua = (i + k) * kStride + l;
        const std::size_t vb = (i + k + half) * kStride + l;
        // v = a[i+k+half] * w, complex multiply in the std::complex finite
        // fast-path order: (re*re - im*im, re*im + im*re).
        const double bre = re[vb];
        const double bim = im[vb];
        const double vre = bre * wr[k] - bim * wi[k];
        const double vim = bre * wi[k] + bim * wr[k];
        const double ure = re[ua];
        const double uim = im[ua];
        re[ua] = ure + vre;
        im[ua] = uim + vim;
        re[vb] = ure - vre;
        im[vb] = uim - vim;
      }
    }
  }
}

void convolve(const PlanView& p, double* re, double* im, std::size_t lanes) {
  // Lanes are fully independent rows: processing them one at a time here and
  // four at a time in the AVX2 backend yields bitwise-identical planes. Only
  // the active lanes are touched, so a single-row call does 1/kStride of the
  // work rather than transforming zero-filled padding.
  for (std::size_t l = 0; l < lanes; ++l) {
    fft_lane(p, re, im, l, p.fwd_re, p.fwd_im);
  }
  spectral_step<kStride>(p, re, im, lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    fft_lane(p, re, im, l, p.inv_re, p.inv_im);
  }
}

}  // namespace

const BatchKernel& scalar_kernel() {
  static constexpr BatchKernel kernel{"scalar", kStride, convolve};
  return kernel;
}

}  // namespace ifdk::fft::simd
