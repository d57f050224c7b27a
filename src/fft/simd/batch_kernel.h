// SIMD backend layer for the ramp-filter FFT (paper Section 2.2.3).
//
// The filtering stage convolves every detector row with one fixed kernel via
// forward FFT -> spectrum multiply -> inverse FFT. Rows are independent and
// all share one plan (same padded length, same twiddles, same spectral
// factors), so the natural vector unit of work is a BATCH of rows in SoA
// layout: the workspace holds one row per vector lane — complex element n
// of lane l lives at index n * W + l of the re/im planes, where W is the
// backend's lane width (BatchKernel::lanes) — and every butterfly and
// spectral product is the *same* scalar operation applied to W rows at once.
// Because lanes never mix, a vector backend that mirrors the scalar
// operation order per lane is bitwise-identical to the scalar path (and a
// batch of N rows is bitwise-identical to N single-row calls) by
// construction, whatever its width.
//
// Each row is real, so it is transformed as a half-length complex signal:
// a row zero-padded to L real samples is packed even/odd — sample 2n into
// re[n], sample 2n+1 into im[n] — giving M = L/2 complex points per lane.
// One batch is then
//   1. the forward radix-2 pass at length M (the backend's loop),
//   2. spectral_step() below, which folds the even/odd split of the M-point
//      spectrum into the L-point real spectrum, the product with the kernel
//      spectrum, the re-split for the inverse and the 1/M normalization into
//      one pass Z'[k] = alpha[k] Z[k] + beta[k] conj(Z[(M - k) mod M]),
//   3. the inverse radix-2 pass at length M (the backend's loop),
// after which re[n] / im[n] hold filtered samples 2n / 2n + 1.
//
// Backends (lane width in parentheses):
//   * scalar (4) — straight-line reference: the radix-2 passes one lane at a
//     time (same twiddle recurrence, same complex-multiply association as
//     the generic fft::forward).
//   * avx2 (4) — one __m256d per index covers all four double lanes.
//   * avx512 (8) — one __m512d per index covers eight double lanes, halving
//     the number of butterfly passes per row throughput-wise.
//   * neon (4) — two float64x2_t per index cover the four double lanes on
//     AArch64.
// The spectral step is written once, here, and every backend calls it
// between its two passes. Availability and kAuto resolution live in
// common/simd_dispatch (shared with the back-projection column layer); every
// vector TU builds with -ffp-contract=off so no mul/add pair of the scalar
// sequence — butterfly or spectral step — is fused into a
// differently-rounded FMA.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/simd_dispatch.h"

namespace ifdk::fft::simd {

/// One Backend enum for every vectorized layer; see common/simd_dispatch.h.
using Backend = ifdk::simd::Backend;
using ifdk::simd::compiled;
using ifdk::simd::supported;
using ifdk::simd::to_string;

/// The widest lane count of any backend (avx512's 8): workspaces sized for
/// kMaxLanes rows fit whichever kernel dispatch settles on.
inline constexpr std::size_t kMaxLanes = 8;

/// Read-only view of one RowConvolver plan: everything the batch kernel
/// needs that does not depend on the row data. All pointers stay owned by
/// the RowConvolver and outlive the call.
struct PlanView {
  std::size_t n = 0;  ///< complex points per lane, M = L/2 (a power of two)
  /// Bit-reversal permutation as precomputed swap pairs (from < to).
  const std::uint32_t* swap_from = nullptr;
  const std::uint32_t* swap_to = nullptr;
  std::size_t swaps = 0;
  /// Stage-packed butterfly twiddles (n - 1 values each): stage len starts
  /// at offset len/2 - 1 and holds len/2 entries, exactly the w of the
  /// radix-2 recurrence w *= wn.
  const double* fwd_re = nullptr;
  const double* fwd_im = nullptr;
  const double* inv_re = nullptr;
  const double* inv_im = nullptr;
  /// Spectral-step factors (n values per component), already scaled by
  /// 1/n so the inverse pass needs no normalization of its own.
  const double* alpha_re = nullptr;
  const double* alpha_im = nullptr;
  const double* beta_re = nullptr;
  const double* beta_im = nullptr;
};

namespace {

/// The spectral step between the forward and inverse passes, over lanes
/// [0, lanes) of SoA planes with stride W:
///   Z'[k] = alpha[k] Z[k] + beta[k] conj(Z[(M - k) mod M]).
/// k and M - k read each other, so the step walks the pairs (k, M - k) for
/// k <= M/2 and writes both from the loaded values (k = 0 and k = M/2 pair
/// with themselves). Plain C++ in every backend's translation unit, so the
/// vector TUs may widen the lane loop but every lane rounds exactly like
/// the scalar backend (contraction is off). Internal linkage keeps each
/// TU's ISA-specific copy its own.
template <std::size_t W>
inline void spectral_step(const PlanView& p, double* re, double* im,
                          std::size_t lanes) {
  const std::size_t m = p.n;
  for (std::size_t k = 0; k <= m / 2; ++k) {
    const std::size_t j = (m - k) & (m - 1);
    const double akr = p.alpha_re[k], aki = p.alpha_im[k];
    const double bkr = p.beta_re[k], bki = p.beta_im[k];
    const double ajr = p.alpha_re[j], aji = p.alpha_im[j];
    const double bjr = p.beta_re[j], bji = p.beta_im[j];
    double* const rk = re + k * W;
    double* const ik = im + k * W;
    double* const rj = re + j * W;
    double* const ij = im + j * W;
    for (std::size_t l = 0; l < lanes; ++l) {
      const double zkr = rk[l], zki = ik[l];
      const double zjr = rj[l], zji = ij[l];
      // alpha * z + beta * conj(w), complex multiplies in the
      // (ac - bd, ad + bc) order with conj folded into the signs.
      const double outkr = (akr * zkr - aki * zki) + (bkr * zjr + bki * zji);
      const double outki = (akr * zki + aki * zkr) + (bki * zjr - bkr * zji);
      const double outjr = (ajr * zjr - aji * zji) + (bjr * zkr + bji * zki);
      const double outji = (ajr * zji + aji * zjr) + (bji * zkr - bjr * zki);
      rk[l] = outkr;
      ik[l] = outki;
      rj[l] = outjr;
      ij[l] = outji;
    }
  }
}

}  // namespace

/// One batch of work: forward pass, spectral_step, inverse pass over
/// `lanes` even/odd-packed rows held in the SoA planes re/im. The SoA stride
/// is the kernel's own lane width (BatchKernel::lanes); inactive lanes up to
/// that width are zero-filled by the caller. On return re[n] / im[n] hold
/// filtered samples 2n / 2n + 1; the caller windows out
/// [kernel_center, kernel_center + row_length).
using ConvolveFn = void (*)(const PlanView& plan, double* re, double* im,
                            std::size_t lanes);

struct BatchKernel {
  const char* name;
  /// SoA stride and rows per batch — a backend property (see header doc).
  std::size_t lanes;
  ConvolveFn convolve;
};

/// The scalar reference backend (always available).
const BatchKernel& scalar_kernel();

/// Resolves a backend choice to a kernel via ifdk::simd::resolve: kAuto
/// prefers the widest supported backend; an explicit request for an
/// unavailable backend throws ConfigError.
const BatchKernel& select(Backend backend);

}  // namespace ifdk::fft::simd
