// FFT substrate for the filtering stage (paper Section 2.2.3).
//
// The ramp-filter convolution of Algorithm 1 is executed in the frequency
// domain via the Convolution Theorem. The paper uses Intel IPP on the CPU;
// this module is a from-scratch replacement providing:
//   * an iterative radix-2 Cooley-Tukey transform for power-of-two sizes,
//   * Bluestein's chirp-z algorithm for arbitrary sizes,
//   * real-input convenience wrappers and a frequency-domain convolver.
//
// All transforms are unnormalized in the forward direction; inverse applies
// the 1/N factor (matching FFTW/IPP conventions).
//
// The hot path — RowConvolver — runs on the batch backends of fft/simd/:
// rows are packed batch_lanes() at a time into an SoA workspace (one
// detector row per vector lane; the lane count is a backend property — 8
// for avx512, 4 for scalar/avx2/neon) and transformed by a
// runtime-dispatched kernel. Each real row is zero-padded to the shortest
// exact power of two L (see RowConvolver) and packed even/odd into L/2
// complex points, so one half-length complex transform does the work of a
// full-length one on a real signal (simd/batch_kernel.h has the spectral
// step that undoes and redoes the split). Every backend executes the same
// per-lane operation sequence, so all backends — and batched vs single-row
// calls — produce bitwise-identical filtered rows.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/aligned.h"
#include "fft/simd/batch_kernel.h"

namespace ifdk::fft {

using Complex = std::complex<double>;

/// Backend selector for the batched row-convolution kernels, re-exported
/// from fft::simd so callers configure `fft::Backend::kScalar` etc. without
/// reaching into the backend namespace.
using Backend = simd::Backend;

/// Upper bound on rows per SoA batch across every backend (avx512's 8);
/// workspaces are sized for this so one Workspace serves any kernel. The
/// actual rows-per-batch of a planned convolver is
/// RowConvolver::batch_lanes().
inline constexpr std::size_t kMaxBatchLanes = simd::kMaxLanes;

/// In-place forward FFT. `data.size()` may be any positive length; radix-2 is
/// used when the length is a power of two, Bluestein otherwise.
void forward(std::vector<Complex>& data);

/// In-place inverse FFT (includes the 1/N normalization).
void inverse(std::vector<Complex>& data);

/// Forward FFT of a real signal; returns the full complex spectrum of length
/// `signal.size()`.
std::vector<Complex> forward_real(const std::vector<double>& signal);

/// Inverse FFT returning only the real part (the imaginary part of the result
/// is discarded; callers use it when the spectrum has Hermitian symmetry).
std::vector<double> inverse_real(std::vector<Complex> spectrum);

/// Circular convolution of two equal-length real signals via FFT.
std::vector<double> circular_convolve(const std::vector<double>& a,
                                      const std::vector<double>& b);

/// Caller-owned scratch for RowConvolver: two 64-byte-aligned SoA planes
/// (real/imaginary) holding kMaxBatchLanes zero-padded rows, each packed
/// even/odd (sample 2n in the real plane, 2n + 1 in the imaginary one). A
/// Workspace is NOT thread-safe — each thread uses its own (or the
/// per-thread one from thread_workspace()) — which is what lets
/// RowConvolver stay const and be
/// shared freely across pooled threads. Reused across calls so steady-state
/// filtering performs no heap allocation (the seed allocated a padded
/// complex vector per row; see allocations()).
class Workspace {
 public:
  /// Grows the planes to hold `padded` real samples per lane — (padded + 1)
  /// / 2 complex points per plane pair; no-op when already large enough.
  /// Called by RowConvolver with its padded_size() before each batch.
  void ensure(std::size_t padded);

  /// Number of heap (re)allocations performed so far. Tests pin this to
  /// prove that filtering any number of rows through one workspace
  /// allocates at most once.
  std::size_t allocations() const { return allocations_; }

  /// Capacity in padded real samples per lane (split across both planes).
  std::size_t capacity() const { return capacity_; }

  /// Real plane: (capacity() + 1) / 2 * kMaxBatchLanes doubles; complex
  /// point n of lane l sits at index n * W + l, where W is the
  /// batch_lanes() of the convolver using the workspace.
  double* re() { return re_.data(); }

  /// Imaginary plane, same layout as re().
  double* im() { return im_.data(); }

 private:
  AlignedBuffer<double> re_;
  AlignedBuffer<double> im_;
  std::size_t capacity_ = 0;
  std::size_t allocations_ = 0;
};

/// The calling thread's lazily-created Workspace. Backing store for the
/// convenience overloads below and for pool workers that have no natural
/// place to own scratch across tasks.
Workspace& thread_workspace();

/// Plan for repeated convolution of many rows with one fixed real kernel:
/// the spectral-step factors (from the kernel spectrum), bit-reversal swaps
/// and per-stage twiddle factors are computed once; each row batch is
/// transformed, multiplied and inverse-transformed by the selected simd
/// backend. This is exactly the per-row work of Algorithm 1 line 4. Rows
/// are zero-padded to `padded_size()` real samples and packed even/odd into
/// padded_size() / 2 complex points inside the workspace.
class RowConvolver {
 public:
  /// `row_length` is Nu; `kernel` is the spatial-domain filter of length K
  /// with centre c = K / 2. Only the output window [c, c + Nu) of the
  /// linear convolution is kept, so a circular convolution of length
  /// L >= Nu + max(c, K - 1 - c) is exact there: wrap-around lands only
  /// outside the window. L is that bound rounded up to a power of two (at
  /// least 2, so the half-length transform has a point), and a kernel
  /// longer than L is folded modulo L, which the same bound keeps exact.
  /// `backend` picks the batch kernel; kAuto resolves here, once, to the
  /// fastest supported one.
  RowConvolver(std::size_t row_length, const std::vector<double>& kernel,
               Backend backend = Backend::kAuto);

  /// Row length Nu this convolver was planned for.
  std::size_t row_length() const { return row_length_; }

  /// Padded real row length L = max(2, next_pow2(Nu + max(c, K - 1 - c))),
  /// a power of two; the backends transform L / 2 complex points.
  std::size_t padded_size() const { return padded_; }

  /// Name of the batch kernel actually selected ("scalar", "avx2",
  /// "avx512" or "neon").
  const char* backend_name() const { return kernel_->name; }

  /// Rows per SoA batch of the selected kernel (its lane width): 8 for
  /// avx512, 4 for scalar/avx2/neon. Also the SoA stride of the workspace
  /// planes during this convolver's batches.
  std::size_t batch_lanes() const { return kernel_->lanes; }

  /// Convolves one row in place: row[0..Nu) <- (row * kernel)[Nu window].
  /// The output window is centered so that a symmetric kernel leaves
  /// features in place (standard FBP filtering alignment). `ws` provides
  /// the scratch planes and must not be shared across threads.
  void convolve_row(float* row, Workspace& ws) const;

  /// Convenience overload of convolve_row using thread_workspace().
  void convolve_row(float* row) const;

  /// Convolves `count` contiguous rows (row r at rows + r * row_length())
  /// in place, batch_lanes() rows per backend call plus one partial batch.
  /// Bitwise-identical to `count` convolve_row calls.
  void convolve_rows(float* rows, std::size_t count, Workspace& ws) const;

  /// Convenience overload of convolve_rows using thread_workspace().
  void convolve_rows(float* rows, std::size_t count) const;

 private:
  /// One backend call: packs `lanes` <= batch_lanes() rows even/odd into
  /// the SoA planes, convolves, unpacks the centered output window.
  void convolve_batch(float* rows, std::size_t lanes, Workspace& ws) const;

  /// Assembles the read-only view the batch kernels consume.
  simd::PlanView plan_view() const;

  std::size_t row_length_;
  std::size_t padded_;
  std::size_t kernel_center_;
  const simd::BatchKernel* kernel_;
  std::vector<std::uint32_t> swap_from_;
  std::vector<std::uint32_t> swap_to_;
  std::vector<double> fwd_re_;
  std::vector<double> fwd_im_;
  std::vector<double> inv_re_;
  std::vector<double> inv_im_;
  std::vector<double> alpha_re_;
  std::vector<double> alpha_im_;
  std::vector<double> beta_re_;
  std::vector<double> beta_im_;
};

/// Naive O(N^2) DFT used only by tests as an oracle.
std::vector<Complex> naive_dft(const std::vector<Complex>& data);

}  // namespace ifdk::fft
