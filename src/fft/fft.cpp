#include "fft/fft.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.h"
#include "common/math_util.h"

namespace ifdk::fft {

namespace {

// Iterative radix-2 Cooley-Tukey, decimation in time. `sign` is -1 for the
// forward transform (engineering convention, e^{-i2πkn/N}) and +1 for inverse.
void radix2(std::vector<Complex>& a, int sign) {
  const std::size_t n = a.size();
  IFDK_ASSERT(is_pow2(n));

  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }

  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = sign * 2.0 * kPi / static_cast<double>(len);
    const Complex wn(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < n; i += len) {
      Complex w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const Complex u = a[i + k];
        const Complex v = a[i + k + len / 2] * w;
        a[i + k] = u + v;
        a[i + k + len / 2] = u - v;
        w *= wn;
      }
    }
  }
}

// Bluestein chirp-z transform: expresses an arbitrary-length DFT as a
// circular convolution of power-of-two length.
void bluestein(std::vector<Complex>& a, int sign) {
  const std::size_t n = a.size();
  const std::size_t m = next_pow2(2 * n + 1);

  std::vector<Complex> chirp(n);
  for (std::size_t k = 0; k < n; ++k) {
    // Use k^2 mod 2n to avoid catastrophic angle growth for large k.
    const std::size_t k2 = (static_cast<unsigned long long>(k) * k) % (2 * n);
    const double angle =
        sign * kPi * static_cast<double>(k2) / static_cast<double>(n);
    chirp[k] = Complex(std::cos(angle), std::sin(angle));
  }

  std::vector<Complex> x(m, Complex(0, 0));
  std::vector<Complex> y(m, Complex(0, 0));
  for (std::size_t k = 0; k < n; ++k) x[k] = a[k] * chirp[k];
  y[0] = std::conj(chirp[0]);
  for (std::size_t k = 1; k < n; ++k) {
    y[k] = y[m - k] = std::conj(chirp[k]);
  }

  radix2(x, -1);
  radix2(y, -1);
  for (std::size_t k = 0; k < m; ++k) x[k] *= y[k];
  radix2(x, +1);
  const double inv_m = 1.0 / static_cast<double>(m);
  for (std::size_t k = 0; k < n; ++k) {
    a[k] = x[k] * inv_m * chirp[k];
  }
}

void transform(std::vector<Complex>& data, int sign) {
  const std::size_t n = data.size();
  IFDK_ASSERT(n > 0);
  if (n == 1) return;
  if (is_pow2(n)) {
    radix2(data, sign);
  } else {
    bluestein(data, sign);
  }
}

}  // namespace

void forward(std::vector<Complex>& data) { transform(data, -1); }

void inverse(std::vector<Complex>& data) {
  transform(data, +1);
  const double inv_n = 1.0 / static_cast<double>(data.size());
  for (auto& v : data) v *= inv_n;
}

std::vector<Complex> forward_real(const std::vector<double>& signal) {
  std::vector<Complex> data(signal.size());
  for (std::size_t i = 0; i < signal.size(); ++i) data[i] = Complex(signal[i], 0);
  forward(data);
  return data;
}

std::vector<double> inverse_real(std::vector<Complex> spectrum) {
  inverse(spectrum);
  std::vector<double> out(spectrum.size());
  for (std::size_t i = 0; i < spectrum.size(); ++i) out[i] = spectrum[i].real();
  return out;
}

std::vector<double> circular_convolve(const std::vector<double>& a,
                                      const std::vector<double>& b) {
  IFDK_ASSERT(a.size() == b.size());
  auto sa = forward_real(a);
  auto sb = forward_real(b);
  for (std::size_t i = 0; i < sa.size(); ++i) sa[i] *= sb[i];
  return inverse_real(std::move(sa));
}

void Workspace::ensure(std::size_t padded) {
  if (padded <= capacity_) return;
  // Sized for the widest backend so one workspace serves whichever kernel
  // dispatch settled on (and the allocation count stays at one even if two
  // convolvers with different lane widths share it).
  const std::size_t points = (padded + 1) / 2;
  re_.allocate(points * kMaxBatchLanes);
  im_.allocate(points * kMaxBatchLanes);
  capacity_ = padded;
  ++allocations_;
}

Workspace& thread_workspace() {
  thread_local Workspace ws;
  return ws;
}

RowConvolver::RowConvolver(std::size_t row_length,
                           const std::vector<double>& kernel, Backend backend)
    : row_length_(row_length), kernel_(&simd::select(backend)) {
  IFDK_ASSERT(row_length > 0);
  IFDK_ASSERT(!kernel.empty());
  // Output sample i of the row is linear-convolution sample i + c; the
  // shortest exact circular length is Nu + max(c, K - 1 - c) (see fft.h).
  kernel_center_ = kernel.size() / 2;
  const std::size_t reach =
      std::max(kernel_center_, kernel.size() - 1 - kernel_center_);
  padded_ = std::max<std::size_t>(2, next_pow2(row_length + reach));
  IFDK_ASSERT(padded_ / 2 <= std::numeric_limits<std::uint32_t>::max());
  const std::size_t m = padded_ / 2;

  // L-point kernel spectrum H; taps beyond L fold modulo L (still exact:
  // no output-window sample reads a wrapped row index).
  std::vector<Complex> h(padded_, Complex(0, 0));
  for (std::size_t i = 0; i < kernel.size(); ++i) {
    h[i % padded_] += Complex(kernel[i], 0);
  }
  forward(h);

  // Spectral-step factors. With Z the M-point transform of the even/odd
  // packed row and Zc[k] = conj(Z[(M - k) mod M]), the real spectrum is
  // X[k] = Xe + W^k Xo and X[k + M] = Xe - W^k Xo, Xe = (Z + Zc) / 2,
  // Xo = -i (Z - Zc) / 2, W = e^{-2 pi i / L}. Filtering gives
  // Y = H X, and the packed transform of the filtered row is
  // Z' = Ye + i Yo = Xe P + Xo Q = alpha Z + beta Zc with
  //   P = [(Hp + Hm) + i W^-k (Hp - Hm)] / 2,
  //   Q = [(Hp - Hm) W^k + i (Hp + Hm)] / 2,
  //   alpha = (P - i Q) / 2,  beta = (P + i Q) / 2,
  // Hp = H[k], Hm = H[k + M]. The inverse pass's 1/M is folded in; M is a
  // power of two, so the scaling is exact.
  const Complex i1(0, 1);
  const double inv_m = 1.0 / static_cast<double>(m);
  alpha_re_.resize(m);
  alpha_im_.resize(m);
  beta_re_.resize(m);
  beta_im_.resize(m);
  for (std::size_t k = 0; k < m; ++k) {
    const double angle =
        -2.0 * kPi * static_cast<double>(k) / static_cast<double>(padded_);
    const Complex w(std::cos(angle), std::sin(angle));
    const Complex hp = h[k];
    const Complex hm = h[k + m];
    const Complex p = 0.5 * ((hp + hm) + i1 * std::conj(w) * (hp - hm));
    const Complex q = 0.5 * ((hp - hm) * w + i1 * (hp + hm));
    const Complex alpha = 0.5 * inv_m * (p - i1 * q);
    const Complex beta = 0.5 * inv_m * (p + i1 * q);
    alpha_re_[k] = alpha.real();
    alpha_im_[k] = alpha.imag();
    beta_re_[k] = beta.real();
    beta_im_[k] = beta.imag();
  }

  // Bit-reversal permutation as explicit swap pairs: the same (i, j) swaps
  // radix2() performs, recorded once so the batch kernels replay them
  // without recomputing the reversed index per call.
  for (std::size_t i = 1, j = 0; i < m; ++i) {
    std::size_t bit = m >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) {
      swap_from_.push_back(static_cast<std::uint32_t>(i));
      swap_to_.push_back(static_cast<std::uint32_t>(j));
    }
  }

  // Stage-packed twiddle tables: stage len occupies [len/2 - 1, len - 1)
  // and holds exactly the w values of radix2()'s w *= wn recurrence.
  const auto build = [m](int sign, std::vector<double>& tre,
                         std::vector<double>& tim) {
    tre.reserve(m - 1);
    tim.reserve(m - 1);
    for (std::size_t len = 2; len <= m; len <<= 1) {
      const double angle = sign * 2.0 * kPi / static_cast<double>(len);
      const Complex wn(std::cos(angle), std::sin(angle));
      Complex w(1.0, 0.0);
      for (std::size_t k2 = 0; k2 < len / 2; ++k2) {
        tre.push_back(w.real());
        tim.push_back(w.imag());
        w *= wn;
      }
    }
  };
  build(-1, fwd_re_, fwd_im_);
  build(+1, inv_re_, inv_im_);
}

simd::PlanView RowConvolver::plan_view() const {
  simd::PlanView p;
  p.n = padded_ / 2;
  p.swap_from = swap_from_.data();
  p.swap_to = swap_to_.data();
  p.swaps = swap_from_.size();
  p.fwd_re = fwd_re_.data();
  p.fwd_im = fwd_im_.data();
  p.inv_re = inv_re_.data();
  p.inv_im = inv_im_.data();
  p.alpha_re = alpha_re_.data();
  p.alpha_im = alpha_im_.data();
  p.beta_re = beta_re_.data();
  p.beta_im = beta_im_.data();
  return p;
}

void RowConvolver::convolve_batch(float* rows, std::size_t lanes,
                                  Workspace& ws) const {
  const std::size_t width = kernel_->lanes;  // SoA stride of this backend
  IFDK_ASSERT(lanes >= 1 && lanes <= width);
  ws.ensure(padded_);
  double* re = ws.re();
  double* im = ws.im();
  // Zero everything: the pad region must be zero for linear convolution,
  // and inactive lanes must be zero so the vector backends (which always
  // transform all `width` lanes) work on clean data.
  const std::size_t total = padded_ / 2 * width;
  std::fill(re, re + total, 0.0);
  std::fill(im, im + total, 0.0);
  // Even/odd packing: sample 2n -> re[n], sample 2n + 1 -> im[n].
  for (std::size_t l = 0; l < lanes; ++l) {
    const float* row = rows + l * row_length_;
    for (std::size_t i = 0; i < row_length_; ++i) {
      double* plane = (i & 1) ? im : re;
      plane[(i >> 1) * width + l] = static_cast<double>(row[i]);
    }
  }
  kernel_->convolve(plan_view(), re, im, lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    float* row = rows + l * row_length_;
    for (std::size_t i = 0; i < row_length_; ++i) {
      const std::size_t q = i + kernel_center_;
      const double* plane = (q & 1) ? im : re;
      row[i] = static_cast<float>(plane[(q >> 1) * width + l]);
    }
  }
}

void RowConvolver::convolve_row(float* row, Workspace& ws) const {
  convolve_batch(row, 1, ws);
}

void RowConvolver::convolve_row(float* row) const {
  convolve_batch(row, 1, thread_workspace());
}

void RowConvolver::convolve_rows(float* rows, std::size_t count,
                                 Workspace& ws) const {
  const std::size_t width = kernel_->lanes;
  std::size_t r = 0;
  for (; r + width <= count; r += width) {
    convolve_batch(rows + r * row_length_, width, ws);
  }
  if (r < count) {
    convolve_batch(rows + r * row_length_, count - r, ws);
  }
}

void RowConvolver::convolve_rows(float* rows, std::size_t count) const {
  convolve_rows(rows, count, thread_workspace());
}

std::vector<Complex> naive_dft(const std::vector<Complex>& data) {
  const std::size_t n = data.size();
  std::vector<Complex> out(n, Complex(0, 0));
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t t = 0; t < n; ++t) {
      const double angle =
          -2.0 * kPi * static_cast<double>(k * t) / static_cast<double>(n);
      out[k] += data[t] * Complex(std::cos(angle), std::sin(angle));
    }
  }
  return out;
}

}  // namespace ifdk::fft
