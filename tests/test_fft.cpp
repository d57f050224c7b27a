// FFT substrate tests: transforms against a naive DFT oracle, round trips,
// Parseval, convolution identities, and the RowConvolver used by the
// filtering stage.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <vector>

#include "common/math_util.h"
#include "common/rng.h"
#include "common/simd_dispatch.h"
#include "fft/fft.h"
#include "filter/ramp.h"

namespace ifdk::fft {
namespace {

std::vector<Complex> random_signal(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Complex> out(n);
  for (auto& v : out) {
    v = Complex(rng.next_double() * 2 - 1, rng.next_double() * 2 - 1);
  }
  return out;
}

double max_err(const std::vector<Complex>& a, const std::vector<Complex>& b) {
  double m = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a[i] - b[i]));
  }
  return m;
}

class FftSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftSizes, MatchesNaiveDft) {
  const std::size_t n = GetParam();
  auto signal = random_signal(n, n);
  auto oracle = naive_dft(signal);
  forward(signal);
  EXPECT_LT(max_err(signal, oracle), 1e-8 * static_cast<double>(n))
      << "size " << n;
}

TEST_P(FftSizes, RoundTripIsIdentity) {
  const std::size_t n = GetParam();
  auto signal = random_signal(n, 17 * n + 1);
  auto copy = signal;
  forward(signal);
  inverse(signal);
  EXPECT_LT(max_err(signal, copy), 1e-10 * static_cast<double>(n));
}

// Power-of-two sizes exercise radix-2; the rest exercise Bluestein,
// including primes (13, 127) and highly composite non-pow2 (96, 100).
INSTANTIATE_TEST_SUITE_P(AllSizes, FftSizes,
                         ::testing::Values(1, 2, 4, 8, 13, 16, 32, 64, 96, 100,
                                           127, 128, 256, 1000, 1024));

TEST(Fft, ParsevalTheorem) {
  const std::size_t n = 512;
  auto signal = random_signal(n, 99);
  double time_energy = 0;
  for (const auto& v : signal) time_energy += std::norm(v);
  forward(signal);
  double freq_energy = 0;
  for (const auto& v : signal) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy, 1e-8);
}

TEST(Fft, DeltaTransformsToConstant) {
  std::vector<Complex> delta(64, Complex(0, 0));
  delta[0] = Complex(1, 0);
  forward(delta);
  for (const auto& v : delta) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, LinearityHolds) {
  const std::size_t n = 128;
  auto a = random_signal(n, 1);
  auto b = random_signal(n, 2);
  std::vector<Complex> sum(n);
  for (std::size_t i = 0; i < n; ++i) sum[i] = 2.0 * a[i] + 3.0 * b[i];
  forward(a);
  forward(b);
  forward(sum);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_LT(std::abs(sum[i] - (2.0 * a[i] + 3.0 * b[i])), 1e-9);
  }
}

TEST(Fft, CircularConvolutionMatchesDirect) {
  const std::size_t n = 64;
  Rng rng(5);
  std::vector<double> a(n), b(n);
  for (auto& v : a) v = rng.next_double();
  for (auto& v : b) v = rng.next_double();

  auto fast = circular_convolve(a, b);

  for (std::size_t i = 0; i < n; ++i) {
    double direct = 0;
    for (std::size_t j = 0; j < n; ++j) {
      direct += a[j] * b[(i + n - j) % n];
    }
    EXPECT_NEAR(fast[i], direct, 1e-9) << "lag " << i;
  }
}

TEST(RowConvolver, IdentityKernelPreservesRow) {
  // A centered unit impulse kernel must return the row unchanged.
  std::vector<double> kernel(9, 0.0);
  kernel[4] = 1.0;
  RowConvolver conv(32, kernel);
  std::vector<float> row(32);
  for (std::size_t i = 0; i < row.size(); ++i) row[i] = static_cast<float>(i);
  auto expected = row;
  conv.convolve_row(row.data());
  for (std::size_t i = 0; i < row.size(); ++i) {
    EXPECT_NEAR(row[i], expected[i], 1e-4f);
  }
}

TEST(RowConvolver, BoxKernelSmooths) {
  std::vector<double> kernel(3, 1.0 / 3.0);
  RowConvolver conv(16, kernel);
  std::vector<float> row(16, 0.0f);
  row[8] = 3.0f;
  conv.convolve_row(row.data());
  EXPECT_NEAR(row[7], 1.0f, 1e-4f);
  EXPECT_NEAR(row[8], 1.0f, 1e-4f);
  EXPECT_NEAR(row[9], 1.0f, 1e-4f);
  EXPECT_NEAR(row[5], 0.0f, 1e-4f);
}

TEST(RowConvolver, MatchesDirectLinearConvolution) {
  Rng rng(11);
  std::vector<double> kernel(17);
  for (auto& v : kernel) v = rng.next_double() - 0.5;
  const std::size_t n = 40;
  std::vector<float> row(n);
  for (auto& v : row) v = static_cast<float>(rng.next_double());
  std::vector<float> orig(row);

  RowConvolver conv(n, kernel);
  conv.convolve_row(row.data());

  const std::ptrdiff_t center = static_cast<std::ptrdiff_t>(kernel.size() / 2);
  for (std::size_t i = 0; i < n; ++i) {
    double direct = 0;
    for (std::size_t t = 0; t < kernel.size(); ++t) {
      // Linear convolution: out[i + center] = sum_t kernel[t] * in[i + center - t]
      const std::ptrdiff_t src = static_cast<std::ptrdiff_t>(i) + center -
                                 static_cast<std::ptrdiff_t>(t);
      if (src >= 0 && src < static_cast<std::ptrdiff_t>(n)) {
        direct += kernel[t] * orig[static_cast<std::size_t>(src)];
      }
    }
    EXPECT_NEAR(row[i], direct, 1e-4) << "sample " << i;
  }
}

// Only the centred Nu-sample window of the linear convolution is kept, so
// the padded length is the shortest power of two with no wrap-around inside
// that window: next_pow2(Nu + max(c, K - 1 - c)), c = K / 2, and at least 2
// so the half-length complex transform has a point.
std::size_t exact_padding(std::size_t nu, std::size_t k) {
  const std::size_t c = k / 2;
  return std::max<std::size_t>(2, next_pow2(nu + std::max(c, k - 1 - c)));
}

TEST(RowConvolver, PaddedSizeIsPowerOfTwoAndSufficient) {
  struct Case {
    std::size_t nu, k;
  };
  for (const Case cs : {Case{100, 33}, Case{100, 34}, Case{128, 255},
                        Case{256, 511}, Case{1, 1}, Case{1, 9}, Case{5, 2},
                        Case{48, 33}, Case{49, 33}}) {
    const RowConvolver conv(cs.nu, std::vector<double>(cs.k, 0.1));
    EXPECT_TRUE(is_pow2(conv.padded_size())) << cs.nu << "," << cs.k;
    EXPECT_EQ(conv.padded_size(), exact_padding(cs.nu, cs.k))
        << "nu=" << cs.nu << " k=" << cs.k;
  }
  // The ramp (K = 2 hw + 1) pads to next_pow2(Nu + hw): 512 for the 256-wide
  // series detector at full support, not the 1024 of Nu + K - 1.
  EXPECT_EQ(RowConvolver(256, std::vector<double>(511, 0.1)).padded_size(),
            512u);
}

// ---------------------------------------------------------------------------
// Property suite: the FFT convolver against direct O(n^2) linear convolution
// ---------------------------------------------------------------------------

// Direct linear convolution reference, windowed exactly like convolve_row:
// out[i] = sum_t kernel[t] * in[i + center - t].
std::vector<float> direct_convolve(const std::vector<float>& in,
                                   const std::vector<double>& kernel) {
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(in.size());
  const std::ptrdiff_t center = static_cast<std::ptrdiff_t>(kernel.size() / 2);
  std::vector<float> out(in.size());
  for (std::ptrdiff_t i = 0; i < n; ++i) {
    double acc = 0;
    for (std::ptrdiff_t t = 0;
         t < static_cast<std::ptrdiff_t>(kernel.size()); ++t) {
      const std::ptrdiff_t src = i + center - t;
      if (src >= 0 && src < n) {
        acc += kernel[static_cast<std::size_t>(t)] *
               static_cast<double>(in[static_cast<std::size_t>(src)]);
      }
    }
    out[static_cast<std::size_t>(i)] = static_cast<float>(acc);
  }
  return out;
}

// Odd and even row lengths, including ones whose padded power of two sits
// just above/below the naive guess; ramp half-widths both full (Nu - 1) and
// truncated.
TEST(RowConvolverProperty, MatchesDirectAcrossRowLengthsAndWindows) {
  const std::size_t row_lengths[] = {7, 8, 31, 32, 33, 64, 100, 101};
  std::uint64_t seed = 1;
  for (const std::size_t nu : row_lengths) {
    for (const auto w :
         {filter::RampWindow::kRamLak, filter::RampWindow::kSheppLogan,
          filter::RampWindow::kCosine, filter::RampWindow::kHamming,
          filter::RampWindow::kHann}) {
      for (const std::size_t half_width : {nu - 1, nu / 2, std::size_t{1}}) {
        const auto kernel =
            filter::make_ramp_kernel(half_width, 0.8, w, 1.7);
        Rng rng(seed++);
        std::vector<float> row(nu);
        for (auto& v : row) v = static_cast<float>(rng.next_double() * 2 - 1);
        const auto expected = direct_convolve(row, kernel);
        RowConvolver conv(nu, kernel);
        conv.convolve_row(row.data());
        for (std::size_t i = 0; i < nu; ++i) {
          EXPECT_NEAR(row[i], expected[i], 2e-4)
              << "nu=" << nu << " window=" << filter::to_string(w)
              << " half_width=" << half_width << " sample " << i;
        }
      }
    }
  }
}

TEST(RowConvolverProperty, BatchedMatchesDirectOnPartialBatches) {
  // Row counts straddling the resolved kernel's lane boundary: partial
  // batches, one exact batch, and a batch-plus-remainder all reduce to the
  // same direct convolution.
  const std::size_t nu = 45;
  const auto kernel = filter::make_ramp_kernel(nu - 1, 1.1,
                                               filter::RampWindow::kHamming,
                                               0.9);
  RowConvolver conv(nu, kernel);
  const std::size_t lanes = conv.batch_lanes();
  for (const std::size_t count : {std::size_t{1}, std::size_t{3}, lanes,
                                  lanes + 1, 3 * lanes + 2}) {
    Rng rng(41 + count);
    std::vector<float> rows(count * nu);
    for (auto& v : rows) v = static_cast<float>(rng.next_double() * 2 - 1);
    std::vector<std::vector<float>> expected;
    for (std::size_t r = 0; r < count; ++r) {
      const std::vector<float> one(rows.begin() +
                                       static_cast<std::ptrdiff_t>(r * nu),
                                   rows.begin() +
                                       static_cast<std::ptrdiff_t>((r + 1) *
                                                                   nu));
      expected.push_back(direct_convolve(one, kernel));
    }
    conv.convolve_rows(rows.data(), count);
    for (std::size_t r = 0; r < count; ++r) {
      for (std::size_t i = 0; i < nu; ++i) {
        EXPECT_NEAR(rows[r * nu + i], expected[r][i], 2e-4)
            << "count=" << count << " row " << r << " sample " << i;
      }
    }
  }
}

// The padding rule at its edges, for every available backend: Nu + reach
// landing exactly on a power of two and one past it (where the pad doubles),
// odd and even kernel lengths (reach c vs K - 1 - c), a one-sample row whose
// kernel is longer than the padded length (taps fold modulo L), and the two
// workload detectors at full ramp support.
TEST(RowConvolverProperty, MatchesDirectAtPaddingBoundaries) {
  struct Case {
    std::size_t nu, k;
  };
  std::vector<Case> cases;
  for (const std::size_t k : {std::size_t{16}, std::size_t{17},
                              std::size_t{32}, std::size_t{33}}) {
    const std::size_t reach = std::max(k / 2, k - 1 - k / 2);
    for (const std::size_t target : {std::size_t{32}, std::size_t{64}}) {
      cases.push_back({target - reach, k});      // Nu + reach == 2^k
      cases.push_back({target - reach + 1, k});  // Nu + reach == 2^k + 1
    }
  }
  for (const std::size_t k : {1, 2, 3, 4, 5, 8, 9}) cases.push_back({1, k});
  cases.push_back({2, 1});
  cases.push_back({3, 2});
  std::uint64_t seed = 500;
  for (const Backend b : ifdk::simd::kConcreteBackends) {
    if (!simd::supported(b)) continue;
    for (const Case cs : cases) {
      Rng rng(seed++);
      std::vector<double> kernel(cs.k);
      for (auto& v : kernel) v = rng.next_double() - 0.5;
      std::vector<float> row(cs.nu);
      for (auto& v : row) v = static_cast<float>(rng.next_double() * 2 - 1);
      const auto expected = direct_convolve(row, kernel);
      const RowConvolver conv(cs.nu, kernel, b);
      EXPECT_EQ(conv.padded_size(), exact_padding(cs.nu, cs.k));
      conv.convolve_row(row.data());
      for (std::size_t i = 0; i < cs.nu; ++i) {
        EXPECT_NEAR(row[i], expected[i], 2e-4)
            << simd::to_string(b) << " nu=" << cs.nu << " k=" << cs.k
            << " sample " << i;
      }
    }
    // Workload detectors (FDK volume 128, 4D-CT series 256) at full ramp
    // support hw = Nu - 1, the FilterOptions default.
    for (const std::size_t nu : {std::size_t{128}, std::size_t{256}}) {
      for (const auto w :
           {filter::RampWindow::kRamLak, filter::RampWindow::kHann}) {
        const auto kernel = filter::make_ramp_kernel(nu - 1, 0.8, w, 1.7);
        Rng rng(seed++);
        std::vector<float> rows(3 * nu);
        for (auto& v : rows) v = static_cast<float>(rng.next_double() * 2 - 1);
        std::vector<std::vector<float>> expected;
        for (std::size_t r = 0; r < 3; ++r) {
          expected.push_back(direct_convolve(
              std::vector<float>(rows.begin() + static_cast<std::ptrdiff_t>(
                                                    r * nu),
                                 rows.begin() + static_cast<std::ptrdiff_t>(
                                                    (r + 1) * nu)),
              kernel));
        }
        const RowConvolver conv(nu, kernel, b);
        EXPECT_EQ(conv.padded_size(), 2 * nu);
        conv.convolve_rows(rows.data(), 3);
        for (std::size_t r = 0; r < 3; ++r) {
          for (std::size_t i = 0; i < nu; ++i) {
            EXPECT_NEAR(rows[r * nu + i], expected[r][i], 2e-4)
                << simd::to_string(b) << " nu=" << nu
                << " window=" << filter::to_string(w) << " row " << r
                << " sample " << i;
          }
        }
      }
    }
  }
}

// The convolver itself always pads to a power of two, so its radix-2 plan
// never hits Bluestein; the chirp-z path serves the generic transforms.
// Pin the non-power-of-two circular convolution (forward + multiply +
// inverse through Bluestein) against the direct O(n^2) sum.
TEST(FftProperty, BluesteinCircularConvolutionMatchesDirect) {
  for (const std::size_t n :
       {std::size_t{6}, std::size_t{10}, std::size_t{24}, std::size_t{50},
        std::size_t{96}, std::size_t{250}}) {
    Rng rng(7 * n);
    std::vector<double> a(n), b(n);
    for (auto& v : a) v = rng.next_double() - 0.5;
    for (auto& v : b) v = rng.next_double() - 0.5;
    const auto fast = circular_convolve(a, b);
    for (std::size_t i = 0; i < n; ++i) {
      double direct = 0;
      for (std::size_t j = 0; j < n; ++j) {
        direct += a[j] * b[(i + n - j) % n];
      }
      EXPECT_NEAR(fast[i], direct, 1e-9) << "n=" << n << " lag " << i;
    }
  }
}

}  // namespace
}  // namespace ifdk::fft
