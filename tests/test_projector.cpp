// Forward projector tests: trilinear sampling of the reference marcher
// (including the interp2-style border cases), agreement with the analytic
// ellipsoid projector, the index-space march pinned to the reference
// marcher (tests/projector_oracle.h) over randomized and degenerate
// geometries, and the projector/back-projector consistency property the
// iterative solvers' normalizations depend on: A*1 and B*1 finite and
// positive over randomized geometries.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>
#include <string>

#include "common/math_util.h"
#include "common/thread_pool.h"
#include "geometry/cbct.h"
#include "iterative/iterative.h"
#include "phantom/phantom.h"
#include "projector/forward.h"
#include "projector_oracle.h"

namespace ifdk::projector {
namespace {

TEST(TrilinearSample, ExactAtVoxelCenters) {
  Volume v(3, 3, 3);
  v.at(1, 1, 1) = 7.0f;
  v.at(2, 1, 0) = 3.0f;
  EXPECT_FLOAT_EQ(oracle_sample(v, 1, 1, 1), 7.0f);
  EXPECT_FLOAT_EQ(oracle_sample(v, 2, 1, 0), 3.0f);
  EXPECT_FLOAT_EQ(oracle_sample(v, 0, 0, 0), 0.0f);
}

TEST(TrilinearSample, InterpolatesMidpoints) {
  Volume v(2, 2, 2);
  v.at(0, 0, 0) = 0.0f;
  v.at(1, 0, 0) = 1.0f;
  v.at(0, 1, 0) = 2.0f;
  v.at(0, 0, 1) = 4.0f;
  EXPECT_FLOAT_EQ(oracle_sample(v, 0.5, 0, 0), 0.5f);
  EXPECT_FLOAT_EQ(oracle_sample(v, 0, 0.5, 0), 1.0f);
  EXPECT_FLOAT_EQ(oracle_sample(v, 0, 0, 0.5), 2.0f);
}

TEST(TrilinearSample, OutsideIsZero) {
  Volume v(2, 2, 2);
  v.fill(5.0f);
  EXPECT_EQ(oracle_sample(v, -0.5, 0, 0), 0.0f);
  EXPECT_EQ(oracle_sample(v, 0, 1.5, 0), 0.0f);
  EXPECT_EQ(oracle_sample(v, 0, 0, 5.0), 0.0f);
}

TEST(ForwardProjector, MatchesAnalyticProjection) {
  // Ray-marching the voxelized phantom must approximate the exact ellipsoid
  // line integrals (discretization error shrinks with voxel size; at 32^3
  // a few percent of the peak is expected).
  const auto g = geo::make_standard_geometry({{48, 48, 12}, {32, 32, 32}});
  const auto phan = phantom::shepp_logan();
  const Volume vol = phantom::voxelize(phan, g);

  ForwardProjector fp(g);
  for (std::size_t s : {std::size_t{0}, std::size_t{5}}) {
    const double beta = g.beta(s);
    const Image2D numeric = fp.project(vol, beta);
    const Image2D analytic = phantom::project(phan, g, beta);

    double peak = 0;
    for (std::size_t n = 0; n < analytic.pixels(); ++n) {
      peak = std::max(peak, std::abs(static_cast<double>(analytic.data()[n])));
    }
    ASSERT_GT(peak, 0);
    // Error budget: voxelizing the phantom onto 32^3 loses the sub-voxel
    // ellipsoid boundary (dominant term) plus trilinear smoothing; ~5% of
    // peak at this size, shrinking with resolution.
    const double err =
        rmse(numeric.data(), analytic.data(), numeric.pixels());
    EXPECT_LT(err / peak, 0.07) << "angle index " << s;
  }
}

TEST(ForwardProjector, EmptyVolumeProjectsToZero) {
  const auto g = geo::make_standard_geometry({{32, 32, 4}, {16, 16, 16}});
  Volume vol(16, 16, 16);
  ForwardProjector fp(g);
  const Image2D img = fp.project(vol, 0.7);
  for (std::size_t n = 0; n < img.pixels(); ++n) {
    EXPECT_EQ(img.data()[n], 0.0f);
  }
}

TEST(ForwardProjector, LinearInVolume) {
  // A(2x) = 2*A(x): the operator is linear, a property SART/MLEM rely on.
  const auto g = geo::make_standard_geometry({{32, 32, 4}, {16, 16, 16}});
  Volume a(16, 16, 16);
  a.at(8, 8, 8) = 1.0f;
  a.at(4, 9, 7) = 2.5f;
  Volume b(16, 16, 16);
  for (std::size_t n = 0; n < a.voxels(); ++n) {
    b.data()[n] = 2.0f * a.data()[n];
  }
  ForwardProjector fp(g);
  const Image2D pa = fp.project(a, 0.3);
  const Image2D pb = fp.project(b, 0.3);
  for (std::size_t n = 0; n < pa.pixels(); ++n) {
    EXPECT_NEAR(pb.data()[n], 2.0f * pa.data()[n], 1e-5f);
  }
}

TEST(ForwardProjector, FinerStepsConverge) {
  const auto g = geo::make_standard_geometry({{32, 32, 4}, {24, 24, 24}});
  const Volume vol = phantom::voxelize(phantom::shepp_logan(), g);
  ForwardOptions coarse;
  coarse.step_fraction = 1.0;
  ForwardOptions fine;
  fine.step_fraction = 0.1;
  const Image2D pc = ForwardProjector(g, coarse).project(vol, 0.0);
  const Image2D pf = ForwardProjector(g, fine).project(vol, 0.0);
  // Both approximate the same integral: their difference is bounded by the
  // coarse quadrature error.
  const double err = rmse(pc.data(), pf.data(), pc.pixels());
  double peak = 0;
  for (std::size_t n = 0; n < pf.pixels(); ++n) {
    peak = std::max(peak, std::abs(static_cast<double>(pf.data()[n])));
  }
  EXPECT_LT(err / peak, 0.03);
}

TEST(TrilinearSample, BorderCasesClampAndCutOff) {
  // interp2-style border semantics: the sampler is defined ON the closed
  // index box [0, n-1] (the +1 neighbor clamps, so its weight never reads
  // past the edge) and exactly zero strictly outside it.
  Volume v(3, 3, 3, VolumeLayout::kXMajor, false);
  for (std::size_t k = 0; k < 3; ++k) {
    for (std::size_t j = 0; j < 3; ++j) {
      for (std::size_t i = 0; i < 3; ++i) {
        v.at(i, j, k) = static_cast<float>(1 + i + 10 * j + 100 * k);
      }
    }
  }
  // Exactly on the far corner: the clamped +1 neighbors carry zero weight,
  // so the corner voxel comes back exactly.
  EXPECT_FLOAT_EQ(oracle_sample(v, 2, 2, 2), v.at(2, 2, 2));
  EXPECT_FLOAT_EQ(oracle_sample(v, 2, 0, 0), v.at(2, 0, 0));
  // Just inside the far edge: interpolates the last voxel pair, no
  // out-of-bounds read, finite value between the neighbors.
  const float near_edge = oracle_sample(v, 1.75, 2, 2);
  EXPECT_TRUE(std::isfinite(near_edge));
  EXPECT_GT(near_edge, v.at(1, 2, 2));
  EXPECT_LT(near_edge, v.at(2, 2, 2));
  // Strictly outside — even by a hair — is exactly zero on every axis.
  EXPECT_EQ(oracle_sample(v, 2.001, 1, 1), 0.0f);
  EXPECT_EQ(oracle_sample(v, 1, 2.001, 1), 0.0f);
  EXPECT_EQ(oracle_sample(v, 1, 1, 2.001), 0.0f);
  EXPECT_EQ(oracle_sample(v, -0.001, 1, 1), 0.0f);
  EXPECT_EQ(oracle_sample(v, 1, -0.001, 1), 0.0f);
  EXPECT_EQ(oracle_sample(v, 1, 1, -0.001), 0.0f);
}

TEST(OperatorConsistency, ForwardAndBackProjectionOfOnesArePositiveFinite) {
  // The property the SART/MLEM normalizations stand on: the row norms A*1
  // (forward projection of an all-ones volume) and the column norms B*1
  // (unweighted back-projection of an all-ones view) must be finite and
  // non-negative everywhere, and strictly positive where a ray/voxel can
  // see the object — over RANDOMIZED geometries, not one blessed shape.
  // Detector corners are exempt from strict positivity: a corner ray can
  // legitimately miss the volume's bounding box entirely (A*1 = 0 there),
  // which is why the solvers guard the division with an epsilon.
  std::mt19937 rng(20260808);
  const auto pick = [&rng](std::size_t lo, std::size_t hi) {
    return std::uniform_int_distribution<std::size_t>(lo, hi)(rng);
  };
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t nu = 2 * pick(12, 20);  // even detector sizes
    const std::size_t nv = 2 * pick(12, 20);
    const std::size_t np = 2 * pick(2, 6);
    const geo::CbctGeometry g = geo::make_standard_geometry(
        {{nu, nv, np}, {pick(10, 20), pick(10, 20), pick(10, 20)}});
    const std::size_t s = pick(0, np - 1);
    const double beta = g.beta(s);
    const std::string context = "trial " + std::to_string(trial) + ", " +
                                std::to_string(nu) + "x" +
                                std::to_string(nv) + " det, beta index " +
                                std::to_string(s);

    // A*1: ray integrals through an all-ones volume.
    Volume ones(g.nx, g.ny, g.nz, VolumeLayout::kXMajor, false);
    ones.fill(1.0f);
    const Image2D row_norm = ForwardProjector(g).project(ones, beta);
    for (std::size_t n = 0; n < row_norm.pixels(); ++n) {
      ASSERT_TRUE(std::isfinite(row_norm.data()[n]))
          << context << ", pixel " << n;
      ASSERT_GE(row_norm.data()[n], 0.0f) << context << ", pixel " << n;
    }
    // The central detector quarter looks straight through the volume: every
    // ray there intersects it, so its norm is strictly positive.
    for (std::size_t v = 3 * nv / 8; v < 5 * nv / 8; ++v) {
      for (std::size_t u = 3 * nu / 8; u < 5 * nu / 8; ++u) {
        ASSERT_GT(row_norm.at(u, v), 0.0f)
            << context << ", central pixel (" << u << ", " << v << ")";
      }
    }

    // B*1: unweighted back-projection of an all-ones view. The standard
    // geometry's detector covers the magnified volume footprint, so EVERY
    // voxel projects inside it and its column norm is strictly positive.
    Image2D ones_view(nu, nv, false);
    ones_view.fill(1.0f);
    Volume col_norm(g.nx, g.ny, g.nz);
    iterative::backproject_unweighted(g, ones_view, beta, col_norm);
    for (std::size_t n = 0; n < col_norm.voxels(); ++n) {
      ASSERT_TRUE(std::isfinite(col_norm.data()[n]))
          << context << ", voxel " << n;
      ASSERT_GT(col_norm.data()[n], 0.0f) << context << ", voxel " << n;
    }
  }
}

TEST(ForwardProjector, RejectsWrongLayoutOrDims) {
  const auto g = geo::make_standard_geometry({{32, 32, 4}, {16, 16, 16}});
  ForwardProjector fp(g);
  Volume zmajor(16, 16, 16, VolumeLayout::kZMajor);
  EXPECT_THROW(fp.project(zmajor, 0.0), ConfigError);
  Volume small(8, 8, 8);
  EXPECT_THROW(fp.project(small, 0.0), ConfigError);
}

// ---- Index-space march vs the reference marcher ---------------------------
//
// The library march differs from projector_oracle() only by rounding: it
// skips shell samples the oracle reads as exactly zero, walks a float index
// position instead of a double world position, and builds detector pixels
// from a per-view affine grid. Every pin below bounds the worst pixel by
// kOracleTol of the oracle's peak.
constexpr double kOracleTol = 1e-5;

Volume random_volume(const geo::CbctGeometry& g, std::mt19937& rng) {
  std::uniform_real_distribution<float> value(0.0f, 1.0f);
  Volume v(g.nx, g.ny, g.nz, VolumeLayout::kXMajor, false);
  for (std::size_t n = 0; n < v.voxels(); ++n) v.data()[n] = value(rng);
  return v;
}

/// Worst |library - oracle| over the view, relative to the oracle's peak;
/// requires the oracle view to be non-trivial.
double max_rel_diff_to_oracle(const geo::CbctGeometry& g, const Volume& vol,
                              double beta, double step_fraction = 0.5) {
  ForwardOptions opts;
  opts.step_fraction = step_fraction;
  const Image2D got = ForwardProjector(g, opts).project(vol, beta);
  const Image2D want = projector_oracle(g, vol, beta, step_fraction);
  double peak = 0, worst = 0;
  for (std::size_t n = 0; n < want.pixels(); ++n) {
    peak = std::max(peak, std::abs(static_cast<double>(want.data()[n])));
    worst = std::max(worst, std::abs(static_cast<double>(got.data()[n]) -
                                     static_cast<double>(want.data()[n])));
  }
  EXPECT_GT(peak, 0.0);
  return peak > 0 ? worst / peak : worst;
}

TEST(ForwardOracle, RandomizedGeometriesMatch) {
  // Random detector/volume sizes (odd and even), anisotropic voxel pitches
  // and arbitrary gantry angles, over random voxel values.
  std::mt19937 rng(20261019);
  const auto pick = [&rng](std::size_t lo, std::size_t hi) {
    return std::uniform_int_distribution<std::size_t>(lo, hi)(rng);
  };
  std::uniform_real_distribution<double> shrink(0.6, 1.0);
  std::uniform_real_distribution<double> angle(0.0, 2.0 * kPi);
  for (int trial = 0; trial < 10; ++trial) {
    geo::CbctGeometry g = geo::make_standard_geometry(
        {{pick(16, 41), pick(16, 41), 8},
         {pick(3, 20), pick(3, 20), pick(3, 20)}});
    // Shrinking a pitch keeps the magnified footprint on the detector.
    g.dx *= shrink(rng);
    g.dy *= shrink(rng);
    g.dz *= shrink(rng);
    const Volume vol = random_volume(g, rng);
    const double beta = angle(rng);
    EXPECT_LE(max_rel_diff_to_oracle(g, vol, beta), kOracleTol)
        << "trial " << trial << ": " << g.nu << "x" << g.nv << " det, "
        << g.nx << "x" << g.ny << "x" << g.nz << " vol, beta " << beta;
  }
}

TEST(ForwardOracle, OneAndTwoVoxelAxesMatch) {
  // A 1-voxel axis has the single interior plane index 0: only rays lying
  // exactly in it see the volume (odd detectors put the central row, and at
  // beta = 0 the central column, there). A 2-voxel axis interpolates one
  // voxel pair. The march clamps both without reading out of bounds.
  std::mt19937 rng(7);
  const VolDims shapes[] = {{1, 9, 9}, {9, 1, 9}, {9, 9, 1}, {1, 1, 1},
                            {2, 9, 9}, {9, 2, 9}, {9, 9, 2}, {2, 2, 2},
                            {1, 2, 9}, {2, 1, 1}};
  for (const VolDims& shape : shapes) {
    const geo::CbctGeometry g =
        geo::make_standard_geometry({{25, 23, 8}, shape});
    const Volume vol = random_volume(g, rng);
    for (const double beta : {0.0, g.beta(1), 2.0}) {
      const std::string context = std::to_string(shape.nx) + "x" +
                                  std::to_string(shape.ny) + "x" +
                                  std::to_string(shape.nz) + " vol, beta " +
                                  std::to_string(beta);
      const Image2D want = projector_oracle(g, vol, beta);
      double peak = 0;
      for (std::size_t n = 0; n < want.pixels(); ++n) {
        peak = std::max(peak, static_cast<double>(want.data()[n]));
      }
      const Image2D got = ForwardProjector(g).project(vol, beta);
      for (std::size_t n = 0; n < want.pixels(); ++n) {
        ASSERT_LE(std::abs(got.data()[n] - want.data()[n]),
                  kOracleTol * std::max(peak, 1e-30))
            << context << ", pixel " << n;
      }
    }
  }
  // The in-plane rays are really sampled: an all-ones 9x9x1 slab seen at
  // beta = 0 gives the central detector row a positive ray length.
  const geo::CbctGeometry g =
      geo::make_standard_geometry({{25, 23, 8}, {9, 9, 1}});
  Volume ones(9, 9, 1);
  ones.fill(1.0f);
  const Image2D img = ForwardProjector(g).project(ones, 0.0);
  EXPECT_GT(img.at(12, 11), 0.0f);
  EXPECT_EQ(img.at(12, 10), 0.0f);
}

TEST(ForwardOracle, AxisParallelRaysMatch) {
  // At beta = 0 an odd detector's central column has direction x exactly 0
  // and its central row direction z exactly 0; at an odd volume size those
  // planes run through voxel centres (an interior index, not a face), and
  // at an even one between two voxels.
  std::mt19937 rng(11);
  for (const VolDims shape :
       {VolDims{9, 8, 7}, VolDims{8, 9, 10}, VolDims{5, 5, 5}}) {
    const geo::CbctGeometry g =
        geo::make_standard_geometry({{31, 29, 8}, shape});
    const Volume vol = random_volume(g, rng);
    EXPECT_LE(max_rel_diff_to_oracle(g, vol, 0.0), kOracleTol)
        << shape.nx << "x" << shape.ny << "x" << shape.nz;
  }
}

TEST(ForwardOracle, GrazingRaysMatch) {
  // A detector three times the standard size puts many rays just inside,
  // on, and just outside the bounding box's edges and corners. An all-ones
  // volume makes the border voxels as heavy as any.
  for (const double beta : {0.0, 0.3, kPi / 4, 1.9}) {
    geo::CbctGeometry g =
        geo::make_standard_geometry({{24, 24, 8}, {12, 10, 8}});
    g.nu *= 3;
    g.nv *= 3;
    Volume ones(g.nx, g.ny, g.nz);
    ones.fill(1.0f);
    EXPECT_LE(max_rel_diff_to_oracle(g, ones, beta), kOracleTol)
        << "beta " << beta;
  }
}

TEST(ForwardOracle, StepFractionExtremesMatch) {
  std::mt19937 rng(3);
  const geo::CbctGeometry g =
      geo::make_standard_geometry({{33, 30, 8}, {14, 12, 10}});
  const Volume vol = random_volume(g, rng);
  for (const double fraction : {0.1, 1.0}) {
    for (const double beta : {0.0, 0.7, 4.0}) {
      EXPECT_LE(max_rel_diff_to_oracle(g, vol, beta, fraction), kOracleTol)
          << "step_fraction " << fraction << ", beta " << beta;
    }
  }
}

TEST(ForwardProjector, PoolAndSerialAreBitwiseEqual) {
  const auto g = geo::make_standard_geometry({{40, 36, 8}, {20, 20, 16}});
  const Volume vol = phantom::voxelize(phantom::shepp_logan(), g);
  ThreadPool pool(3);
  ForwardOptions pooled;
  pooled.pool = &pool;
  for (const double beta : {0.0, 1.1}) {
    const Image2D serial = ForwardProjector(g).project(vol, beta);
    const Image2D par = ForwardProjector(g, pooled).project(vol, beta);
    ASSERT_EQ(std::memcmp(serial.data(), par.data(), serial.bytes()), 0)
        << "beta " << beta;
  }
}

TEST(ForwardProjector, SampleCountIsTheSamplesTaken) {
  // Every interior sample of an all-ones volume reads 1, so A*1 / step is
  // the number of samples the march took.
  const auto g = geo::make_standard_geometry({{40, 36, 8}, {20, 18, 16}});
  Volume ones(g.nx, g.ny, g.nz);
  ones.fill(1.0f);
  for (const double fraction : {0.5, 1.0}) {
    ForwardOptions opts;
    opts.step_fraction = fraction;
    const ForwardProjector fp(g, opts);
    const double step = fraction * std::min({g.dx, g.dy, g.dz});
    const Image2D img = fp.project(ones, 0.4);
    double taken = 0;
    for (std::size_t n = 0; n < img.pixels(); ++n) {
      taken += static_cast<double>(img.data()[n]) / step;
    }
    const auto counted = static_cast<double>(fp.sample_count(0.4));
    EXPECT_GT(counted, 0.0);
    EXPECT_NEAR(taken, counted, 1e-5 * counted) << "step_fraction " << fraction;
  }
}

}  // namespace
}  // namespace ifdk::projector
