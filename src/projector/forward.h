// Ray-driven forward projection through a voxel volume.
//
// The FDK pipeline itself never needs this (projections come from the
// scanner, or analytically from the phantom), but two parts of the
// reproduction do:
//   * the iterative solvers of Section 6.2 (ART/SART/MLEM) need a matched
//     forward operator A to pair with the back-projection A^T;
//   * tests cross-check the analytic ellipsoid projector against ray
//     marching through the voxelized phantom.
//
// Sampling rule (the standard Siddon/Joseph-style sampling used by RTK's
// voxel projectors): the source->pixel ray is clipped to the volume's
// bounding box [t0, t1] and sampled with trilinear interpolation at the
// midpoints t0 + (n + 1/2) * step, step = step_fraction * min_pitch.
// Trilinear interpolation is defined on the closed index interior
// [0, n-1]^3 and is zero outside it, so each ray takes only the midpoints
// that fall inside that interior: one contiguous range [n_lo, n_hi], found
// by a second slab clip in voxel-index space. The march itself runs in
// fractional voxel-index space (one affine world->index map per view), in
// float, with the base voxel clamped to [0, n-2] per axis so rounding at
// either end of the range never reads outside the volume.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/image.h"
#include "common/thread_pool.h"
#include "common/volume.h"
#include "geometry/cbct.h"

namespace ifdk::projector {

struct ForwardOptions {
  /// Step length as a fraction of the smallest voxel pitch.
  double step_fraction = 0.5;
  ThreadPool* pool = nullptr;
};

class ForwardProjector {
 public:
  /// Captures the geometry and sampling options; cheap (no precomputation),
  /// so a projector can be constructed per view or held for a whole solve.
  ForwardProjector(const geo::CbctGeometry& geometry,
                   ForwardOptions options = {});

  /// Renders the cone-beam projection of `volume` at gantry angle beta.
  /// The volume must be kXMajor.
  Image2D project(const Volume& volume, double beta) const;

  /// Trilinear samples project() takes at gantry angle beta, summed over
  /// every detector pixel (the interior-clipped ranges above). Benches
  /// divide it by the projection time to report Msample/s.
  std::uint64_t sample_count(double beta) const;

 private:
  geo::CbctGeometry geometry_;
  ForwardOptions options_;
};

}  // namespace ifdk::projector
