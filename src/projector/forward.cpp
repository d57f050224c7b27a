#include "projector/forward.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace ifdk::projector {

namespace {

/// Per-view constants: the source in world millimetres and in fractional
/// voxel-index space, the detector as an affine pixel grid (no trig per
/// pixel), and the linear part of the world->index map (inverse of M0).
struct ViewFrame {
  geo::Vec3 src;        ///< source, world mm
  double src_idx[3];    ///< source, fractional voxel index
  double idx_scale[3];  ///< d(index)/d(world mm) per axis: 1/dx, -1/dy, -1/dz
  geo::Vec3 center;     ///< detector pixel (cu, cv), world mm
  geo::Vec3 eu, ev;     ///< world offset of one pixel along u / v
  double cu, cv;
  double step;          ///< ray step, world mm
};

ViewFrame make_frame(const geo::CbctGeometry& g, double beta,
                     double step_fraction) {
  ViewFrame f;
  f.src = geo::source_position(g, beta);
  // World -> fractional voxel index (inverse of M0). On an axis where a
  // ray's direction is exactly zero its index stays exactly src_idx, so a
  // ray lying in an interior face plane (or in the single plane of a
  // 1-voxel axis) is kept, not clipped by rounding.
  const double ci = (static_cast<double>(g.nx) - 1.0) / 2.0;
  const double cj = (static_cast<double>(g.ny) - 1.0) / 2.0;
  const double ck = (static_cast<double>(g.nz) - 1.0) / 2.0;
  f.src_idx[0] = f.src.x / g.dx + ci;
  f.src_idx[1] = -f.src.y / g.dy + cj;
  f.src_idx[2] = -f.src.z / g.dz + ck;
  f.idx_scale[0] = 1.0 / g.dx;
  f.idx_scale[1] = -1.0 / g.dy;
  f.idx_scale[2] = -1.0 / g.dz;
  // Detector pixel (u, v) at gantry coordinates ((u-cu)Du, (v-cv)Dv, D),
  // mapped to world by A^-1 (X, Y, Z) -> (X, Z - d, -Y) and a rotation by
  // -beta about Z (geo::detector_pixel_position, factored per view).
  const double c = std::cos(-beta);
  const double s = std::sin(-beta);
  const double wy = g.D - g.d;
  f.center = {-wy * s, wy * c, 0.0};
  f.eu = {g.du * c, g.du * s, 0.0};
  f.ev = {0.0, 0.0, -g.dv};
  f.cu = (static_cast<double>(g.nu) - 1.0) / 2.0;
  f.cv = (static_cast<double>(g.nv) - 1.0) / 2.0;
  f.step = step_fraction * std::min({g.dx, g.dy, g.dz});
  return f;
}

/// The samples one ray takes inside the trilinear interior, in index space.
struct RaySpan {
  std::size_t count = 0;  ///< samples in [n_lo, n_hi]
  float start[3] = {};    ///< index position of sample n_lo
  float delta[3] = {};    ///< index-space offset between samples
};

RaySpan clip_ray(const geo::CbctGeometry& g, const ViewFrame& f,
                 std::size_t u, std::size_t v) {
  const geo::Vec3 pix = f.center + f.eu * (static_cast<double>(u) - f.cu) +
                        f.ev * (static_cast<double>(v) - f.cv);
  const geo::Vec3 dir = pix - f.src;
  const double len = dir.norm();
  const geo::Vec3 d = dir * (1.0 / len);

  // Slab intersection with the bounding box: anchors the midpoint grid.
  const double src[3] = {f.src.x, f.src.y, f.src.z};
  const double dw[3] = {d.x, d.y, d.z};
  const double half[3] = {0.5 * static_cast<double>(g.nx) * g.dx,
                          0.5 * static_cast<double>(g.ny) * g.dy,
                          0.5 * static_cast<double>(g.nz) * g.dz};
  double t0 = 0.0, t1 = len;
  for (int a = 0; a < 3; ++a) {
    if (dw[a] == 0.0) {
      if (std::abs(src[a]) > half[a]) return {};
      continue;
    }
    double ta = (-half[a] - src[a]) / dw[a];
    double tb = (half[a] - src[a]) / dw[a];
    if (ta > tb) std::swap(ta, tb);
    t0 = std::max(t0, ta);
    t1 = std::min(t1, tb);
  }
  if (t0 >= t1) return {};

  // Slab intersection with the trilinear interior [0, n-1]^3, in index
  // space: outside it every sample is exactly zero.
  const double last[3] = {static_cast<double>(g.nx) - 1.0,
                          static_cast<double>(g.ny) - 1.0,
                          static_cast<double>(g.nz) - 1.0};
  double di[3] = {};
  double lo = t0, hi = t1;
  for (int a = 0; a < 3; ++a) {
    di[a] = dw[a] * f.idx_scale[a];
    if (di[a] == 0.0) {
      if (f.src_idx[a] < 0.0 || f.src_idx[a] > last[a]) return {};
      continue;
    }
    double ta = -f.src_idx[a] / di[a];
    double tb = (last[a] - f.src_idx[a]) / di[a];
    if (ta > tb) std::swap(ta, tb);
    lo = std::max(lo, ta);
    hi = std::min(hi, tb);
  }
  if (lo > hi) return {};

  // Midpoints t0 + (n + 1/2) step that fall in [lo, hi].
  const double n_lo = std::max(0.0, std::ceil((lo - t0) / f.step - 0.5));
  const double n_hi = std::floor((hi - t0) / f.step - 0.5);
  if (n_hi < n_lo) return {};

  RaySpan r;
  r.count = static_cast<std::size_t>(n_hi - n_lo) + 1;
  const double t = t0 + (n_lo + 0.5) * f.step;
  for (int a = 0; a < 3; ++a) {
    r.start[a] = static_cast<float>(f.src_idx[a] + t * di[a]);
    r.delta[a] = static_cast<float>(f.step * di[a]);
  }
  return r;
}

}  // namespace

ForwardProjector::ForwardProjector(const geo::CbctGeometry& geometry,
                                   ForwardOptions options)
    : geometry_(geometry), options_(options) {
  geometry_.validate();
  IFDK_REQUIRE(options_.step_fraction > 0 && options_.step_fraction <= 1.0,
               "step_fraction must be in (0, 1]");
}

Image2D ForwardProjector::project(const Volume& volume, double beta) const {
  IFDK_REQUIRE(volume.layout() == VolumeLayout::kXMajor,
               "forward projection expects the standard X-major layout");
  IFDK_REQUIRE(volume.nx() == geometry_.nx && volume.ny() == geometry_.ny &&
                   volume.nz() == geometry_.nz,
               "volume does not match the geometry");
  const geo::CbctGeometry& g = geometry_;
  Image2D img(g.nu, g.nv, /*zero_fill=*/true);
  const ViewFrame frame = make_frame(g, beta, options_.step_fraction);

  // Base voxel clamp [0, n-2] and the +1 neighbour's offset per axis; a
  // 1-voxel axis clamps to 0 and reads voxel 0 twice (clamp-to-edge).
  const auto nx = static_cast<std::ptrdiff_t>(g.nx);
  const auto ny = static_cast<std::ptrdiff_t>(g.ny);
  const auto nz = static_cast<std::ptrdiff_t>(g.nz);
  const std::ptrdiff_t max_i = std::max<std::ptrdiff_t>(nx - 2, 0);
  const std::ptrdiff_t max_j = std::max<std::ptrdiff_t>(ny - 2, 0);
  const std::ptrdiff_t max_k = std::max<std::ptrdiff_t>(nz - 2, 0);
  const std::ptrdiff_t ox = nx > 1 ? 1 : 0;
  const std::ptrdiff_t oy = ny > 1 ? nx : 0;
  const std::ptrdiff_t oz = nz > 1 ? nx * ny : 0;
  const float* vol = volume.data();

  auto row_task = [&](std::size_t v) {
    float* row = img.data() + v * g.nu;
    for (std::size_t u = 0; u < g.nu; ++u) {
      const RaySpan r = clip_ray(g, frame, u, v);
      double acc = 0.0;
      float fn = 0.0f;
      for (std::size_t n = 0; n < r.count; ++n, fn += 1.0f) {
        const float fi = r.start[0] + fn * r.delta[0];
        const float fj = r.start[1] + fn * r.delta[1];
        const float fk = r.start[2] + fn * r.delta[2];
        const std::ptrdiff_t i0 = std::clamp<std::ptrdiff_t>(
            static_cast<std::ptrdiff_t>(fi), 0, max_i);
        const std::ptrdiff_t j0 = std::clamp<std::ptrdiff_t>(
            static_cast<std::ptrdiff_t>(fj), 0, max_j);
        const std::ptrdiff_t k0 = std::clamp<std::ptrdiff_t>(
            static_cast<std::ptrdiff_t>(fk), 0, max_k);
        const float di = fi - static_cast<float>(i0);
        const float dj = fj - static_cast<float>(j0);
        const float dk = fk - static_cast<float>(k0);
        const float* p = vol + (k0 * ny + j0) * nx + i0;
        const float c00 = p[0] * (1 - di) + p[ox] * di;
        const float c10 = p[oy] * (1 - di) + p[oy + ox] * di;
        const float c01 = p[oz] * (1 - di) + p[oz + ox] * di;
        const float c11 = p[oz + oy] * (1 - di) + p[oz + oy + ox] * di;
        const float c0 = c00 * (1 - dj) + c10 * dj;
        const float c1 = c01 * (1 - dj) + c11 * dj;
        acc += c0 * (1 - dk) + c1 * dk;
      }
      row[u] = static_cast<float>(acc * frame.step);
    }
  };

  if (options_.pool != nullptr) {
    options_.pool->parallel_for(0, g.nv, row_task);
  } else {
    for (std::size_t v = 0; v < g.nv; ++v) row_task(v);
  }
  return img;
}

std::uint64_t ForwardProjector::sample_count(double beta) const {
  const geo::CbctGeometry& g = geometry_;
  const ViewFrame frame = make_frame(g, beta, options_.step_fraction);
  std::uint64_t total = 0;
  for (std::size_t v = 0; v < g.nv; ++v) {
    for (std::size_t u = 0; u < g.nu; ++u) {
      total += clip_ray(g, frame, u, v).count;
    }
  }
  return total;
}

}  // namespace ifdk::projector
