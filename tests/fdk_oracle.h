// Sequential oracle for the distributed FDK pipeline.
//
// fdk_oracle() replays, on one thread, exactly the arithmetic every rank of
// run_distributed / run_streaming performs — with no threads, queues, PFS or
// minimpi calls in between:
//   1. the DecompositionPlan of the run (DecompositionPlan::make);
//   2. every projection filtered once by the options' FilterEngine;
//   3. for each row r and each column c (ascending), a fresh zero slab pair
//      accumulated by one Backprojector::accumulate call per gather round t,
//      fed the R projections owned_projection(0..R-1, c, t) — the Bp-thread's
//      round, in AllGather (rank) order;
//   4. the C partial slab pairs of a row folded elementwise starting from
//      column 0 — the row reduce's ascending-rank fold;
//   5. every local slice placed at plan.global_slice(r, k).
// The pipeline's volumes are pinned memcmp-equal to this replay, so any
// change to the runtime's threading, collectives or store path that
// perturbs the arithmetic shows up as a bitwise mismatch.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <span>
#include <vector>

#include "backproj/backprojector.h"
#include "common/image.h"
#include "common/volume.h"
#include "fft/fft.h"
#include "filter/filter_engine.h"
#include "geometry/cbct.h"
#include "ifdk/plan.h"

namespace ifdk {

/// The volume run_distributed(geometry, ..., options) stores for
/// `projections` (one per gantry angle), as an X-major Volume.
inline Volume fdk_oracle(const geo::CbctGeometry& geometry,
                         std::span<const Image2D> projections,
                         const IfdkOptions& options) {
  const DecompositionPlan plan = DecompositionPlan::make(geometry, options);

  const filter::FilterEngine engine(geometry, options.filter);
  fft::Workspace fft_ws;
  std::vector<Image2D> filtered;
  filtered.reserve(projections.size());
  for (const Image2D& p : projections) {
    Image2D img(p.width(), p.height(), /*zero_fill=*/false);
    std::copy(p.data(), p.data() + p.pixels(), img.data());
    engine.apply(img, fft_ws);
    filtered.push_back(std::move(img));
  }
  const std::vector<geo::Mat34> matrices =
      geo::make_all_projection_matrices(geometry);

  Volume out(geometry.nx, geometry.ny, geometry.nz, VolumeLayout::kXMajor,
             /*zero_fill=*/false);
  for (int row = 0; row < plan.grid.rows; ++row) {
    bp::BpConfig cfg;
    cfg.batch = options.bp_batch;
    cfg.simd_backend = options.simd_backend;
    cfg.k_begin = static_cast<std::size_t>(row) * plan.slab_h;
    cfg.k_half = plan.slab_h;
    const bp::Backprojector backprojector(geometry, cfg);

    Volume folded;
    for (int col = 0; col < plan.grid.columns; ++col) {
      Volume slab(geometry.nx, geometry.ny, 2 * plan.slab_h,
                  VolumeLayout::kZMajor, /*zero_fill=*/true);
      for (std::size_t t = 0; t < plan.rounds; ++t) {
        std::vector<Image2D> images;
        std::vector<geo::Mat34> mats;
        for (int r = 0; r < plan.grid.rows; ++r) {
          const std::size_t s = plan.owned_projection(r, col, t);
          Image2D img(geometry.nu, geometry.nv, /*zero_fill=*/false);
          std::copy(filtered[s].data(), filtered[s].data() + plan.pixels,
                    img.data());
          images.push_back(std::move(img));
          mats.push_back(matrices[s]);
        }
        backprojector.accumulate(slab, images, mats);
      }
      if (col == 0) {
        folded = std::move(slab);
      } else {
        for (std::size_t n = 0; n < folded.voxels(); ++n) {
          folded.data()[n] = folded.data()[n] + slab.data()[n];
        }
      }
    }

    for (std::size_t local_k = 0; local_k < 2 * plan.slab_h; ++local_k) {
      const std::size_t k = plan.global_slice(row, local_k);
      for (std::size_t j = 0; j < geometry.ny; ++j) {
        for (std::size_t i = 0; i < geometry.nx; ++i) {
          out.at(i, j, k) = folded.at(i, j, local_k);
        }
      }
    }
  }
  return out;
}

/// memcmp equality of two volumes' voxels; on mismatch names the first
/// differing voxel and both values.
inline ::testing::AssertionResult bitwise_equal(const Volume& expected,
                                                const Volume& actual) {
  if (expected.voxels() != actual.voxels()) {
    return ::testing::AssertionFailure()
           << "voxel counts differ: " << expected.voxels() << " vs "
           << actual.voxels();
  }
  if (std::memcmp(expected.data(), actual.data(), expected.bytes()) == 0) {
    return ::testing::AssertionSuccess();
  }
  std::size_t n = 0;
  while (std::memcmp(expected.data() + n, actual.data() + n, sizeof(float)) ==
         0) {
    ++n;
  }
  return ::testing::AssertionFailure()
         << "first differing voxel " << n << ": expected "
         << expected.data()[n] << ", got " << actual.data()[n];
}

}  // namespace ifdk
