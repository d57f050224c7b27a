// Integration tests for the iFDK distributed framework: end-to-end
// distributed reconstruction against the single-node reference and bitwise
// against the sequential oracle (fdk_oracle.h), every grid shape, slab-pair
// decomposition correctness, device-memory enforcement, and the staging
// helpers.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <initializer_list>
#include <string>

#include "backproj/backprojector.h"
#include "common/error.h"
#include "fdk_oracle.h"
#include "ifdk/fdk.h"
#include "ifdk/framework.h"
#include "minimpi/minimpi.h"
#include "phantom/phantom.h"

namespace ifdk {
namespace {

struct Scene {
  geo::CbctGeometry g;
  std::vector<Image2D> projections;
  Volume reference;  // single-node FDK, X-major
};

Scene make_scene(std::size_t nu, std::size_t np, std::size_t n) {
  Scene s{geo::make_standard_geometry({{nu, nu, np}, {n, n, n}}), {}, {}};
  s.projections = phantom::project_all(phantom::shepp_logan(), s.g);
  FdkOptions opts;
  s.reference = reconstruct_fdk(s.g, s.projections, opts).volume;
  return s;
}

double relative_rmse(const Volume& a, const Volume& b) {
  double acc = 0, peak = 0;
  for (std::size_t k = 0; k < a.nz(); ++k) {
    for (std::size_t j = 0; j < a.ny(); ++j) {
      for (std::size_t i = 0; i < a.nx(); ++i) {
        const double d = a.at(i, j, k) - b.at(i, j, k);
        acc += d * d;
        peak = std::max(peak, std::abs(static_cast<double>(a.at(i, j, k))));
      }
    }
  }
  return std::sqrt(acc / static_cast<double>(a.voxels())) / peak;
}

TEST(SlabPairKernel, CoversFullVolumeWhenTiled) {
  // Back-projecting into all R slab pairs separately and stitching must
  // reproduce the full-volume kernel exactly.
  const auto g = geo::make_standard_geometry({{48, 48, 16}, {24, 24, 24}});
  const auto projections = phantom::project_all(phantom::shepp_logan(), g);
  const auto matrices = geo::make_all_projection_matrices(g);

  bp::BpConfig full_cfg;
  Volume full(g.nx, g.ny, g.nz, VolumeLayout::kZMajor);
  bp::Backprojector(g, full_cfg).accumulate(full, projections, matrices);

  constexpr std::size_t kRows = 3;
  const std::size_t h = g.nz / (2 * kRows);
  Volume stitched(g.nx, g.ny, g.nz, VolumeLayout::kZMajor);
  for (std::size_t r = 0; r < kRows; ++r) {
    bp::BpConfig cfg;
    cfg.k_begin = r * h;
    cfg.k_half = h;
    Volume slab(g.nx, g.ny, 2 * h, VolumeLayout::kZMajor);
    bp::Backprojector(g, cfg).accumulate(slab, projections, matrices);
    for (std::size_t k_local = 0; k_local < 2 * h; ++k_local) {
      const std::size_t k_global =
          k_local < h ? r * h + k_local : g.nz - (r + 1) * h + (k_local - h);
      for (std::size_t j = 0; j < g.ny; ++j) {
        for (std::size_t i = 0; i < g.nx; ++i) {
          stitched.at(i, j, k_global) = slab.at(i, j, k_local);
        }
      }
    }
  }
  for (std::size_t n = 0; n < full.voxels(); ++n) {
    ASSERT_EQ(stitched.data()[n], full.data()[n]) << "voxel " << n;
  }
}

TEST(SlabPairKernel, RejectsBadSlabConfigs) {
  const auto g = geo::make_standard_geometry({{48, 48, 8}, {16, 16, 16}});
  bp::BpConfig cfg;
  cfg.k_begin = 6;
  cfg.k_half = 4;  // 6 + 4 > nz/2 = 8
  EXPECT_THROW(bp::Backprojector(g, cfg), ConfigError);

  bp::BpConfig no_sym;
  no_sym.symmetry = false;
  no_sym.k_begin = 0;
  no_sym.k_half = 4;
  EXPECT_THROW(bp::Backprojector(g, no_sym), ConfigError);
}

class GridShapes
    : public ::testing::TestWithParam<std::pair<int, int>> {};  // ranks, rows

TEST_P(GridShapes, DistributedMatchesSingleNode) {
  const auto [ranks, rows] = GetParam();
  const Scene s = make_scene(48, 24, 12);

  pfs::ParallelFileSystem fs;
  stage_projections(fs, "proj/", s.projections);

  IfdkOptions opts;
  opts.ranks = ranks;
  opts.rows = rows;
  const IfdkStats stats = run_distributed(s.g, fs, opts);
  EXPECT_EQ(stats.grid.rows, rows);
  EXPECT_EQ(stats.grid.columns, ranks / rows);

  const Volume result = load_volume(fs, "vol/slice_", s.g.vol_dims());
  // Same arithmetic, different accumulation grouping: near-exact agreement.
  EXPECT_LT(relative_rmse(s.reference, result), 1e-6)
      << "grid " << rows << "x" << ranks / rows;
}

TEST_P(GridShapes, OracleMatchesSingleNode) {
  // The oracle is the same arithmetic as reconstruct_fdk, regrouped into
  // slab pairs, gather rounds and a column fold: near-exact agreement.
  const auto [ranks, rows] = GetParam();
  const Scene s = make_scene(48, 24, 12);
  IfdkOptions opts;
  opts.ranks = ranks;
  opts.rows = rows;
  EXPECT_LT(relative_rmse(s.reference, fdk_oracle(s.g, s.projections, opts)),
            1e-6)
      << "grid " << rows << "x" << ranks / rows;
}

INSTANTIATE_TEST_SUITE_P(
    AllGrids, GridShapes,
    ::testing::Values(std::pair<int, int>{1, 1},   // single rank
                      std::pair<int, int>{2, 2},   // R=2, C=1 (no reduce)
                      std::pair<int, int>{2, 1},   // R=1, C=2
                      std::pair<int, int>{4, 2},   // R=2, C=2
                      std::pair<int, int>{6, 3},   // R=3, C=2
                      std::pair<int, int>{12, 6},  // R=6, C=2 minimal slabs
                      std::pair<int, int>{8, 2})); // R=2, C=4

class OverlapEquivalence
    : public ::testing::TestWithParam<std::pair<int, int>> {};  // ranks, rows

TEST_P(OverlapEquivalence, VolumeIsBitwiseIdenticalToOracle) {
  // The pipeline (nonblocking ring AllGather double-buffered across rounds,
  // segmented pipelined row ireduce, async PFS store) must reproduce the
  // sequential oracle bit for bit.
  const auto [ranks, rows] = GetParam();
  const Scene s = make_scene(48, 24, 12);
  IfdkOptions opts;
  opts.ranks = ranks;
  opts.rows = rows;
  const Volume ref = fdk_oracle(s.g, s.projections, opts);

  // Exercise segment sizes around the slice granularity: smaller than a
  // slice, non-divisible, and the default (larger than the whole slab).
  for (const std::size_t segment :
       {std::size_t{64}, std::size_t{1000},
        mpi::Comm::kDefaultReduceSegment}) {
    pfs::ParallelFileSystem fs;
    stage_projections(fs, "proj/", s.projections);
    opts.reduce_segment_floats = segment;
    run_distributed(s.g, fs, opts);
    EXPECT_TRUE(
        bitwise_equal(ref, load_volume(fs, "vol/slice_", s.g.vol_dims())))
        << "grid " << rows << "x" << ranks / rows << ", segment " << segment;
  }
}

INSTANTIATE_TEST_SUITE_P(
    GridShapes, OverlapEquivalence,
    ::testing::Values(std::pair<int, int>{1, 1},   // degenerate single rank
                      std::pair<int, int>{2, 2},   // R=2, C=1 (no reduce)
                      std::pair<int, int>{2, 1},   // R=1, C=2 (no gather)
                      std::pair<int, int>{4, 2},   // R=2, C=2
                      std::pair<int, int>{6, 3},   // R=3, C=2
                      std::pair<int, int>{8, 2})); // R=2, C=4: fold order

TEST(Framework, OverlapStatsExposeThreadEfficiencies) {
  const Scene s = make_scene(48, 12, 12);
  pfs::ParallelFileSystem fs;
  stage_projections(fs, "proj/", s.projections);
  IfdkOptions opts;
  opts.ranks = 4;
  opts.rows = 2;
  const IfdkStats stats = run_distributed(s.g, fs, opts);
  for (const char* thread : {"filter_thread", "main_thread", "bp_thread",
                             "reduce_thread", "store_thread"}) {
    const double eff = stats.overlap_efficiency.get(thread);
    EXPECT_GT(eff, 0.0) << thread;
    EXPECT_LE(eff, 1.0 + 1e-9) << thread;
  }
}

TEST(Framework, ReconstructsPhantomAccurately) {
  // Beyond matching the reference implementation: the distributed output
  // must actually reconstruct the phantom (absolute quality check).
  const auto g = geo::make_standard_geometry({{64, 64, 96}, {32, 32, 32}});
  const auto phan = phantom::shepp_logan();
  const auto projections = phantom::project_all(phan, g);

  pfs::ParallelFileSystem fs;
  stage_projections(fs, "proj/", projections);
  IfdkOptions opts;
  opts.ranks = 4;
  opts.rows = 2;
  run_distributed(g, fs, opts);
  const Volume result = load_volume(fs, "vol/slice_", g.vol_dims());

  const Volume truth = phantom::voxelize(phan, g);
  double acc = 0;
  std::size_t count = 0;
  const double c = 15.5;
  for (std::size_t k = 0; k < 32; ++k) {
    for (std::size_t j = 0; j < 32; ++j) {
      for (std::size_t i = 0; i < 32; ++i) {
        const double r = std::sqrt((i - c) * (i - c) + (j - c) * (j - c) +
                                   (k - c) * (k - c)) /
                         16.0;
        if (r < 0.5) {
          const double d = result.at(i, j, k) - truth.at(i, j, k);
          acc += d * d;
          ++count;
        }
      }
    }
  }
  EXPECT_LT(std::sqrt(acc / static_cast<double>(count)), 0.03);

  // Guard against degenerate all-zero output (which would pass the interior
  // RMSE check alone — the brain interior is nearly zero): the skull shell
  // must reconstruct as a high-density ring.
  float row_max = 0.0f;
  for (std::size_t j = 0; j < 32; ++j) {
    row_max = std::max(row_max, result.at(16, j, 16));
  }
  EXPECT_GT(row_max, 0.5f);
}

TEST(Framework, StatsExposePipelineStages) {
  const Scene s = make_scene(48, 12, 12);
  pfs::ParallelFileSystem fs;
  stage_projections(fs, "proj/", s.projections);
  IfdkOptions opts;
  opts.ranks = 4;
  opts.rows = 2;
  const IfdkStats stats = run_distributed(s.g, fs, opts);
  for (const char* stage :
       {"load", "filter", "allgather", "backprojection", "reduce", "store"}) {
    EXPECT_GT(stats.wall.get(stage), 0.0) << stage;
  }
  EXPECT_GT(stats.wall_total, 0.0);
}

TEST(Framework, AutoRowSelectionUsesPerfModel) {
  // With the default 8 GB sub-volume target, any toy volume selects R=1;
  // shrink the device model so R must grow.
  const Scene s = make_scene(48, 8, 12);
  pfs::ParallelFileSystem fs;
  stage_projections(fs, "proj/", s.projections);
  IfdkOptions opts;
  opts.ranks = 2;
  opts.rows = 0;  // auto
  const IfdkStats stats = run_distributed(s.g, fs, opts);
  EXPECT_EQ(stats.grid.rows, 1);
  EXPECT_EQ(stats.grid.columns, 2);
}

TEST(Framework, DeviceTooSmallThrows) {
  const Scene s = make_scene(48, 8, 12);
  pfs::ParallelFileSystem fs;
  stage_projections(fs, "proj/", s.projections);
  IfdkOptions opts;
  opts.ranks = 2;
  opts.rows = 1;
  opts.device.memory_bytes = 1024;  // cannot hold anything
  // One resident slab pair plus one projection batch, checked before any
  // rank starts; the message names both sides of the comparison.
  const DecompositionPlan plan = DecompositionPlan::make(s.g, opts);
  const std::uint64_t needed =
      plan.slab_bytes() +
      static_cast<std::uint64_t>(plan.bp_batch) * plan.pixels * sizeof(float);
  try {
    run_distributed(s.g, fs, opts);
    FAIL() << "expected DeviceOutOfMemory";
  } catch (const DeviceOutOfMemory& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("needs " + std::to_string(needed) + " B"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("device has 1024 B"), std::string::npos) << what;
  }
}

TEST(Framework, RejectsInvalidDecompositions) {
  const Scene s = make_scene(48, 8, 12);
  pfs::ParallelFileSystem fs;
  stage_projections(fs, "proj/", s.projections);

  // Every validation error must name the offending values, so a bad run
  // script can be fixed from the message alone.
  const auto expect_config_error = [&](const IfdkOptions& opts,
                                       std::initializer_list<const char*>
                                           fragments) {
    try {
      run_distributed(s.g, fs, opts);
      FAIL() << "expected ConfigError";
    } catch (const ConfigError& e) {
      const std::string what = e.what();
      for (const char* fragment : fragments) {
        EXPECT_NE(what.find(fragment), std::string::npos)
            << "message \"" << what << "\" lacks \"" << fragment << "\"";
      }
    }
  };

  IfdkOptions bad_ranks;
  bad_ranks.ranks = 3;
  bad_ranks.rows = 2;  // 3 % 2 != 0
  expect_config_error(bad_ranks, {"ranks (3)", "row count R (2)"});

  IfdkOptions bad_np;
  bad_np.ranks = 16;  // 8 projections across 16 ranks
  bad_np.rows = 2;
  expect_config_error(bad_np, {"Np (8)", "ranks=16"});

  IfdkOptions bad_nz;
  bad_nz.ranks = 8;
  bad_nz.rows = 8;  // nz=12 not divisible by 2*8
  expect_config_error(bad_nz, {"Nz (12)", "2*rows (16)"});
}

TEST(Framework, MissingProjectionsSurfaceAsIoError) {
  const Scene s = make_scene(48, 8, 12);
  pfs::ParallelFileSystem fs;  // nothing staged
  IfdkOptions opts;
  opts.ranks = 2;
  opts.rows = 1;
  EXPECT_THROW(run_distributed(s.g, fs, opts), Error);
}

/// PFS wrapper that throws on the Nth read — the fault hits exactly one
/// rank's Filtering-thread mid-pipeline while every other rank is healthy.
class FailingReadFs : public pfs::ParallelFileSystem {
 public:
  explicit FailingReadFs(int fail_at) : fail_at_(fail_at) {}

  void read_object(const std::string& name, void* data,
                   std::size_t bytes) const override {
    if (reads_.fetch_add(1) == fail_at_) {
      throw IoError("injected PFS read failure: " + name);
    }
    pfs::ParallelFileSystem::read_object(name, data, bytes);
  }

 private:
  int fail_at_;
  mutable std::atomic<int> reads_{0};
};

TEST(Framework, InjectedReadFailureSurfacesAndUnblocksAllRanks) {
  // A PFS read that throws on one rank must surface as an exception from
  // run_distributed — not hang the collectives of the healthy ranks, and
  // not silently complete with a partial volume. Sweep the fault across
  // pipeline positions (first read, mid-stream, near the end).
  const Scene s = make_scene(48, 12, 12);
  for (const int fail_at : {0, 5, 11}) {
    FailingReadFs fs(fail_at);
    stage_projections(fs, "proj/", s.projections);  // writes don't count
    IfdkOptions opts;
    opts.ranks = 4;
    opts.rows = 2;
    opts.queue_capacity = 2;  // small queue: exercises producer blocking
    EXPECT_THROW(run_distributed(s.g, fs, opts), Error) << "fail_at "
                                                        << fail_at;
    // No partial volume may have been stored as a completed result: the
    // fault fired before every output slice could be written.
    std::size_t stored = 0;
    for (std::size_t k = 0; k < s.g.nz; ++k) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%06zu", k);
      if (fs.exists("vol/slice_" + std::string(buf))) ++stored;
    }
    EXPECT_LT(stored, s.g.nz) << "fail_at " << fail_at;
  }
}

/// PFS wrapper that throws on the Nth *slice* write: the fault hits the row
/// root's async writer thread while the pipelined reduce is still feeding it.
class FailingWriteFs : public pfs::ParallelFileSystem {
 public:
  explicit FailingWriteFs(int fail_at) : fail_at_(fail_at) {}

  void write_object(const std::string& name, const void* data,
                    std::size_t bytes) override {
    if (name.rfind("vol/", 0) == 0 && writes_.fetch_add(1) == fail_at_) {
      throw IoError("injected PFS write failure: " + name);
    }
    pfs::ParallelFileSystem::write_object(name, data, bytes);
  }

 private:
  int fail_at_;
  std::atomic<int> writes_{0};
};

TEST(Framework, InjectedWriteFailureSurfacesFromAsyncStore) {
  // A store failure on the async writer thread must surface from
  // run_distributed, not hang the other ranks.
  const Scene s = make_scene(48, 12, 12);
  for (const int fail_at : {0, 7}) {
    FailingWriteFs fs(fail_at);
    stage_projections(fs, "proj/", s.projections);
    IfdkOptions opts;
    opts.ranks = 4;
    opts.rows = 2;
    opts.reduce_segment_floats = 256;  // several segments per slab
    EXPECT_THROW(run_distributed(s.g, fs, opts), Error)
        << "fail_at " << fail_at;
  }
}

TEST(Framework, InjectedReadFailureWithRingAllgather) {
  // The column AllGather is the nonblocking ring, whose neighbour-exchange
  // steps block pairwise: a read fault on one rank must unblock a partially
  // completed ring on its column peers (default queue depth, unlike the
  // sweep above).
  const Scene s = make_scene(48, 12, 12);
  FailingReadFs fs(/*fail_at=*/3);
  stage_projections(fs, "proj/", s.projections);
  IfdkOptions opts;
  opts.ranks = 4;
  opts.rows = 2;
  EXPECT_THROW(run_distributed(s.g, fs, opts), Error);
}

TEST(StagingHelpers, RoundTripVolume) {
  pfs::ParallelFileSystem fs;
  Volume vol(4, 3, 2);
  for (std::size_t n = 0; n < vol.voxels(); ++n) {
    vol.data()[n] = static_cast<float>(n) * 0.5f;
  }
  for (std::size_t k = 0; k < 2; ++k) {
    fs.write_object("out/slice_" + std::string(k == 0 ? "000000" : "000001"),
                    vol.slice(k), 4 * 3 * sizeof(float));
  }
  const Volume back = load_volume(fs, "out/slice_", {4, 3, 2});
  for (std::size_t n = 0; n < vol.voxels(); ++n) {
    EXPECT_EQ(back.data()[n], vol.data()[n]);
  }
}

}  // namespace
}  // namespace ifdk
