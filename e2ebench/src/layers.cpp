// Standalone per-layer replays (traced runs only): each layer's public
// entry point timed from outside at the sizes the workload's
// DecompositionPlan resolves, so a layer's standalone rate sits beside its
// in-pipeline busy time. Every replay is wrapped in a span.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "backproj/backprojector.h"
#include "common/simd_dispatch.h"
#include "engine/engine.h"
#include "filter/filter_engine.h"
#include "geometry/cbct.h"
#include "harness.h"
#include "minimpi/minimpi.h"
#include "pfs/pfs.h"
#include "postproc/compression.h"
#include "projector/forward.h"

namespace e2e {

namespace {

using namespace ifdk;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median seconds of `reps` calls of `fn`.
template <typename Fn>
double median_time(int reps, Fn&& fn) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    times.push_back(seconds_since(t0));
  }
  return median(times);
}

/// `n` copies of `src` (Image2D owns an aligned buffer and is move-only).
std::vector<Image2D> copies(const Image2D& src, std::size_t n) {
  std::vector<Image2D> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.emplace_back(src.width(), src.height(), false);
    std::memcpy(out.back().data(), src.data(), src.bytes());
  }
  return out;
}

/// The per-backend rows: every concrete x86 backend by name, so the metric
/// set is the same on every host; a backend this host or build cannot run
/// reports 0.
constexpr simd::Backend kRowBackends[] = {
    simd::Backend::kScalar, simd::Backend::kAvx2, simd::Backend::kAvx512};

void replay_filter(const Workload& w, Tracer& tracer, Metrics& out) {
  const geo::CbctGeometry& g = w.plan().geometry;
  constexpr int kProjections = 16;
  auto rate = [&](simd::Backend backend) {
    filter::FilterOptions fo;
    fo.fft_backend = backend;
    const filter::FilterEngine engine(g, fo);
    fft::Workspace ws;
    std::vector<Image2D> batch = copies(w.sample_projection(), kProjections);
    engine.apply(batch[0], ws);  // warm the workspace
    const double s = median_time(3, [&] {
      for (Image2D& p : batch) engine.apply(p, ws);
    });
    return kProjections / s;
  };
  auto span = tracer.span("filter.FilterEngine::apply");
  out.set("filter.proj_per_s", rate(simd::Backend::kAuto), "1/s");
  for (const simd::Backend b : kRowBackends) {
    out.set(std::string("filter.") + simd::to_string(b) + ".proj_per_s",
            simd::supported(b) ? rate(b) : 0.0, "1/s");
  }
}

/// One rank's Algorithm-4 work: its row's slab pair, back-projecting one
/// bp_batch of its column's projections (copies of a real projection; the
/// kernel's cost does not depend on pixel values).
void replay_backproj(const Workload& w, Tracer& tracer, Metrics& out) {
  const DecompositionPlan& plan = w.plan();
  const geo::CbctGeometry& g = plan.geometry;
  const std::size_t per_column = g.np / static_cast<std::size_t>(plan.grid.columns);
  const std::size_t n = std::min(plan.bp_batch, per_column);
  const std::vector<Image2D> projections = copies(w.sample_projection(), n);
  std::vector<geo::Mat34> matrices;
  for (std::size_t t = 0; t < n; ++t) {
    matrices.push_back(geo::make_projection_matrix(g, g.beta(plan.column_base(0) + t)));
  }
  auto config = [&](simd::Backend backend) {
    bp::BpConfig cfg = bp::config_for(bp::KernelVariant::kL1Tran);
    cfg.k_begin = plan.slab_extent(0).low_begin;
    cfg.k_half = plan.slab_h;
    cfg.batch = plan.bp_batch;
    cfg.simd_backend = backend;
    return cfg;
  };
  const double updates = static_cast<double>(g.nx) * static_cast<double>(g.ny) *
                         2.0 * static_cast<double>(plan.slab_h) *
                         static_cast<double>(n);
  auto gups = [&](simd::Backend backend) {
    const bp::Backprojector kernel(g, config(backend));
    Volume slab(g.nx, g.ny, 2 * plan.slab_h, VolumeLayout::kZMajor);
    const double s =
        median_time(3, [&] { kernel.accumulate(slab, projections, matrices); });
    return updates / s / 1073741824.0;
  };
  auto span = tracer.span("backproj.Backprojector::accumulate");
  out.set("backproj.gups", gups(simd::Backend::kAuto), "GUPS");
  for (const simd::Backend b : kRowBackends) {
    out.set(std::string("backproj.") + simd::to_string(b) + ".gups",
            simd::supported(b) ? gups(b) : 0.0, "GUPS");
  }
  // Exact work counts of one rank's whole column share (the paper's 1/6
  // projection-arithmetic claim rests on these).
  const bp::OpCounts ops =
      bp::Backprojector(g, config(simd::Backend::kScalar)).count_ops(per_column);
  out.set("backproj.inner_products", static_cast<double>(ops.inner_products),
          "count");
  out.set("backproj.interp_calls", static_cast<double>(ops.interp_calls), "count");
  out.set("backproj.voxel_updates", static_cast<double>(ops.voxel_updates),
          "count");
}

/// Ray samples ForwardProjector::project takes for one view: the ray is
/// clipped to the volume box and sampled at step midpoints, exactly the
/// projector's own marching rule.
double samples_per_view(const geo::CbctGeometry& g, double beta,
                        double step_fraction) {
  const geo::Vec3 src = geo::source_position(g, beta);
  const double half[3] = {0.5 * static_cast<double>(g.nx) * g.dx,
                          0.5 * static_cast<double>(g.ny) * g.dy,
                          0.5 * static_cast<double>(g.nz) * g.dz};
  const double step = step_fraction * std::min({g.dx, g.dy, g.dz});
  double total = 0;
  for (std::size_t v = 0; v < g.nv; ++v) {
    for (std::size_t u = 0; u < g.nu; ++u) {
      const geo::Vec3 dir = geo::detector_pixel_position(
                                g, beta, static_cast<double>(u),
                                static_cast<double>(v)) -
                            src;
      const double len = dir.norm();
      const double d[3] = {dir.x / len, dir.y / len, dir.z / len};
      const double o[3] = {src.x, src.y, src.z};
      double t0 = 0, t1 = len;
      for (int a = 0; a < 3; ++a) {
        if (d[a] == 0.0) {
          if (std::abs(o[a]) > half[a]) t0 = t1 + 1;
          continue;
        }
        double ta = (-half[a] - o[a]) / d[a];
        double tb = (half[a] - o[a]) / d[a];
        if (ta > tb) std::swap(ta, tb);
        t0 = std::max(t0, ta);
        t1 = std::min(t1, tb);
      }
      if (t0 < t1) total += std::max(0.0, std::ceil((t1 - t0) / step - 0.5));
    }
  }
  return total;
}

void replay_projector(const Workload& w, Tracer& tracer, Metrics& out) {
  const geo::CbctGeometry& g = w.plan().geometry;
  constexpr double kStep = 0.5;  // IterParams::step_fraction default
  const projector::ForwardProjector fp(g, {kStep, nullptr});
  constexpr std::size_t kViews = 4;
  double samples = 0;
  for (std::size_t s = 0; s < kViews; ++s) {
    samples += samples_per_view(g, g.beta(s * g.np / kViews), kStep);
  }
  auto span = tracer.span("projector.ForwardProjector::project");
  const double secs = median_time(3, [&] {
    for (std::size_t s = 0; s < kViews; ++s) {
      fp.project(w.sample_volume(), g.beta(s * g.np / kViews));
    }
  });
  out.set("projector.msamples_per_s", samples / secs / 1e6, "Msample/s");
}

/// The plan's three collectives on a live rank world of the plan's shape:
/// one ring-AllGather round of one projection per rank on the column
/// communicator, one tree-ireduce epoch of a slab pair on the row
/// communicator, and one volume allreduce on the world (the iterative
/// sweep). Rank 0's medians are reported.
void replay_minimpi(const Workload& w, Tracer& tracer, Metrics& out) {
  const DecompositionPlan& plan = w.plan();
  double gather_s = 0, reduce_s = 0, allreduce_s = 0;
  auto span = tracer.span("minimpi.run_world");
  mpi::run_world(plan.ranks(), [&](mpi::Comm& world) {
    const int rank = world.rank();
    mpi::Comm col = world.split(plan.col_of(rank), plan.row_of(rank));
    mpi::Comm row = world.split(plan.row_of(rank), plan.col_of(rank));
    auto timed = [&](int reps, mpi::Comm& comm, auto&& op) {
      std::vector<double> times;
      for (int r = 0; r < reps; ++r) {
        comm.barrier();
        const auto t0 = Clock::now();
        op();
        times.push_back(seconds_since(t0));
      }
      return median(times);
    };

    std::vector<float> proj(plan.pixels, 1.0f);
    std::vector<float> gathered(plan.pixels * static_cast<std::size_t>(col.size()));
    const double g_s = timed(20, col, [&] {
      col.iallgather_ring(proj.data(), proj.size() * sizeof(float),
                          gathered.data())
          .wait();
    });

    std::vector<float> slab(plan.slab_floats(), 1.0f);
    std::vector<float> folded(slab.size());
    const double r_s = timed(5, row, [&] {
      row.ireduce(slab.data(), folded.data(), slab.size(), mpi::ReduceOp::kSum,
                  0, plan.reduce_segment_floats)
          .wait();
    });

    std::vector<float> vol(plan.volume_floats(), 1.0f);
    std::vector<float> summed(vol.size());
    const double a_s = timed(3, world, [&] {
      world.allreduce(vol.data(), summed.data(), vol.size(),
                      mpi::ReduceOp::kSum);
    });
    if (rank == 0) {
      gather_s = g_s;
      reduce_s = r_s;
      allreduce_s = a_s;
    }
  });
  out.set("minimpi.allgather_round_s", gather_s, "s");
  out.set("minimpi.reduce_epoch_s", reduce_s, "s");
  out.set("minimpi.allreduce_s", allreduce_s, "s");
  out.set("minimpi.allgather_bytes_per_round",
          static_cast<double>(plan.allgather_bytes_per_round()), "B");
  out.set("minimpi.reduce_bytes_per_epoch",
          static_cast<double>(plan.reduce_bytes_per_epoch()), "B");
}

/// Object-store rates at the pipeline's object sizes: projections are read
/// (load path), slices are written (store path).
void replay_pfs(const Workload& w, Tracer& tracer, Metrics& out) {
  const DecompositionPlan& plan = w.plan();
  const geo::CbctGeometry& g = plan.geometry;
  pfs::ParallelFileSystem fs;
  const std::vector<float> slice(plan.slice_px, 1.0f);
  const std::vector<float> proj(plan.pixels, 1.0f);
  std::vector<float> sink(plan.pixels);
  std::vector<std::string> proj_names, slice_names;
  for (std::size_t s = 0; s < g.np; ++s) {
    proj_names.push_back(engine::object_name("proj/", s));
    fs.write_object(proj_names.back(), proj.data(), proj.size() * sizeof(float));
  }
  for (std::size_t k = 0; k < g.nz; ++k) {
    slice_names.push_back(engine::object_name("vol/", k));
  }
  auto span = tracer.span("pfs.ParallelFileSystem");
  const double put_s = median_time(3, [&] {
    for (const std::string& name : slice_names) {
      fs.write_object(name, slice.data(), slice.size() * sizeof(float));
    }
  });
  const double get_s = median_time(3, [&] {
    for (const std::string& name : proj_names) {
      fs.read_object(name, sink.data(), sink.size() * sizeof(float));
    }
  });
  out.set("pfs.put_mb_per_s",
          static_cast<double>(g.nz * slice.size() * sizeof(float)) / 1e6 / put_s,
          "MB/s");
  out.set("pfs.get_mb_per_s",
          static_cast<double>(g.np * proj.size() * sizeof(float)) / 1e6 / get_s,
          "MB/s");
}

/// The 12-bit store codec on one of the workload's reconstructed volumes.
void replay_postproc(const Workload& w, Tracer& tracer, Metrics& out) {
  const Volume& v = w.sample_volume();
  constexpr int kBits = 12;
  auto span = tracer.span("postproc.compress");
  std::size_t stored = 0;
  const double s = median_time(3, [&] {
    stored = postproc::serialize_volume(postproc::compress(v, kBits)).size();
  });
  const Volume back = postproc::decompress(postproc::compress(v, kBits));
  out.set("postproc.compress_mb_per_s", static_cast<double>(v.bytes()) / 1e6 / s,
          "MB/s");
  out.set("postproc.store_ratio",
          static_cast<double>(v.bytes()) / static_cast<double>(stored), "ratio");
  out.set("postproc.min_psnr_db", postproc::psnr_db(v, back), "dB");
}

void replay_plan(const Workload& w, Tracer& tracer, Metrics& out) {
  auto span = tracer.span("ifdk.DecompositionPlan::make");
  const std::size_t resident = w.plan().resident_slabs;
  const double s = median_time(51, [&] {
    DecompositionPlan::make(w.plan().geometry, world_options(), -1, resident);
  });
  out.set("ifdk.plan_make_s", s, "s");
}

}  // namespace

void replay_layers(const Workload& workload, Tracer& tracer, Metrics& out) {
  replay_filter(workload, tracer, out);
  replay_backproj(workload, tracer, out);
  replay_projector(workload, tracer, out);
  replay_minimpi(workload, tracer, out);
  replay_pfs(workload, tracer, out);
  replay_postproc(workload, tracer, out);
  replay_plan(workload, tracer, out);
}

}  // namespace e2e
