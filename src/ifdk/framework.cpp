#include "ifdk/framework.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "backproj/backprojector.h"
#include "common/circular_buffer.h"
#include "common/error.h"
#include "engine/engine.h"
#include "fft/fft.h"
#include "minimpi/minimpi.h"

namespace ifdk {

namespace {

using engine::object_name;
using engine::QueueClosedError;

/// The FDK execution core (defined below, after its per-rank stats type):
/// run_streaming validates and forwards to it, and run_distributed wraps it
/// with a one-volume stream.
StreamingStats stream_core(const geo::CbctGeometry& geometry,
                           pfs::ParallelFileSystem& fs,
                           const IfdkOptions& options,
                           std::span<const JobSpec> volumes);

}  // namespace

void stage_projections(pfs::ParallelFileSystem& fs,
                       const std::string& input_prefix,
                       std::span<const Image2D> projections) {
  for (std::size_t s = 0; s < projections.size(); ++s) {
    fs.write_object(object_name(input_prefix, s), projections[s].data(),
                    projections[s].bytes());
  }
}

Volume load_volume(const pfs::ParallelFileSystem& fs,
                   const std::string& output_prefix, const VolDims& dims,
                   bool compressed_store) {
  Volume vol(dims.nx, dims.ny, dims.nz, VolumeLayout::kXMajor,
             /*zero_fill=*/false);
  const std::size_t slice_px = dims.nx * dims.ny;
  for (std::size_t k = 0; k < dims.nz; ++k) {
    const std::string name = object_name(output_prefix, k);
    if (compressed_store) {
      const std::vector<float> slice = pfs::read_compressed_object(fs, name);
      IFDK_REQUIRE(slice.size() == slice_px,
                   "load_volume: compressed slice " + name + " holds " +
                       std::to_string(slice.size()) + " values, expected " +
                       std::to_string(slice_px));
      std::copy(slice.begin(), slice.end(), vol.slice(k));
    } else {
      fs.read_object(name, vol.slice(k), slice_px * sizeof(float));
    }
  }
  return vol;
}

IfdkStats run_distributed(const geo::CbctGeometry& geometry,
                          pfs::ParallelFileSystem& fs,
                          const IfdkOptions& options) {
  // The one-volume wrapper over the streaming execution core: a JobSpec
  // carrying the options' I/O prefixes rides the exact plan/epoch machinery
  // of run_streaming. The core's per-volume store isolation is converted
  // back to this API's throwing contract: the one volume's failure IS the
  // run's failure.
  const JobSpec job{options.input_prefix, options.output_prefix, {}};
  StreamingStats streamed =
      stream_core(geometry, fs, options, std::span<const JobSpec>(&job, 1));
  if (!streamed.volume_errors[0].empty()) {
    throw IoError(streamed.volume_errors[0]);
  }
  return streamed;
}

namespace {

/// Per-rank workload-owned results of a streaming run (the generic
/// wall/efficiency/total stats ride the engine's RankContext instead).
struct StreamRankStats {
  /// Stream start to the Bp-thread's last accumulation: the
  /// load+filter+gather+bp span ("compute"), written by the Bp-thread and
  /// read after its join.
  double compute = 0;
  std::vector<std::string> volume_errors;  ///< row roots only; "" = stored
  /// Per-volume store accounting of the volumes this rank roots (all other
  /// entries stay default); every column-0 rank of a grid is a row root, so
  /// the cross-rank merge must SUM sse/values/bytes and MAX the peak.
  std::vector<pfs::StreamStats> store;
};

/// FDK streaming as an engine Workload: the Fig. 4a/4b per-rank pipeline
/// with streaming epochs — Filtering-thread, Main-thread (column gather),
/// Bp-thread with the depth-1 slab handoff, and the Reduce-thread running
/// per-volume collective epochs through the engine's communicator cache and
/// writer plumbing.
class FdkStreamWorkload final : public engine::Workload {
 public:
  FdkStreamWorkload(pfs::ParallelFileSystem& fs, const IfdkOptions& options,
                    std::span<const JobSpec> volumes,
                    std::span<const DecompositionPlan> plans,
                    std::size_t max_gather_floats)
      : fs_(fs),
        options_(options),
        volumes_(volumes),
        plans_(plans),
        max_gather_floats_(max_gather_floats) {
    rank_stats_.resize(static_cast<std::size_t>(options.ranks));
  }

  /// Workload-owned per-rank results (compute span, per-volume store
  /// outcomes), merged by the caller.
  const StreamRankStats& rank_stats(std::size_t rank) const {
    return rank_stats_[rank];
  }

  /// The streaming per-rank pipeline (four threads plus the async writer,
  /// per-volume epochs).
  void run_rank(engine::RankContext& ctx) override {
    pfs::ParallelFileSystem& fs = fs_;
    const IfdkOptions& options = options_;
    std::span<const JobSpec> volumes = volumes_;
    std::span<const DecompositionPlan> plans = plans_;
    const std::size_t n_volumes = volumes.size();
    const std::size_t max_gather_floats = max_gather_floats_;

    mpi::Comm& world = ctx.world;
    const int rank = ctx.rank;
    StreamRankStats& stats = rank_stats_[static_cast<std::size_t>(rank)];
    stats.volume_errors.assign(n_volumes, "");
    stats.store.assign(n_volumes, pfs::StreamStats{});
    Timer rank_timer;

    // ---- Per-epoch communicators (the grid re-split) ----------------------
    // The engine's communicator cache: one col/row pair per distinct row
    // count, built up front in volume order (a split is a collective, so
    // every rank must perform the same sequence). Consecutive volumes with
    // the same grid share a pair, which is what lets their collective
    // epochs stay in flight together; the stream "re-splits" by switching
    // pairs at the volume boundary.
    std::vector<int> rows_per_volume;
    rows_per_volume.reserve(n_volumes);
    for (const DecompositionPlan& plan : plans) {
      rows_per_volume.push_back(plan.grid.rows);
    }
    engine::EpochComms epoch_comms(world, rows_per_volume);

    struct Filtered {
      std::size_t vol;
      std::size_t index;
      Image2D image;
    };
    struct Round {
      std::size_t vol;
      std::vector<Filtered> images;
    };
    struct SlabPair {
      std::size_t vol;
      Volume slab;
    };
    CircularBuffer<Filtered> q_filtered(options.queue_capacity);
    CircularBuffer<Round> q_gathered(options.queue_capacity);
    // Depth-1 handoff: the Bp-thread may run at most one volume ahead of
    // the reduce (bounding resident slabs to the double buffer above).
    CircularBuffer<SlabPair> q_slabs(1);

    std::exception_ptr filter_error;
    std::exception_ptr bp_error;
    std::exception_ptr reduce_error;
    std::exception_ptr main_error;

    // ---- Filtering-thread: load from PFS + filter (Fig. 4a left) ----------
    StageTimer filter_timer;
    std::thread filtering_thread([&] {
      try {
        std::optional<filter::FilterEngine> engine;
        const geo::CbctGeometry* engine_geom = nullptr;
        // Thread-owned FFT scratch, reused across volumes (Workspace only
        // grows, so a geometry change at most reallocates once).
        fft::Workspace fft_ws;
        for (std::size_t v = 0; v < n_volumes; ++v) {
          const DecompositionPlan& plan = plans[v];
          if (engine_geom == nullptr || !(*engine_geom == plan.geometry)) {
            engine.emplace(plan.geometry, options.filter);
            engine_geom = &plan.geometry;
          }
          const int row = plan.row_of(rank);
          const int col = plan.col_of(rank);
          for (std::size_t t = 0; t < plan.rounds; ++t) {
            const std::size_t s = plan.owned_projection(row, col, t);
            Image2D img(plan.geometry.nu, plan.geometry.nv,
                        /*zero_fill=*/false);
            filter_timer.time("load", [&] {
              fs.read_object(object_name(volumes[v].input_prefix, s),
                             img.data(), img.bytes());
            });
            filter_timer.time("filter", [&] { engine->apply(img, fft_ws); });
            if (!q_filtered.push(Filtered{v, s, std::move(img)})) {
              throw QueueClosedError(
                  "iFDK streaming: filtered-projection queue closed before "
                  "all volumes were delivered");
            }
          }
        }
      } catch (...) {
        filter_error = std::current_exception();
      }
      q_filtered.close();
    });

    // ---- Bp-thread: accumulate rounds; hand each finished slab over -------
    StageTimer bp_timer;
    std::thread bp_thread([&] {
      std::optional<bp::Backprojector> backprojector;
      std::vector<geo::Mat34> matrices;
      const geo::CbctGeometry* bp_geom = nullptr;
      Volume slab;
      // (Re)builds the per-volume kernel state: new projection matrices on
      // a geometry change, a new Backprojector when the geometry or this
      // rank's slab assignment (row, slab_h) changed, and a fresh
      // zero-filled slab pair in the volume's own dimensions.
      auto prepare_volume = [&](std::size_t v) {
        const DecompositionPlan& plan = plans[v];
        const bool geom_changed =
            bp_geom == nullptr || !(*bp_geom == plan.geometry);
        if (geom_changed) {
          matrices = geo::make_all_projection_matrices(plan.geometry);
        }
        if (geom_changed || v == 0 || !plans[v - 1].same_grid(plan)) {
          bp::BpConfig bp_cfg;
          bp_cfg.batch = options.bp_batch;
          bp_cfg.simd_backend = options.simd_backend;
          bp_cfg.k_begin =
              static_cast<std::size_t>(plan.row_of(rank)) * plan.slab_h;
          bp_cfg.k_half = plan.slab_h;
          backprojector.emplace(plan.geometry, bp_cfg);
        }
        bp_geom = &plan.geometry;
        slab = Volume(plan.geometry.nx, plan.geometry.ny, 2 * plan.slab_h,
                      VolumeLayout::kZMajor, /*zero_fill=*/true);
      };
      std::size_t current_vol = 0;
      std::size_t rounds_done = 0;
      bool prepared = false;
      while (auto round = q_gathered.pop()) {
        if (bp_error) continue;  // drain remaining rounds after a failure
        try {
          IFDK_ASSERT(round->vol == current_vol);
          const DecompositionPlan& plan = plans[current_vol];
          if (!prepared) {
            prepare_volume(current_vol);
            prepared = true;
          }
          std::vector<Image2D> images;
          std::vector<geo::Mat34> mats;
          images.reserve(round->images.size());
          mats.reserve(round->images.size());
          for (Filtered& f : round->images) {
            mats.push_back(matrices[f.index]);
            images.push_back(std::move(f.image));
          }
          bp_timer.time("backprojection", [&] {
            backprojector->accumulate(slab, images, mats);
          });
          if (++rounds_done == plan.rounds) {
            if (!q_slabs.push(SlabPair{current_vol, std::move(slab)})) {
              throw QueueClosedError(
                  "iFDK streaming: slab queue closed before all volumes were "
                  "back-projected");
            }
            rounds_done = 0;
            ++current_vol;
            if (current_vol < n_volumes) {
              prepare_volume(current_vol);
            }
          }
        } catch (...) {
          bp_error = std::current_exception();
          q_gathered.close();
          q_slabs.close();
        }
      }
      // The load+filter+gather+bp span: IfdkStats' "compute" stage (the
      // join below publishes the write).
      stats.compute = rank_timer.seconds();
      if (!bp_error) q_slabs.close();
    });

    // ---- Reduce-thread: transpose + row ireduce + store, volume by volume --
    // Runs the per-volume collective epochs while the threads above are
    // already filtering/gathering/back-projecting the NEXT volumes.
    StageTimer reduce_timer;
    double store_busy = 0;
    std::thread reduce_thread([&] {
      try {
        // The engine's writer plumbing: one multiplexed writer per rank
        // that roots ANY volume's row; which rank that is can change per
        // volume when the grid re-splits.
        std::vector<bool> roots(n_volumes, false);
        std::vector<int> store_bits(n_volumes, 0);
        for (std::size_t v = 0; v < n_volumes; ++v) {
          roots[v] = plans[v].col_of(rank) == 0;
          store_bits[v] =
              volumes[v].compress_store ? volumes[v].store_bits : 0;
        }
        engine::VolumeWriterSet writers(fs, options.queue_capacity, roots,
                                        store_bits);
        std::vector<float> partial;
        std::vector<float> reduced;
        for (std::size_t v = 0; v < n_volumes; ++v) {
          const DecompositionPlan& plan = plans[v];
          const int row = plan.row_of(rank);
          const int col = plan.col_of(rank);
          const std::size_t slice_px = plan.slice_px;
          const std::size_t pair_depth = 2 * plan.slab_h;
          mpi::Comm& row_comm = epoch_comms.of(v).row;
          auto slab = q_slabs.pop();
          if (!slab.has_value()) {
            throw QueueClosedError(
                "iFDK streaming: slab queue closed before all volumes were "
                "reduced");
          }
          IFDK_ASSERT(slab->vol == v);
          partial.resize(plan.slab_floats());
          reduced.resize(col == 0 ? plan.slab_floats() : 0);
          reduce_timer.time("transpose", [&] {
            for (std::size_t k = 0; k < pair_depth; ++k) {
              engine::extract_zmajor_slice(slab->slab.data(),
                                           plan.geometry.nx, plan.geometry.ny,
                                           pair_depth, k,
                                           partial.data() + k * slice_px);
            }
          });
          std::size_t next_slice = 0;
          bool stream_open = true;
          mpi::Comm::SegmentCallback on_segment;
          if (col == 0) {
            on_segment = [&](std::size_t offset, std::size_t length) {
              const std::size_t prefix = offset + length;
              while (next_slice < pair_depth &&
                     (next_slice + 1) * slice_px <= prefix) {
                const float* src = reduced.data() + next_slice * slice_px;
                if (stream_open) {
                  // A poisoned stream (write error on THIS volume) refuses
                  // further slices; volume v fails at finish_volume below
                  // while every other volume keeps flowing.
                  stream_open = writers.enqueue(
                      v,
                      object_name(volumes[v].output_prefix,
                                  plan.global_slice(row, next_slice)),
                      std::vector<float>(src, src + slice_px));
                }
                ++next_slice;
              }
            };
          }
          mpi::Comm::CollectiveRequest req = row_comm.ireduce(
              partial.data(), col == 0 ? reduced.data() : nullptr,
              partial.size(), mpi::ReduceOp::kSum, /*root=*/0,
              options.reduce_segment_floats, std::move(on_segment));
          reduce_timer.time("reduce", [&] { req.wait(); });
          if (col == 0) {
            reduce_timer.time("store", [&] {
              stats.volume_errors[v] = writers.finish_volume(v);
            });
            stats.store[v] = writers.volume_store_stats(v);
          }
        }
        writers.finish();  // all stream errors were claimed above
        store_busy = writers.busy_seconds();
      } catch (...) {
        reduce_error = std::current_exception();
        // Unblock a Bp-thread stalled on the slab handoff; the closed queue
        // propagates the shutdown up the pipeline.
        q_slabs.close();
      }
    });

    // ---- Main-thread: column AllGather per round (Fig. 4a middle) ---------
    StageTimer main_timer;
    // Both gather buffers are sized for the largest rows x pixels in the
    // stream, so a geometry change never resizes a buffer with an exchange
    // still in flight into its sibling.
    std::vector<float> gather_recv[2];
    gather_recv[0].resize(max_gather_floats);
    gather_recv[1].resize(max_gather_floats);
    // Repackages round `t` of volume `v` from the rank-ordered buffer.
    auto deliver_round = [&](std::size_t v, std::size_t t,
                             const std::vector<float>& recv) {
      const DecompositionPlan& plan = plans[v];
      const int col = plan.col_of(rank);
      std::vector<Filtered> images;
      images.reserve(static_cast<std::size_t>(plan.grid.rows));
      for (int r = 0; r < plan.grid.rows; ++r) {
        Image2D img(plan.geometry.nu, plan.geometry.nv, /*zero_fill=*/false);
        const float* src =
            recv.data() + static_cast<std::size_t>(r) * plan.pixels;
        std::copy(src, src + plan.pixels, img.data());
        images.push_back(
            Filtered{v, plan.owned_projection(r, col, t), std::move(img)});
      }
      if (!q_gathered.push(Round{v, std::move(images)})) {
        throw QueueClosedError(
            "iFDK streaming: gathered-projection queue closed before all "
            "rounds were delivered");
      }
    };
    try {
      // The Filtering-thread feeds us; double-buffered nonblocking ring
      // gather across the whole round stream, volume boundaries included
      // (round t of volume v+1 is initiated while the last round of volume
      // v is still outstanding — even across a grid re-split, where the two
      // rounds ride different communicators).
      mpi::Comm::CollectiveRequest pending;
      std::size_t pending_v = 0;
      std::size_t pending_t = 0;
      std::size_t pending_buf = 0;
      std::size_t g = 0;
      for (std::size_t v = 0; v < n_volumes; ++v) {
        const DecompositionPlan& plan = plans[v];
        const int row = plan.row_of(rank);
        const int col = plan.col_of(rank);
        mpi::Comm& col_comm = epoch_comms.of(v).col;
        for (std::size_t t = 0; t < plan.rounds; ++t, ++g) {
          auto mine = q_filtered.pop();
          if (!mine.has_value()) {
            throw QueueClosedError(
                "iFDK streaming: filtered-projection queue closed before "
                "all rounds were gathered");
          }
          IFDK_ASSERT(mine->vol == v &&
                      mine->index == plan.owned_projection(row, col, t));
          mpi::Comm::CollectiveRequest req;
          main_timer.time("allgather", [&] {
            req = col_comm.iallgather_ring(mine->image.data(),
                                           plan.pixels * sizeof(float),
                                           gather_recv[g % 2].data());
          });
          if (pending.valid()) {
            main_timer.time("allgather", [&] { pending.wait(); });
            deliver_round(pending_v, pending_t, gather_recv[pending_buf]);
          }
          pending = std::move(req);
          pending_v = v;
          pending_t = t;
          pending_buf = g % 2;
        }
      }
      if (pending.valid()) {
        main_timer.time("allgather", [&] { pending.wait(); });
        deliver_round(pending_v, pending_t, gather_recv[pending_buf]);
      }
    } catch (...) {
      main_error = std::current_exception();
      // Sibling threads of THIS rank may be blocked inside collectives whose
      // remote peers will never progress past our failure; poison the world
      // before joining them so every epoch unwinds instead of hanging. The
      // local root cause still wins the error report (run_world prefers
      // non-abort errors).
      world.abort_world();
    }
    q_gathered.close();
    q_filtered.close();

    filtering_thread.join();
    bp_thread.join();
    reduce_thread.join();

    // Rethrow the root cause, not a symptom: real failures > world-abort
    // symptoms > queue-shutdown symptoms. When one thread dies its queue
    // closes, and the threads at the other end fail with a secondary
    // QueueClosedError; a remote-rank abort surfaces in a collective.
    const std::exception_ptr errors[] = {bp_error, reduce_error, main_error,
                                         filter_error};
    if (const std::exception_ptr first = engine::pick_root_cause(errors)) {
      std::rethrow_exception(first);
    }
    world.barrier();

    ctx.wall.merge(filter_timer);
    ctx.wall.merge(bp_timer);
    ctx.wall.merge(main_timer);
    ctx.wall.merge(reduce_timer);
    ctx.wall.set_max("store", store_busy);
    ctx.wall.add("compute", stats.compute);
    ctx.total = rank_timer.seconds();
    if (ctx.total > 0) {
      ctx.efficiency.add(
          "filter_thread",
          (filter_timer.get("load") + filter_timer.get("filter")) /
              ctx.total);
      ctx.efficiency.add("main_thread",
                         main_timer.get("allgather") / ctx.total);
      ctx.efficiency.add("bp_thread",
                         bp_timer.get("backprojection") / ctx.total);
      ctx.efficiency.add(
          "reduce_thread",
          (reduce_timer.get("transpose") + reduce_timer.get("reduce") +
           reduce_timer.get("store")) /
              ctx.total);
      ctx.efficiency.add("store_thread", store_busy / ctx.total);
    }
  }

 private:
  pfs::ParallelFileSystem& fs_;
  const IfdkOptions& options_;
  std::span<const JobSpec> volumes_;
  std::span<const DecompositionPlan> plans_;
  std::size_t max_gather_floats_;
  std::vector<StreamRankStats> rank_stats_;
};

/// The FDK execution core (Fig. 4a/4b with streaming epochs): run_streaming
/// validates the jobs and forwards here, and run_distributed wraps it with a
/// one-volume stream. Callers have already validated `volumes`; this
/// function builds the per-volume plans and runs the FDK workload on the
/// engine.
StreamingStats stream_core(const geo::CbctGeometry& geometry,
                           pfs::ParallelFileSystem& fs,
                           const IfdkOptions& options,
                           std::span<const JobSpec> volumes) {
  const std::size_t n_volumes = volumes.size();
  // One DecompositionPlan per volume: the volume's own geometry when set,
  // the run geometry otherwise. Validation errors name the volume. With
  // more than one volume the bp/reduce double buffer keeps TWO slab pairs
  // resident, which the plan's memory-aware row selection accounts for.
  const std::size_t resident = n_volumes > 1 ? 2 : 1;
  std::vector<DecompositionPlan> plans;
  plans.reserve(n_volumes);
  for (std::size_t v = 0; v < n_volumes; ++v) {
    plans.push_back(DecompositionPlan::make(
        volumes[v].geometry.value_or(geometry), options,
        static_cast<int>(v), resident));
  }

  StreamingStats out;
  out.volumes = static_cast<int>(n_volumes);
  out.volume_errors.assign(n_volumes, "");
  out.plans = plans;
  // The ONLY place StreamingStats::grid is assigned: always the first
  // executed plan's grid, so the summary field can never drift from `plans`
  // (a zero-volume stream still validates the run configuration and reports
  // the grid it would have used).
  out.grid = out.plans.empty()
                 ? DecompositionPlan::make(geometry, options).grid
                 : out.plans.front().grid;
  if (n_volumes == 0) {
    return out;
  }

  // Stream-level memory constraint: the resident slab pairs span *adjacent*
  // volumes of possibly different geometries, so the worst case is the
  // largest slab in the stream, twice, plus the largest batch.
  std::uint64_t max_slab_bytes = 0;
  std::uint64_t max_batch_bytes = 0;
  std::size_t max_gather_floats = 0;  // largest rows * pixels in the stream
  for (const DecompositionPlan& plan : plans) {
    max_slab_bytes = std::max(max_slab_bytes, plan.slab_bytes());
    max_batch_bytes = std::max(
        max_batch_bytes, static_cast<std::uint64_t>(plan.bp_batch) *
                             plan.pixels * sizeof(float));
    max_gather_floats =
        std::max(max_gather_floats,
                 static_cast<std::size_t>(plan.grid.rows) * plan.pixels);
  }
  if (resident * max_slab_bytes + max_batch_bytes >
      options.device.memory_bytes) {
    throw DeviceOutOfMemory(
        "streaming needs " +
        std::to_string(resident * max_slab_bytes + max_batch_bytes) +
        " B of device memory (" + std::to_string(resident) +
        " resident slab pair(s) of up to " + std::to_string(max_slab_bytes) +
        " B + a batch of " + std::to_string(max_batch_bytes) +
        " B) but the device has " +
        std::to_string(options.device.memory_bytes) + " B");
  }

  FdkStreamWorkload workload(fs, options, volumes, plans, max_gather_floats);
  const engine::EngineStats engine_stats =
      engine::run(options.ranks, workload);

  out.wall = engine_stats.wall;
  out.overlap_efficiency = engine_stats.efficiency;
  const double wall_total = engine_stats.wall_total;
  // Every column-0 rank is a row root, so per-volume store accounting is
  // scattered across R ranks: merge by summing the byte/error sums and
  // maxing the PSNR peak (the merged stats ARE the whole volume's store).
  std::vector<pfs::StreamStats> store(n_volumes);
  for (std::size_t r = 0; r < static_cast<std::size_t>(options.ranks); ++r) {
    const StreamRankStats& rs = workload.rank_stats(r);
    for (std::size_t v = 0; v < n_volumes; ++v) {
      if (out.volume_errors[v].empty() && !rs.volume_errors[v].empty()) {
        out.volume_errors[v] = rs.volume_errors[v];
      }
      store[v].raw_bytes += rs.store[v].raw_bytes;
      store[v].stored_bytes += rs.store[v].stored_bytes;
      store[v].sum_squared_error += rs.store[v].sum_squared_error;
      store[v].peak = std::max(store[v].peak, rs.store[v].peak);
      store[v].values += rs.store[v].values;
    }
  }
  out.volume_store_psnr_db.reserve(n_volumes);
  for (std::size_t v = 0; v < n_volumes; ++v) {
    out.store_raw_bytes += store[v].raw_bytes;
    out.store_stored_bytes += store[v].stored_bytes;
    out.volume_store_psnr_db.push_back(store[v].psnr_db());
  }
  out.wall_total = wall_total;
  out.volumes_per_second =
      wall_total > 0 ? static_cast<double>(n_volumes) / wall_total : 0;
  return out;
}

}  // namespace

StreamingStats run_streaming(const geo::CbctGeometry& geometry,
                             pfs::ParallelFileSystem& fs,
                             const IfdkOptions& options,
                             std::span<const JobSpec> volumes) {
  // The public entry point is validation + forwarding: every JobSpec is
  // checked with its volume index (so a bad frame in a long series names
  // itself), then the shared execution core runs the stream. The service
  // layer calls the same core through this function after admission.
  options.validate();
  for (std::size_t v = 0; v < volumes.size(); ++v) {
    volumes[v].validate(static_cast<int>(v));
    if (volumes[v].workload != WorkloadKind::kFdk) {
      throw ConfigError("volume " + std::to_string(v) +
                        ": run_streaming executes FDK jobs only; iterative "
                        "jobs dispatch through iterative::run_iterative (or "
                        "the service front door)");
    }
  }
  return stream_core(geometry, fs, options, volumes);
}

}  // namespace ifdk
