// The iFDK distributed framework (paper Section 4).
//
// Nranks = R * C ranks form a 2-D grid (Fig. 3a; one rank per simulated
// GPU). Ranks are numbered column-major as in the paper's figure: column
// c = rank / R holds ranks c*R .. c*R + R - 1.
//
//   * Each *column* loads and filters a disjoint 1/C of the projections;
//     rank (r, c) loads indices { c*Np/C + t*R + r } and the column
//     AllGathers one projection per rank per round (Section 4.1.3).
//   * Each *row* owns one symmetric pair of Z-slabs of the volume
//     ("2*R sub-volumes", Fig. 3a) and back-projects its column's
//     projections into it with the proposed Algorithm-4 kernel.
//   * A single MPI-Reduce per row combines the C partial slab pairs
//     (Fig. 3b), and the row root stores the slabs to the PFS as Nz slices
//     of Nx x Ny (Section 4.1.3).
//
// Inside every rank three threads pipeline the work through two circular
// buffers exactly as Fig. 4a: Filtering-thread -> Main-thread (AllGather) ->
// Bp-thread. Projection *loading* is sharded across the column: each rank
// reads only its 1/R of the column's Np/C share and the AllGather fills in
// the rest, so no projection is read from the PFS more than once per column.
//
// The stages genuinely overlap the way Fig. 4 requires for the end-to-end
// time to approach the back-projection lower bound:
//   * the column AllGather is the nonblocking ring (iallgather_ring),
//     double-buffered across rounds — round t+1's exchange is initiated
//     before round t is handed to the Bp-thread, so a rank never serializes
//     "gather, then enqueue" against its neighbours;
//   * the row Reduce is the chunked, pipelined tree ireduce, run by a
//     fourth (Reduce-)thread: the slab is transposed to slice-major and
//     reduced segment by segment, so the fold of segment s overlaps the
//     delivery of s+1, and the Bp-thread can already accumulate the next
//     volume of a stream;
//   * the row root streams every completed slice into a pfs::AsyncWriter,
//     so PFS stores overlap the tail of the reduce instead of starting
//     after it.
// There is one execution path: run_distributed is a one-volume
// run_streaming. Its volumes are pinned bitwise by tests to a sequential,
// thread-free replay of the same arithmetic (tests/fdk_oracle.h).
//
// Wall-clock per stage is recorded per rank and merged, along with a
// per-thread overlap efficiency (busy/wall). The 16 GB memory constraint is
// checked once, before any rank starts: the resident slab pairs plus one
// projection batch must fit IfdkOptions::device.memory_bytes.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/image.h"
#include "common/timer.h"
#include "common/volume.h"
#include "geometry/cbct.h"
#include "ifdk/job.h"
#include "ifdk/plan.h"
#include "perfmodel/model.h"
#include "pfs/pfs.h"

// Re-exported request vocabulary: ifdk::JobSpec lives in ifdk/job.h so the
// service layer can name it without pulling in the runtime; framework.h
// remains the one-stop include for runtime callers.

namespace ifdk {

/// Aggregate result of a run_streaming (or run_distributed) call.
struct StreamingStats {
  /// The R x C grid of the FIRST volume (after Eq. (7) auto-selection);
  /// heterogeneous-geometry streams may re-split per volume — see `plans`.
  /// Always `plans.front().grid` (populated from the executed plan sequence
  /// in one place, so a volume-0 geometry override can never make the two
  /// drift); kept as a field only for callers that drop `plans`. Streams of
  /// zero volumes fall back to the run geometry's plan.
  perfmodel::GridShape grid;
  /// The per-volume decomposition plans the run actually executed, in
  /// volume order — hand these to cluster::simulate_stream to predict the
  /// same stream's throughput at scale.
  std::vector<DecompositionPlan> plans;
  /// Number of volumes pushed through the world.
  int volumes = 0;
  /// Wall-clock of the slowest rank, volume 0's first load to the last
  /// volume's store.
  double wall_total = 0;
  /// volumes / wall_total — the streaming throughput headline.
  double volumes_per_second = 0;
  /// Per-stage busy seconds summed over all volumes, max over ranks (the
  /// pipeline-critical rank): "load", "filter", "allgather",
  /// "backprojection", "transpose", "reduce", "store", and "compute" (the
  /// load+filter+allgather+bp span).
  StageTimer wall;
  /// Busy/wall per pipeline thread, max over ranks: "filter_thread"
  /// (load+filter), "main_thread" (column gather), "bp_thread",
  /// "reduce_thread" (transpose + row-reduce + store drain), "store_thread"
  /// (async writer). An efficiency near 1 means the thread — and therefore
  /// its stage — is the pipeline bottleneck; the paper's overlap claim holds
  /// when bp_thread dominates.
  StageTimer overlap_efficiency;
  /// Per-volume store outcome, merged over row roots: empty string =
  /// every slice of that volume was stored; otherwise the first error the
  /// writer hit. A failed volume never aborts the stream — later volumes
  /// keep flowing and must stay bit-exact (asserted by tests).
  std::vector<std::string> volume_errors;

  // -- compression accounting -----------------------------------------------

  /// Bytes row roots handed the store path (4 * voxels stored).
  std::size_t store_raw_bytes = 0;
  /// Bytes that actually hit the PFS (serialized compressed objects for
  /// compress_store volumes; equals the raw count otherwise).
  std::size_t store_stored_bytes = 0;
  /// Per-volume quantization PSNR of the stored slices in dB, merged over
  /// row roots; +inf for volumes stored raw (bit-exact store).
  std::vector<double> volume_store_psnr_db;
  /// Achieved store compression ratio raw/stored (1 when nothing stored).
  double store_ratio() const {
    return store_stored_bytes == 0
               ? 1.0
               : static_cast<double>(store_raw_bytes) /
                     static_cast<double>(store_stored_bytes);
  }
};

/// run_distributed's result: the one-volume stream's stats.
using IfdkStats = StreamingStats;

/// Streams `volumes.size()` independent jobs (e.g. a 4D-CT time series)
/// through ONE rank world: volume v+1's filtering and column gather begin
/// while volume v is still back-projecting, row-reducing, and storing.
/// Each JobSpec is validated (JobSpec::validate) and executed from its own
/// DecompositionPlan (built with the job's geometry when JobSpec::geometry
/// is set, the run geometry otherwise; same constraints and error messages
/// as run_distributed, with the offending volume index prefixed); the
/// scheduling fields (tenant/priority/deadline) are ignored here — ordering
/// is the service layer's concern, and volumes execute in span order. When
/// consecutive plans resolve to different R x C grids the ranks re-split
/// the world between epochs. Output volumes are bitwise-identical to
/// volumes.size() sequential run_distributed calls with the same options
/// and per-volume geometries. A PFS *write* failure on volume v fails only
/// that volume (see StreamingStats::volume_errors); any other rank failure
/// aborts the world and is rethrown, with every in-flight collective epoch
/// unwound.
StreamingStats run_streaming(const geo::CbctGeometry& geometry,
                             pfs::ParallelFileSystem& fs,
                             const IfdkOptions& options,
                             std::span<const JobSpec> volumes);

/// Runs the full distributed pipeline for ONE volume: reads projections
/// `<input_prefix><s>` (raw float Nu*Nv objects, s in [0, Np)) from `fs`,
/// writes slices `<output_prefix><k>` (raw float Nx*Ny objects, k in
/// [0, Nz)). Requires Np % ranks == 0 and even Nz divisible by 2*rows;
/// violations throw ConfigError naming the offending values. A failure on
/// any rank (I/O, device memory, PFS write, ...) is rethrown here; no
/// complete output volume is left behind in that case.
///
/// This is a one-volume wrapper over the streaming execution core — the
/// exact plan/epoch machinery run_streaming and the service layer use — so
/// there is a single pipeline implementation to maintain.
IfdkStats run_distributed(const geo::CbctGeometry& geometry,
                          pfs::ParallelFileSystem& fs,
                          const IfdkOptions& options);

/// Helper: stores all projections of a stack into `fs` under
/// `<input_prefix><s>` so examples/tests can stage inputs the way a scanner
/// or the RTK forward projector would.
void stage_projections(pfs::ParallelFileSystem& fs,
                       const std::string& input_prefix,
                       std::span<const Image2D> projections);

/// Helper: reads the reconstructed volume back from slice objects. With
/// `compressed_store` the slices are parsed as the serialized
/// CompressedVolume objects a JobSpec::compress_store job writes (corrupt
/// objects throw CompressionError) instead of raw floats.
Volume load_volume(const pfs::ParallelFileSystem& fs,
                   const std::string& output_prefix, const VolDims& dims,
                   bool compressed_store = false);

}  // namespace ifdk
