// The decomposition plan: every data-placement decision of paper Section 4.1
// as one first-class object.
//
// Historically the Eq. (7) row selection, slab-pair extents, column
// projection sharding, collective byte accounting, and the Section 4.1.5
// memory constraint lived as inline arithmetic inside the runtime
// (src/ifdk/framework.cpp). A DecompositionPlan captures all of them up
// front — given a CbctGeometry, the decomposition-relevant IfdkOptions, and
// a gpusim::DeviceSpec — so that three independent consumers act on the
// *same* resolved decomposition:
//
//   * the runtime (`run_distributed` / `run_streaming`) executes it,
//   * the virtual-time simulator (`cluster::simulate_plan` /
//     `cluster::simulate_stream`) replays its timing at scales one machine
//     cannot execute,
//   * the benches (`bench_smoke`'s `plan` JSON block) record it per revision.
//
// Invariants are enforced in one place (`check_invariants`, run at
// construction): the R slab pairs disjointly cover [0, Nz) and the R*C
// projection shards disjointly cover [0, Np). The plan knows nothing about
// collective tags: minimpi matches collectives by call order on each
// communicator, so any number of epochs compose without a budget.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "backproj/simd/column_kernel.h"
#include "filter/filter_engine.h"
#include "geometry/cbct.h"
#include "gpusim/device.h"
#include "perfmodel/model.h"

namespace ifdk {

struct IfdkOptions {
  /// Total ranks (= simulated GPUs). Must be a multiple of the row count.
  int ranks = 4;
  /// Rows R of the 2-D grid; 0 = choose via Eq. (7) + the memory constraint
  /// (Section 4.1.5) using `microbench` (and, for streaming plans, the
  /// resident-slab count — see DecompositionPlan::make).
  int rows = 0;
  /// Measured per-GPU rates feeding the Eq. (7) row selection.
  perfmodel::MicroBench microbench;
  /// Ramp window etc.; the back-projection kernel is always the proposed
  /// Algorithm 4 in slab-pair mode. FilterOptions::fft_backend picks the
  /// filtering stage's SIMD backend.
  filter::FilterOptions filter;
  /// SIMD column backend for the back-projection stage (the counterpart of
  /// filter.fft_backend): kAuto resolves at runtime to the widest supported
  /// backend; a concrete value forces one on every rank and throws where
  /// unavailable.
  bp::simd::Backend simd_backend = bp::simd::Backend::kAuto;
  /// Projections per simulated H2D+kernel launch on the Bp-thread.
  std::size_t bp_batch = 32;
  /// Circular-buffer depth (Fig. 4a); also the async store queue depth.
  std::size_t queue_capacity = 8;
  /// Floats per row-ireduce segment (must be identical on every rank).
  /// Smaller segments start the store earlier; larger ones amortize
  /// per-message cost. Matches mpi::Comm::kDefaultReduceSegment.
  std::size_t reduce_segment_floats = std::size_t{1} << 16;
  /// Simulated per-rank GPU (memory budget + modeled PCIe/kernel rates).
  gpusim::DeviceSpec device;
  /// Projection objects are read from `<input_prefix><s>`, s in [0, Np).
  std::string input_prefix = "proj/";
  /// Volume slices are written to `<output_prefix><k>`, k in [0, Nz).
  std::string output_prefix = "vol/slice_";

  /// Validates the geometry-independent option invariants (positive ranks,
  /// batch, queue depth, reduce segment) in one place; throws ConfigError
  /// naming the offending value. DecompositionPlan::make, both runtimes,
  /// and service::ReconService all call this — a new pre-run check belongs
  /// here, not inline at a call site (message wording is pinned by tests).
  void validate() const;
};

/// The two half-slabs owned by one row of the grid: the low slab
/// [low_begin, low_end) and its Theorem-1 mirror [high_begin, high_end),
/// both as global Z slice indices. Across the R rows the extents disjointly
/// cover [0, Nz) — the invariant check_invariants() enforces.
struct SlabExtent {
  std::size_t low_begin = 0;
  std::size_t low_end = 0;
  std::size_t high_begin = 0;
  std::size_t high_end = 0;
};

/// A fully resolved data decomposition for one volume on one rank world.
/// Immutable after make(); the runtime, the simulator, and the benches all
/// consume the same object (see the header comment).
struct DecompositionPlan {
  /// The resolved R x C grid (after Eq. (7) auto-selection).
  perfmodel::GridShape grid;
  /// The geometry the plan decomposes (copied: a plan outlives its inputs).
  geo::CbctGeometry geometry;
  /// Half-height of each row's symmetric slab pair: Nz / (2R).
  std::size_t slab_h = 0;
  /// Column-gather rounds per rank (= projections loaded per rank): Np/ranks.
  std::size_t rounds = 0;
  /// Pixels per projection (Nu * Nv).
  std::size_t pixels = 0;
  /// Pixels per volume slice (Nx * Ny).
  std::size_t slice_px = 0;
  /// Floats per row-ireduce segment (IfdkOptions::reduce_segment_floats).
  std::size_t reduce_segment_floats = 0;
  /// Projections per simulated H2D+kernel launch (IfdkOptions::bp_batch).
  std::size_t bp_batch = 0;
  /// Slab pairs resident per device while this plan executes (1 for
  /// run_distributed; 2 in streaming mode, where the Bp-thread accumulates
  /// volume v+1 while volume v drains through the row reduce).
  std::size_t resident_slabs = 1;

  /// Builds and validates a plan. `rows = 0` selects R via Eq. (7), then
  /// doubles it until `resident_slabs` slab pairs plus one projection batch
  /// fit in `options.device.memory_bytes` (the Section 4.1.5 constraint,
  /// extended to the streaming double buffer). Throws ConfigError naming
  /// the offending values when ranks/rows/Np/Nz are inconsistent; when
  /// `volume_index >= 0` (streaming mode) every message is prefixed with
  /// the offending volume, e.g. "volume 2: Nz (18) must be ...".
  static DecompositionPlan make(const geo::CbctGeometry& geometry,
                                const IfdkOptions& options,
                                int volume_index = -1,
                                std::size_t resident_slabs = 1);

  /// Total ranks R * C.
  int ranks() const { return grid.ranks(); }
  /// Row of a world rank (column-major numbering, paper Fig. 3a).
  int row_of(int rank) const { return rank % grid.rows; }
  /// Column of a world rank.
  int col_of(int rank) const { return rank / grid.rows; }

  // -- volume decomposition (rows) ------------------------------------------

  /// Floats in one slab pair: 2 * slab_h * Nx * Ny.
  std::size_t slab_floats() const { return 2 * slab_h * slice_px; }
  /// Bytes in one slab pair.
  std::uint64_t slab_bytes() const {
    return static_cast<std::uint64_t>(slab_floats()) * sizeof(float);
  }
  /// Global slice extents of `row`'s slab pair (Theorem 1's symmetric
  /// pairing: low slab row*h..(row+1)*h, mirror Nz-(row+1)*h..Nz-row*h).
  SlabExtent slab_extent(int row) const;
  /// Global slice index of local slab-pair slice `local_k` of `row`:
  /// local k < slab_h maps into the low slab, the rest into the mirror.
  std::size_t global_slice(int row, std::size_t local_k) const;

  // -- projection decomposition (columns) -----------------------------------

  /// First projection index of column `col`'s contiguous Np/C share.
  std::size_t column_base(int col) const;
  /// Projection index rank (row, col) loads in gather round `t`
  /// (Section 4.1.1: base + t*R + row).
  std::size_t owned_projection(int row, int col, std::size_t t) const;
  /// All `rounds` projection indices rank (row, col) loads. Across the R*C
  /// ranks these shards disjointly cover [0, Np) (checked at construction).
  std::vector<std::size_t> projection_shard(int row, int col) const;

  // -- collective messages and bytes ----------------------------------------

  /// Segments of one row-ireduce epoch: ceil(slab_floats / segment).
  std::uint64_t reduce_segments() const;
  /// Bytes one rank sends per ring-AllGather round: (R - 1) blocks of one
  /// projection each.
  std::uint64_t allgather_bytes_per_round() const;
  /// Bytes one non-root rank contributes to a row-reduce epoch (the slab
  /// pair; tree relays forward concatenations on top of this).
  std::uint64_t reduce_bytes_per_epoch() const { return slab_bytes(); }

  // -- iterative workload ---------------------------------------------------
  //
  // The distributed iterative workload (iterative::run_iterative) replicates
  // the volume and shards views, so its collective unit is a volume-wide
  // all-reduce (mpi::Comm::allreduce: segmented tree ireduce to rank 0 +
  // bcast) instead of the FDK row reduce.

  /// Floats in one full replicated volume: Nx * Ny * Nz — the payload of
  /// one iterative all-reduce sweep.
  std::size_t volume_floats() const { return slice_px * geometry.nz; }
  /// Device bytes the iterative workload keeps resident per rank: the
  /// estimate, one update/ratio accumulator, the per-subset column-norm
  /// volumes, plus this rank's projection shard and forward buffer.
  std::uint64_t iter_device_bytes(int subsets) const;
  /// Throws DeviceOutOfMemory (naming the bytes needed and available) when
  /// iter_device_bytes(subsets) does not fit `spec.memory_bytes` — the
  /// iterative counterpart of check_device_fit, shared by run_iterative
  /// and service admission.
  void check_iter_device_fit(const gpusim::DeviceSpec& spec,
                             int subsets) const;

  // -- memory constraint (Section 4.1.5) ------------------------------------

  /// Device bytes this plan keeps resident: resident_slabs slab pairs plus
  /// one projection batch.
  std::uint64_t device_bytes() const;
  /// Throws DeviceOutOfMemory (naming the numbers) when device_bytes() does
  /// not fit `spec.memory_bytes`. The runtime still enforces the budget at
  /// allocation time; this front-loads the failure with a better message.
  void check_device_fit(const gpusim::DeviceSpec& spec) const;

  /// True when `other` resolves to the same R x C grid — the condition
  /// under which streaming reuses the previous epoch's communicators
  /// instead of re-splitting the world.
  bool same_grid(const DecompositionPlan& other) const {
    return grid.rows == other.grid.rows && grid.columns == other.grid.columns;
  }

  /// Re-checks the structural invariants (disjoint slab cover of [0, Nz),
  /// disjoint projection cover of [0, Np)); aborts via IFDK_ASSERT on
  /// violation. make() runs this — exposed for property tests.
  void check_invariants() const;
};

}  // namespace ifdk
