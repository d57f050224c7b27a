// The workload-agnostic distributed execution engine.
//
// Everything the per-rank pipeline of src/ifdk/framework.cpp needed but that
// is not FDK-specific lives here, so a second workload (the distributed
// iterative solvers of src/iterative/distributed.h) can run on the same
// machinery instead of growing a parallel copy:
//
//   * Workload / RankContext / run() — the seam itself: run() spins up one
//     rank world (mpi::run_world), hands each rank a RankContext, and merges
//     the per-rank stage timers into EngineStats exactly the way the FDK
//     runtime always merged them (max across ranks = the critical path);
//   * EpochComms — the per-grid communicator cache behind the streaming
//     re-split: one col/row pair per distinct row count, built up front in a
//     deterministic order so the split collectives agree on every rank;
//   * VolumeWriterSet — the pfs::AsyncWriter stream plumbing: one
//     multiplexed writer per rank that roots any volume, per-volume streams,
//     and the poison-isolation contract (a write failure fails ONE volume);
//   * error-class selection — QueueClosedError, error_class(),
//     pick_root_cause(): real failures beat world-abort symptoms beat
//     queue-shutdown symptoms, so the faulty rank's real error wins at
//     run_world no matter which rank's body exits first;
//   * object_name() / extract_zmajor_slice() — the PFS naming convention and
//     the shared z-major -> slice-major permutation the bitwise-equivalence
//     guarantees depend on.
//
// The engine deliberately knows nothing about plans, geometries, or kernels:
// workloads bring their own decomposition (ifdk::DecompositionPlan) and
// compute stages, and the engine supplies the rank world, the communicator
// cache, the writer plumbing, and the error protocol.
#pragma once

#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/timer.h"
#include "minimpi/minimpi.h"
#include "pfs/async_writer.h"
#include "pfs/pfs.h"

namespace ifdk::engine {

/// Secondary pipeline error: a stage observed its queue closed because the
/// thread at the other end died first. Typed (rather than matched by
/// message text) so the rethrow logic can reliably prefer the root cause.
class QueueClosedError : public Error {
 public:
  /// Wraps the human-readable shutdown symptom.
  explicit QueueClosedError(const std::string& what) : Error(what) {}
};

/// Severity class for root-cause selection: real failures (0) beat
/// world-abort symptoms (1 — another rank owns the root cause; run_world()
/// deprioritizes these globally), which beat queue-shutdown symptoms (2 — a
/// sibling thread of this rank owns it).
int error_class(const std::exception_ptr& e);

/// Picks the most root-cause-like error (lowest class, earliest wins ties);
/// null when none set. Workloads pass their per-thread error slots in a
/// fixed order so tie-breaks stay deterministic.
std::exception_ptr pick_root_cause(std::span<const std::exception_ptr> errors);

/// PFS object naming convention: `<prefix><index>` with the index rendered
/// as a fixed six-digit decimal — projections, slices, and every staged
/// object in the repo use this one formatter.
std::string object_name(const std::string& prefix, std::size_t index);

/// Extracts slice `local_k` of a z-major slab pair into a slice-major
/// destination. Shared by every pipeline path: the bitwise-equivalence
/// guarantees depend on the permutation being identical.
void extract_zmajor_slice(const float* zmajor, std::size_t nx, std::size_t ny,
                          std::size_t pair_depth, std::size_t local_k,
                          float* dst);

/// Per-volume col/row communicator cache — the grid re-split machinery.
///
/// A split is a collective on the parent communicator, so every rank must
/// perform the same sequence: the constructor walks the volumes in order and
/// builds one col/row pair per DISTINCT row count (with the rank count
/// fixed, R determines the grid). Consecutive volumes with the same grid
/// share a pair, which is what lets their collective epochs stay in flight
/// together; a volume that resolves a different R gets its own pair, and
/// the stream "re-splits" by switching pairs at the volume boundary.
class EpochComms {
 public:
  /// The column communicator (ranks of one column, keyed by row) and the
  /// row communicator (ranks of one row, keyed by column) of one grid.
  struct Pair {
    mpi::Comm col;
    mpi::Comm row;
  };

  /// Splits `world` once per distinct entry of `rows_per_volume` (in first-
  /// appearance order — identical on every rank, as the split collective
  /// requires). Ranks are column-major: row = rank % R, column = rank / R.
  EpochComms(mpi::Comm& world, std::span<const int> rows_per_volume);

  /// The communicator pair volume `v` runs its collective epochs on.
  Pair& of(std::size_t volume) { return *per_volume_[volume]; }

 private:
  std::map<int, Pair> by_rows_;
  std::vector<Pair*> per_volume_;
};

/// The pfs::AsyncWriter stream plumbing of a streaming rank: one multiplexed
/// writer for every volume this rank roots, one stream per rooted volume,
/// and the poison-isolation contract — a write failure poisons ONLY that
/// volume's stream (its finish_volume reports the error; every other volume
/// keeps flowing). Ranks that root nothing hold no writer and every call is
/// a cheap no-op.
class VolumeWriterSet {
 public:
  /// Opens one stream per volume with `roots[v]` set; no writer thread is
  /// started when this rank roots nothing. `fs` must outlive this object.
  /// `store_bits` (empty = every volume raw) gives volume v's store codec:
  /// 0 stores raw floats, 8..16 opens volume v's stream in the compressed
  /// mode (quantized CompressedVolume objects at that depth).
  VolumeWriterSet(pfs::ParallelFileSystem& fs, std::size_t queue_capacity,
                  const std::vector<bool>& roots,
                  const std::vector<int>& store_bits = {});

  /// Byte/error accounting of volume `v`'s stream (rooted volumes only);
  /// complete once finish_volume(v) returned. Reports the store ratio and
  /// the quantization PSNR for compressed volumes.
  pfs::StreamStats volume_store_stats(std::size_t volume) const;

  /// Queues one object write on volume `v`'s stream. Returns false once the
  /// stream is poisoned (the caller should stop feeding that volume; the
  /// error surfaces from finish_volume).
  bool enqueue(std::size_t volume, std::string name,
               std::vector<float> payload);

  /// Drains volume `v`'s stream and returns its first write error ("" =
  /// every slice stored). Other volumes are unaffected.
  std::string finish_volume(std::size_t volume);

  /// Final drain after every rooted volume was finished; records the writer
  /// thread's busy seconds for busy_seconds().
  void finish();

  /// Wall-clock seconds the writer thread spent writing (the "store_thread"
  /// overlap-efficiency numerator); valid after finish().
  double busy_seconds() const { return busy_; }

 private:
  std::optional<pfs::AsyncWriter> writer_;
  std::vector<pfs::AsyncWriter::StreamId> streams_;
  std::vector<bool> roots_;
  double busy_ = 0;
};

/// Everything the engine hands one rank of a workload: the world
/// communicator, the rank id, and the stat sinks the engine merges across
/// ranks after the world joins (wall: per-stage busy seconds, max-merged;
/// efficiency: busy/wall per pipeline thread, max-merged; total: the rank's
/// wall clock, max-merged into EngineStats::wall_total). The workload owns
/// filling them — the engine only aggregates.
struct RankContext {
  /// The world communicator of this rank (split into grids via EpochComms).
  mpi::Comm& world;
  /// This rank's world rank.
  int rank = 0;
  /// Per-stage busy seconds of this rank (max-merged across ranks).
  StageTimer wall;
  /// Busy/wall per pipeline thread of this rank (max-merged across ranks).
  StageTimer efficiency;
  /// This rank's wall-clock seconds (max across ranks = EngineStats total).
  double total = 0;
};

/// One workload on the engine: FDK streaming (src/ifdk/framework.cpp) and
/// the distributed iterative solvers (src/iterative/distributed.cpp) are the
/// two implementations. run_rank is called once per rank inside the engine's
/// rank world and must follow the engine error protocol: catch worker-thread
/// errors into slots, rethrow the pick_root_cause winner, and let collective
/// failures unwind through mpi::WorldAbortedError.
class Workload {
 public:
  virtual ~Workload() = default;
  /// The per-rank body; `ctx` is this rank's context and stat sink.
  virtual void run_rank(RankContext& ctx) = 0;
};

/// Cross-rank merge of the per-rank stat sinks (the critical-path view the
/// FDK runtime always reported): per-stage maxima, per-thread efficiency
/// maxima, and the slowest rank's wall clock.
struct EngineStats {
  /// Per-stage busy seconds, max over ranks.
  StageTimer wall;
  /// Busy/wall per pipeline thread, max over ranks.
  StageTimer efficiency;
  /// Wall-clock of the slowest rank.
  double wall_total = 0;
};

/// Runs `workload` on a fresh `ranks`-thread world (mpi::run_world) and
/// merges every rank's RankContext stats. Exceptions thrown by any rank are
/// rethrown here after all ranks joined (run_world's protocol: a rank's
/// non-abort error is preferred over the abort symptoms it caused).
EngineStats run(int ranks, Workload& workload);

}  // namespace ifdk::engine
