// minimpi: an in-process message-passing runtime with MPI semantics.
//
// The paper runs iFDK over Intel MPI on InfiniBand; this repository has no
// MPI installation, so the framework is written against this interface
// instead. Ranks are threads inside one process; messages are copied between
// rank-private mailboxes, so the programming model is identical to MPI's
// (no shared mutable state between ranks except through explicit messages —
// see the LLNL MPI programming model and Core Guidelines CP.mess).
//
// Supported surface (everything iFDK needs, Section 4.1):
//   * point-to-point: send / recv with tags (plus nonblocking isend/irecv),
//   * collectives: barrier, bcast, gather, allgather (the building blocks
//     of split) and allreduce,
//   * nonblocking collectives: iallgather_ring and a chunked, pipelined
//     binomial-tree ireduce, each returning a waitable CollectiveRequest
//     (the overlap primitives of the Fig. 4 pipeline),
//   * communicator split (used to form the R x C rank grid of Fig. 3a).
//
// Collectives are implemented over point-to-point with deterministic
// (ascending-rank) reduction, so distributed results are reproducible and
// comparable against single-node references in tests. Like MPI, collectives
// are matched by call order on a communicator: each one takes the next
// numbers of a per-communicator 64-bit sequence at initiation and uses them
// as its private tags, far above every user tag. The sequence never wraps,
// so any number of collectives may be outstanding on one communicator and
// no caller ever accounts for tags.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/error.h"

namespace ifdk::mpi {

enum class ReduceOp { kSum, kMax, kMin };

namespace detail {
class World;
}  // namespace detail

/// Thrown from any blocked or initiated operation when the world was aborted
/// (another rank failed, or abort_world() was called). Typed so error
/// reporting can prefer the root cause over this secondary symptom:
/// run_world() rethrows a rank's non-abort error when one exists.
class WorldAbortedError : public Error {
 public:
  /// `what` names the failing operation; the root cause lives on the rank
  /// that aborted.
  explicit WorldAbortedError(const std::string& what) : Error(what) {}
};

/// A communicator: a subset of ranks with private tag space. Copyable handle
/// (like an MPI_Comm); all members must call collectives in the same order.
class Comm {
 public:
  /// This rank's id within the communicator, in [0, size()).
  int rank() const { return rank_; }
  /// Number of member ranks.
  int size() const { return static_cast<int>(members_.size()); }

  // -- point to point ------------------------------------------------------

  /// Blocking (buffered) send: copies `bytes` into the destination mailbox
  /// and returns. dest is a rank within this communicator; user tags must
  /// lie in [0, 2^24), below the collective tags (asserted).
  void send(int dest, int tag, const void* data, std::size_t bytes);

  /// Blocking receive of exactly `bytes` from `src` with `tag`.
  void recv(int src, int tag, void* data, std::size_t bytes);

  /// Typed convenience wrapper over send() (blocking, buffered).
  template <typename T>
  void send_span(int dest, int tag, std::span<const T> data) {
    send(dest, tag, data.data(), data.size_bytes());
  }
  /// Typed convenience wrapper over recv() (blocking).
  template <typename T>
  void recv_span(int src, int tag, std::span<T> data) {
    recv(src, tag, data.data(), data.size_bytes());
  }

  // -- nonblocking point to point -------------------------------------------

  /// Handle to an outstanding nonblocking operation. wait() must be called
  /// exactly once before destruction (asserted; like CollectiveRequest, an
  /// unwaited handle is tolerated only while an exception unwinds, i.e.
  /// during abort teardown), mirroring MPI_Request semantics without the
  /// free-floating MPI_REQUEST_NULL states.
  class Request {
   public:
    Request() = default;
    Request(Request&&) noexcept;
    Request& operator=(Request&&) noexcept;
    Request(const Request&) = delete;
    Request& operator=(const Request&) = delete;
    ~Request();

    /// Blocks until the operation completed (for isend: the payload was
    /// buffered at the destination; for irecv: the data arrived).
    void wait();
    /// True while an operation is attached (wait() has not consumed it).
    bool valid() const { return comm_ != nullptr; }

   private:
    friend class Comm;
    Comm* comm_ = nullptr;
    int peer_ = -1;
    int tag_ = -1;
    void* data_ = nullptr;
    std::size_t bytes_ = 0;
    bool is_recv_ = false;
    bool done_ = false;
  };

  /// Nonblocking send: the payload is copied immediately (buffered send), so
  /// the source buffer may be reused as soon as isend returns; wait() is a
  /// cheap formality kept for API symmetry.
  Request isend(int dest, int tag, const void* data, std::size_t bytes);

  /// Nonblocking receive: the message is matched and copied at wait() time.
  /// The receive buffer must stay alive until then.
  Request irecv(int src, int tag, void* data, std::size_t bytes);

  /// Waits on all requests in order.
  static void wait_all(std::span<Request> requests);

  // -- nonblocking collectives ----------------------------------------------

  /// Waitable handle to an outstanding nonblocking collective
  /// (iallgather_ring / ireduce). wait() must be called exactly once before
  /// destruction (asserted; dropping an unwaited handle is tolerated only
  /// while an exception unwinds, i.e. after a world abort). Handles may be
  /// waited out of order with respect to each other and to point-to-point
  /// traffic: every collective takes its sequence numbers at *initiation*
  /// time, so message matching cannot cross between operations regardless
  /// of completion order.
  class CollectiveRequest {
   public:
    CollectiveRequest() = default;
    CollectiveRequest(CollectiveRequest&&) noexcept;
    CollectiveRequest& operator=(CollectiveRequest&&) noexcept;
    CollectiveRequest(const CollectiveRequest&) = delete;
    CollectiveRequest& operator=(const CollectiveRequest&) = delete;
    ~CollectiveRequest();

    /// Drives the remaining steps of the collective to completion, blocking
    /// as needed. Throws Error if the world was aborted by another rank; the
    /// handle counts as completed either way (no second wait).
    void wait();
    /// True until wait() has been called (default-constructed handles are
    /// born completed).
    bool valid() const { return !done_; }

   private:
    friend class Comm;
    explicit CollectiveRequest(std::function<void()> complete);
    std::function<void()> complete_;
    bool done_ = true;
  };

  /// Invoked by ireduce's root after each segment has been fully reduced
  /// into the receive buffer; arguments are the segment's float offset and
  /// length. Runs on the thread that calls wait().
  using SegmentCallback = std::function<void(std::size_t offset,
                                             std::size_t length)>;

  /// Default ireduce segment: 64K floats (256 KiB), small enough that the
  /// reduction of segment s overlaps delivery of segment s+1, large enough
  /// to amortize per-message cost.
  static constexpr std::size_t kDefaultReduceSegment = std::size_t{1} << 16;

  /// Nonblocking ring AllGather (the Fig. 3b column collective): p-1
  /// neighbour-exchange steps, each moving one block — the bandwidth-optimal
  /// algorithm large MPI implementations use for big payloads, and the one
  /// the cluster simulator's cost model assumes. Every rank ends up with the
  /// rank-ordered concatenation of all contributions. Takes p-1 collective
  /// sequence numbers at initiation. The caller's block is copied into
  /// `recv` and the first neighbour exchange is posted before returning, so
  /// neighbours that wait early never stall on this rank's initiation; the
  /// remaining p-2 exchange steps run inside wait().
  /// `send_data` may be reused as soon as this call returns; `recv` must
  /// stay alive and untouched until wait() completes.
  CollectiveRequest iallgather_ring(const void* send_data,
                                    std::size_t bytes_per_rank, void* recv);

  /// Nonblocking, chunked, pipelined reduce to `root` (the Fig. 3b row
  /// collective). The payload is split into ceil(count / segment_floats)
  /// segments that fan in over a binomial tree rooted (virtually) at `root`:
  /// each relay concatenates its subtree's contributions and forwards one
  /// message inside *its* wait(), so the root waits on ceil(log2 p) messages
  /// per segment instead of p-1; leaves post every segment eagerly
  /// (buffered) and their wait() is a no-op. The root folds segments one at
  /// a time inside wait() — so the reduction of segment s overlaps the
  /// delivery of segment s+1, and `on_segment` (root only, may be empty)
  /// streams finished segments to a consumer (e.g. an async PFS writer)
  /// while later segments are still in flight. Relays never fold: the root
  /// alone folds every element in ascending-rank order (rank 0's
  /// contribution first), so results are deterministic and independent of
  /// the segment size. `segment_floats` must be positive and identical on
  /// every rank (it determines the number of messages: one per segment and
  /// sender, each with its own sequence number). `recv` may be null on
  /// non-root ranks and must not alias `send_data` on the root. Any number
  /// of ireduce epochs, of any segment count, may be in flight on one
  /// communicator as long as every member initiates them in the same order.
  CollectiveRequest ireduce(const float* send_data, float* recv,
                            std::size_t count, ReduceOp op, int root,
                            std::size_t segment_floats = kDefaultReduceSegment,
                            SegmentCallback on_segment = {});

  // -- collectives ---------------------------------------------------------

  /// Blocks until every member of the communicator reached the barrier.
  void barrier();

  /// Broadcast `bytes` from `root` to every rank.
  void bcast(void* data, std::size_t bytes, int root);

  /// Every rank contributes `bytes_per_rank`; rank `root` receives the
  /// concatenation ordered by rank. `recv` may be null on non-root ranks.
  void gather(const void* send_data, std::size_t bytes_per_rank, void* recv,
              int root);

  /// Blocking AllGather as gather to rank 0 + bcast: every rank ends up with
  /// the rank-ordered concatenation of all contributions. split() exchanges
  /// its (color, key) entries through it; bulk data rides iallgather_ring.
  void allgather(const void* send_data, std::size_t bytes_per_rank,
                 void* recv);

  /// Element-wise float reduction whose result every rank receives: the
  /// segmented tree ireduce into a scratch buffer on rank 0, then a bcast
  /// of the result. Same ascending-rank fold as ireduce, so every rank holds
  /// bitwise-identical values. `recv` may alias `send_data`.
  void allreduce(const float* send_data, float* recv, std::size_t count,
                 ReduceOp op,
                 std::size_t segment_floats = kDefaultReduceSegment);

  // -- error handling --------------------------------------------------------

  /// The MPI_Abort analogue: poisons the whole world so every rank's blocked
  /// or future operation throws WorldAbortedError. Call this when a local
  /// pipeline thread fails while *sibling threads of the same rank* may be
  /// blocked inside collectives whose remote peers will never progress —
  /// rethrowing from the rank body alone cannot unblock them, because the
  /// body must join those threads first. Idempotent.
  void abort_world();

  // -- communicator management ---------------------------------------------

  /// Splits into sub-communicators by color; ranks with equal color join the
  /// same sub-communicator, ordered by (key, old rank). Must be called by
  /// every member.
  Comm split(int color, int key);

 private:
  friend void run_world(int size, const std::function<void(Comm&)>& body);

  Comm(std::shared_ptr<detail::World> world, std::uint64_t comm_id,
       std::vector<int> members, int rank);

  /// Takes the next `n` numbers of this communicator's collective sequence
  /// and returns the first as a tag (above every user tag). Every
  /// collective (blocking or not) takes its tags through this single choke
  /// point at *initiation* time; the sequence advances identically on every
  /// member and never wraps, so blocks never overlap however many
  /// collectives are outstanding.
  std::uint64_t reserve_collective_tags(std::uint64_t n);

  std::shared_ptr<detail::World> world_;
  std::uint64_t comm_id_ = 0;
  std::vector<int> members_;  ///< world ranks, index = rank in this comm
  int rank_ = -1;             ///< my rank within this communicator
  std::uint64_t collective_seq_ = 0;  ///< per-comm collective matching
  std::uint64_t split_seq_ = 0;       ///< per-comm split id generation
};

/// Launches `size` rank threads, each running `body(comm)` with a world
/// communicator, and joins them. Exceptions thrown by any rank are rethrown
/// (the first one) after all ranks have been joined or aborted.
void run_world(int size, const std::function<void(Comm&)>& body);

}  // namespace ifdk::mpi
