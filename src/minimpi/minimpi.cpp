#include "minimpi/minimpi.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <exception>
#include <map>
#include <mutex>
#include <thread>
#include <tuple>

namespace ifdk::mpi {

namespace detail {

namespace {

/// splitmix64 mix, used to derive communicator ids deterministically.
std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

/// Shared state of one rank world: per-rank mailboxes plus an abort flag so
/// that an exception on one rank unblocks every other rank.
class World {
 public:
  explicit World(int size) : boxes_(static_cast<std::size_t>(size)) {}

  void post(std::uint64_t comm_id, int dest_world, int src_comm_rank,
            std::uint64_t tag, const void* data, std::size_t bytes) {
    Mailbox& box = boxes_[static_cast<std::size_t>(dest_world)];
    std::vector<char> payload(bytes);
    if (bytes > 0) std::memcpy(payload.data(), data, bytes);
    {
      std::lock_guard<std::mutex> lock(box.mutex);
      check_alive();
      // multimap inserts at the end of its key's range, so messages with
      // one (comm, src, tag) key are matched in arrival order.
      box.messages.emplace(Key{comm_id, src_comm_rank, tag},
                           std::move(payload));
    }
    box.cv.notify_all();
  }

  void fetch(std::uint64_t comm_id, int my_world, int src_comm_rank,
             std::uint64_t tag, void* data, std::size_t bytes) {
    Mailbox& box = boxes_[static_cast<std::size_t>(my_world)];
    const Key key{comm_id, src_comm_rank, tag};
    std::unique_lock<std::mutex> lock(box.mutex);
    auto it = box.messages.end();
    box.cv.wait(lock, [&] {
      if (aborted_.load(std::memory_order_relaxed)) return true;
      it = box.messages.lower_bound(key);  // the oldest message of the key
      return it != box.messages.end() && it->first == key;
    });
    check_alive();
    const std::vector<char> payload = std::move(it->second);
    // Every matched message leaves the mailbox with its key: collective
    // tags are never reused, so nothing may stay behind per tag.
    box.messages.erase(it);
    lock.unlock();
    IFDK_ASSERT_MSG(payload.size() == bytes,
                    "matched message has a different size than the receive "
                    "buffer (mismatched send/recv pair)");
    if (bytes > 0) std::memcpy(data, payload.data(), bytes);
  }

  void abort() {
    aborted_.store(true);
    for (auto& box : boxes_) {
      std::lock_guard<std::mutex> lock(box.mutex);
      box.cv.notify_all();
    }
  }

  void check_alive() const {
    if (aborted_.load(std::memory_order_relaxed)) {
      throw WorldAbortedError(
          "minimpi world aborted because another rank failed");
    }
  }

 private:
  using Key = std::tuple<std::uint64_t, int, std::uint64_t>;  // comm, src, tag

  struct Mailbox {
    std::mutex mutex;
    std::condition_variable cv;
    /// Unmatched messages, one node each; arrival order within a key.
    std::multimap<Key, std::vector<char>> messages;
  };

  std::vector<Mailbox> boxes_;
  std::atomic<bool> aborted_{false};
};

}  // namespace detail

namespace {

// Collective tags live above every user tag: a collective's tag is this
// base plus its per-communicator sequence number, which is 64-bit and never
// wraps, so no two collectives on one communicator ever share a tag.
constexpr std::uint64_t kCollectiveTagBase = std::uint64_t{1} << 24;

float apply_op(ReduceOp op, float a, float b) {
  switch (op) {
    case ReduceOp::kSum: return a + b;
    case ReduceOp::kMax: return a > b ? a : b;
    case ReduceOp::kMin: return a < b ? a : b;
  }
  return a;
}

}  // namespace

Comm::Comm(std::shared_ptr<detail::World> world, std::uint64_t comm_id,
           std::vector<int> members, int rank)
    : world_(std::move(world)),
      comm_id_(comm_id),
      members_(std::move(members)),
      rank_(rank) {}

std::uint64_t Comm::reserve_collective_tags(std::uint64_t n) {
  const std::uint64_t tag = kCollectiveTagBase + collective_seq_;
  collective_seq_ += n;
  return tag;
}

void Comm::send(int dest, int tag, const void* data, std::size_t bytes) {
  IFDK_ASSERT(dest >= 0 && dest < size());
  IFDK_ASSERT_MSG(tag >= 0 && static_cast<std::uint64_t>(tag) <
                                  kCollectiveTagBase,
                  "user tags must be below the collective tag space");
  world_->post(comm_id_, members_[static_cast<std::size_t>(dest)], rank_,
               static_cast<std::uint64_t>(tag), data, bytes);
}

void Comm::recv(int src, int tag, void* data, std::size_t bytes) {
  IFDK_ASSERT(src >= 0 && src < size());
  IFDK_ASSERT(tag >= 0 &&
              static_cast<std::uint64_t>(tag) < kCollectiveTagBase);
  world_->fetch(comm_id_, members_[static_cast<std::size_t>(rank_)], src,
                static_cast<std::uint64_t>(tag), data, bytes);
}

void Comm::barrier() {
  // Two-phase flat barrier through rank 0: notify, then release.
  const std::uint64_t tag = reserve_collective_tags(2);  // notify + release
  const int my_world = members_[static_cast<std::size_t>(rank_)];
  char token = 0;
  if (rank_ == 0) {
    for (int r = 1; r < size(); ++r) {
      world_->fetch(comm_id_, my_world, r, tag, &token, 1);
    }
    for (int r = 1; r < size(); ++r) {
      world_->post(comm_id_, members_[static_cast<std::size_t>(r)], 0, tag + 1,
                   &token, 1);
    }
  } else {
    world_->post(comm_id_, members_[0], rank_, tag, &token, 1);
    world_->fetch(comm_id_, my_world, 0, tag + 1, &token, 1);
  }
}

void Comm::bcast(void* data, std::size_t bytes, int root) {
  IFDK_ASSERT(root >= 0 && root < size());
  const std::uint64_t tag = reserve_collective_tags(1);
  const int my_world = members_[static_cast<std::size_t>(rank_)];
  if (rank_ == root) {
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      world_->post(comm_id_, members_[static_cast<std::size_t>(r)], root, tag,
                   data, bytes);
    }
  } else {
    world_->fetch(comm_id_, my_world, root, tag, data, bytes);
  }
}

void Comm::gather(const void* send_data, std::size_t bytes_per_rank,
                  void* recv, int root) {
  IFDK_ASSERT(root >= 0 && root < size());
  const std::uint64_t tag = reserve_collective_tags(1);
  const int my_world = members_[static_cast<std::size_t>(rank_)];
  if (rank_ == root) {
    IFDK_ASSERT_MSG(recv != nullptr, "gather root requires a receive buffer");
    char* out = static_cast<char*>(recv);
    std::memcpy(out + static_cast<std::size_t>(root) * bytes_per_rank,
                send_data, bytes_per_rank);
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      world_->fetch(comm_id_, my_world, r, tag,
                    out + static_cast<std::size_t>(r) * bytes_per_rank,
                    bytes_per_rank);
    }
  } else {
    world_->post(comm_id_, members_[static_cast<std::size_t>(root)], rank_,
                 tag, send_data, bytes_per_rank);
  }
}

Comm::Request::Request(Request&& other) noexcept { *this = std::move(other); }

Comm::Request& Comm::Request::operator=(Request&& other) noexcept {
  if (this != &other) {
    IFDK_ASSERT_MSG(comm_ == nullptr || done_,
                    "overwriting an unwaited Request");
    comm_ = other.comm_;
    peer_ = other.peer_;
    tag_ = other.tag_;
    data_ = other.data_;
    bytes_ = other.bytes_;
    is_recv_ = other.is_recv_;
    done_ = other.done_;
    other.comm_ = nullptr;
    other.done_ = true;
  }
  return *this;
}

Comm::Request::~Request() {
  // Like CollectiveRequest: dropping an unwaited handle is tolerated only
  // while an exception unwinds (abort teardown of a half-posted round).
  IFDK_ASSERT_MSG(comm_ == nullptr || done_ || std::uncaught_exceptions() > 0,
                  "Request destroyed without wait()");
}

void Comm::Request::wait() {
  IFDK_ASSERT_MSG(comm_ != nullptr, "wait() on an empty Request");
  IFDK_ASSERT_MSG(!done_, "wait() called twice");
  if (is_recv_) {
    comm_->recv(peer_, tag_, data_, bytes_);
  }
  // isend was buffered at post time: nothing left to do.
  done_ = true;
}

Comm::Request Comm::isend(int dest, int tag, const void* data,
                          std::size_t bytes) {
  // Buffered-send semantics: post() copies the payload, so completion is
  // immediate and the caller's buffer is free.
  send(dest, tag, data, bytes);
  Request req;
  req.comm_ = this;
  req.peer_ = dest;
  req.tag_ = tag;
  req.is_recv_ = false;
  return req;
}

Comm::Request Comm::irecv(int src, int tag, void* data, std::size_t bytes) {
  Request req;
  req.comm_ = this;
  req.peer_ = src;
  req.tag_ = tag;
  req.data_ = data;
  req.bytes_ = bytes;
  req.is_recv_ = true;
  return req;
}

void Comm::wait_all(std::span<Request> requests) {
  for (Request& r : requests) {
    if (r.valid()) r.wait();
  }
}

Comm::CollectiveRequest::CollectiveRequest(std::function<void()> complete)
    : complete_(std::move(complete)), done_(false) {}

Comm::CollectiveRequest::CollectiveRequest(CollectiveRequest&& other) noexcept {
  *this = std::move(other);
}

Comm::CollectiveRequest& Comm::CollectiveRequest::operator=(
    CollectiveRequest&& other) noexcept {
  if (this != &other) {
    IFDK_ASSERT_MSG(done_, "overwriting an unwaited CollectiveRequest");
    complete_ = std::move(other.complete_);
    done_ = other.done_;
    other.complete_ = nullptr;
    other.done_ = true;
  }
  return *this;
}

Comm::CollectiveRequest::~CollectiveRequest() {
  // An unwaited handle may be dropped during exception unwinding (a world
  // abort throws out of a fetch while sibling requests are outstanding);
  // any other destruction without wait() is a protocol violation.
  IFDK_ASSERT_MSG(done_ || std::uncaught_exceptions() > 0,
                  "CollectiveRequest destroyed without wait()");
}

void Comm::CollectiveRequest::wait() {
  IFDK_ASSERT_MSG(!done_, "wait() on a completed CollectiveRequest");
  // Mark completed before running the steps: a world abort throws out of
  // fetch(), and the handle must not assert again during unwinding.
  done_ = true;
  if (complete_) complete_();
  complete_ = nullptr;
}

Comm::CollectiveRequest Comm::iallgather_ring(const void* send_data,
                                              std::size_t bytes_per_rank,
                                              void* recv) {
  const int p = size();
  char* out = static_cast<char*>(recv);
  std::memcpy(out + static_cast<std::size_t>(rank_) * bytes_per_rank,
              send_data, bytes_per_rank);
  if (p == 1) return CollectiveRequest([] {});

  // One tag per neighbour step (p-1), reserved *now* so any collective
  // initiated while this one is outstanding gets later tags on every rank.
  const std::uint64_t tag =
      reserve_collective_tags(static_cast<std::uint64_t>(p - 1));

  const int next = (rank_ + 1) % p;
  const int prev = (rank_ + p - 1) % p;
  // Step 0 forwards this rank's own block, which is available immediately:
  // post it before returning so a neighbour that waits early never stalls
  // on this rank's initiation.
  world_->post(comm_id_, members_[static_cast<std::size_t>(next)], rank_, tag,
               out + static_cast<std::size_t>(rank_) * bytes_per_rank,
               bytes_per_rank);

  // The completion owns copies of the comm state: the Comm handle may be
  // moved or destroyed while the request is outstanding.
  return CollectiveRequest([world = world_, comm_id = comm_id_,
                            members = members_, rank = rank_, p, next, prev,
                            tag, out, bytes_per_rank] {
    const int my_world = members[static_cast<std::size_t>(rank)];
    for (int s = 0; s < p - 1; ++s) {
      // Block received in step s is the one forwarded in step s+1.
      const int recv_block = (rank + p - s - 1) % p;
      char* block = out + static_cast<std::size_t>(recv_block) * bytes_per_rank;
      const std::uint64_t step_tag = tag + static_cast<std::uint64_t>(s);
      world->fetch(comm_id, my_world, prev, step_tag, block, bytes_per_rank);
      if (s + 1 < p - 1) {
        world->post(comm_id, members[static_cast<std::size_t>(next)], rank,
                    step_tag + 1, block, bytes_per_rank);
      }
    }
  });
}

namespace {

/// Binomial fan-in bookkeeping over virtual ranks (vrank 0 = the reduce
/// root). vrank v's subtree is the contiguous vrank range [v, v + span(v))
/// clipped to p, where span is p for the root and lowbit(v) otherwise; v's
/// children are v + 2^j for 2^j < span(v), and its parent is v - lowbit(v).
struct FanInTree {
  int p;

  int span(int v) const {
    const int raw = v == 0 ? p : (v & -v);
    return std::min(raw, p - v);
  }
  int parent(int v) const { return v - (v & -v); }
  /// Children in ascending vrank order (their subtrees tile [v+1, v+span)).
  std::vector<int> children(int v) const {
    std::vector<int> out;
    const int limit = v == 0 ? p : (v & -v);
    for (int step = 1; step < limit && v + step < p; step <<= 1) {
      out.push_back(v + step);
    }
    return out;
  }
};

}  // namespace

Comm::CollectiveRequest Comm::ireduce(const float* send_data, float* recv,
                                      std::size_t count, ReduceOp op, int root,
                                      std::size_t segment_floats,
                                      SegmentCallback on_segment) {
  IFDK_ASSERT(root >= 0 && root < size());
  IFDK_ASSERT_MSG(segment_floats > 0,
                  "ireduce segment size must be positive (and identical on "
                  "every rank)");
  const std::size_t segments =
      count == 0 ? 0 : (count + segment_floats - 1) / segment_floats;
  if (segments == 0) return CollectiveRequest([] {});
  // Per segment, every non-root vrank sends exactly one message to its
  // parent, so the reduce takes one sequence number per segment.
  const std::uint64_t tag = reserve_collective_tags(segments);
  const int p = size();

  // Contributions climb a binomial tree of virtual ranks (vrank = rank
  // rotated so the root is vrank 0). Relays only *concatenate* — their
  // upward message is the ascending-vrank concatenation of every
  // contribution in their subtree — and the root alone folds, in ascending
  // *communicator* rank order.
  const FanInTree tree{p};
  const int vrank = (rank_ - root + p) % p;

  if (tree.span(vrank) == 1 && vrank != 0) {
    // Leaf: one single-contribution message per segment to the parent,
    // posted eagerly. The pipelining happens at the root, which folds
    // segment s while the payload of s+1 is already on its way.
    const int parent =
        members_[static_cast<std::size_t>((tree.parent(vrank) + root) % p)];
    for (std::size_t s = 0; s < segments; ++s) {
      const std::size_t offset = s * segment_floats;
      const std::size_t len = std::min(segment_floats, count - offset);
      world_->post(comm_id_, parent, rank_, tag + s, send_data + offset,
                   len * sizeof(float));
    }
    return CollectiveRequest([] {});
  }

  if (vrank != 0) {
    // Relay: per segment, gather the children's subtree blocks, splice in
    // this rank's own contribution at vrank position 0, and forward the
    // assembled [v, v+span) block to the parent. Runs inside wait().
    return CollectiveRequest([world = world_, comm_id = comm_id_,
                              members = members_, rank = rank_, p, root,
                              vrank, tree, send_data, count, segment_floats,
                              segments, tag] {
      const int my_world = members[static_cast<std::size_t>(rank)];
      const int parent =
          members[static_cast<std::size_t>((tree.parent(vrank) + root) % p)];
      const std::vector<int> children = tree.children(vrank);
      const std::size_t span = static_cast<std::size_t>(tree.span(vrank));
      std::vector<float> block(span * std::min(segment_floats, count));
      for (std::size_t s = 0; s < segments; ++s) {
        const std::size_t offset = s * segment_floats;
        const std::size_t len = std::min(segment_floats, count - offset);
        std::memcpy(block.data(), send_data + offset, len * sizeof(float));
        for (const int child : children) {
          const std::size_t child_span =
              static_cast<std::size_t>(tree.span(child));
          const int child_rank = (child + root) % p;
          world->fetch(comm_id, my_world, child_rank, tag + s,
                       block.data() +
                           static_cast<std::size_t>(child - vrank) * len,
                       child_span * len * sizeof(float));
        }
        world->post(comm_id, parent, rank, tag + s, block.data(),
                    span * len * sizeof(float));
      }
    });
  }

  // Root (vrank 0): per segment, receive one block per child subtree, then
  // fold all p contributions in ascending communicator-rank order.
  IFDK_ASSERT_MSG(recv != nullptr, "ireduce root requires a receive buffer");
  return CollectiveRequest([world = world_, comm_id = comm_id_,
                            members = members_, rank = rank_, p, root, tree,
                            send_data, recv, count, op, segment_floats,
                            segments, tag,
                            on_segment = std::move(on_segment)] {
    const int my_world = members[static_cast<std::size_t>(rank)];
    const std::vector<int> children = tree.children(0);
    // Contributions indexed by vrank; vrank 0 (the root's own) is read from
    // send_data directly.
    std::vector<float> incoming(static_cast<std::size_t>(p) *
                                std::min(segment_floats, count));
    for (std::size_t s = 0; s < segments; ++s) {
      const std::size_t offset = s * segment_floats;
      const std::size_t len = std::min(segment_floats, count - offset);
      for (const int child : children) {
        const std::size_t child_span =
            static_cast<std::size_t>(tree.span(child));
        const int child_rank = (child + root) % p;
        world->fetch(comm_id, my_world, child_rank, tag + s,
                     incoming.data() + static_cast<std::size_t>(child) * len,
                     child_span * len * sizeof(float));
      }
      // Ascending-rank fold starting from rank 0's contribution: rank r's
      // contribution sits at vrank (r - root + p) % p.
      for (int r = 0; r < p; ++r) {
        const int v = (r - root + p) % p;
        const float* contribution =
            v == 0 ? send_data + offset
                   : incoming.data() + static_cast<std::size_t>(v) * len;
        if (r == 0) {
          std::memcpy(recv + offset, contribution, len * sizeof(float));
        } else {
          for (std::size_t i = 0; i < len; ++i) {
            recv[offset + i] = apply_op(op, recv[offset + i], contribution[i]);
          }
        }
      }
      if (on_segment) on_segment(offset, len);
    }
  });
}

void Comm::abort_world() { world_->abort(); }

void Comm::allgather(const void* send_data, std::size_t bytes_per_rank,
                     void* recv) {
  // gather to rank 0 + bcast; both use their own collective tags.
  gather(send_data, bytes_per_rank, recv, 0);
  bcast(recv, bytes_per_rank * static_cast<std::size_t>(size()), 0);
}

void Comm::allreduce(const float* send_data, float* recv, std::size_t count,
                     ReduceOp op, std::size_t segment_floats) {
  // The tree ireduce lands in a scratch buffer, so `recv` may alias
  // `send_data`: relays and leaves read their contribution before the bcast
  // overwrites it.
  std::vector<float> folded(rank_ == 0 ? count : 0);
  ireduce(send_data, rank_ == 0 ? folded.data() : nullptr, count, op,
          /*root=*/0, segment_floats)
      .wait();
  if (rank_ == 0) std::copy(folded.begin(), folded.end(), recv);
  bcast(recv, count * sizeof(float), /*root=*/0);
}

Comm Comm::split(int color, int key) {
  // Exchange (color, key, old rank) across the parent communicator, then
  // every rank locally derives its group membership — the textbook
  // MPI_Comm_split algorithm.
  struct Entry {
    int color;
    int key;
    int old_rank;
  };
  const Entry mine{color, key, rank_};
  std::vector<Entry> all(static_cast<std::size_t>(size()));
  allgather(&mine, sizeof(Entry), all.data());

  std::vector<Entry> group;
  for (const Entry& e : all) {
    if (e.color == color) group.push_back(e);
  }
  std::sort(group.begin(), group.end(), [](const Entry& a, const Entry& b) {
    return std::tie(a.key, a.old_rank) < std::tie(b.key, b.old_rank);
  });

  std::vector<int> world_members;
  int new_rank = -1;
  for (const Entry& e : group) {
    if (e.old_rank == rank_) new_rank = static_cast<int>(world_members.size());
    world_members.push_back(members_[static_cast<std::size_t>(e.old_rank)]);
  }
  IFDK_ASSERT(new_rank >= 0);

  const std::uint64_t new_id = detail::mix64(
      comm_id_ ^ (split_seq_ << 32) ^ (static_cast<std::uint64_t>(color) + 1));
  ++split_seq_;
  return Comm(world_, new_id, std::move(world_members), new_rank);
}

void run_world(int size, const std::function<void(Comm&)>& body) {
  IFDK_REQUIRE(size > 0, "world size must be positive");
  auto world = std::make_shared<detail::World>(size);

  std::vector<std::thread> threads;
  std::mutex error_mutex;
  std::exception_ptr first_error;

  threads.reserve(static_cast<std::size_t>(size));
  std::vector<int> everyone(static_cast<std::size_t>(size));
  for (int r = 0; r < size; ++r) everyone[static_cast<std::size_t>(r)] = r;

  // Prefer a root cause over the WorldAbortedError symptoms every other
  // rank reports once the abort flag is up — regardless of which rank's
  // body happened to exit first (a body may abort_world() *before*
  // rethrowing, so arrival order no longer identifies the culprit).
  const auto is_abort_symptom = [](const std::exception_ptr& e) {
    try {
      std::rethrow_exception(e);
    } catch (const WorldAbortedError&) {
      return true;
    } catch (...) {
      return false;
    }
  };

  for (int r = 0; r < size; ++r) {
    threads.emplace_back([&, r] {
      Comm comm(world, /*comm_id=*/0, everyone, r);
      try {
        body(comm);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error || (is_abort_symptom(first_error) &&
                               !is_abort_symptom(std::current_exception()))) {
            first_error = std::current_exception();
          }
        }
        world->abort();  // unblock every other rank
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace ifdk::mpi
