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
//   * point-to-point: send / recv with tags, plus nonblocking isend/irecv
//     (the FDK column gather runs over these),
//   * collectives: barrier, bcast, gather, allgather, reduce, and
//     allreduce as reduce-scatter + allgather (every rank folds a 1/p
//     chunk, nothing funnels through a root; the iterative workload's
//     volume all-reduce),
//   * nonblocking collectives: iallgather_ring and a chunked, pipelined
//     ireduce with binomial-tree fan-in per segment, each returning a
//     waitable CollectiveRequest (ireduce is the row Reduce of the Fig. 4
//     pipeline); tag blocks are reserved at initiation, so any number of
//     collective epochs compose on one communicator (the streaming-4DCT
//     mode keeps per-volume epochs in flight),
//   * communicator split (used to form the R x C rank grid of Fig. 3a).
//
// Collectives are implemented over point-to-point with deterministic
// (rank-ordered) reduction, so distributed results are reproducible and
// comparable against single-node references in tests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
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
  /// and returns. dest is a rank within this communicator.
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
  /// traffic: every collective reserves its tag block at *initiation* time,
  /// so message matching cannot cross between operations regardless of
  /// completion order.
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

  /// Collective tags live in a window of this many sequence numbers; a tag
  /// block never straddles the wrap (reserve_collective_tags skips ahead
  /// deterministically), so two blocks can only collide after a full window
  /// of intervening traffic. Public so epoch budget checks against
  /// collective_tags_reserved() can account for the wrap skip exactly.
  static constexpr std::uint64_t kCollectiveTagWindow = std::uint64_t{1} << 20;

  /// Nonblocking ring AllGather: p-1 neighbour-exchange steps, each moving
  /// one block. Output is identical to allgather(); it consumes p-1
  /// collective sequence numbers, reserved at initiation. The caller's
  /// block is copied into
  /// `recv` and the first neighbour exchange is posted before returning, so
  /// neighbours that wait early never stall on this rank's initiation; the
  /// remaining p-2 exchange steps run inside wait(). `send_data` may be
  /// reused as soon as this call returns; `recv` must stay alive and
  /// untouched until wait() completes.
  CollectiveRequest iallgather_ring(const void* send_data,
                                    std::size_t bytes_per_rank, void* recv);

  /// Nonblocking, chunked, pipelined reduce to `root`. The payload is split
  /// into ceil(count / segment_floats) segments; leaf ranks post every
  /// segment eagerly (buffered) and their wait() is a no-op, while the root
  /// folds segments one at a time inside wait() — so the reduction of
  /// segment s overlaps the delivery of segment s+1, and `on_segment`
  /// (root only, may be empty) streams finished segments to a consumer
  /// (e.g. an async PFS writer) while later segments are still in flight.
  /// Segments fan in over a binomial tree rooted (virtually) at `root`:
  /// each relay concatenates its subtree's contributions and forwards one
  /// message inside *its* wait(), so the root waits on ceil(log2 p)
  /// messages per segment instead of p-1. Relays never fold; the root
  /// alone folds, in ascending-rank order exactly like reduce(), so results
  /// are bitwise identical to the blocking reduce for every segment size.
  /// `segment_floats` must be positive and identical on every rank (it
  /// determines the number of reserved tags).
  /// `recv` may be null on non-root ranks and must not alias `send_data` on
  /// the root. Multiple ireduce epochs may be in flight on one communicator
  /// (each reserves its own tag block at initiation) as long as every
  /// member initiates them in the same order.
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

  /// Simultaneous send to `dest` and receive from `src` (same tag space as
  /// send/recv; deadlock-free like MPI_Sendrecv).
  void sendrecv(int dest, const void* send_data, int src, void* recv_data,
                std::size_t bytes, int tag);

  /// AllGather: every rank ends up with the rank-ordered concatenation of
  /// all contributions (gather to rank 0 + bcast).
  void allgather(const void* send_data, std::size_t bytes_per_rank,
                 void* recv);

  /// Element-wise float reduction to `root`. Reduction order is fixed
  /// (ascending rank), making results deterministic.
  void reduce(const float* send_data, float* recv, std::size_t count,
              ReduceOp op, int root);

  /// Element-wise float reduction whose result every rank receives, as a
  /// reduce-scatter followed by an allgather. Rank c owns the chunk
  /// [count*c/p, count*(c+1)/p) (empty when count < p): it folds that chunk
  /// over ranks 0..p-1 in ascending order, starting from rank 0's
  /// contribution, exactly as reduce() folds at its root, so results are
  /// bitwise reduce()'s and identical on every rank. Each rank then sends
  /// its folded chunk to every other. Reserves exactly 2 collective tags for
  /// any count. `recv` may equal `send_data` (in place) but must not
  /// otherwise overlap it; on one rank the call is a copy. Scratch: at most
  /// two chunks, ceil(count/p) floats each.
  void allreduce(const float* send_data, float* recv, std::size_t count,
                 ReduceOp op);

  // -- introspection ---------------------------------------------------------

  /// Collective sequence numbers reserved so far on this communicator
  /// (every collective claims its exact tag budget through
  /// reserve_collective_tags at initiation). This is the observable the
  /// DecompositionPlan tag budgets are checked against: record it before an
  /// epoch, run the epoch, and the delta must not exceed the plan's budget
  /// (the runtime asserts this per streaming epoch; tests/test_plan.cpp
  /// property-tests it). Read it from the thread that drives this Comm.
  std::uint64_t collective_tags_reserved() const { return collective_seq_; }

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

  /// Reserves a contiguous block of `n` collective tags and returns the
  /// first. Every collective (blocking or not) claims its exact tag budget
  /// through this single choke point at *initiation* time, so any number of
  /// collective epochs may be outstanding per communicator: blocks never
  /// interleave, and a block that would straddle the tag-window wrap is
  /// pushed past it (deterministically — the skip depends only on the
  /// sequence counter, which advances identically on every member).
  int reserve_collective_tags(std::uint64_t n);

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
