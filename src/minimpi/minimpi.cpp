#include "minimpi/minimpi.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <exception>
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

  void post(std::uint64_t comm_id, int dest_world, int src_comm_rank, int tag,
            const void* data, std::size_t bytes) {
    Mailbox& box = boxes_[static_cast<std::size_t>(dest_world)];
    std::vector<char> payload(bytes);
    if (bytes > 0) std::memcpy(payload.data(), data, bytes);
    {
      std::lock_guard<std::mutex> lock(box.mutex);
      check_alive();
      box.queues[Key{comm_id, src_comm_rank, tag}].push_back(
          std::move(payload));
    }
    box.cv.notify_all();
  }

  void fetch(std::uint64_t comm_id, int my_world, int src_comm_rank, int tag,
             void* data, std::size_t bytes) {
    Mailbox& box = boxes_[static_cast<std::size_t>(my_world)];
    const Key key{comm_id, src_comm_rank, tag};
    std::unique_lock<std::mutex> lock(box.mutex);
    box.cv.wait(lock, [&] {
      if (aborted_.load(std::memory_order_relaxed)) return true;
      auto it = box.queues.find(key);
      return it != box.queues.end() && !it->second.empty();
    });
    check_alive();
    auto& queue = box.queues[key];
    std::vector<char> payload = std::move(queue.front());
    queue.pop_front();
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
  using Key = std::tuple<std::uint64_t, int, int>;  // comm, src rank, tag

  struct Mailbox {
    std::mutex mutex;
    std::condition_variable cv;
    std::map<Key, std::deque<std::vector<char>>> queues;
  };

  std::vector<Mailbox> boxes_;
  std::atomic<bool> aborted_{false};
};

}  // namespace detail

namespace {

// Collective operations use a reserved tag space far above user tags.
constexpr int kCollectiveTagBase = 1 << 24;

// The tag window itself is Comm::kCollectiveTagWindow (public, so epoch
// budget checks can account for the wrap skip); alias it locally.
constexpr std::uint64_t kCollectiveTagWindow = Comm::kCollectiveTagWindow;

/// acc[i] = acc[i] op src[i] for i < n: one step of the ascending-rank fold
/// every reduction shares.
void fold(ReduceOp op, float* acc, const float* src, std::size_t n) {
  switch (op) {
    case ReduceOp::kSum:
      for (std::size_t i = 0; i < n; ++i) acc[i] = acc[i] + src[i];
      return;
    case ReduceOp::kMax:
      for (std::size_t i = 0; i < n; ++i) {
        acc[i] = acc[i] > src[i] ? acc[i] : src[i];
      }
      return;
    case ReduceOp::kMin:
      for (std::size_t i = 0; i < n; ++i) {
        acc[i] = acc[i] < src[i] ? acc[i] : src[i];
      }
      return;
  }
}

}  // namespace

Comm::Comm(std::shared_ptr<detail::World> world, std::uint64_t comm_id,
           std::vector<int> members, int rank)
    : world_(std::move(world)),
      comm_id_(comm_id),
      members_(std::move(members)),
      rank_(rank) {}

int Comm::reserve_collective_tags(std::uint64_t n) {
  IFDK_ASSERT_MSG(n > 0 && n <= kCollectiveTagWindow,
                  "collective tag block exceeds the tag window");
  const std::uint64_t offset = collective_seq_ % kCollectiveTagWindow;
  if (offset + n > kCollectiveTagWindow) {
    // Never hand out a block that straddles the window wrap: tags above the
    // window top would collide with a later epoch's wrapped block while both
    // are in flight. Skipping to the window start is deterministic — the
    // sequence counter advances identically on every member.
    collective_seq_ += kCollectiveTagWindow - offset;
  }
  const int tag = kCollectiveTagBase +
                  static_cast<int>(collective_seq_ % kCollectiveTagWindow);
  collective_seq_ += n;
  return tag;
}

void Comm::send(int dest, int tag, const void* data, std::size_t bytes) {
  IFDK_ASSERT(dest >= 0 && dest < size());
  IFDK_ASSERT_MSG(tag >= 0 && tag < kCollectiveTagBase,
                  "user tags must be below the collective tag space");
  world_->post(comm_id_, members_[static_cast<std::size_t>(dest)], rank_, tag,
               data, bytes);
}

void Comm::recv(int src, int tag, void* data, std::size_t bytes) {
  IFDK_ASSERT(src >= 0 && src < size());
  IFDK_ASSERT(tag >= 0 && tag < kCollectiveTagBase);
  world_->fetch(comm_id_, members_[static_cast<std::size_t>(rank_)], src, tag,
                data, bytes);
}

void Comm::barrier() {
  // Two-phase flat barrier through rank 0: notify, then release.
  const int tag = reserve_collective_tags(2);  // notify + release
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
  const int tag = reserve_collective_tags(1);
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
  const int tag = reserve_collective_tags(1);
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

  // One tag per exchange step (p-1), reserved *now* so any collective
  // initiated while this one is outstanding gets later tags on every rank.
  const int tag = reserve_collective_tags(static_cast<std::uint64_t>(p - 1));

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
      world->fetch(comm_id, my_world, prev, tag + s, block, bytes_per_rank);
      if (s + 1 < p - 1) {
        world->post(comm_id, members[static_cast<std::size_t>(next)], rank,
                    tag + s + 1, block, bytes_per_rank);
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
  IFDK_ASSERT_MSG(segments <= kCollectiveTagWindow,
                  "ireduce segment count exceeds the collective tag window");
  if (segments == 0) return CollectiveRequest([] {});
  // Per segment, every non-root vrank sends exactly one message to its
  // parent, so the reduce consumes one sequence number per segment.
  const int tag = reserve_collective_tags(segments);
  const int p = size();

  // Contributions climb a binomial tree of virtual ranks (vrank = rank
  // rotated so the root is vrank 0). Relays only *concatenate* — their
  // upward message is the ascending-vrank concatenation of every
  // contribution in their subtree — and the root alone folds, in ascending
  // *communicator* rank order, so the summation order is exactly reduce()'s
  // and the result is bitwise identical to it.
  const FanInTree tree{p};
  const int vrank = (rank_ - root + p) % p;

  if (tree.span(vrank) == 1 && vrank != 0) {
    // Leaf: one single-contribution message per segment to the parent.
    // Sends are buffered, so every segment is posted eagerly and the
    // request completes at once; the pipelining happens at the root, which
    // folds segment s while the payload of s+1 already sits in its mailbox.
    const int parent =
        members_[static_cast<std::size_t>((tree.parent(vrank) + root) % p)];
    for (std::size_t s = 0; s < segments; ++s) {
      const std::size_t offset = s * segment_floats;
      const std::size_t len = std::min(segment_floats, count - offset);
      world_->post(comm_id_, parent, rank_, tag + static_cast<int>(s),
                   send_data + offset, len * sizeof(float));
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
          world->fetch(comm_id, my_world, child_rank,
                       tag + static_cast<int>(s),
                       block.data() +
                           static_cast<std::size_t>(child - vrank) * len,
                       child_span * len * sizeof(float));
        }
        world->post(comm_id, parent, rank, tag + static_cast<int>(s),
                    block.data(), span * len * sizeof(float));
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
        world->fetch(comm_id, my_world, child_rank, tag + static_cast<int>(s),
                     incoming.data() + static_cast<std::size_t>(child) * len,
                     child_span * len * sizeof(float));
      }
      // Ascending-rank fold, exactly like reduce(): rank r's contribution
      // sits at vrank (r - root + p) % p.
      for (int r = 0; r < p; ++r) {
        const int v = (r - root + p) % p;
        const float* contribution =
            v == 0 ? send_data + offset
                   : incoming.data() + static_cast<std::size_t>(v) * len;
        if (r == 0) {
          std::memcpy(recv + offset, contribution, len * sizeof(float));
        } else {
          fold(op, recv + offset, contribution, len);
        }
      }
      if (on_segment) on_segment(offset, len);
    }
  });
}

void Comm::abort_world() { world_->abort(); }

void Comm::sendrecv(int dest, const void* send_data, int src, void* recv_data,
                    std::size_t bytes, int tag) {
  // Sends are buffered (post() never blocks on the receiver), so posting
  // first and then receiving is deadlock-free for any communication graph.
  send(dest, tag, send_data, bytes);
  recv(src, tag, recv_data, bytes);
}

void Comm::allgather(const void* send_data, std::size_t bytes_per_rank,
                     void* recv) {
  // gather to rank 0 + bcast; both use their own collective tags.
  gather(send_data, bytes_per_rank, recv, 0);
  bcast(recv, bytes_per_rank * static_cast<std::size_t>(size()), 0);
}

void Comm::reduce(const float* send_data, float* recv, std::size_t count,
                  ReduceOp op, int root) {
  IFDK_ASSERT(root >= 0 && root < size());
  const int tag = reserve_collective_tags(1);
  const int my_world = members_[static_cast<std::size_t>(rank_)];
  const std::size_t bytes = count * sizeof(float);
  if (rank_ == root) {
    IFDK_ASSERT_MSG(recv != nullptr, "reduce root requires a receive buffer");
    // Deterministic order: start from rank 0's contribution and fold ranks
    // in ascending order, regardless of arrival order.
    std::vector<float> incoming(count);
    if (root == 0 && bytes > 0) {  // memcpy may not take a null source
      std::memcpy(recv, send_data, bytes);
    }
    for (int r = 0; r < size(); ++r) {
      if (r == root && root == 0) continue;
      if (r == 0 && root != 0) {
        world_->fetch(comm_id_, my_world, r, tag, recv, bytes);
        continue;
      }
      const float* contribution;
      if (r == root) {
        contribution = send_data;
      } else {
        world_->fetch(comm_id_, my_world, r, tag, incoming.data(), bytes);
        contribution = incoming.data();
      }
      fold(op, recv, contribution, count);
    }
  } else {
    world_->post(comm_id_, members_[static_cast<std::size_t>(root)], rank_,
                 tag, send_data, bytes);
  }
}

void Comm::allreduce(const float* send_data, float* recv, std::size_t count,
                     ReduceOp op) {
  // Reduce-scatter (tag) then allgather (tag + 1). Rank c owns the chunk
  // [count*c/p, count*(c+1)/p): it receives every other rank's slice of it,
  // folds them in reduce()'s order, and sends the folded chunk back out.
  const int tag = reserve_collective_tags(2);
  const int p = size();
  const int my_world = members_[static_cast<std::size_t>(rank_)];
  const auto chunk_begin = [count, p](int c) {
    return count * static_cast<std::size_t>(c) / static_cast<std::size_t>(p);
  };
  const auto chunk_bytes = [&](int c) {
    return (chunk_begin(c + 1) - chunk_begin(c)) * sizeof(float);
  };
  // Visit peers starting after this rank, so the ranks' first posts land
  // in different mailboxes.
  const auto peer = [&](int k) { return (rank_ + k) % p; };

  // Reduce-scatter: post every other chunk to its owner (post() copies, so
  // an in-place recv may be overwritten from here on)...
  for (int k = 1; k < p; ++k) {
    const int c = peer(k);
    if (chunk_bytes(c) == 0) continue;
    world_->post(comm_id_, members_[static_cast<std::size_t>(c)], rank_, tag,
                 send_data + chunk_begin(c), chunk_bytes(c));
  }
  // ...then fold the own chunk: rank 0's contribution first, then ranks
  // 1..p-1 ascending, which is the root's order in reduce().
  const std::size_t begin = chunk_begin(rank_);
  const std::size_t len = chunk_begin(rank_ + 1) - begin;
  float* acc = recv + begin;
  const float* own = send_data + begin;
  std::vector<float> own_copy;
  if (acc == own && rank_ != 0) {
    // In place, rank 0's contribution lands on this rank's own.
    own_copy.assign(own, own + len);
    own = own_copy.data();
  }
  std::vector<float> incoming(p > 1 ? len : 0);
  if (len > 0) {
    if (rank_ != 0) {
      world_->fetch(comm_id_, my_world, 0, tag, acc, len * sizeof(float));
    } else if (acc != own) {
      std::memcpy(acc, own, len * sizeof(float));
    }
    for (int r = 1; r < p; ++r) {
      const float* contribution = own;
      if (r != rank_) {
        world_->fetch(comm_id_, my_world, r, tag, incoming.data(),
                      len * sizeof(float));
        contribution = incoming.data();
      }
      fold(op, acc, contribution, len);
    }
    // Allgather: send the folded chunk to every other rank...
    for (int k = 1; k < p; ++k) {
      world_->post(comm_id_, members_[static_cast<std::size_t>(peer(k))],
                   rank_, tag + 1, acc, len * sizeof(float));
    }
  }
  // ...and collect theirs.
  for (int k = 1; k < p; ++k) {
    const int c = peer(k);
    if (chunk_bytes(c) == 0) continue;
    world_->fetch(comm_id_, my_world, c, tag + 1, recv + chunk_begin(c),
                  chunk_bytes(c));
  }
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
