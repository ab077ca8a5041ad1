// Randomized collective stress harness: seeded interleavings of
// point-to-point traffic, blocking collectives, and nonblocking collectives
// across 2-8 ranks, with out-of-order waits of the
// outstanding handles and mid-stream aborts. Every rank derives the SAME
// op program from the seed (op types, roots, counts, segment sizes, wait
// schedule — the global consistency the minimpi progress model requires),
// while payloads are rank-dependent, so every op's result is verifiable
// from closed-form expectations. Seeds are pinned for CI determinism and
// printed on failure via SCOPED_TRACE; the suite runs under the ASan/UBSan
// and TSan lanes.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "minimpi/minimpi.h"

namespace ifdk::mpi {
namespace {

/// Payload element i of rank `rank` in op `op_id` — exact in float, so the
/// ascending-rank fold expectations below are bitwise-reproducible anywhere.
float val(int rank, int op_id, std::size_t i) {
  return static_cast<float>(
             (rank * 31 + op_id * 17 + static_cast<int>(i % 13)) % 101) *
         0.25f;
}

float apply(ReduceOp op, float a, float b) {
  switch (op) {
    case ReduceOp::kSum: return a + b;
    case ReduceOp::kMax: return a > b ? a : b;
    case ReduceOp::kMin: return a < b ? a : b;
  }
  return a;
}

/// The linear ascending-rank fold — the canonical summation order that both
/// reduce() and the tree-fan-in ireduce must reproduce bitwise.
float expected_fold(ReduceOp op, int p, int op_id, std::size_t i) {
  float acc = val(0, op_id, i);
  for (int r = 1; r < p; ++r) acc = apply(op, acc, val(r, op_id, i));
  return acc;
}

std::vector<float> make_payload(int rank, int op_id, std::size_t count) {
  std::vector<float> out(count);
  for (std::size_t i = 0; i < count; ++i) out[i] = val(rank, op_id, i);
  return out;
}

/// An outstanding nonblocking op awaiting its (seeded, globally consistent)
/// wait slot; complete() drives it and verifies the result.
struct Pending {
  virtual ~Pending() = default;
  virtual void complete(Comm& comm) = 0;
};

struct PendingGather : Pending {
  int op_id;
  int p;
  std::size_t count;
  std::vector<float> out;
  Comm::CollectiveRequest req;

  void complete(Comm&) override {
    req.wait();
    for (int r = 0; r < p; ++r) {
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(out[static_cast<std::size_t>(r) * count + i],
                  val(r, op_id, i))
            << "iallgather op " << op_id << ", rank block " << r
            << ", element " << i;
      }
    }
  }
};

struct PendingReduce : Pending {
  int op_id;
  int p;
  int root;
  ReduceOp op;
  std::size_t count;
  std::vector<float> send;  ///< alive until wait: relays read it inside wait
  std::vector<float> out;
  Comm::CollectiveRequest req;

  void complete(Comm& comm) override {
    req.wait();
    if (comm.rank() == root) {
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(out[i], expected_fold(op, p, op_id, i))
            << "ireduce op " << op_id << ", element " << i;
      }
    }
  }
};

struct PendingRecv : Pending {
  int op_id;
  int src;
  std::size_t count;
  std::vector<float> buf;
  Comm::Request req;

  void complete(Comm&) override {
    req.wait();
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(buf[i], val(src, op_id, i))
          << "irecv op " << op_id << ", element " << i;
    }
  }
};

struct Program {
  std::uint64_t seed;
  int ranks;
  int ops;
  int abort_op = -1;    ///< op index at which abort_rank throws (-1 = never)
  int abort_rank = -1;
  /// Widens the op draw past the pinned programs' range with a blocking
  /// allreduce band; the pinned programs (false) draw exactly as before.
  bool allreduce = false;
};

/// Runs the seeded op program on one rank. Every Rng draw below depends
/// only on the seed and op index — identical on all ranks.
void run_program(Comm& comm, const Program& prog) {
  Rng rng(prog.seed);
  const int p = comm.size();
  std::vector<std::unique_ptr<Pending>> pending;

  auto wait_one = [&](std::size_t idx) {
    ASSERT_LT(idx, pending.size());
    pending[idx]->complete(comm);
    pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(idx));
  };

  for (int op_id = 0; op_id < prog.ops; ++op_id) {
    if (op_id == prog.abort_op && comm.rank() == prog.abort_rank) {
      throw ConfigError("stress: injected abort at op " +
                        std::to_string(op_id));
    }
    const std::uint64_t kind = rng.next_below(prog.allreduce ? 120 : 100);
    const int root = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(p)));
    const std::size_t count = 1 + rng.next_below(64);
    const std::size_t segment = 1 + rng.next_below(17);
    const ReduceOp rop = kind % 3 == 0   ? ReduceOp::kSum
                         : kind % 3 == 1 ? ReduceOp::kMax
                                         : ReduceOp::kMin;
    // Force drains so the pending pool stays bounded; otherwise wait a
    // seeded-random outstanding handle ~1 op in 5.
    const bool must_drain = pending.size() >= 5;
    const std::uint64_t wait_draw = rng.next_below(100);

    if (kind < 15) {
      // Blocking neighbour sendrecv on a user tag in the gaps between
      // outstanding collectives.
      const int right = (comm.rank() + 1) % p;
      const int left = (comm.rank() + p - 1) % p;
      const std::vector<float> mine = make_payload(comm.rank(), op_id, count);
      std::vector<float> from_left(count);
      comm.sendrecv(right, mine.data(), left, from_left.data(),
                    count * sizeof(float), /*tag=*/op_id % 1000);
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(from_left[i], val(left, op_id, i))
            << "sendrecv op " << op_id << ", element " << i;
      }
    } else if (kind < 25) {
      // isend to the right neighbour + irecv from the left, the receive
      // parked in the pending pool for an out-of-order wait.
      const int right = (comm.rank() + 1) % p;
      const int left = (comm.rank() + p - 1) % p;
      const std::vector<float> mine = make_payload(comm.rank(), op_id, count);
      comm.isend(right, op_id % 1000, mine.data(), count * sizeof(float))
          .wait();
      auto rec = std::make_unique<PendingRecv>();
      rec->op_id = op_id;
      rec->src = left;
      rec->count = count;
      rec->buf.resize(count);
      rec->req = comm.irecv(left, op_id % 1000, rec->buf.data(),
                            count * sizeof(float));
      pending.push_back(std::move(rec));
    } else if (kind < 35) {
      std::vector<float> data = make_payload(root, op_id, count);
      if (comm.rank() != root) data.assign(count, -1.0f);
      comm.bcast(data.data(), count * sizeof(float), root);
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(data[i], val(root, op_id, i))
            << "bcast op " << op_id << ", element " << i;
      }
    } else if (kind < 45) {
      const std::vector<float> mine = make_payload(comm.rank(), op_id, count);
      std::vector<float> out(comm.rank() == root ? count : 0);
      comm.reduce(mine.data(), comm.rank() == root ? out.data() : nullptr,
                  count, rop, root);
      if (comm.rank() == root) {
        for (std::size_t i = 0; i < count; ++i) {
          ASSERT_EQ(out[i], expected_fold(rop, p, op_id, i))
              << "reduce op " << op_id << ", element " << i;
        }
      }
    } else if (kind < 55) {
      const std::vector<float> mine = make_payload(comm.rank(), op_id, count);
      std::vector<float> out(static_cast<std::size_t>(p) * count);
      comm.allgather(mine.data(), count * sizeof(float), out.data());
      for (int r = 0; r < p; ++r) {
        for (std::size_t i = 0; i < count; ++i) {
          ASSERT_EQ(out[static_cast<std::size_t>(r) * count + i],
                    val(r, op_id, i))
              << "allgather op " << op_id;
        }
      }
    } else if (kind < 72) {
      auto g = std::make_unique<PendingGather>();
      g->op_id = op_id;
      g->p = p;
      g->count = count;
      g->out.resize(static_cast<std::size_t>(p) * count);
      const std::vector<float> mine = make_payload(comm.rank(), op_id, count);
      g->req = comm.iallgather_ring(mine.data(), count * sizeof(float),
                                    g->out.data());
      pending.push_back(std::move(g));
    } else if (kind < 92) {
      auto rd = std::make_unique<PendingReduce>();
      rd->op_id = op_id;
      rd->p = p;
      rd->root = root;
      rd->op = rop;
      rd->count = count;
      rd->send = make_payload(comm.rank(), op_id, count);
      rd->out.resize(comm.rank() == root ? count : 0);
      rd->req = comm.ireduce(rd->send.data(),
                             comm.rank() == root ? rd->out.data() : nullptr,
                             count, rop, root, segment);
      pending.push_back(std::move(rd));
    } else if (kind < 100) {
      comm.barrier();
    } else {
      // Blocking allreduce (in place on even draws) while nonblocking
      // epochs are outstanding: every rank gets the ascending-rank fold.
      std::vector<float> mine = make_payload(comm.rank(), op_id, count);
      std::vector<float> out(count, -1.0f);
      float* recv = kind % 2 == 0 ? mine.data() : out.data();
      comm.allreduce(mine.data(), recv, count, rop);
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(recv[i], expected_fold(rop, p, op_id, i))
            << "allreduce op " << op_id << ", element " << i;
      }
    }

    if (!pending.empty() && (must_drain || wait_draw < 20)) {
      wait_one(static_cast<std::size_t>(
          rng.next_below(static_cast<std::uint64_t>(pending.size()))));
    }
  }

  // Drain the leftovers in seeded-random (still globally consistent) order.
  while (!pending.empty()) {
    wait_one(static_cast<std::size_t>(
        rng.next_below(static_cast<std::uint64_t>(pending.size()))));
  }
  comm.barrier();
}

// Pinned seeds: CI must be deterministic, and a failure names its seed so
// the exact interleaving replays locally with
//   run_world(seed-derived ranks, [&](Comm& c){ run_program(c, prog); }).
constexpr std::uint64_t kPinnedSeeds[] = {
    0x1d,   0x2a5,  0x3f11, 0x517,  0x6b2d, 0x70f3, 0x8aa1, 0x9c45,
    0xab3,  0xbee7, 0xc0de, 0xd06f, 0xe11a, 0xf00d, 0x1234, 0xbeef};

TEST(CollectiveStress, SeededInterleavingsAcrossWorldSizes) {
  for (const std::uint64_t seed : kPinnedSeeds) {
    Program prog;
    prog.seed = seed;
    prog.ranks = 2 + static_cast<int>(seed % 7);  // 2..8
    prog.ops = 40;
    SCOPED_TRACE("stress seed 0x" + [seed] {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%llx",
                    static_cast<unsigned long long>(seed));
      return std::string(buf);
    }() + ", ranks " + std::to_string(prog.ranks));
    run_world(prog.ranks, [&](Comm& comm) { run_program(comm, prog); });
  }
}

TEST(CollectiveStress, AllreduceInterleavingsAcrossWorldSizes) {
  // Programs of their own (the pinned ones above stay unchanged) with a
  // blocking allreduce band between the outstanding ireduce and
  // iallgather epochs, counts 1..64 against 2..8 ranks (empty chunks
  // included).
  for (const std::uint64_t seed :
       {std::uint64_t{0xa1}, std::uint64_t{0xa11d}, std::uint64_t{0x3c0de},
        std::uint64_t{0x5ca7}, std::uint64_t{0x7e58}, std::uint64_t{0xfef2},
        std::uint64_t{0xd1ce}}) {  // 2, 3, ..., 8 ranks
    Program prog;
    prog.seed = seed;
    prog.ranks = 2 + static_cast<int>(seed % 7);  // 2..8
    prog.ops = 40;
    prog.allreduce = true;
    SCOPED_TRACE("allreduce stress seed " + std::to_string(seed) +
                 ", ranks " + std::to_string(prog.ranks));
    run_world(prog.ranks, [&](Comm& comm) { run_program(comm, prog); });
  }
}

TEST(CollectiveStress, SubCommunicatorInterleavings) {
  // The iFDK shape under stress: independent programs running concurrently
  // on a column communicator and a row communicator split from one world.
  for (const std::uint64_t seed : {std::uint64_t{0x51ab}, std::uint64_t{0x9e37},
                                   std::uint64_t{0x2b7e}}) {
    constexpr int kR = 2, kC = 3;
    SCOPED_TRACE("subcomm stress seed " + std::to_string(seed));
    run_world(kR * kC, [&](Comm& comm) {
      const int col = comm.rank() / kR;
      const int row = comm.rank() % kR;
      Comm col_comm = comm.split(col, row);
      Comm row_comm = comm.split(row, col);
      Program col_prog{seed, kR, 20, -1, -1};
      Program row_prog{seed ^ 0xffff, kC, 20, -1, -1};
      run_program(col_comm, col_prog);
      run_program(row_comm, row_prog);
    });
  }
}

TEST(CollectiveStress, MidStreamAbortsUnblockEveryRank) {
  // A rank dies partway through the program while collectives are
  // outstanding on every rank: the abort must unwind all in-flight epochs
  // (dropped handles included) and rethrow the injected error, never hang.
  // The suite TIMEOUT is the hang guard.
  for (const std::uint64_t seed :
       {std::uint64_t{0x11}, std::uint64_t{0x22}, std::uint64_t{0x33},
        std::uint64_t{0x44}, std::uint64_t{0x55}}) {
    Program prog;
    prog.seed = seed;
    prog.ranks = 2 + static_cast<int>(seed % 7);
    prog.ops = 40;
    prog.abort_op = static_cast<int>((seed * 7) % 35);
    prog.abort_rank = static_cast<int>((seed * 13) %
                                       static_cast<std::uint64_t>(prog.ranks));
    SCOPED_TRACE("abort stress seed " + std::to_string(seed) + ", ranks " +
                 std::to_string(prog.ranks) + ", abort at op " +
                 std::to_string(prog.abort_op) + " on rank " +
                 std::to_string(prog.abort_rank));
    try {
      run_world(prog.ranks, [&](Comm& comm) { run_program(comm, prog); });
      FAIL() << "expected the injected abort to surface";
    } catch (const ConfigError& e) {
      // Root cause preferred over WorldAbortedError symptoms.
      EXPECT_NE(std::string(e.what()).find("injected abort"),
                std::string::npos);
    }
  }
}

}  // namespace
}  // namespace ifdk::mpi
