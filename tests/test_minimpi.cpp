// minimpi runtime tests: point-to-point ordering, every collective against a
// sequential reference, communicator splitting into the iFDK R x C grid, and
// failure propagation.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "minimpi/minimpi.h"

namespace ifdk::mpi {
namespace {

TEST(MiniMpi, WorldSizeAndRanks) {
  std::atomic<int> sum{0};
  run_world(5, [&](Comm& comm) {
    EXPECT_EQ(comm.size(), 5);
    sum.fetch_add(comm.rank());
  });
  EXPECT_EQ(sum.load(), 0 + 1 + 2 + 3 + 4);
}

TEST(MiniMpi, SendRecvDeliversInOrder) {
  run_world(2, [](Comm& comm) {
    constexpr int kCount = 100;
    if (comm.rank() == 0) {
      for (int i = 0; i < kCount; ++i) {
        comm.send(1, /*tag=*/7, &i, sizeof(i));
      }
    } else {
      for (int i = 0; i < kCount; ++i) {
        int value = -1;
        comm.recv(0, /*tag=*/7, &value, sizeof(value));
        EXPECT_EQ(value, i);
      }
    }
  });
}

TEST(MiniMpi, TagsKeepStreamsSeparate) {
  run_world(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      const int a = 111, b = 222;
      comm.send(1, 1, &a, sizeof(a));
      comm.send(1, 2, &b, sizeof(b));
    } else {
      int b = 0, a = 0;
      // Receive in the opposite order of sending: tags must disambiguate.
      comm.recv(0, 2, &b, sizeof(b));
      comm.recv(0, 1, &a, sizeof(a));
      EXPECT_EQ(a, 111);
      EXPECT_EQ(b, 222);
    }
  });
}

TEST(MiniMpi, BarrierSynchronizes) {
  // No rank may pass barrier N until all ranks reached it: track the max
  // phase seen by any rank at each barrier.
  constexpr int kRanks = 4;
  std::atomic<int> arrivals{0};
  run_world(kRanks, [&](Comm& comm) {
    for (int phase = 0; phase < 10; ++phase) {
      arrivals.fetch_add(1);
      comm.barrier();
      // After the barrier, every rank must have arrived at this phase.
      EXPECT_GE(arrivals.load(), (phase + 1) * kRanks);
      comm.barrier();
    }
  });
}

TEST(MiniMpi, BcastFromEveryRoot) {
  run_world(4, [](Comm& comm) {
    for (int root = 0; root < comm.size(); ++root) {
      std::vector<double> data(16, comm.rank() == root ? 3.5 * root : 0.0);
      comm.bcast(data.data(), data.size() * sizeof(double), root);
      for (double v : data) EXPECT_DOUBLE_EQ(v, 3.5 * root);
    }
  });
}

TEST(MiniMpi, GatherConcatenatesByRank) {
  run_world(4, [](Comm& comm) {
    const int mine = 100 + comm.rank();
    std::vector<int> all(4, -1);
    comm.gather(&mine, sizeof(int), comm.rank() == 2 ? all.data() : nullptr,
                /*root=*/2);
    if (comm.rank() == 2) {
      for (int r = 0; r < 4; ++r) EXPECT_EQ(all[r], 100 + r);
    }
  });
}

TEST(MiniMpi, AllGatherGivesEveryoneEverything) {
  run_world(6, [](Comm& comm) {
    std::array<float, 3> mine{};
    for (int i = 0; i < 3; ++i) {
      mine[static_cast<std::size_t>(i)] =
          static_cast<float>(comm.rank() * 10 + i);
    }
    std::vector<float> all(18, -1.0f);
    comm.allgather(mine.data(), sizeof(mine), all.data());
    for (int r = 0; r < 6; ++r) {
      for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(all[static_cast<std::size_t>(r * 3 + i)],
                  static_cast<float>(r * 10 + i));
      }
    }
  });
}

TEST(MiniMpi, ReduceSumMatchesSequential) {
  constexpr int kRanks = 5;
  constexpr std::size_t kCount = 1000;
  run_world(kRanks, [&](Comm& comm) {
    std::vector<float> mine(kCount);
    for (std::size_t i = 0; i < kCount; ++i) {
      mine[i] = static_cast<float>(comm.rank() + 1) * 0.25f +
                static_cast<float>(i % 7);
    }
    std::vector<float> result(kCount, -1.0f);
    comm.reduce(mine.data(), result.data(), kCount, ReduceOp::kSum, 0);
    if (comm.rank() == 0) {
      for (std::size_t i = 0; i < kCount; ++i) {
        float expected = 0;
        for (int r = 0; r < kRanks; ++r) {
          expected += static_cast<float>(r + 1) * 0.25f +
                      static_cast<float>(i % 7);
        }
        EXPECT_FLOAT_EQ(result[i], expected);
      }
    }
  });
}

TEST(MiniMpi, ReduceMaxMinAndNonZeroRoot) {
  run_world(4, [](Comm& comm) {
    const float mine = static_cast<float>((comm.rank() * 13) % 7);
    float max_out = -1, min_out = -1;
    comm.reduce(&mine, &max_out, 1, ReduceOp::kMax, 3);
    comm.reduce(&mine, &min_out, 1, ReduceOp::kMin, 3);
    if (comm.rank() == 3) {
      EXPECT_FLOAT_EQ(max_out, 6.0f);  // ranks give 0, 6, 5, 4
      EXPECT_FLOAT_EQ(min_out, 0.0f);
    }
  });
}

TEST(MiniMpi, AllReduceEveryoneGetsTheSum) {
  run_world(3, [](Comm& comm) {
    const float mine = static_cast<float>(1 << comm.rank());  // 1, 2, 4
    float out = 0;
    comm.allreduce(&mine, &out, 1, ReduceOp::kSum);
    EXPECT_FLOAT_EQ(out, 7.0f);
  });
}

TEST(MiniMpi, ReduceIsDeterministic) {
  // Summation order is rank-ascending by construction; two identical runs
  // must produce bitwise identical results even with adversarial values.
  std::vector<float> run1, run2;
  auto body = [&](std::vector<float>& out) {
    return [&out](Comm& comm) {
      std::vector<float> mine(64);
      for (std::size_t i = 0; i < mine.size(); ++i) {
        mine[i] = (comm.rank() % 2 == 0 ? 1.0f : -1.0f) *
                  (1.0f + static_cast<float>(i) * 1e-7f) *
                  static_cast<float>(1 << (comm.rank() % 5));
      }
      std::vector<float> result(64);
      comm.reduce(mine.data(), result.data(), 64, ReduceOp::kSum, 0);
      if (comm.rank() == 0) out = result;
    };
  };
  run_world(7, body(run1));
  run_world(7, body(run2));
  ASSERT_EQ(run1.size(), run2.size());
  for (std::size_t i = 0; i < run1.size(); ++i) {
    EXPECT_EQ(run1[i], run2[i]);
  }
}

TEST(MiniMpi, SplitFormsIfdkGrid) {
  // 12 ranks as a 3x4 grid (R=3 rows, C=4 columns) exactly like Fig. 3a:
  // column comm = ranks with equal rank/R quotient? No — the paper numbers
  // ranks column-major (Fig. 3a: column 0 holds ranks 0..R-1). Column id =
  // rank / R, row id = rank % R.
  static constexpr int kR = 3, kC = 4;
  run_world(kR * kC, [](Comm& comm) {
    const int col = comm.rank() / kR;
    const int row = comm.rank() % kR;

    Comm col_comm = comm.split(/*color=*/col, /*key=*/row);
    EXPECT_EQ(col_comm.size(), kR);
    EXPECT_EQ(col_comm.rank(), row);

    Comm row_comm = comm.split(/*color=*/row, /*key=*/col);
    EXPECT_EQ(row_comm.size(), kC);
    EXPECT_EQ(row_comm.rank(), col);

    // Column AllGather must see exactly the world ranks of this column.
    const int mine = comm.rank();
    std::vector<int> col_members(kR);
    col_comm.allgather(&mine, sizeof(int), col_members.data());
    for (int r = 0; r < kR; ++r) {
      EXPECT_EQ(col_members[static_cast<std::size_t>(r)], col * kR + r);
    }

    // Row Reduce: sum of world ranks across the row.
    const float fmine = static_cast<float>(mine);
    float row_sum = 0;
    row_comm.reduce(&fmine, &row_sum, 1, ReduceOp::kSum, 0);
    if (col == 0) {
      float expected = 0;
      for (int cc = 0; cc < kC; ++cc) {
        expected += static_cast<float>(cc * kR + row);
      }
      EXPECT_FLOAT_EQ(row_sum, expected);
    }
  });
}

TEST(MiniMpi, NestedSplitAndCollectivesOnSubComm) {
  run_world(8, [](Comm& comm) {
    Comm half = comm.split(comm.rank() < 4 ? 0 : 1, comm.rank());
    Comm quarter = half.split(half.rank() < 2 ? 0 : 1, half.rank());
    EXPECT_EQ(quarter.size(), 2);
    float mine = static_cast<float>(comm.rank());
    float sum = 0;
    quarter.allreduce(&mine, &sum, 1, ReduceOp::kSum);
    // Pairs are (0,1), (2,3), (4,5), (6,7).
    const float base = static_cast<float>((comm.rank() / 2) * 2);
    EXPECT_FLOAT_EQ(sum, base + base + 1);
  });
}

TEST(MiniMpi, LargePayloadRoundTrip) {
  run_world(2, [](Comm& comm) {
    constexpr std::size_t kFloats = 1u << 20;  // 4 MiB
    if (comm.rank() == 0) {
      std::vector<float> data(kFloats);
      std::iota(data.begin(), data.end(), 0.0f);
      comm.send(1, 0, data.data(), data.size() * sizeof(float));
    } else {
      std::vector<float> data(kFloats, -1.0f);
      comm.recv(0, 0, data.data(), data.size() * sizeof(float));
      EXPECT_EQ(data.front(), 0.0f);
      EXPECT_EQ(data[12345], 12345.0f);
      EXPECT_EQ(data.back(), static_cast<float>(kFloats - 1));
    }
  });
}

TEST(MiniMpi, RankFailureAbortsTheWorld) {
  // One rank throws while another blocks in recv: run_world must unblock
  // everyone and rethrow the original error.
  EXPECT_THROW(
      run_world(3,
                [](Comm& comm) {
                  if (comm.rank() == 0) {
                    throw ConfigError("rank 0 exploded");
                  }
                  float buf = 0;
                  comm.recv(0, 0, &buf, sizeof(buf));  // would block forever
                }),
      Error);
}

TEST(MiniMpi, ZeroByteMessages) {
  run_world(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 5, nullptr, 0);
    } else {
      comm.recv(0, 5, nullptr, 0);  // must match and return
      SUCCEED();
    }
  });
}


TEST(MiniMpi, SendrecvExchangesWithoutDeadlock) {
  // Every rank simultaneously sends to its right neighbour and receives
  // from its left — the pattern ring algorithms are built from.
  run_world(5, [](Comm& comm) {
    const int p = comm.size();
    const int right = (comm.rank() + 1) % p;
    const int left = (comm.rank() + p - 1) % p;
    const int mine = comm.rank() * 11;
    int got = -1;
    comm.sendrecv(right, &mine, left, &got, sizeof(int), 3);
    EXPECT_EQ(got, left * 11);
  });
}

TEST(MiniMpi, NonblockingSendRecvRoundTrip) {
  run_world(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      int value = 99;
      Comm::Request req = comm.isend(1, 8, &value, sizeof(value));
      value = -1;  // buffered send: safe to clobber immediately
      req.wait();
    } else {
      int got = 0;
      Comm::Request req = comm.irecv(0, 8, &got, sizeof(got));
      req.wait();
      EXPECT_EQ(got, 99);
    }
  });
}

TEST(MiniMpi, WaitAllCompletesMixedRequests) {
  // Exchange with both neighbours using irecv-first (the classic halo
  // pattern that deadlocks with blocking recv-first).
  run_world(4, [](Comm& comm) {
    const int p = comm.size();
    const int right = (comm.rank() + 1) % p;
    const int left = (comm.rank() + p - 1) % p;
    int from_left = -1, from_right = -1;
    const int mine = comm.rank() * 3;
    std::array<Comm::Request, 4> reqs = {
        comm.irecv(left, 1, &from_left, sizeof(int)),
        comm.irecv(right, 2, &from_right, sizeof(int)),
        comm.isend(right, 1, &mine, sizeof(int)),
        comm.isend(left, 2, &mine, sizeof(int)),
    };
    Comm::wait_all(reqs);
    EXPECT_EQ(from_left, left * 3);
    EXPECT_EQ(from_right, right * 3);
  });
}

TEST(MiniMpi, RequestMoveSemantics) {
  run_world(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      const int v = 5;
      Comm::Request a = comm.isend(1, 0, &v, sizeof(v));
      Comm::Request b = std::move(a);
      EXPECT_FALSE(a.valid());
      EXPECT_TRUE(b.valid());
      b.wait();
    } else {
      int got = 0;
      comm.recv(0, 0, &got, sizeof(got));
      EXPECT_EQ(got, 5);
    }
  });
}

// ---- allreduce: reduce-scatter + allgather ---------------------------------
//
// Every case is checked bitwise against reduce(root 0) + bcast, the
// composition whose fold order allreduce promises to keep, on every rank.

/// Rank `rank`'s contribution: mixed signs and magnitudes, so float sums
/// depend on the fold order and any reordering shows in the bits.
std::vector<float> allreduce_payload(int rank, std::size_t count) {
  Rng rng(0xa11d + static_cast<std::uint64_t>(rank));
  std::vector<float> out(count);
  for (float& x : out) {
    x = static_cast<float>(std::ldexp(rng.next_double() - 0.5,
                                      static_cast<int>(rng.next_below(24))));
  }
  return out;
}

/// Runs one allreduce (in place or not) and the reduce + bcast oracle on
/// `comm`, expecting the bits to match and exactly 2 tags reserved.
void check_allreduce(Comm& comm, std::size_t count, ReduceOp op,
                     bool in_place) {
  const std::string what = "P=" + std::to_string(comm.size()) + " rank " +
                           std::to_string(comm.rank()) + " count " +
                           std::to_string(count) + " op " +
                           std::to_string(static_cast<int>(op)) +
                           (in_place ? " in place" : " out of place");
  const std::vector<float> mine = allreduce_payload(comm.rank(), count);
  // One spare element keeps the root's receive buffer non-null at count 0.
  std::vector<float> oracle(count + 1);
  comm.reduce(mine.data(), oracle.data(), count, op, /*root=*/0);
  comm.bcast(oracle.data(), count * sizeof(float), /*root=*/0);

  std::vector<float> got(count, -1.0f);
  const std::uint64_t before = comm.collective_tags_reserved();
  if (in_place) {
    got = mine;
    comm.allreduce(got.data(), got.data(), count, op);
  } else {
    comm.allreduce(mine.data(), got.data(), count, op);
  }
  EXPECT_EQ(comm.collective_tags_reserved() - before, 2u) << what;
  if (count > 0) {  // memcmp may not take the empty vector's null data()
    EXPECT_EQ(std::memcmp(got.data(), oracle.data(), count * sizeof(float)),
              0)
        << what;
  }
}

/// The count matrix for a P-rank communicator: empty, a single element,
/// fewer elements than ranks (empty chunks), exactly P, a non-multiple of
/// P, and more than one 64K-float ireduce segment.
std::vector<std::size_t> allreduce_counts(int p) {
  const std::size_t n = static_cast<std::size_t>(p);
  return {0, 1, n - 1, n, 3 * n + 1, (std::size_t{1} << 16) + 7};
}

TEST(MiniMpiAllreduce, MatchesReduceBcastBitwise) {
  for (const int p : {1, 2, 3, 4, 5, 8}) {
    run_world(p, [&](Comm& comm) {
      for (const std::size_t count : allreduce_counts(p)) {
        for (const ReduceOp op :
             {ReduceOp::kSum, ReduceOp::kMax, ReduceOp::kMin}) {
          for (const bool in_place : {false, true}) {
            check_allreduce(comm, count, op, in_place);
          }
        }
      }
    });
  }
}

TEST(MiniMpiAllreduce, MatchesReduceBcastOnSubCommunicators) {
  // Reversed keys make each sub-communicator's rank order the opposite of
  // the world's, so chunk ownership and fold order follow the sub-comm.
  run_world(8, [](Comm& comm) {
    Comm sub = comm.split(comm.rank() % 3 == 0 ? 0 : 1, -comm.rank());
    for (const std::size_t count : allreduce_counts(sub.size())) {
      for (const bool in_place : {false, true}) {
        check_allreduce(sub, count, ReduceOp::kSum, in_place);
      }
    }
    // The world communicator still works after the sub-comm traffic.
    check_allreduce(comm, 1000, ReduceOp::kMax, /*in_place=*/true);
  });
}

TEST(MiniMpiAllreduce, AbortMidAllreduceUnblocksTheWorld) {
  // Ranks 0-2 enter the allreduce and post their chunks; rank 3 fails
  // before contributing. The others block in the reduce-scatter until the
  // abort reaches them, and run_world rethrows rank 3's root cause.
  try {
    run_world(4, [](Comm& comm) {
      std::vector<float> v(100000, 1.0f);
      if (comm.rank() == 3) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        throw ConfigError("rank 3 failed mid-allreduce");
      }
      comm.allreduce(v.data(), v.data(), v.size(), ReduceOp::kSum);
      ADD_FAILURE() << "rank " << comm.rank()
                    << " completed an allreduce missing rank 3";
    });
    FAIL() << "expected the injected failure to surface";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("mid-allreduce"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace ifdk::mpi
