// DecompositionPlan property tests: over randomized geometries and grids,
// the slab extents must disjointly cover [0, Nz), the projection shards must
// disjointly cover [0, Np), and the per-epoch collective tag budgets must
// bound what an epoch's collectives actually reserve through minimpi
// (measured against the live Comm::collective_tags_reserved() counter).
// Plus the plan's ConfigError / DeviceOutOfMemory message contracts.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "geometry/cbct.h"
#include "ifdk/plan.h"
#include "minimpi/minimpi.h"

namespace ifdk {
namespace {

/// A random valid decomposition case: grid shape, per-rank round count, and
/// slab half-height drive Np and Nz so every divisibility constraint holds
/// by construction — the properties under test are the cover invariants,
/// not the validation.
struct RandomCase {
  geo::CbctGeometry geometry;
  IfdkOptions options;
  int rows;
  int cols;
};

RandomCase random_case(Rng& rng) {
  RandomCase c;
  c.rows = 1 << rng.next_below(3);             // R in {1, 2, 4}
  c.cols = 1 + static_cast<int>(rng.next_below(4));  // C in {1..4}
  const std::size_t rounds = 1 + rng.next_below(5);
  const std::size_t slab_h = 1 + rng.next_below(4);
  const std::size_t n = 8 + 2 * rng.next_below(5);  // Nx=Ny in {8..16}
  const Problem problem{
      {2 * n, 2 * n,
       rounds * static_cast<std::size_t>(c.rows) *
           static_cast<std::size_t>(c.cols)},
      {n, n, 2 * static_cast<std::size_t>(c.rows) * slab_h}};
  c.geometry = geo::make_standard_geometry(problem);
  c.options.ranks = c.rows * c.cols;
  c.options.rows = c.rows;
  c.options.reduce_segment_floats = 1 + rng.next_below(4096);
  return c;
}

TEST(PlanProperties, SlabExtentsDisjointlyCoverNz) {
  Rng rng(0x5eed0001);
  for (int trial = 0; trial < 50; ++trial) {
    const RandomCase c = random_case(rng);
    const DecompositionPlan plan =
        DecompositionPlan::make(c.geometry, c.options);
    ASSERT_EQ(plan.grid.rows, c.rows);
    ASSERT_EQ(plan.grid.columns, c.cols);

    std::vector<int> owner(c.geometry.nz, -1);
    for (int row = 0; row < plan.grid.rows; ++row) {
      const SlabExtent e = plan.slab_extent(row);
      EXPECT_EQ(e.low_end - e.low_begin, plan.slab_h);
      EXPECT_EQ(e.high_end - e.high_begin, plan.slab_h);
      for (std::size_t k = e.low_begin; k < e.low_end; ++k) {
        ASSERT_EQ(owner[k], -1) << "slice " << k << " double-owned";
        owner[k] = row;
      }
      for (std::size_t k = e.high_begin; k < e.high_end; ++k) {
        ASSERT_EQ(owner[k], -1) << "slice " << k << " double-owned";
        owner[k] = row;
      }
      // global_slice must enumerate exactly the extent, low then mirror.
      for (std::size_t local_k = 0; local_k < 2 * plan.slab_h; ++local_k) {
        const std::size_t k = plan.global_slice(row, local_k);
        EXPECT_EQ(owner[k], row);
      }
    }
    for (std::size_t k = 0; k < c.geometry.nz; ++k) {
      ASSERT_NE(owner[k], -1) << "slice " << k << " unowned";
    }
  }
}

TEST(PlanProperties, ProjectionShardsDisjointlyCoverNp) {
  Rng rng(0x5eed0002);
  for (int trial = 0; trial < 50; ++trial) {
    const RandomCase c = random_case(rng);
    const DecompositionPlan plan =
        DecompositionPlan::make(c.geometry, c.options);

    std::vector<int> owner(c.geometry.np, -1);
    for (int col = 0; col < plan.grid.columns; ++col) {
      for (int row = 0; row < plan.grid.rows; ++row) {
        const int rank = col * plan.grid.rows + row;
        EXPECT_EQ(plan.row_of(rank), row);
        EXPECT_EQ(plan.col_of(rank), col);
        const std::vector<std::size_t> shard = plan.projection_shard(row, col);
        ASSERT_EQ(shard.size(), plan.rounds);
        for (const std::size_t s : shard) {
          ASSERT_LT(s, c.geometry.np);
          ASSERT_EQ(owner[s], -1) << "projection " << s << " double-owned";
          owner[s] = rank;
        }
        // Each column's shards stay inside its contiguous Np/C block.
        const std::size_t base = plan.column_base(col);
        for (const std::size_t s : shard) {
          EXPECT_GE(s, base);
          EXPECT_LT(s, base + plan.rounds * static_cast<std::size_t>(
                                                plan.grid.rows));
        }
      }
    }
    for (std::size_t s = 0; s < c.geometry.np; ++s) {
      ASSERT_NE(owner[s], -1) << "projection " << s << " unowned";
    }
  }
}

TEST(PlanProperties, BudgetsAndBytesAreConsistent) {
  Rng rng(0x5eed0003);
  for (int trial = 0; trial < 50; ++trial) {
    const RandomCase c = random_case(rng);
    const DecompositionPlan plan =
        DecompositionPlan::make(c.geometry, c.options);

    // Segment count covers the slab exactly.
    const std::uint64_t segments = plan.reduce_segments();
    EXPECT_GE(segments * plan.reduce_segment_floats, plan.slab_floats());
    EXPECT_LT((segments - 1) * plan.reduce_segment_floats,
              plan.slab_floats());
    EXPECT_EQ(plan.reduce_tag_budget(), segments);

    // Byte accounting matches the shapes.
    EXPECT_EQ(plan.allgather_bytes_per_round(),
              static_cast<std::uint64_t>(plan.grid.rows - 1) * plan.pixels *
                  sizeof(float));
    EXPECT_EQ(plan.reduce_bytes_per_epoch(), plan.slab_bytes());
    EXPECT_EQ(plan.slab_floats(), 2 * plan.slab_h * plan.slice_px);

    plan.check_invariants();  // must hold on every random case
  }
}

TEST(PlanTagBudget, LiveEpochNeverExceedsTheBudget) {
  // Drive a real minimpi world through the traffic one volume epoch
  // issues — plan.rounds user-tag column exchanges (the gather worker's
  // isend/irecv), one segmented ireduce on the row comm — and check the
  // live tag counter against the plan's budgets: none on the column, one
  // per segment on the row. Swept over random cases.
  Rng rng(0x5eed0004);
  for (int trial = 0; trial < 8; ++trial) {
    const RandomCase c = random_case(rng);
    const DecompositionPlan plan =
        DecompositionPlan::make(c.geometry, c.options);

    mpi::run_world(plan.ranks(), [&](mpi::Comm& world) {
      const int rank = world.rank();
      const int row = plan.row_of(rank);
      const int col = plan.col_of(rank);
      mpi::Comm col_comm = world.split(col, row);
      mpi::Comm row_comm = world.split(row, col);

      // Column epoch: every round exchanges one block with each of the
      // column's other ranks over a per-round user tag.
      const std::uint64_t col_before = col_comm.collective_tags_reserved();
      const std::size_t bytes = plan.pixels * sizeof(float);
      std::vector<float> block(plan.pixels, static_cast<float>(rank));
      std::vector<float> gathered(
          static_cast<std::size_t>(plan.grid.rows) * plan.pixels);
      for (std::size_t t = 0; t < plan.rounds; ++t) {
        std::vector<mpi::Comm::Request> reqs;
        for (int r = 0; r < plan.grid.rows; ++r) {
          if (r == row) continue;
          const int tag = static_cast<int>(t);
          col_comm.isend(r, tag, block.data(), bytes).wait();
          reqs.push_back(col_comm.irecv(
              r, tag, gathered.data() + static_cast<std::size_t>(r) * plan.pixels,
              bytes));
        }
        mpi::Comm::wait_all(reqs);
      }
      EXPECT_EQ(col_comm.collective_tags_reserved(), col_before);

      // Row epoch: one segmented ireduce of the slab pair.
      const std::uint64_t row_before = row_comm.collective_tags_reserved();
      std::vector<float> partial(plan.slab_floats(), 1.0f);
      std::vector<float> reduced(col == 0 ? plan.slab_floats() : 0);
      row_comm
          .ireduce(partial.data(), col == 0 ? reduced.data() : nullptr,
                   partial.size(), mpi::ReduceOp::kSum, /*root=*/0,
                   plan.reduce_segment_floats)
          .wait();
      const std::uint64_t row_used =
          row_comm.collective_tags_reserved() - row_before;
      EXPECT_LE(row_used, plan.reduce_tag_budget());
      EXPECT_EQ(row_used, plan.reduce_tag_budget());
      if (col == 0) {
        for (const float x : reduced) {
          EXPECT_EQ(x, static_cast<float>(plan.grid.columns));
        }
      }
    });
  }
}

TEST(PlanTagBudget, IterativeEpochsReserveExactlyTheBudget) {
  // Drive the collectives run_iterative issues — the setup's in-place
  // volume all-reduce per subset; per iteration, one per subset plus the
  // residual scalar — and check the live tag delta equals the plan's
  // budgets exactly, whatever reduce_segment_floats (random here, 1 in
  // some trials) says: that knob no longer enters the iterative budgets.
  Rng rng(0x5eed0005);
  for (int trial = 0; trial < 8; ++trial) {
    RandomCase c = random_case(rng);
    if (trial % 3 == 0) c.options.reduce_segment_floats = 1;
    const DecompositionPlan plan =
        DecompositionPlan::make(c.geometry, c.options);
    const int subsets = 1 + static_cast<int>(rng.next_below(c.geometry.np));

    mpi::run_world(plan.ranks(), [&](mpi::Comm& world) {
      std::vector<float> volume(plan.volume_floats(), 1.0f);
      auto sum_ones_volume = [&] {
        std::fill(volume.begin(), volume.end(), 1.0f);
        world.allreduce(volume.data(), volume.data(), volume.size(),
                        mpi::ReduceOp::kSum);
        EXPECT_EQ(volume.back(), static_cast<float>(plan.ranks()));
      };

      const std::uint64_t setup_before = world.collective_tags_reserved();
      for (int sub = 0; sub < subsets; ++sub) sum_ones_volume();
      EXPECT_EQ(world.collective_tags_reserved() - setup_before,
                plan.iter_setup_tag_budget(subsets));

      const std::uint64_t iter_before = world.collective_tags_reserved();
      for (int sub = 0; sub < subsets; ++sub) sum_ones_volume();
      float residual = 1.0f;
      world.allreduce(&residual, &residual, 1, mpi::ReduceOp::kSum);
      EXPECT_EQ(world.collective_tags_reserved() - iter_before,
                plan.iter_iteration_tag_budget(subsets));
    });
  }
}

TEST(PlanErrors, MessagesNameTheOffendingValues) {
  const geo::CbctGeometry g =
      geo::make_standard_geometry({{32, 32, 16}, {12, 12, 12}});
  const auto expect_error = [&](const geo::CbctGeometry& geom,
                                const IfdkOptions& opts, int volume_index,
                                std::initializer_list<const char*> fragments) {
    try {
      DecompositionPlan::make(geom, opts, volume_index);
      FAIL() << "expected ConfigError";
    } catch (const ConfigError& e) {
      const std::string what = e.what();
      for (const char* fragment : fragments) {
        EXPECT_NE(what.find(fragment), std::string::npos)
            << "message \"" << what << "\" lacks \"" << fragment << "\"";
      }
    }
  };

  IfdkOptions bad_ranks;
  bad_ranks.ranks = 3;
  bad_ranks.rows = 2;
  expect_error(g, bad_ranks, -1, {"ranks (3)", "row count R (2)"});
  // The same failure in streaming mode names the volume.
  expect_error(g, bad_ranks, 5, {"volume 5: ", "ranks (3)"});

  IfdkOptions bad_np;
  bad_np.ranks = 32;  // 16 projections over 32 ranks
  bad_np.rows = 2;
  expect_error(g, bad_np, -1, {"Np (16)", "ranks=32"});
  expect_error(g, bad_np, 0, {"volume 0: ", "Np (16)"});

  IfdkOptions bad_nz;
  bad_nz.ranks = 8;
  bad_nz.rows = 8;  // 2*8 does not divide Nz=12
  expect_error(geo::make_standard_geometry({{32, 32, 16}, {12, 12, 12}}),
               bad_nz, 2, {"volume 2: ", "Nz (12)", "2*rows (16)"});
}

TEST(PlanMemory, DeviceFitCheckNamesTheNumbers) {
  const geo::CbctGeometry g =
      geo::make_standard_geometry({{32, 32, 16}, {12, 12, 12}});
  IfdkOptions opts;
  opts.ranks = 2;
  opts.rows = 1;
  const DecompositionPlan plan = DecompositionPlan::make(g, opts);
  gpusim::DeviceSpec tiny;
  tiny.memory_bytes = 1024;
  try {
    plan.check_device_fit(tiny);
    FAIL() << "expected DeviceOutOfMemory";
  } catch (const DeviceOutOfMemory& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(std::to_string(plan.device_bytes())),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("1024"), std::string::npos) << what;
  }
  // The 16 GB default fits comfortably.
  plan.check_device_fit(gpusim::DeviceSpec{});
}

TEST(PlanMemory, IterativeDeviceFitCheckNamesTheNumbers) {
  const geo::CbctGeometry g =
      geo::make_standard_geometry({{32, 32, 16}, {12, 12, 12}});
  IfdkOptions opts;
  opts.ranks = 4;
  opts.rows = 2;
  const DecompositionPlan plan = DecompositionPlan::make(g, opts);
  gpusim::DeviceSpec tiny;
  tiny.memory_bytes = 1024;
  try {
    plan.check_iter_device_fit(3, tiny);
    FAIL() << "expected DeviceOutOfMemory";
  } catch (const DeviceOutOfMemory& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("needs " + std::to_string(plan.iter_device_bytes(3)) +
                        " B"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("3 column-norm volume(s)"), std::string::npos)
        << what;
    EXPECT_NE(what.find("device has 1024 B"), std::string::npos) << what;
  }
  // An exact fit passes, and so does the 16 GB default.
  gpusim::DeviceSpec exact;
  exact.memory_bytes = plan.iter_device_bytes(3);
  plan.check_iter_device_fit(3, exact);
  plan.check_iter_device_fit(3, gpusim::DeviceSpec{});
}

TEST(PlanMemory, AutoRowSelectionAccountsForResidentSlabs) {
  // With rows = 0 the plan doubles R until resident_slabs slab pairs plus a
  // batch fit the device — streaming (2 resident slabs) can resolve a
  // bigger R than a single-volume run on the same device.
  const geo::CbctGeometry g =
      geo::make_standard_geometry({{32, 32, 32}, {16, 16, 16}});
  IfdkOptions opts;
  opts.ranks = 8;
  opts.rows = 0;
  opts.microbench.sub_volume_bytes = 64ull << 30;  // Eq. (7) alone says R=1
  opts.microbench.gpu_memory_bytes = 64ull << 30;
  // Volume is 16*16*16*4 = 16384 B; batch is 32*32*32*4 = 131072 B. A
  // device that only fits one slab + batch at R=2 forces streaming to R=4.
  opts.device.memory_bytes = 131072 + 16384 / 2 + 512;

  const DecompositionPlan single = DecompositionPlan::make(g, opts, -1, 1);
  EXPECT_EQ(single.grid.rows, 2);
  const DecompositionPlan streaming = DecompositionPlan::make(g, opts, -1, 2);
  EXPECT_EQ(streaming.grid.rows, 4);
  streaming.check_device_fit(opts.device);
}

TEST(PlanMemory, PaperSubVolumePlusBatchFitsTheV100) {
  // Section 4.1.5: 4 * (Nx*Ny*Nz/R + Nu*Nv*Nbatch) <= 16 GB. A 4096^3
  // volume at R = 32 makes an 8 GiB slab pair; with a 32-projection batch
  // of 2048^2 images it fits the default 16 GB V100, but a second
  // resident slab pair (streaming's double buffer) does not.
  const geo::CbctGeometry g =
      geo::make_standard_geometry({{2048, 2048, 4096}, {4096, 4096, 4096}});
  IfdkOptions opts;
  opts.ranks = 32;
  opts.rows = 32;
  const DecompositionPlan single = DecompositionPlan::make(g, opts, -1, 1);
  EXPECT_EQ(single.slab_bytes(), 8ull << 30);
  EXPECT_EQ(single.device_bytes(),
            (8ull << 30) + 2048ull * 2048 * 32 * sizeof(float));
  single.check_device_fit(gpusim::DeviceSpec{});
  const DecompositionPlan doubled = DecompositionPlan::make(g, opts, -1, 2);
  EXPECT_THROW(doubled.check_device_fit(gpusim::DeviceSpec{}),
               DeviceOutOfMemory);
}

}  // namespace
}  // namespace ifdk
