// Execution-engine tests: the workload-agnostic seams extracted from the FDK
// runtime — object naming, the z-major slice permutation, root-cause error
// selection, the collective tag-budget check (including the wrap-skip
// allowance), the EpochComms re-split cache, and the VolumeWriterSet
// poison-isolation contract — plus the engine-level FDK pin: a
// mixed-geometry stream through the FDK engine Workload must match the
// serial oracle (tests/fdk_oracle.h) bit for bit, volume by volume.
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/error.h"
#include "engine/engine.h"
#include "fdk_oracle.h"
#include "ifdk/framework.h"
#include "minimpi/minimpi.h"
#include "phantom/phantom.h"

namespace ifdk::engine {
namespace {

// ---- object_name ------------------------------------------------------------

TEST(ObjectName, FixedSixDigitDecimal) {
  EXPECT_EQ(object_name("proj/", 0), "proj/000000");
  EXPECT_EQ(object_name("proj/", 7), "proj/000007");
  EXPECT_EQ(object_name("out/slice_", 123456), "out/slice_123456");
  EXPECT_EQ(object_name("", 42), "000042");
}

// ---- extract_zmajor_slice ---------------------------------------------------

TEST(ExtractZmajorSlice, PermutesZMajorToSliceMajor) {
  // zmajor[(i * ny + j) * depth + k] must land at dst[j * nx + i].
  const std::size_t nx = 3, ny = 2, depth = 4;
  std::vector<float> zmajor(nx * ny * depth);
  for (std::size_t n = 0; n < zmajor.size(); ++n) {
    zmajor[n] = static_cast<float>(n);
  }
  for (std::size_t k = 0; k < depth; ++k) {
    std::vector<float> slice(nx * ny, -1.0f);
    extract_zmajor_slice(zmajor.data(), nx, ny, depth, k, slice.data());
    for (std::size_t j = 0; j < ny; ++j) {
      for (std::size_t i = 0; i < nx; ++i) {
        EXPECT_EQ(slice[j * nx + i],
                  static_cast<float>((i * ny + j) * depth + k))
            << "k=" << k << " i=" << i << " j=" << j;
      }
    }
  }
}

// ---- error classes and root-cause selection ---------------------------------

std::exception_ptr capture(const std::function<void()>& thrower) {
  try {
    thrower();
  } catch (...) {
    return std::current_exception();
  }
  return nullptr;
}

TEST(ErrorClasses, RealBeatsAbortBeatsQueueClosed) {
  const auto real = capture([] { throw std::runtime_error("disk on fire"); });
  const auto abort_sym =
      capture([] { throw mpi::WorldAbortedError("world aborted"); });
  const auto queue_sym = capture([] { throw QueueClosedError("queue closed"); });
  EXPECT_EQ(error_class(real), 0);
  EXPECT_EQ(error_class(abort_sym), 1);
  EXPECT_EQ(error_class(queue_sym), 2);

  // Real failures win no matter where they sit in the slot order...
  const std::array<std::exception_ptr, 4> mixed = {nullptr, queue_sym,
                                                   abort_sym, real};
  EXPECT_EQ(pick_root_cause(mixed), real);
  // ...abort symptoms beat queue-shutdown symptoms...
  const std::array<std::exception_ptr, 2> symptoms = {queue_sym, abort_sym};
  EXPECT_EQ(pick_root_cause(symptoms), abort_sym);
  // ...ties break to the earliest slot (deterministic rethrow)...
  const auto real2 = capture([] { throw std::runtime_error("second"); });
  const std::array<std::exception_ptr, 2> tie = {real, real2};
  EXPECT_EQ(pick_root_cause(tie), real);
  // ...and no error means no root cause.
  const std::array<std::exception_ptr, 2> none = {nullptr, nullptr};
  EXPECT_EQ(pick_root_cause(none), nullptr);
  EXPECT_EQ(pick_root_cause({}), nullptr);
}

// ---- assert_tag_budget ------------------------------------------------------

TEST(TagBudget, PassesWithinBudgetAndAcrossTheWrapSkip) {
  const std::uint64_t window = mpi::Comm::kCollectiveTagWindow;
  // Plain epochs: actual <= budget.
  assert_tag_budget(0, 5, 5, "exact");
  assert_tag_budget(100, 103, 5, "under");
  // Wrap skip: a 5-tag budget starting one tag below the window top cannot
  // fit before it, so the reservation skips to the next window and the
  // epoch legitimately consumes budget + (window - offset) = 6 sequence
  // numbers. The naive `actual <= budget` check would reject this.
  assert_tag_budget(window - 1, window + 5, 5, "wrap");
  // A budget that still fits below the top gets NO wrap allowance.
  assert_tag_budget(window - 5, window, 5, "fits");
}

TEST(TagBudgetDeathTest, OverBudgetEpochAborts) {
  // The budget invariant is an abort (IFDK_ASSERT_MSG), not an exception:
  // a tag overrun means plan and runtime disagree and no rank can recover.
  EXPECT_DEATH(assert_tag_budget(0, 10, 5, "overrun epoch"), "overrun epoch");
}

// ---- EpochComms -------------------------------------------------------------

TEST(EpochCommsTest, CachesOneCommPairPerDistinctRowCount) {
  mpi::run_world(4, [](mpi::Comm& world) {
    const int rank = world.rank();
    const std::vector<int> rows_per_volume = {2, 2, 1};
    EpochComms comms(world, rows_per_volume);

    // Volumes 0 and 1 share a grid and must ride the SAME communicator pair
    // (that is what lets their epochs stay in flight together); volume 2
    // re-splits.
    EXPECT_EQ(&comms.of(0), &comms.of(1));
    EXPECT_NE(&comms.of(0), &comms.of(2));

    // R = 2 on 4 ranks: columns of 2 ranks keyed by row, rows of 2 ranks
    // keyed by column (column-major rank numbering).
    EXPECT_EQ(comms.of(0).col.size(), 2);
    EXPECT_EQ(comms.of(0).col.rank(), rank % 2);
    EXPECT_EQ(comms.of(0).row.size(), 2);
    EXPECT_EQ(comms.of(0).row.rank(), rank / 2);

    // R = 1 on 4 ranks: every rank is its own column; one row of 4.
    EXPECT_EQ(comms.of(2).col.size(), 1);
    EXPECT_EQ(comms.of(2).col.rank(), 0);
    EXPECT_EQ(comms.of(2).row.size(), 4);
    EXPECT_EQ(comms.of(2).row.rank(), rank);

    // The cached pairs are live: a broadcast on volume 0's column delivers
    // the column root's value to the whole column.
    float value = comms.of(0).col.rank() == 0 ? static_cast<float>(rank) : -1;
    comms.of(0).col.bcast(&value, sizeof(float), 0);
    EXPECT_EQ(value, static_cast<float>(rank - rank % 2));
  });
}

// ---- VolumeWriterSet --------------------------------------------------------

/// PFS wrapper failing every write under one prefix (the repo's standard
/// fault-injection idiom).
class PrefixFailFs : public pfs::ParallelFileSystem {
 public:
  explicit PrefixFailFs(std::string prefix) : prefix_(std::move(prefix)) {}
  void write_object(const std::string& name, const void* data,
                    std::size_t bytes) override {
    if (name.rfind(prefix_, 0) == 0) {
      throw IoError("injected write failure: " + name);
    }
    pfs::ParallelFileSystem::write_object(name, data, bytes);
  }

 private:
  std::string prefix_;
};

TEST(VolumeWriterSetTest, WritesRootedVolumesAndNoopsOnRootlessRanks) {
  pfs::ParallelFileSystem fs;
  VolumeWriterSet writers(fs, /*queue_capacity=*/4, {true, false, true});
  EXPECT_TRUE(writers.enqueue(0, "a/000000", std::vector<float>{1.0f, 2.0f}));
  EXPECT_TRUE(writers.enqueue(2, "c/000000", std::vector<float>{3.0f}));
  EXPECT_TRUE(writers.enqueue(0, "a/000001", std::vector<float>{4.0f}));
  EXPECT_EQ(writers.finish_volume(0), "");
  EXPECT_EQ(writers.finish_volume(2), "");
  writers.finish();
  EXPECT_GE(writers.busy_seconds(), 0.0);

  std::vector<float> back(2);
  fs.read_object("a/000000", back.data(), 2 * sizeof(float));
  EXPECT_EQ(back[0], 1.0f);
  EXPECT_EQ(back[1], 2.0f);

  // A rank that roots nothing holds no writer thread; every call no-ops.
  VolumeWriterSet rootless(fs, 4, {false, false});
  rootless.finish();
  EXPECT_EQ(rootless.busy_seconds(), 0.0);
}

TEST(VolumeWriterSetTest, WriteFailurePoisonsOnlyThatVolume) {
  PrefixFailFs fs("bad/");
  VolumeWriterSet writers(fs, 4, {true, true});
  writers.enqueue(0, "bad/000000", std::vector<float>{1.0f});
  writers.enqueue(1, "good/000000", std::vector<float>{2.0f});
  const std::string err = writers.finish_volume(0);
  EXPECT_NE(err.find("injected write failure"), std::string::npos) << err;
  EXPECT_EQ(writers.finish_volume(1), "");  // isolation: volume 1 unharmed
  writers.finish();
  float back = 0;
  fs.read_object("good/000000", &back, sizeof(float));
  EXPECT_EQ(back, 2.0f);
}

// ---- FDK-via-engine bitwise pin ---------------------------------------------
//
// run_streaming's FdkStreamWorkload runs on engine::run; the serial oracle
// replays the same arithmetic with no engine, threads or messages at all.
// Bitwise-identical volumes across a mixed-geometry stream pin the engine
// seams (comm cache, writer set, slice permutation, error protocol): none of
// them can have perturbed the pipeline's arithmetic.

TEST(FdkViaEngine, MixedGeometryStreamMatchesSerialOracle) {
  const std::vector<ifdk::Problem> problems = {
      {{32, 32, 16}, {12, 12, 12}},  // base grid
      {{32, 32, 16}, {12, 12, 8}},   // new slab extents, same grid
      {{32, 32, 8}, {12, 12, 12}},   // fewer gather rounds per epoch
  };

  std::vector<geo::CbctGeometry> geoms;
  std::vector<std::vector<Image2D>> frames;
  std::vector<JobSpec> volumes;
  pfs::ParallelFileSystem fs;
  for (std::size_t v = 0; v < problems.size(); ++v) {
    geoms.push_back(geo::make_standard_geometry(problems[v]));
    JobSpec spec{"in" + std::to_string(v) + "/",
                 "out" + std::to_string(v) + "/slice_", geoms.back()};
    frames.push_back(
        phantom::project_all(phantom::shepp_logan(), geoms.back()));
    stage_projections(fs, spec.input_prefix, frames.back());
    volumes.push_back(std::move(spec));
  }

  IfdkOptions opts;
  opts.ranks = 4;
  opts.rows = 2;

  const StreamingStats stats = run_streaming(geoms[0], fs, opts, volumes);
  ASSERT_EQ(stats.volumes, static_cast<int>(problems.size()));
  for (const std::string& err : stats.volume_errors) {
    EXPECT_TRUE(err.empty()) << err;
  }

  for (std::size_t v = 0; v < volumes.size(); ++v) {
    const Volume streamed =
        load_volume(fs, volumes[v].output_prefix, geoms[v].vol_dims());
    const Volume oracle = distributed_fdk_oracle(geoms[v], frames[v], opts);
    for (std::size_t n = 0; n < streamed.voxels(); ++n) {
      ASSERT_EQ(streamed.data()[n], oracle.data()[n])
          << "volume " << v << ", voxel " << n;
    }
  }
}

}  // namespace
}  // namespace ifdk::engine
