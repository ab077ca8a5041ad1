// Streaming-4DCT pipeline tests: run_streaming(N volumes) must be
// bitwise-identical to N sequential run_distributed calls on every tested
// grid shape and volume count — plus the failure-semantics contract: a PFS write error on volume v fails only that
// volume, while a rank abort mid-stream unwinds every in-flight collective
// epoch without hangs (guarded by the suite's ctest TIMEOUT).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/math_util.h"
#include "ifdk/framework.h"
#include "phantom/phantom.h"

namespace ifdk {
namespace {

/// One respiratory phase of a moving-lesion phantom: every temporal frame
/// projects a *different* object, so a streaming bug that crosses volume
/// boundaries (stale slab, swapped round, misrouted slice) cannot cancel out.
phantom::Phantom frame_phantom(double phase) {
  phantom::Phantom p;
  phantom::Ellipsoid body;
  body.semi_axes = {0.8, 0.7, 0.85};
  body.density = 0.4;
  p.ellipsoids.push_back(body);

  phantom::Ellipsoid lesion;
  lesion.center = {0.25, 0.0, 0.3 * std::sin(2.0 * kPi * phase)};
  lesion.semi_axes = {0.15, 0.15, 0.2};
  lesion.density = 0.7;
  p.ellipsoids.push_back(lesion);
  return p;
}

struct StreamScene {
  geo::CbctGeometry g;
  std::vector<std::vector<Image2D>> frames;  ///< per-volume projections
  std::vector<JobSpec> volumes;         ///< per-volume I/O prefixes
};

StreamScene make_stream_scene(std::size_t n_volumes) {
  StreamScene s{geo::make_standard_geometry({{32, 32, 16}, {12, 12, 12}}),
                {},
                {}};
  for (std::size_t v = 0; v < n_volumes; ++v) {
    const double phase =
        static_cast<double>(v) / static_cast<double>(n_volumes);
    s.frames.push_back(phantom::project_all(frame_phantom(phase), s.g));
    s.volumes.push_back(JobSpec{"in" + std::to_string(v) + "/",
                                     "out" + std::to_string(v) + "/slice_",
                                     {}});
  }
  return s;
}

void stage_all(pfs::ParallelFileSystem& fs, const StreamScene& s) {
  for (std::size_t v = 0; v < s.frames.size(); ++v) {
    stage_projections(fs, s.volumes[v].input_prefix, s.frames[v]);
  }
}

/// The sequential reference: one run_distributed per volume, same options.
void run_sequential(const StreamScene& s, pfs::ParallelFileSystem& fs,
                    IfdkOptions options) {
  for (const JobSpec& vol : s.volumes) {
    options.input_prefix = vol.input_prefix;
    options.output_prefix = vol.output_prefix;
    run_distributed(s.g, fs, options);
  }
}

void expect_bitwise_equal_volume(const pfs::ParallelFileSystem& a,
                                 const pfs::ParallelFileSystem& b,
                                 const StreamScene& s, std::size_t v,
                                 const std::string& context) {
  const Volume va = load_volume(a, s.volumes[v].output_prefix, s.g.vol_dims());
  const Volume vb = load_volume(b, s.volumes[v].output_prefix, s.g.vol_dims());
  for (std::size_t n = 0; n < va.voxels(); ++n) {
    ASSERT_EQ(va.data()[n], vb.data()[n])
        << context << ", volume " << v << ", voxel " << n;
  }
}

struct GridCase {
  int ranks;
  int rows;
};

class StreamingEquivalence : public ::testing::TestWithParam<GridCase> {};

TEST_P(StreamingEquivalence, BitwiseMatchesSequentialRuns) {
  // The tentpole invariant, swept over volume count: the streamed time
  // series is bit-for-bit the same as reconstructing each frame in its own
  // world.
  const auto [ranks, rows] = GetParam();
  for (const std::size_t n_volumes : {std::size_t{1}, std::size_t{2},
                                      std::size_t{4}}) {
    const StreamScene s = make_stream_scene(n_volumes);
    IfdkOptions opts;
    opts.ranks = ranks;
    opts.rows = rows;

    pfs::ParallelFileSystem fs_seq;
    stage_all(fs_seq, s);
    run_sequential(s, fs_seq, opts);

    pfs::ParallelFileSystem fs_stream;
    stage_all(fs_stream, s);
    const StreamingStats stats = run_streaming(s.g, fs_stream, opts,
                                               s.volumes);
    EXPECT_EQ(stats.volumes, static_cast<int>(n_volumes));
    EXPECT_EQ(stats.grid.rows, rows);
    for (const std::string& err : stats.volume_errors) {
      EXPECT_TRUE(err.empty()) << err;
    }

    const std::string context = "grid " + std::to_string(rows) + "x" +
                                std::to_string(ranks / rows) + ", " +
                                std::to_string(n_volumes) + " volumes";
    for (std::size_t v = 0; v < n_volumes; ++v) {
      expect_bitwise_equal_volume(fs_seq, fs_stream, s, v, context);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    GridShapes, StreamingEquivalence,
    ::testing::Values(GridCase{1, 1},   // degenerate single rank
                      GridCase{2, 2},   // R=2, C=1: gather, no reduce
                      GridCase{2, 1},   // R=1, C=2: reduce, no gather
                      GridCase{4, 2})); // R=2, C=2: both collectives

TEST(Streaming, SmallReduceSegmentsStreamSlicesBitExactly) {
  // Segment sizes around the slice granularity exercise the per-volume
  // slice streaming into the multiplexed writer.
  const StreamScene s = make_stream_scene(2);
  IfdkOptions reference;
  reference.ranks = 4;
  reference.rows = 2;
  pfs::ParallelFileSystem fs_seq;
  stage_all(fs_seq, s);
  run_sequential(s, fs_seq, reference);

  for (const std::size_t segment : {std::size_t{64}, std::size_t{1000}}) {
    IfdkOptions opts = reference;
    opts.reduce_segment_floats = segment;
    pfs::ParallelFileSystem fs_stream;
    stage_all(fs_stream, s);
    run_streaming(s.g, fs_stream, opts, s.volumes);
    // The reference used the default segment size: the reduce's summation
    // order (ascending rank per element) is segment-independent by design.
    for (std::size_t v = 0; v < s.volumes.size(); ++v) {
      expect_bitwise_equal_volume(fs_seq, fs_stream, s, v,
                                  "segment " + std::to_string(segment));
    }
  }
}

TEST(Streaming, StatsReportThroughputAndBusyWall) {
  const StreamScene s = make_stream_scene(3);
  pfs::ParallelFileSystem fs;
  stage_all(fs, s);
  IfdkOptions opts;
  opts.ranks = 4;
  opts.rows = 2;
  const StreamingStats stats = run_streaming(s.g, fs, opts, s.volumes);
  EXPECT_EQ(stats.volumes, 3);
  EXPECT_GT(stats.wall_total, 0.0);
  EXPECT_GT(stats.volumes_per_second, 0.0);
  EXPECT_NEAR(stats.volumes_per_second, 3.0 / stats.wall_total, 1e-9);
  for (const char* stage : {"load", "filter", "allgather", "backprojection",
                            "transpose", "reduce", "store"}) {
    EXPECT_GT(stats.wall.get(stage), 0.0) << stage;
  }
  for (const char* thread :
       {"main_thread", "bp_thread", "reduce_thread", "store_thread"}) {
    const double eff = stats.overlap_efficiency.get(thread);
    EXPECT_GT(eff, 0.0) << thread;
    EXPECT_LE(eff, 1.0 + 1e-9) << thread;
  }
}

TEST(Streaming, ZeroVolumesIsANoOp) {
  const StreamScene s = make_stream_scene(1);
  pfs::ParallelFileSystem fs;
  IfdkOptions opts;
  opts.ranks = 2;
  opts.rows = 1;
  const StreamingStats stats =
      run_streaming(s.g, fs, opts, std::span<const JobSpec>{});
  EXPECT_EQ(stats.volumes, 0);
  EXPECT_EQ(stats.wall_total, 0.0);
}

TEST(Streaming, RejectsInvalidDecompositions) {
  const StreamScene s = make_stream_scene(1);
  pfs::ParallelFileSystem fs;
  stage_all(fs, s);
  IfdkOptions opts;
  opts.ranks = 3;
  opts.rows = 2;  // 3 % 2 != 0, same contract as run_distributed
  EXPECT_THROW(run_streaming(s.g, fs, opts, s.volumes), ConfigError);
}

// ---- Mixed-geometry streaming ---------------------------------------------

/// A heterogeneous 4D-CT stream: volume v carries its own geometry (set on
/// JobSpec::geometry) and its own moving-phantom projections.
struct MixedScene {
  std::vector<geo::CbctGeometry> geoms;
  std::vector<std::vector<Image2D>> frames;
  std::vector<JobSpec> volumes;
};

MixedScene make_mixed_scene(std::span<const Problem> problems) {
  MixedScene s;
  for (std::size_t v = 0; v < problems.size(); ++v) {
    const double phase =
        static_cast<double>(v) / static_cast<double>(problems.size());
    s.geoms.push_back(geo::make_standard_geometry(problems[v]));
    s.frames.push_back(phantom::project_all(frame_phantom(phase),
                                            s.geoms.back()));
    s.volumes.push_back(JobSpec{"in" + std::to_string(v) + "/",
                                     "out" + std::to_string(v) + "/slice_",
                                     s.geoms.back()});
  }
  return s;
}

void stage_mixed(pfs::ParallelFileSystem& fs, const MixedScene& s) {
  for (std::size_t v = 0; v < s.frames.size(); ++v) {
    stage_projections(fs, s.volumes[v].input_prefix, s.frames[v]);
  }
}

/// The sequential reference: one run_distributed per volume with the
/// volume's own geometry and the same options.
void run_mixed_sequential(const MixedScene& s, pfs::ParallelFileSystem& fs,
                          IfdkOptions options) {
  for (std::size_t v = 0; v < s.volumes.size(); ++v) {
    options.input_prefix = s.volumes[v].input_prefix;
    options.output_prefix = s.volumes[v].output_prefix;
    run_distributed(s.geoms[v], fs, options);
  }
}

void expect_mixed_bitwise_equal(const pfs::ParallelFileSystem& a,
                                const pfs::ParallelFileSystem& b,
                                const MixedScene& s,
                                const std::string& context) {
  for (std::size_t v = 0; v < s.volumes.size(); ++v) {
    const VolDims dims = s.geoms[v].vol_dims();
    const Volume va = load_volume(a, s.volumes[v].output_prefix, dims);
    const Volume vb = load_volume(b, s.volumes[v].output_prefix, dims);
    for (std::size_t n = 0; n < va.voxels(); ++n) {
      ASSERT_EQ(va.data()[n], vb.data()[n])
          << context << ", volume " << v << ", voxel " << n;
    }
  }
}

/// Runs one mixed-geometry sequence streamed-vs-sequential.
void check_mixed_sequence(const MixedScene& s, const IfdkOptions& opts,
                          const std::string& name) {
  pfs::ParallelFileSystem fs_seq;
  stage_mixed(fs_seq, s);
  run_mixed_sequential(s, fs_seq, opts);

  pfs::ParallelFileSystem fs_stream;
  stage_mixed(fs_stream, s);
  // The run geometry argument is a fallback only: every volume carries its
  // own. Pass volume 0's to keep it valid.
  const StreamingStats stats =
      run_streaming(s.geoms[0], fs_stream, opts, s.volumes);
  ASSERT_EQ(stats.plans.size(), s.volumes.size());
  for (const std::string& err : stats.volume_errors) {
    EXPECT_TRUE(err.empty()) << err;
  }
  expect_mixed_bitwise_equal(fs_seq, fs_stream, s, name);
}

TEST(MixedGeometryStreaming, AlternatingSliceCountsMatchSequential) {
  // Sequence 1: Nz alternates 12 / 8 across four frames (same grid, new
  // slab extents every epoch).
  const Problem problems[] = {{{32, 32, 16}, {12, 12, 12}},
                              {{32, 32, 16}, {12, 12, 8}},
                              {{32, 32, 16}, {12, 12, 12}},
                              {{32, 32, 16}, {12, 12, 8}}};
  IfdkOptions opts;
  opts.ranks = 4;
  opts.rows = 2;
  check_mixed_sequence(make_mixed_scene(problems), opts, "alternating Nz");
}

TEST(MixedGeometryStreaming, VaryingProjectionCountsMatchSequential) {
  // Sequence 2: Np alternates 16 / 8 (different round counts per epoch,
  // exercising the per-volume rounds bookkeeping in every pipeline thread).
  const Problem problems[] = {{{32, 32, 16}, {12, 12, 12}},
                              {{32, 32, 8}, {12, 12, 12}},
                              {{32, 32, 16}, {12, 12, 12}}};
  IfdkOptions opts;
  opts.ranks = 4;
  opts.rows = 2;
  check_mixed_sequence(make_mixed_scene(problems), opts, "varying Np");
}

TEST(MixedGeometryStreaming, GridResplitMatchesSequential) {
  // Sequence 3: rows = 0 with a sub-volume budget tuned so the small frames
  // resolve R=1 (1x4 grid) and the large ones R=2 (2x2) — consecutive
  // epochs genuinely re-split the world and ride different communicators.
  const Problem problems[] = {{{32, 32, 16}, {12, 12, 12}},
                              {{32, 32, 16}, {12, 12, 16}},
                              {{32, 32, 16}, {12, 12, 12}},
                              {{32, 32, 16}, {12, 12, 16}}};
  IfdkOptions opts;
  opts.ranks = 4;
  opts.rows = 0;
  opts.microbench.sub_volume_bytes = 8192;  // 12^3 fits once, 12*12*16 twice
  const MixedScene s = make_mixed_scene(problems);
  check_mixed_sequence(s, opts, "grid re-split");

  // The sequence must actually have re-split (guards the tuning above).
  pfs::ParallelFileSystem fs;
  stage_mixed(fs, s);
  const StreamingStats stats = run_streaming(s.geoms[0], fs, opts, s.volumes);
  ASSERT_EQ(stats.plans.size(), 4u);
  EXPECT_EQ(stats.plans[0].grid.rows, 1);
  EXPECT_EQ(stats.plans[0].grid.columns, 4);
  EXPECT_EQ(stats.plans[1].grid.rows, 2);
  EXPECT_EQ(stats.plans[1].grid.columns, 2);
  EXPECT_FALSE(stats.plans[0].same_grid(stats.plans[1]));
}

TEST(MixedGeometryStreaming, ConfigErrorsNameTheOffendingVolume) {
  // A bad frame in a long series must be identifiable from the message
  // alone: the volume index and the offending values are all named.
  const StreamScene good = make_stream_scene(1);
  const auto expect_stream_error =
      [&](const std::vector<JobSpec>& volumes, const IfdkOptions& opts,
          std::initializer_list<const char*> fragments) {
        pfs::ParallelFileSystem fs;
        try {
          run_streaming(good.g, fs, opts, volumes);
          FAIL() << "expected ConfigError";
        } catch (const ConfigError& e) {
          const std::string what = e.what();
          for (const char* fragment : fragments) {
            EXPECT_NE(what.find(fragment), std::string::npos)
                << "message \"" << what << "\" lacks \"" << fragment << "\"";
          }
        }
      };

  IfdkOptions opts;
  opts.ranks = 4;
  opts.rows = 2;

  // Volume 1's Nz is not divisible by 2*rows.
  std::vector<JobSpec> bad_nz = {
      JobSpec{"in0/", "out0/slice_", {}},
      JobSpec{"in1/", "out1/slice_",
                   geo::make_standard_geometry({{32, 32, 16}, {12, 12, 18}})}};
  expect_stream_error(bad_nz, opts, {"volume 1", "Nz (18)", "2*rows (4)"});

  // Volume 2's Np does not divide across the ranks.
  std::vector<JobSpec> bad_np = {
      JobSpec{"in0/", "out0/slice_", {}},
      JobSpec{"in1/", "out1/slice_", {}},
      JobSpec{"in2/", "out2/slice_",
                   geo::make_standard_geometry({{32, 32, 10}, {12, 12, 12}})}};
  expect_stream_error(bad_np, opts, {"volume 2", "Np (10)", "ranks=4"});

  // A ranks/rows mismatch fails on the first volume, by name.
  IfdkOptions bad_ranks = opts;
  bad_ranks.ranks = 3;
  expect_stream_error({JobSpec{"in0/", "out0/slice_", {}}}, bad_ranks,
                      {"volume 0", "ranks (3)", "row count R (2)"});
}

/// PFS wrapper that fails writes whose names carry the given prefix,
/// starting with the Nth such write: the fault lands on exactly one
/// volume's output stream while every other stream stays healthy.
class VolumeWriteFailFs : public pfs::ParallelFileSystem {
 public:
  VolumeWriteFailFs(std::string prefix, int fail_from)
      : prefix_(std::move(prefix)), fail_from_(fail_from) {}

  void write_object(const std::string& name, const void* data,
                    std::size_t bytes) override {
    if (name.rfind(prefix_, 0) == 0 && writes_.fetch_add(1) >= fail_from_) {
      throw IoError("injected PFS write failure: " + name);
    }
    pfs::ParallelFileSystem::write_object(name, data, bytes);
  }

 private:
  std::string prefix_;
  int fail_from_;
  std::atomic<int> writes_{0};
};

TEST(StreamingFailure, WriteErrorFailsOnlyThatVolume) {
  // A writer error on volume 1 must fail volume 1's finish and leave its
  // output incomplete — while volumes 0 and 2 stream through bit-exactly.
  const StreamScene s = make_stream_scene(3);
  IfdkOptions opts;
  opts.ranks = 4;
  opts.rows = 2;
  opts.reduce_segment_floats = 256;  // several segments (and slices) per slab

  pfs::ParallelFileSystem fs_seq;
  stage_all(fs_seq, s);
  run_sequential(s, fs_seq, opts);

  VolumeWriteFailFs fs(s.volumes[1].output_prefix, /*fail_from=*/1);
  stage_all(fs, s);
  const StreamingStats stats = run_streaming(s.g, fs, opts, s.volumes);

  EXPECT_TRUE(stats.volume_errors[0].empty()) << stats.volume_errors[0];
  EXPECT_NE(stats.volume_errors[1].find("injected PFS write failure"),
            std::string::npos)
      << "volume 1 error: \"" << stats.volume_errors[1] << "\"";
  EXPECT_TRUE(stats.volume_errors[2].empty()) << stats.volume_errors[2];

  // Healthy volumes: complete and bitwise-identical to the reference.
  expect_bitwise_equal_volume(fs_seq, fs, s, 0, "write failure on volume 1");
  expect_bitwise_equal_volume(fs_seq, fs, s, 2, "write failure on volume 1");

  // Failed volume: at least one slice must be missing (no torn complete
  // volume may masquerade as a success).
  std::size_t stored = 0;
  for (std::size_t k = 0; k < s.g.nz; ++k) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%06zu", k);
    if (fs.exists(s.volumes[1].output_prefix + buf)) ++stored;
  }
  EXPECT_LT(stored, s.g.nz);
}

/// PFS wrapper that throws on the Nth projection read (across all ranks):
/// the fault hits one rank's load path mid-stream.
class FailingReadFs : public pfs::ParallelFileSystem {
 public:
  explicit FailingReadFs(int fail_at) : fail_at_(fail_at) {}

  void read_object(const std::string& name, void* data,
                   std::size_t bytes) const override {
    if (reads_.fetch_add(1) == fail_at_) {
      throw IoError("injected PFS read failure: " + name);
    }
    pfs::ParallelFileSystem::read_object(name, data, bytes);
  }

 private:
  int fail_at_;
  mutable std::atomic<int> reads_{0};
};

TEST(StreamingFailure, RankAbortMidStreamUnwindsAllEpochs) {
  // A read failure while volume 1 is in flight (volume 0's reduce epochs
  // possibly still outstanding) must abort the world and rethrow — not
  // hang any rank's worker, bp, or reduce thread. The suite's ctest TIMEOUT
  // property is the hang guard. Swept over fault positions early/mid/late
  // in the stream.
  const StreamScene s = make_stream_scene(3);
  const int reads_per_volume = static_cast<int>(s.g.np);
  for (const int fail_at :
       {0, reads_per_volume + 3, 2 * reads_per_volume + 5}) {
    FailingReadFs fs(fail_at);
    stage_all(fs, s);
    IfdkOptions opts;
    opts.ranks = 4;
    opts.rows = 2;
    opts.queue_capacity = 2;  // small queues: exercises blocked producers
    EXPECT_THROW(run_streaming(s.g, fs, opts, s.volumes), Error)
        << "fail_at " << fail_at;
  }
}

TEST(StreamingFailure, ReadFailureSurfacesRootCause) {
  // The rethrown error must be the injected IoError, not a queue-shutdown
  // or world-abort symptom.
  const StreamScene s = make_stream_scene(2);
  FailingReadFs fs(/*fail_at=*/5);
  stage_all(fs, s);
  IfdkOptions opts;
  opts.ranks = 4;
  opts.rows = 2;
  try {
    run_streaming(s.g, fs, opts, s.volumes);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("injected PFS read failure"),
              std::string::npos);
  }
}

TEST(StreamingCompression, CompressedStoreBoundedErrorAndStats) {
  // JobSpec::compress_store stores serialized CompressedVolume slices: the
  // readback must match the raw-store run within half a quantization step,
  // and StreamingStats must record the per-volume PSNR plus a store ratio
  // above 1 (the phantom is RLE-friendly).
  const StreamScene s = make_stream_scene(2);
  IfdkOptions opts;
  opts.ranks = 4;
  opts.rows = 2;

  pfs::ParallelFileSystem fs_raw;
  stage_all(fs_raw, s);
  const StreamingStats raw = run_streaming(s.g, fs_raw, opts, s.volumes);
  for (const std::string& err : raw.volume_errors) {
    EXPECT_TRUE(err.empty()) << err;
  }
  EXPECT_EQ(raw.store_raw_bytes, raw.store_stored_bytes);
  ASSERT_EQ(raw.volume_store_psnr_db.size(), 2u);
  EXPECT_TRUE(std::isinf(raw.volume_store_psnr_db[0]));  // bit-exact store

  std::vector<JobSpec> volumes = s.volumes;
  volumes[1].compress_store = true;
  volumes[1].store_bits = 12;
  pfs::ParallelFileSystem fs_cmp;
  stage_all(fs_cmp, s);
  const StreamingStats cmp = run_streaming(s.g, fs_cmp, opts, volumes);
  for (const std::string& err : cmp.volume_errors) {
    EXPECT_TRUE(err.empty()) << err;
  }

  // Volume 0 stayed raw: still bitwise-identical to the raw run.
  expect_bitwise_equal_volume(fs_raw, fs_cmp, s, 0, "compressed store");

  // Volume 1: quantized, bounded by half a step of each slice's range —
  // the whole-volume range bounds every per-slice range.
  const VolDims dims = s.g.vol_dims();
  const Volume ref = load_volume(fs_raw, s.volumes[1].output_prefix, dims);
  const Volume back = load_volume(fs_cmp, s.volumes[1].output_prefix, dims,
                                  /*compressed_store=*/true);
  float lo = ref.data()[0], hi = ref.data()[0];
  for (std::size_t n = 0; n < ref.voxels(); ++n) {
    lo = std::min(lo, ref.data()[n]);
    hi = std::max(hi, ref.data()[n]);
  }
  const float step = (hi - lo) / static_cast<float>((1u << 12) - 1);
  for (std::size_t n = 0; n < ref.voxels(); ++n) {
    ASSERT_NEAR(ref.data()[n], back.data()[n], 0.5f * step + 1e-7f)
        << "voxel " << n;
  }

  ASSERT_EQ(cmp.volume_store_psnr_db.size(), 2u);
  EXPECT_TRUE(std::isinf(cmp.volume_store_psnr_db[0]));
  EXPECT_TRUE(std::isfinite(cmp.volume_store_psnr_db[1]));
  EXPECT_GT(cmp.volume_store_psnr_db[1], 40.0);  // 12-bit quantization
  EXPECT_LT(cmp.store_stored_bytes, cmp.store_raw_bytes);
  EXPECT_GT(cmp.store_ratio(), 1.0);
}

}  // namespace
}  // namespace ifdk
