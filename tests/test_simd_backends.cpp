// SIMD backend matrix suite for the back-projection column layer: the
// scalar backend is the bitwise reference (it reproduces the historical
// in-line kernel operation for operation), and every vector backend —
// avx2, avx512, neon — must match it BITWISE (memcmp) on every kernel
// variant, every ablation, odd Nz, slab-pair mode, partial-batch/remainder
// lanes, the pooled schedule, the unweighted mode the iterative solvers run
// as their B operator, and the full Shepp-Logan FDK pipeline. Each
// matrix test is parameterized over ifdk::simd::kConcreteBackends and skips
// visibly when a backend is not compiled in or the CPU lacks it. Also
// covers the shared dispatch semantics (auto selection, availability
// listing, explicit-request failure).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "backproj/backprojector.h"
#include "backproj/simd/column_kernel.h"
#include "common/aligned.h"
#include "common/cpu_features.h"
#include "common/error.h"
#include "common/simd_dispatch.h"
#include "common/thread_pool.h"
#include "geometry/cbct.h"
#include "ifdk/fdk.h"
#include "phantom/phantom.h"

namespace ifdk::bp {
namespace {

struct Scene {
  geo::CbctGeometry g;
  std::vector<Image2D> projections;
};

Scene make_scene(std::size_t nu, std::size_t np, std::size_t n,
                 std::size_t nz) {
  Scene s{geo::make_standard_geometry({{nu, nu, np}, {n, n, nz}}), {}};
  s.projections = phantom::project_all(phantom::shepp_logan(), s.g);
  return s;
}

/// ULP distance between two floats — reported on bitwise-mismatch failures
/// so a near-miss (rounding seam) is distinguishable from a gross bug.
std::int64_t ulp_distance(float a, float b) {
  if (a == b) return 0;
  if (std::isnan(a) || std::isnan(b)) {
    return std::numeric_limits<std::int64_t>::max();
  }
  auto key = [](float x) {
    std::int32_t i;
    std::memcpy(&i, &x, sizeof(i));
    // Map the sign-magnitude float ordering onto a monotonic integer line.
    return i < 0 ? std::int64_t{std::numeric_limits<std::int32_t>::min()} - i
                 : std::int64_t{i};
  };
  return std::abs(key(a) - key(b));
}

/// The backend contract: volumes must be memcmp-identical, not merely close.
::testing::AssertionResult bitwise_equal(const Volume& a, const Volume& b) {
  if (a.voxels() != b.voxels()) {
    return ::testing::AssertionFailure()
           << "voxel counts differ: " << a.voxels() << " vs " << b.voxels();
  }
  if (std::memcmp(a.data(), b.data(), a.voxels() * sizeof(float)) == 0) {
    return ::testing::AssertionSuccess();
  }
  for (std::size_t n = 0; n < a.voxels(); ++n) {
    if (std::memcmp(&a.data()[n], &b.data()[n], sizeof(float)) != 0) {
      return ::testing::AssertionFailure()
             << "first mismatch at voxel " << n << ": " << a.data()[n]
             << " vs " << b.data()[n] << " ("
             << ulp_distance(a.data()[n], b.data()[n]) << " ULP)";
    }
  }
  return ::testing::AssertionFailure() << "memcmp mismatch not located";
}

Volume run(const Scene& s, BpConfig cfg) {
  const std::size_t nzl = cfg.slab_mode() ? 2 * cfg.k_half : s.g.nz;
  Volume vol(s.g.nx, s.g.ny, nzl, cfg.layout);
  const auto mats = geo::make_all_projection_matrices(s.g);
  Backprojector(s.g, cfg).accumulate(vol, s.projections, mats);
  return vol;
}

// ---------------------------------------------------------------------------
// Dispatch semantics (shared registry: common/simd_dispatch)
// ---------------------------------------------------------------------------

TEST(SimdDispatch, ScalarAlwaysAvailable) {
  EXPECT_STREQ(simd::scalar_kernel().name, "scalar");
  EXPECT_EQ(&simd::select(simd::Backend::kScalar), &simd::scalar_kernel());
  EXPECT_TRUE(simd::compiled(simd::Backend::kScalar));
  EXPECT_TRUE(simd::supported(simd::Backend::kScalar));
}

TEST(SimdDispatch, AutoSelectsWidestSupportedBackend) {
  const char* expected = "scalar";
  for (const simd::Backend b : ifdk::simd::kConcreteBackends) {
    if (simd::supported(b)) {
      expected = simd::to_string(b);
      break;
    }
  }
  EXPECT_STREQ(simd::select(simd::Backend::kAuto).name, expected);
}

TEST(SimdDispatch, SupportImpliesCompiledAndCpu) {
  const CpuFeatures& cpu = cpu_features();
  if (simd::supported(simd::Backend::kAvx2)) {
    EXPECT_TRUE(simd::compiled(simd::Backend::kAvx2));
    EXPECT_TRUE(cpu.avx2);
    EXPECT_TRUE(cpu.fma);
  }
  if (simd::supported(simd::Backend::kAvx512)) {
    EXPECT_TRUE(simd::compiled(simd::Backend::kAvx512));
    EXPECT_TRUE(cpu.avx512f);
    EXPECT_TRUE(cpu.avx512dq);
    EXPECT_TRUE(cpu.avx512vl);
  }
  if (simd::supported(simd::Backend::kNeon)) {
    EXPECT_TRUE(simd::compiled(simd::Backend::kNeon));
    EXPECT_TRUE(cpu.neon);
  }
}

TEST(SimdDispatch, ListBackendsCoversConcreteMatrix) {
  const auto info = ifdk::simd::list_backends();
  ASSERT_EQ(info.size(), std::size(ifdk::simd::kConcreteBackends));
  for (std::size_t i = 0; i < info.size(); ++i) {
    EXPECT_EQ(info[i].backend, ifdk::simd::kConcreteBackends[i]);
    EXPECT_EQ(info[i].compiled, simd::compiled(info[i].backend));
    EXPECT_EQ(info[i].supported, simd::supported(info[i].backend));
    // supported => compiled, always.
    EXPECT_TRUE(!info[i].supported || info[i].compiled);
  }
}

TEST(SimdDispatch, ExplicitRequestThrowsExactlyWhenUnsupported) {
  const Scene s = make_scene(32, 4, 8, 8);
  for (const simd::Backend b : ifdk::simd::kConcreteBackends) {
    BpConfig cfg;
    cfg.simd_backend = b;
    if (simd::supported(b)) {
      EXPECT_NO_THROW(Backprojector(s.g, cfg)) << simd::to_string(b);
    } else {
      EXPECT_THROW(Backprojector(s.g, cfg), ConfigError) << simd::to_string(b);
    }
  }
}

TEST(SimdDispatch, BackendNameReportsResolvedKernel) {
  const Scene s = make_scene(32, 4, 8, 8);
  BpConfig scalar;
  scalar.simd_backend = simd::Backend::kScalar;
  EXPECT_STREQ(Backprojector(s.g, scalar).backend_name(), "scalar");
  BpConfig automatic;
  EXPECT_STREQ(Backprojector(s.g, automatic).backend_name(),
               simd::select(simd::Backend::kAuto).name);
}

TEST(SimdDispatch, ToStringCoversAllBackends) {
  EXPECT_STREQ(simd::to_string(simd::Backend::kAuto), "auto");
  EXPECT_STREQ(simd::to_string(simd::Backend::kScalar), "scalar");
  EXPECT_STREQ(simd::to_string(simd::Backend::kAvx2), "avx2");
  EXPECT_STREQ(simd::to_string(simd::Backend::kAvx512), "avx512");
  EXPECT_STREQ(simd::to_string(simd::Backend::kNeon), "neon");
}

// ---------------------------------------------------------------------------
// Data alignment pins (the vector backends' load/store contract)
// ---------------------------------------------------------------------------

TEST(Alignment, VolumeAndProjectionDataAreCacheLineAligned) {
  // Both layers' hot buffers come from AlignedBuffer: 64-byte alignment
  // covers a full __m512 and keeps columns cache-line clean.
  static_assert(kCacheLineBytes == 64);
  Volume vol(8, 8, 8, VolumeLayout::kZMajor);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(vol.data()) % 64, 0u);
  Image2D img(33, 7, /*zero_fill=*/false);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(img.data()) % 64, 0u);
  AlignedBuffer<float> buf(3);  // odd sizes still round up to a full line
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % 64, 0u);
}

// ---------------------------------------------------------------------------
// Backend equivalence matrix: every vector backend vs the scalar reference
// ---------------------------------------------------------------------------

class BackendMatrix : public ::testing::TestWithParam<simd::Backend> {
 protected:
  void SetUp() override {
    if (!simd::supported(GetParam())) {
      GTEST_SKIP() << simd::to_string(GetParam())
                   << " backend not available on this build/CPU";
    }
  }

  simd::Backend backend() const { return GetParam(); }
};

std::string backend_name(
    const ::testing::TestParamInfo<simd::Backend>& info) {
  return simd::to_string(info.param);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendMatrix,
                         ::testing::ValuesIn(ifdk::simd::kConcreteBackends),
                         backend_name);

TEST_P(BackendMatrix, MatchesScalarOnEveryKernelVariant) {
  const Scene s = make_scene(48, 16, 16, 16);
  for (const KernelVariant variant :
       {KernelVariant::kRtk32, KernelVariant::kBpTex, KernelVariant::kTexTran,
        KernelVariant::kBpL1, KernelVariant::kL1Tran}) {
    BpConfig scalar = config_for(variant);
    scalar.simd_backend = simd::Backend::kScalar;
    BpConfig vec = config_for(variant);
    vec.simd_backend = backend();
    // The standard Algorithm-2 (kXMajor) kernel has no SIMD column path, so
    // there the two configurations trivially agree; the Z-major variants
    // exercise the real vector loop. Either way: bitwise.
    EXPECT_TRUE(bitwise_equal(run(s, scalar), run(s, vec)))
        << to_string(variant);
  }
}

TEST_P(BackendMatrix, MatchesScalarOnEveryAblation) {
  const Scene s = make_scene(48, 12, 12, 14);
  for (int bits = 0; bits < 8; ++bits) {
    BpConfig cfg;
    cfg.symmetry = (bits & 1) != 0;
    cfg.reuse_uw = (bits & 2) != 0;
    cfg.transpose_projections = (bits & 4) != 0;
    BpConfig scalar = cfg;
    scalar.simd_backend = simd::Backend::kScalar;
    BpConfig vec = cfg;
    vec.simd_backend = backend();
    EXPECT_TRUE(bitwise_equal(run(s, scalar), run(s, vec)))
        << "symmetry=" << cfg.symmetry << " reuse_uw=" << cfg.reuse_uw
        << " transpose=" << cfg.transpose_projections;
  }
}

TEST_P(BackendMatrix, OddNzCenterPlane) {
  const Scene s = make_scene(48, 12, 12, 15);
  BpConfig scalar;
  scalar.simd_backend = simd::Backend::kScalar;
  BpConfig vec;
  vec.simd_backend = backend();
  EXPECT_TRUE(bitwise_equal(run(s, scalar), run(s, vec)));
}

TEST_P(BackendMatrix, RemainderLanes) {
  // Column depths chosen so the pair-iteration count t_end = nz/2 sweeps
  // every remainder shape: shorter than any vector width (nz 6), a partial
  // block for every width (nz 10, 15), one lane past the 16-wide block
  // (nz 34 -> t_end 17, the avx512 single-active-lane mask), and that plus
  // the odd center plane (nz 35).
  for (const std::size_t nz :
       {std::size_t{6}, std::size_t{10}, std::size_t{15}, std::size_t{34},
        std::size_t{35}}) {
    const Scene s = make_scene(32, 6, 8, nz);
    BpConfig scalar;
    scalar.simd_backend = simd::Backend::kScalar;
    BpConfig vec;
    vec.simd_backend = backend();
    EXPECT_TRUE(bitwise_equal(run(s, scalar), run(s, vec))) << "nz " << nz;
  }
}

TEST_P(BackendMatrix, SlabPairMode) {
  const Scene s = make_scene(48, 12, 12, 16);
  BpConfig scalar;
  scalar.k_begin = 2;
  scalar.k_half = 3;
  scalar.simd_backend = simd::Backend::kScalar;
  BpConfig vec = scalar;
  vec.simd_backend = backend();
  EXPECT_TRUE(bitwise_equal(run(s, scalar), run(s, vec)));
}

TEST_P(BackendMatrix, PooledMatchesSerialScalar) {
  // The pooled schedule shifts the vector chunk boundaries (each task
  // restarts its k loop at its own t_begin), so this exercises lane/tail
  // seams at every slab edge.
  const Scene s = make_scene(48, 12, 12, 16);
  ThreadPool pool(4);
  BpConfig scalar;
  scalar.simd_backend = simd::Backend::kScalar;
  BpConfig pooled;
  pooled.simd_backend = backend();
  pooled.pool = &pool;
  EXPECT_TRUE(bitwise_equal(run(s, scalar), run(s, pooled)));
}

TEST_P(BackendMatrix, PooledOddNzMatchesSerialScalar) {
  const Scene s = make_scene(48, 8, 12, 15);
  ThreadPool pool(4);
  BpConfig scalar;
  scalar.simd_backend = simd::Backend::kScalar;
  BpConfig pooled;
  pooled.simd_backend = backend();
  pooled.pool = &pool;
  EXPECT_TRUE(bitwise_equal(run(s, scalar), run(s, pooled)));
}

TEST_P(BackendMatrix, PooledSlabPairMatchesSerialScalar) {
  const Scene s = make_scene(48, 8, 12, 16);
  ThreadPool pool(4);
  BpConfig scalar;
  scalar.k_begin = 1;
  scalar.k_half = 4;
  scalar.simd_backend = simd::Backend::kScalar;
  BpConfig pooled = scalar;
  pooled.simd_backend = backend();
  pooled.pool = &pool;
  EXPECT_TRUE(bitwise_equal(run(s, scalar), run(s, pooled)));
}

TEST_P(BackendMatrix, BatchBoundariesPreserved) {
  // Batch size changes the per-voxel accumulation grouping identically in
  // both backends, so each batch size must agree across backends.
  const Scene s = make_scene(48, 12, 10, 12);
  for (const std::size_t batch : {std::size_t{1}, std::size_t{5}}) {
    BpConfig scalar;
    scalar.batch = batch;
    scalar.simd_backend = simd::Backend::kScalar;
    BpConfig vec = scalar;
    vec.simd_backend = backend();
    EXPECT_TRUE(bitwise_equal(run(s, scalar), run(s, vec)))
        << "batch " << batch;
  }
}

TEST_P(BackendMatrix, UnweightedMatchesScalar) {
  // distance_weight = false (the iterative solvers' B operator) on a full
  // even volume, an odd-Nz one (center plane), and the remainder shapes of
  // RemainderLanes. A single view per call, as the solvers make them.
  struct Shape {
    std::size_t nu, np, n, nz;
  };
  for (const Shape shape : {Shape{48, 12, 16, 16}, Shape{48, 12, 12, 15},
                            Shape{32, 6, 8, 10}, Shape{32, 6, 8, 34},
                            Shape{32, 6, 8, 35}}) {
    const Scene s = make_scene(shape.nu, shape.np, shape.n, shape.nz);
    BpConfig scalar;
    scalar.distance_weight = false;
    scalar.simd_backend = simd::Backend::kScalar;
    BpConfig vec = scalar;
    vec.simd_backend = backend();
    const auto mats = geo::make_all_projection_matrices(s.g);
    Volume a(s.g.nx, s.g.ny, s.g.nz, VolumeLayout::kZMajor);
    Volume b(s.g.nx, s.g.ny, s.g.nz, VolumeLayout::kZMajor);
    const Backprojector ka(s.g, scalar);
    const Backprojector kb(s.g, vec);
    for (std::size_t v = 0; v < mats.size(); ++v) {
      ka.accumulate(a, std::span(&s.projections[v], 1),
                    std::span(&mats[v], 1));
      kb.accumulate(b, std::span(&s.projections[v], 1),
                    std::span(&mats[v], 1));
    }
    EXPECT_TRUE(bitwise_equal(a, b)) << "nz " << shape.nz;
  }
}

TEST_P(BackendMatrix, FullSheppLoganFdkMatchesScalar) {
  // End-to-end: filter + back-projection with BOTH layers forced to the
  // same backend must reproduce the all-scalar pipeline bitwise on a full
  // Shepp-Logan reconstruction (odd Nz keeps the center plane in play).
  const Scene s = make_scene(48, 12, 16, 15);
  FdkOptions scalar;
  scalar.filter.fft_backend = simd::Backend::kScalar;
  scalar.backprojection.simd_backend = simd::Backend::kScalar;
  FdkOptions vec;
  vec.filter.fft_backend = backend();
  vec.backprojection.simd_backend = backend();
  const Volume a =
      reconstruct_fdk(s.g, s.projections, scalar).volume;
  const Volume b = reconstruct_fdk(s.g, s.projections, vec).volume;
  EXPECT_TRUE(bitwise_equal(a, b));
}

TEST(BackendConfig, UnweightedRequiresHoistedZMajorKernel) {
  // The weight is dropped in the per-column hoist, so the unweighted mode
  // exists only where that hoist does: reuse_uw on the kZMajor kernel.
  const auto g = geo::make_standard_geometry({{32, 32, 4}, {8, 8, 8}});
  BpConfig no_hoist;
  no_hoist.distance_weight = false;
  no_hoist.reuse_uw = false;
  BpConfig standard = config_for(KernelVariant::kRtk32);
  standard.distance_weight = false;
  for (const BpConfig& cfg : {no_hoist, standard}) {
    try {
      Backprojector bp(g, cfg);
      ADD_FAILURE() << "accepted distance_weight = false";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("distance_weight"),
                std::string::npos)
          << e.what();
    }
  }
  BpConfig ok;
  ok.distance_weight = false;
  EXPECT_NO_THROW(Backprojector(g, ok));
}

TEST(BackendEquivalence, PooledScalarIsBitwiseSerialScalar) {
  const Scene s = make_scene(48, 12, 12, 16);
  ThreadPool pool(4);
  BpConfig serial;
  serial.simd_backend = simd::Backend::kScalar;
  BpConfig pooled = serial;
  pooled.pool = &pool;
  EXPECT_TRUE(bitwise_equal(run(s, serial), run(s, pooled)));
}

}  // namespace
}  // namespace ifdk::bp
