// Cross-module property-based tests: invariants that must hold over swept
// parameter spaces rather than single examples.
//
//   * geometry fuzz: Theorems 1-3 hold for random valid geometries,
//   * FDK linearity and rotation equivariance,
//   * distributed == single-node over a (grid x Np) sweep,
//   * simulator monotonicity/consistency over GPU counts and problem sizes,
//   * compression ratio monotone in quantization depth.
#include <gtest/gtest.h>

#include <cmath>

#include "cluster/simulator.h"
#include "common/math_util.h"
#include "common/rng.h"
#include "geometry/cbct.h"
#include "ifdk/fdk.h"
#include "ifdk/framework.h"
#include "iterative/iterative.h"
#include "phantom/phantom.h"
#include "postproc/compression.h"

namespace ifdk {
namespace {

// ---------------------------------------------------------------------------
// Geometry fuzz
// ---------------------------------------------------------------------------

geo::CbctGeometry random_geometry(Rng& rng) {
  geo::CbctGeometry g;
  g.nu = 32 + rng.next_below(64);
  g.nv = 32 + rng.next_below(64);
  g.np = 8 + rng.next_below(56);
  g.du = rng.next_float(0.5f, 2.0f);
  g.dv = rng.next_float(0.5f, 2.0f);
  g.nx = 8 + rng.next_below(40);
  g.ny = 8 + rng.next_below(40);
  g.nz = 8 + rng.next_below(40);
  g.d = rng.next_float(200.0f, 800.0f);
  g.D = g.d * rng.next_float(1.2f, 2.5f);
  // Fit the voxels so validate() passes (same formula as the factory).
  const double half_u = 0.5 * static_cast<double>(g.nu) * g.du;
  const double half_v = 0.5 * static_cast<double>(g.nv) * g.dv;
  const double target = 0.9 * half_u;
  const double r_xy = target * g.d / (g.D + target);
  const double diag = std::sqrt(static_cast<double>(g.nx * g.nx) +
                                static_cast<double>(g.ny * g.ny)) / 2.0;
  g.dx = g.dy = r_xy / diag;
  const double mag = g.D / (g.d - r_xy);
  g.dz = 0.9 * half_v / mag * 2.0 / static_cast<double>(g.nz);
  return g;
}

TEST(GeometryFuzz, TheoremsHoldForRandomGeometries) {
  Rng rng(2026);
  for (int trial = 0; trial < 25; ++trial) {
    const geo::CbctGeometry g = random_geometry(rng);
    ASSERT_NO_THROW(g.validate()) << "trial " << trial;
    for (int sample = 0; sample < 8; ++sample) {
      const double beta = rng.next_double() * 2.0 * kPi;
      const geo::Mat34 p = geo::make_projection_matrix(g, beta);
      const double i = rng.next_double() * static_cast<double>(g.nx - 1);
      const double j = rng.next_double() * static_cast<double>(g.ny - 1);
      const double k = rng.next_double() * static_cast<double>(g.nz - 1);

      // Theorem 1: mirrored voxels share u, and their v's sum to Nv-1.
      const auto a = geo::project_voxel(p, i, j, k);
      const auto b = geo::project_voxel(
          p, i, j, static_cast<double>(g.nz) - 1.0 - k);
      EXPECT_NEAR(a.u, b.u, 1e-8);
      EXPECT_NEAR(a.v + b.v, static_cast<double>(g.nv) - 1.0, 1e-8);

      // Theorem 3: closed-form depth, independent of k.
      EXPECT_NEAR(a.z, geo::theorem3_depth(g, beta, i, j), 1e-8);
      EXPECT_NEAR(a.z, b.z, 1e-8);
    }
  }
}

TEST(GeometryFuzz, ProjectionMatrixAgreesWithWorldRays) {
  Rng rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    const geo::CbctGeometry g = random_geometry(rng);
    const double beta = rng.next_double() * 2.0 * kPi;
    const geo::Mat34 p = geo::make_projection_matrix(g, beta);
    const double i = rng.next_double() * static_cast<double>(g.nx - 1);
    const double j = rng.next_double() * static_cast<double>(g.ny - 1);
    const double k = rng.next_double() * static_cast<double>(g.nz - 1);
    const auto pt = geo::project_voxel(p, i, j, k);
    const geo::Vec3 src = geo::source_position(g, beta);
    const geo::Vec3 vox = geo::voxel_world_position(g, i, j, k);
    const geo::Vec3 pix = geo::detector_pixel_position(g, beta, pt.u, pt.v);
    EXPECT_NEAR((vox - src).normalized().dot((pix - src).normalized()), 1.0,
                1e-9);
  }
}

// ---------------------------------------------------------------------------
// FDK operator properties
// ---------------------------------------------------------------------------

TEST(FdkProperties, ReconstructionIsLinear) {
  // FDK(a*p1 + b*p2) == a*FDK(p1) + b*FDK(p2): every stage (weighting,
  // convolution, back-projection) is linear in the projection data.
  const auto g = geo::make_standard_geometry({{48, 48, 24}, {16, 16, 16}});
  const auto p1 = phantom::project_all(phantom::shepp_logan(), g);
  const auto p2 = phantom::project_all(phantom::industrial_part(), g);

  std::vector<Image2D> combo;
  for (std::size_t s = 0; s < g.np; ++s) {
    Image2D img(g.nu, g.nv, false);
    for (std::size_t n = 0; n < img.pixels(); ++n) {
      img.data()[n] = 2.0f * p1[s].data()[n] - 0.5f * p2[s].data()[n];
    }
    combo.push_back(std::move(img));
  }

  const Volume v1 = reconstruct_fdk(g, p1).volume;
  const Volume v2 = reconstruct_fdk(g, p2).volume;
  const Volume vc = reconstruct_fdk(g, combo).volume;

  double peak = 0;
  for (std::size_t n = 0; n < vc.voxels(); ++n) {
    peak = std::max(peak, std::abs(static_cast<double>(vc.data()[n])));
  }
  for (std::size_t n = 0; n < vc.voxels(); ++n) {
    const double expected = 2.0 * v1.data()[n] - 0.5 * v2.data()[n];
    EXPECT_NEAR(vc.data()[n], expected, 2e-4 * peak + 1e-5) << n;
  }
}

TEST(FdkProperties, ZeroProjectionsGiveZeroVolume) {
  const auto g = geo::make_standard_geometry({{32, 32, 8}, {12, 12, 12}});
  std::vector<Image2D> zeros;
  for (std::size_t s = 0; s < g.np; ++s) zeros.emplace_back(g.nu, g.nv);
  const Volume v = reconstruct_fdk(g, zeros).volume;
  for (std::size_t n = 0; n < v.voxels(); ++n) {
    EXPECT_EQ(v.data()[n], 0.0f);
  }
}

TEST(FdkProperties, RotationEquivariance) {
  // Rotating the phantom by one angular step equals shifting the projection
  // assignment by one view (up to interpolation differences): the volume
  // reconstructed from views [1..Np, 0] of the original phantom matches the
  // volume of the phantom rotated by -theta.
  const auto g = geo::make_standard_geometry({{48, 48, 16}, {16, 16, 16}});
  auto phan = phantom::shepp_logan();
  const auto straight = phantom::project_all(phan, g);

  // Rotate every ellipsoid by +theta about Z.
  auto rotated = phan;
  for (auto& e : rotated.ellipsoids) {
    const double c = std::cos(g.theta());
    const double s = std::sin(g.theta());
    const geo::Vec3 ctr = e.center;
    e.center = {ctr.x * c - ctr.y * s, ctr.x * s + ctr.y * c, ctr.z};
    e.phi += g.theta();
  }
  const auto rotated_projs = phantom::project_all(rotated, g);
  // Rotating the object by +theta is equivalent to advancing the gantry by
  // +theta: view s of the rotated phantom equals view s+1 of the original,
  // to projector accuracy.
  double err = 0, peak = 0;
  for (std::size_t s = 0; s + 1 < g.np; ++s) {
    for (std::size_t n = 0; n < straight[s].pixels(); ++n) {
      const double d = rotated_projs[s].data()[n] - straight[s + 1].data()[n];
      err += d * d;
      peak = std::max(peak,
                      std::abs(static_cast<double>(straight[s].data()[n])));
    }
  }
  err = std::sqrt(err / static_cast<double>((g.np - 1) * g.nu * g.nv));
  EXPECT_LT(err / peak, 1e-6);
}

// ---------------------------------------------------------------------------
// Distributed sweep
// ---------------------------------------------------------------------------

struct GridCase {
  int ranks;
  int rows;
  std::size_t np;
};

class DistributedSweep : public ::testing::TestWithParam<GridCase> {};

TEST_P(DistributedSweep, MatchesSingleNode) {
  const GridCase c = GetParam();
  const auto g =
      geo::make_standard_geometry({{48, 48, c.np}, {12, 12, 12}});
  const auto projections = phantom::project_all(phantom::shepp_logan(), g);
  const Volume reference = reconstruct_fdk(g, projections).volume;

  pfs::ParallelFileSystem fs;
  stage_projections(fs, "proj/", projections);
  IfdkOptions opts;
  opts.ranks = c.ranks;
  opts.rows = c.rows;
  run_distributed(g, fs, opts);
  const Volume result = load_volume(fs, "vol/slice_", g.vol_dims());

  double err = 0, peak = 0;
  for (std::size_t n = 0; n < result.voxels(); ++n) {
    const double d = result.data()[n] - reference.data()[n];
    err += d * d;
    peak = std::max(peak, std::abs(static_cast<double>(reference.data()[n])));
  }
  EXPECT_LT(std::sqrt(err / static_cast<double>(result.voxels())) / peak,
            1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    GridsTimesViews, DistributedSweep,
    ::testing::Values(GridCase{4, 2, 16}, GridCase{6, 2, 24},
                      GridCase{6, 6, 12}, GridCase{9, 3, 18},
                      GridCase{8, 2, 32}));

// ---------------------------------------------------------------------------
// Simulator sweeps
// ---------------------------------------------------------------------------

TEST(SimulatorProperties, ComputeMonotoneInGpusForAllOutputs) {
  for (std::size_t n : {2048u, 4096u, 8192u}) {
    const Problem p{{2048, 2048, 4096}, {n, n, n}};
    const int r = perfmodel::select_rows(p);
    double prev = 1e30;
    for (int gpus = r; gpus <= 2048; gpus *= 2) {
      const double t = cluster::simulate(p, gpus).t_compute;
      EXPECT_LT(t, prev) << n << "^3 @ " << gpus;
      prev = t;
    }
  }
}

TEST(SimulatorProperties, RuntimeScalesWithProjectionCount) {
  for (std::size_t np : {1024u, 2048u, 4096u, 8192u}) {
    const Problem small{{2048, 2048, np}, {4096, 4096, 4096}};
    const Problem big{{2048, 2048, 2 * np}, {4096, 4096, 4096}};
    EXPECT_LT(cluster::simulate(small, 256).t_compute,
              cluster::simulate(big, 256).t_compute)
        << np;
  }
}

TEST(SimulatorProperties, StageTotalsConsistentWithRates) {
  // t_bp total equals rounds * per-round cost by construction; check the
  // exposed totals satisfy the Table-5 identity delta * Tcompute = sums.
  for (int gpus : {64, 256, 1024}) {
    const Problem p{{2048, 2048, 4096}, {4096, 4096, 4096}};
    const auto sim = cluster::simulate(p, gpus);
    EXPECT_NEAR(sim.delta * sim.t_compute,
                sim.t_flt + sim.t_allgather + sim.t_bp,
                1e-9 * sim.t_compute);
  }
}

// ---------------------------------------------------------------------------
// Compression sweep
// ---------------------------------------------------------------------------

TEST(CompressionProperties, RatioMonotoneInBitsOnSmoothData) {
  const auto g = geo::make_standard_geometry({{48, 48, 8}, {20, 20, 20}});
  const Volume vol = phantom::voxelize(phantom::shepp_logan(), g);
  double prev_ratio = 0;
  double prev_psnr = 0;
  for (int bits : {16, 12, 10, 8}) {  // decreasing depth
    const auto c = postproc::compress(vol, bits);
    const double p = postproc::psnr_db(vol, postproc::decompress(c));
    EXPECT_GE(c.ratio(), prev_ratio) << bits;  // coarser -> longer runs
    if (prev_psnr > 0) {
      EXPECT_LT(p, prev_psnr) << bits;  // and lower fidelity
    }
    prev_ratio = c.ratio();
    prev_psnr = p;
  }
}

// ---------------------------------------------------------------------------
// ART regression
// ---------------------------------------------------------------------------

TEST(ArtProperties, ArtConvergesLikeFineGrainedSart) {
  const auto g = geo::make_standard_geometry({{40, 40, 18}, {14, 14, 14}});
  const auto phan = phantom::shepp_logan();
  const auto projections = phantom::project_all(phan, g);
  const Volume truth = phantom::voxelize(phan, g);

  iterative::IterOptions opts;
  opts.iterations = 4;
  opts.lambda = 0.5;
  const Volume recon = iterative::art(g, projections, opts);
  Volume zero(g.nx, g.ny, g.nz);
  EXPECT_LT(rmse(recon.data(), truth.data(), truth.voxels()),
            rmse(zero.data(), truth.data(), truth.voxels()));
  const double resid = iterative::residual_rmse(g, recon, projections);
  const double base = iterative::residual_rmse(g, zero, projections);
  EXPECT_LT(resid, 0.5 * base);
}


// ---------------------------------------------------------------------------
// Precision (paper §5.2: "we do not sacrifice the quality by using lower
// precision" — check that 16-bit detector quantization of the *input* also
// leaves the reconstruction essentially unchanged, which is why scanners
// shipping uint16 frames are compatible with the float pipeline)
// ---------------------------------------------------------------------------

TEST(PrecisionProperties, U16InputQuantizationIsHarmless) {
  const auto g = geo::make_standard_geometry({{48, 48, 24}, {16, 16, 16}});
  const auto phan = phantom::shepp_logan();
  const auto clean = phantom::project_all(phan, g);

  float full_scale = 0;
  for (const auto& p : clean) {
    for (std::size_t n = 0; n < p.pixels(); ++n) {
      full_scale = std::max(full_scale, p.data()[n]);
    }
  }
  // Simulate the detector's 16-bit quantization in memory.
  std::vector<Image2D> quantized;
  const float step = full_scale / 65535.0f;
  for (const auto& p : clean) {
    Image2D q(p.width(), p.height(), false);
    for (std::size_t n = 0; n < p.pixels(); ++n) {
      q.data()[n] =
          std::round(p.data()[n] / step) * step;
    }
    quantized.push_back(std::move(q));
  }

  const Volume a = reconstruct_fdk(g, clean).volume;
  const Volume b = reconstruct_fdk(g, quantized).volume;
  double peak = 0;
  for (std::size_t n = 0; n < a.voxels(); ++n) {
    peak = std::max(peak, std::abs(static_cast<double>(a.data()[n])));
  }
  EXPECT_LT(rmse(a.data(), b.data(), a.voxels()) / peak, 1e-4);
}

}  // namespace
}  // namespace ifdk
