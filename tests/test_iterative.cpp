// Iterative solver tests: the B operator (the unweighted Algorithm-4
// kernel, against the serial loop the solvers used before it), and
// SART/OS-SART/MLEM convergence on the Shepp-Logan phantom (monotone
// residual decrease, MLEM positivity, input validation) through
// run_iterative on one rank.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/math_util.h"
#include "ifdk/framework.h"
#include "iterative/distributed.h"
#include "iterative/iterative.h"
#include "iterative_oracle.h"
#include "phantom/phantom.h"

namespace ifdk::iterative {
namespace {

struct Scene {
  geo::CbctGeometry g;
  std::vector<Image2D> projections;
  Volume truth;
};

Scene make_scene(std::size_t nu = 48, std::size_t np = 36,
                 std::size_t n = 24) {
  Scene s{geo::make_standard_geometry({{nu, nu, np}, {n, n, n}}), {}, {}};
  const auto phan = phantom::shepp_logan();
  s.projections = phantom::project_all(phan, s.g);
  s.truth = phantom::voxelize(phan, s.g);
  return s;
}

/// Solves on a one-rank world: stages `projections` on an in-memory PFS,
/// runs the solver, and loads the volume it stored.
Volume solve(const geo::CbctGeometry& g, std::span<const Image2D> projections,
             const IterParams& params, IterStats* stats = nullptr) {
  pfs::ParallelFileSystem fs;
  stage_projections(fs, "in/", projections);
  JobSpec job{"in/", "out/slice_"};
  job.workload = WorkloadKind::kIterative;
  job.iterative = params;
  IfdkOptions options;
  options.ranks = 1;
  options.rows = 1;
  const IterStats st = run_iterative(g, fs, options, job);
  if (stats != nullptr) *stats = st;
  return load_volume(fs, job.output_prefix, g.vol_dims());
}

double volume_rmse(const Volume& a, const Volume& b) {
  return rmse(a.data(), b.data(), a.voxels());
}

/// RMSE inside the normalized radius-0.5 sphere: excludes the skull's
/// density step, where voxelization error dominates every reconstruction
/// method (the same mask the FDK quality tests use).
double interior_rmse(const Volume& a, const Volume& b) {
  const double c = (static_cast<double>(a.nx()) - 1.0) / 2.0;
  const double half = static_cast<double>(a.nx()) / 2.0;
  double acc = 0;
  std::size_t count = 0;
  for (std::size_t k = 0; k < a.nz(); ++k) {
    for (std::size_t j = 0; j < a.ny(); ++j) {
      for (std::size_t i = 0; i < a.nx(); ++i) {
        const double r = std::sqrt((i - c) * (i - c) + (j - c) * (j - c) +
                                   (k - c) * (k - c)) /
                         half;
        if (r < 0.5) {
          const double d = a.at(i, j, k) - b.at(i, j, k);
          acc += d * d;
          ++count;
        }
      }
    }
  }
  return std::sqrt(acc / static_cast<double>(count));
}

TEST(UnweightedBackprojection, SingleHotPixelSpreadsAlongRay) {
  const auto g = geo::make_standard_geometry({{32, 32, 4}, {16, 16, 16}});
  Image2D view(32, 32);
  view.at(15, 15) = 1.0f;  // near the detector center
  Volume vol(16, 16, 16, VolumeLayout::kZMajor);
  backproject_unweighted(g, view, 0.0, vol);
  // The center voxel column along the central ray receives weight; corners
  // see nothing.
  double total = 0;
  for (std::size_t n = 0; n < vol.voxels(); ++n) total += vol.data()[n];
  EXPECT_GT(total, 0);
  EXPECT_EQ(vol.at(0, 0, 0), 0.0f);
  EXPECT_EQ(vol.at(15, 15, 15), 0.0f);
  // The ray at beta=0 runs along +Y through the volume center.
  EXPECT_GT(vol.at(7, 7, 7) + vol.at(8, 8, 8) + vol.at(7, 8, 7), 0.0f);
}

TEST(UnweightedBackprojection, AccumulatesAcrossViews) {
  const auto g = geo::make_standard_geometry({{32, 32, 4}, {12, 12, 12}});
  Image2D ones(32, 32, false);
  ones.fill(1.0f);
  Volume once(12, 12, 12, VolumeLayout::kZMajor);
  backproject_unweighted(g, ones, 0.0, once);
  Volume twice(12, 12, 12, VolumeLayout::kZMajor);
  backproject_unweighted(g, ones, 0.0, twice);
  backproject_unweighted(g, ones, 0.0, twice);
  for (std::size_t n = 0; n < once.voxels(); ++n) {
    EXPECT_FLOAT_EQ(twice.data()[n], 2.0f * once.data()[n]);
  }
}

/// The scene's views with one pixel of view `view` replaced by `value`.
std::vector<Image2D> with_pixel(const Scene& s, std::size_t view,
                                std::size_t u, std::size_t v, float value) {
  std::vector<Image2D> out;
  for (const auto& p : s.projections) {
    Image2D copy(p.width(), p.height(), false);
    std::copy(p.data(), p.data() + p.pixels(), copy.data());
    out.push_back(std::move(copy));
  }
  out[view].at(u, v) = value;
  return out;
}

/// Runs the solver on `projections` and returns the ConfigError's message
/// ("" when nothing is thrown).
std::string config_error(const Scene& s,
                         std::span<const Image2D> projections,
                         const IterParams& params) {
  try {
    solve(s.g, projections, params);
  } catch (const ConfigError& e) {
    return e.what();
  }
  return "";
}

/// Uniform values in [0, 1) on every pixel.
Image2D random_view(const geo::CbctGeometry& g, std::mt19937& rng) {
  std::uniform_real_distribution<float> value(0.0f, 1.0f);
  Image2D view(g.nu, g.nv, /*zero_fill=*/false);
  for (std::size_t n = 0; n < view.pixels(); ++n) view.data()[n] = value(rng);
  return view;
}

TEST(UnweightedBackprojection, XMajorAndZMajorResultsAgreeBitwise) {
  // A kXMajor volume is reshaped around the same kernel call, so both
  // layouts hold the identical value at every (i, j, k) — including what
  // was already accumulated.
  const auto g = geo::make_standard_geometry({{40, 32, 6}, {12, 10, 9}});
  std::mt19937 rng(7);
  Volume xmajor(g.nx, g.ny, g.nz);
  Volume zmajor(g.nx, g.ny, g.nz, VolumeLayout::kZMajor);
  for (std::size_t s = 0; s < g.np; ++s) {
    const Image2D view = random_view(g, rng);
    backproject_unweighted(g, view, g.beta(s), xmajor);
    backproject_unweighted(g, view, g.beta(s), zmajor);
  }
  const Volume reshaped = zmajor.reshaped(VolumeLayout::kXMajor);
  EXPECT_EQ(std::memcmp(reshaped.data(), xmajor.data(), xmajor.bytes()), 0);
}

TEST(UnweightedBackprojection, OnesMatchSerialLoopBitwise) {
  // B*1, the column norm every SART/MLEM division uses, does not move at
  // all against the serial X-major loop the solvers ran before: every
  // sample of an all-ones view interpolates to exactly 1.
  for (const Problem problem :
       {Problem{{32, 32, 8}, {16, 16, 16}},
        Problem{{48, 40, 12}, {20, 18, 15}},
        Problem{{64, 64, 16}, {24, 24, 24}},
        Problem{{96, 96, 16}, {64, 64, 64}}}) {
    const auto g = geo::make_standard_geometry(problem);
    Image2D ones(g.nu, g.nv, /*zero_fill=*/false);
    ones.fill(1.0f);
    Volume kernel(g.nx, g.ny, g.nz, VolumeLayout::kZMajor);
    Volume serial(g.nx, g.ny, g.nz);
    for (std::size_t s = 0; s < g.np; ++s) {
      backproject_unweighted(g, ones, g.beta(s), kernel);
      serial_backproject_unweighted(g, ones, g.beta(s), serial);
    }
    const Volume got = kernel.reshaped(VolumeLayout::kXMajor);
    EXPECT_EQ(std::memcmp(got.data(), serial.data(), serial.bytes()), 0)
        << g.nx << "x" << g.ny << "x" << g.nz;
  }
}

TEST(UnweightedBackprojection, RandomViewsMatchSerialLoopToTolerance) {
  // The kernel forms u and v with a different association than the
  // serial loop (hoisted per column, and v of the mirror voxel as
  // (nv - 1) - v), so general views move by rounding only: within
  // 5e-5 x peak over a full orbit.
  const auto g = geo::make_standard_geometry({{96, 96, 16}, {64, 64, 64}});
  std::mt19937 rng(11);
  Volume kernel(g.nx, g.ny, g.nz, VolumeLayout::kZMajor);
  Volume serial(g.nx, g.ny, g.nz);
  for (std::size_t s = 0; s < g.np; ++s) {
    const Image2D view = random_view(g, rng);
    backproject_unweighted(g, view, g.beta(s), kernel);
    serial_backproject_unweighted(g, view, g.beta(s), serial);
  }
  const Volume got = kernel.reshaped(VolumeLayout::kXMajor);
  double peak = 0;
  double max_diff = 0;
  for (std::size_t n = 0; n < serial.voxels(); ++n) {
    peak = std::max(peak, std::abs(static_cast<double>(serial.data()[n])));
    max_diff = std::max(max_diff, std::abs(static_cast<double>(got.data()[n]) -
                                           serial.data()[n]));
  }
  ASSERT_GT(peak, 0);
  EXPECT_LE(max_diff, 5e-5 * peak) << "peak " << peak;
}

TEST(Sart, ConvergesToPhantom) {
  const Scene s = make_scene();
  IterParams params;
  params.iterations = 8;
  IterStats stats;
  const Volume recon = solve(s.g, s.projections, params, &stats);
  const std::vector<double>& residuals = stats.residual_rmse;
  ASSERT_EQ(residuals.size(), 8u);
  // The projection residual decreases monotonically (it floors near the
  // skull's density step, which discretization error dominates); the smooth
  // interior converges tightly.
  EXPECT_LT(residuals.back(), residuals.front());
  for (std::size_t i = 1; i < residuals.size(); ++i) {
    EXPECT_LT(residuals[i], residuals[i - 1] * 1.02) << "iteration " << i;
  }
  EXPECT_LT(interior_rmse(recon, s.truth), 0.03);
}

TEST(Sart, ResidualDecreases) {
  const Scene s = make_scene();
  IterParams params;
  params.iterations = 6;
  IterStats stats;
  solve(s.g, s.projections, params, &stats);
  // residual_rmse[i] is measured from the iterate sweep i started from:
  // entry 0 is the zero start's, entry 5 the one after 5 sweeps. The latter
  // sits well below half the data norm (the remaining part is the skull's
  // step edge, which converges slowly).
  ASSERT_EQ(stats.residual_rmse.size(), 6u);
  EXPECT_LT(stats.residual_rmse[5], 0.5 * stats.residual_rmse[0]);
}

TEST(OsSart, SubsetsAccelerateEarlyConvergence) {
  // With the same number of full sweeps, OS-SART (4 subsets) reaches a lower
  // error than SART after 2 iterations (the classic OS speedup).
  const Scene s = make_scene();
  IterParams plain;
  plain.iterations = 2;
  IterParams ordered = plain;
  ordered.algorithm = Algorithm::kOsSart;
  ordered.subsets = 4;
  const double e_plain =
      volume_rmse(solve(s.g, s.projections, plain), s.truth);
  const double e_os = volume_rmse(solve(s.g, s.projections, ordered), s.truth);
  EXPECT_LT(e_os, e_plain);
}

TEST(OsSart, SubsetCountPreservesFixedPoint) {
  // More subsets must still converge to a comparable solution.
  const Scene s = make_scene();
  for (int subsets : {1, 2, 4, 6}) {
    IterParams params;
    params.algorithm = subsets > 1 ? Algorithm::kOsSart : Algorithm::kSart;
    params.iterations = 6;
    params.subsets = subsets;
    const double err =
        interior_rmse(solve(s.g, s.projections, params), s.truth);
    EXPECT_LT(err, 0.05) << subsets << " subsets";
  }
}

TEST(Mlem, ConvergesAndStaysPositive) {
  const Scene s = make_scene();
  IterParams params;
  params.algorithm = Algorithm::kMlem;
  params.iterations = 12;
  const Volume recon = solve(s.g, s.projections, params);
  for (std::size_t n = 0; n < recon.voxels(); ++n) {
    EXPECT_GE(recon.data()[n], 0.0f);
  }
  EXPECT_LT(interior_rmse(recon, s.truth), 0.03);
  EXPECT_LT(volume_rmse(recon, s.truth), 0.15);
  // MLEM must beat the uniform start by a wide margin.
  Volume uniform(s.g.nx, s.g.ny, s.g.nz, VolumeLayout::kXMajor, false);
  uniform.fill(1.0f);
  EXPECT_LT(volume_rmse(recon, s.truth),
            0.3 * volume_rmse(uniform, s.truth));
}

TEST(Mlem, RejectsNegativeData) {
  const Scene s = make_scene(32, 8, 12);
  IterParams params;
  params.algorithm = Algorithm::kMlem;
  const std::string what =
      config_error(s, with_pixel(s, 0, 3, 3, -1.0f), params);
  EXPECT_NE(what.find("non-negative"), std::string::npos) << what;
  EXPECT_NE(what.find("'in/000000' pixel 99 "), std::string::npos) << what;
}

TEST(Solvers, RejectNonFiniteProjections) {
  // One NaN or Inf pixel would reach every voxel its rays touch; the load
  // rejects it, naming the object and the pixel, for every solver family.
  const Scene s = make_scene(32, 8, 12);
  IterParams mlem;
  mlem.algorithm = Algorithm::kMlem;
  for (const IterParams& params : {IterParams{}, mlem}) {
    for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity()}) {
      const std::string what =
          config_error(s, with_pixel(s, 5, 3, 2, bad), params);
      EXPECT_NE(what.find("'in/000005'"), std::string::npos) << what;
      EXPECT_NE(what.find("pixel 67 "), std::string::npos) << what;  // 2*32+3
      EXPECT_NE(what.find("not finite"), std::string::npos) << what;
    }
  }
}

TEST(Solvers, ValidateOptions) {
  const Scene s = make_scene(32, 8, 12);
  IterParams bad_lambda;
  bad_lambda.lambda = 2.5;
  EXPECT_THROW(solve(s.g, s.projections, bad_lambda), ConfigError);
  IterParams bad_subsets;
  bad_subsets.subsets = 0;
  EXPECT_THROW(solve(s.g, s.projections, bad_subsets), ConfigError);
  // Views are read by name, one object per gantry angle: a missing one is
  // an IoError naming the object.
  std::vector<Image2D> wrong_count;
  wrong_count.emplace_back(32, 32);
  EXPECT_THROW(solve(s.g, wrong_count, IterParams{}), IoError);
}

}  // namespace
}  // namespace ifdk::iterative
