// Forward projector tests: the reference trilinear sampler (including the
// interp2-style border cases), agreement with the serial ray-marching oracle
// over randomized geometries and degenerate 1- and 2-voxel axes, A*1 from
// ray_lengths bitwise equal to projecting an all-ones volume, agreement with
// the analytic ellipsoid projector, and the projector/back-projector
// consistency property the iterative solvers' normalizations depend on: A*1
// and B*1 finite and positive over randomized geometries.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <string>

#include "common/math_util.h"
#include "geometry/cbct.h"
#include "iterative/iterative.h"
#include "phantom/phantom.h"
#include "projector/forward.h"
#include "projector_oracle.h"

namespace ifdk::projector {
namespace {

TEST(TrilinearSample, ExactAtVoxelCenters) {
  Volume v(3, 3, 3);
  v.at(1, 1, 1) = 7.0f;
  v.at(2, 1, 0) = 3.0f;
  EXPECT_FLOAT_EQ(trilinear_sample_oracle(v, 1, 1, 1), 7.0f);
  EXPECT_FLOAT_EQ(trilinear_sample_oracle(v, 2, 1, 0), 3.0f);
  EXPECT_FLOAT_EQ(trilinear_sample_oracle(v, 0, 0, 0), 0.0f);
}

TEST(TrilinearSample, InterpolatesMidpoints) {
  Volume v(2, 2, 2);
  v.at(0, 0, 0) = 0.0f;
  v.at(1, 0, 0) = 1.0f;
  v.at(0, 1, 0) = 2.0f;
  v.at(0, 0, 1) = 4.0f;
  EXPECT_FLOAT_EQ(trilinear_sample_oracle(v, 0.5, 0, 0), 0.5f);
  EXPECT_FLOAT_EQ(trilinear_sample_oracle(v, 0, 0.5, 0), 1.0f);
  EXPECT_FLOAT_EQ(trilinear_sample_oracle(v, 0, 0, 0.5), 2.0f);
}

TEST(TrilinearSample, OutsideIsZero) {
  Volume v(2, 2, 2);
  v.fill(5.0f);
  EXPECT_EQ(trilinear_sample_oracle(v, -0.5, 0, 0), 0.0f);
  EXPECT_EQ(trilinear_sample_oracle(v, 0, 1.5, 0), 0.0f);
  EXPECT_EQ(trilinear_sample_oracle(v, 0, 0, 5.0), 0.0f);
}

TEST(ForwardProjector, MatchesAnalyticProjection) {
  // Ray-marching the voxelized phantom must approximate the exact ellipsoid
  // line integrals (discretization error shrinks with voxel size; at 32^3
  // a few percent of the peak is expected).
  const auto g = geo::make_standard_geometry({{48, 48, 12}, {32, 32, 32}});
  const auto phan = phantom::shepp_logan();
  const Volume vol = phantom::voxelize(phan, g);

  ForwardProjector fp(g);
  for (std::size_t s : {std::size_t{0}, std::size_t{5}}) {
    const double beta = g.beta(s);
    const Image2D numeric = fp.project(vol, beta);
    const Image2D analytic = phantom::project(phan, g, beta);

    double peak = 0;
    for (std::size_t n = 0; n < analytic.pixels(); ++n) {
      peak = std::max(peak, std::abs(static_cast<double>(analytic.data()[n])));
    }
    ASSERT_GT(peak, 0);
    // Error budget: voxelizing the phantom onto 32^3 loses the sub-voxel
    // ellipsoid boundary (dominant term) plus trilinear smoothing; ~5% of
    // peak at this size, shrinking with resolution.
    const double err =
        rmse(numeric.data(), analytic.data(), numeric.pixels());
    EXPECT_LT(err / peak, 0.07) << "angle index " << s;
  }
}

TEST(ForwardProjector, EmptyVolumeProjectsToZero) {
  const auto g = geo::make_standard_geometry({{32, 32, 4}, {16, 16, 16}});
  Volume vol(16, 16, 16);
  ForwardProjector fp(g);
  const Image2D img = fp.project(vol, 0.7);
  for (std::size_t n = 0; n < img.pixels(); ++n) {
    EXPECT_EQ(img.data()[n], 0.0f);
  }
}

TEST(ForwardProjector, LinearInVolume) {
  // A(2x) = 2*A(x): the operator is linear, a property SART/MLEM rely on.
  const auto g = geo::make_standard_geometry({{32, 32, 4}, {16, 16, 16}});
  Volume a(16, 16, 16);
  a.at(8, 8, 8) = 1.0f;
  a.at(4, 9, 7) = 2.5f;
  Volume b(16, 16, 16);
  for (std::size_t n = 0; n < a.voxels(); ++n) {
    b.data()[n] = 2.0f * a.data()[n];
  }
  ForwardProjector fp(g);
  const Image2D pa = fp.project(a, 0.3);
  const Image2D pb = fp.project(b, 0.3);
  for (std::size_t n = 0; n < pa.pixels(); ++n) {
    EXPECT_NEAR(pb.data()[n], 2.0f * pa.data()[n], 1e-5f);
  }
}

TEST(ForwardProjector, FinerStepsConverge) {
  const auto g = geo::make_standard_geometry({{32, 32, 4}, {24, 24, 24}});
  const Volume vol = phantom::voxelize(phantom::shepp_logan(), g);
  ForwardOptions coarse;
  coarse.step_fraction = 1.0;
  ForwardOptions fine;
  fine.step_fraction = 0.1;
  const Image2D pc = ForwardProjector(g, coarse).project(vol, 0.0);
  const Image2D pf = ForwardProjector(g, fine).project(vol, 0.0);
  // Both approximate the same integral: their difference is bounded by the
  // coarse quadrature error.
  const double err = rmse(pc.data(), pf.data(), pc.pixels());
  double peak = 0;
  for (std::size_t n = 0; n < pf.pixels(); ++n) {
    peak = std::max(peak, std::abs(static_cast<double>(pf.data()[n])));
  }
  EXPECT_LT(err / peak, 0.03);
}

TEST(TrilinearSample, BorderCasesClampAndCutOff) {
  // interp2-style border semantics: the sampler is defined ON the closed
  // index box [0, n-1] (the +1 neighbor clamps, so its weight never reads
  // past the edge) and exactly zero strictly outside it.
  Volume v(3, 3, 3, VolumeLayout::kXMajor, false);
  for (std::size_t k = 0; k < 3; ++k) {
    for (std::size_t j = 0; j < 3; ++j) {
      for (std::size_t i = 0; i < 3; ++i) {
        v.at(i, j, k) = static_cast<float>(1 + i + 10 * j + 100 * k);
      }
    }
  }
  // Exactly on the far corner: the clamped +1 neighbors carry zero weight,
  // so the corner voxel comes back exactly.
  EXPECT_FLOAT_EQ(trilinear_sample_oracle(v, 2, 2, 2), v.at(2, 2, 2));
  EXPECT_FLOAT_EQ(trilinear_sample_oracle(v, 2, 0, 0), v.at(2, 0, 0));
  // Just inside the far edge: interpolates the last voxel pair, no
  // out-of-bounds read, finite value between the neighbors.
  const float near_edge = trilinear_sample_oracle(v, 1.75, 2, 2);
  EXPECT_TRUE(std::isfinite(near_edge));
  EXPECT_GT(near_edge, v.at(1, 2, 2));
  EXPECT_LT(near_edge, v.at(2, 2, 2));
  // Strictly outside — even by a hair — is exactly zero on every axis.
  EXPECT_EQ(trilinear_sample_oracle(v, 2.001, 1, 1), 0.0f);
  EXPECT_EQ(trilinear_sample_oracle(v, 1, 2.001, 1), 0.0f);
  EXPECT_EQ(trilinear_sample_oracle(v, 1, 1, 2.001), 0.0f);
  EXPECT_EQ(trilinear_sample_oracle(v, -0.001, 1, 1), 0.0f);
  EXPECT_EQ(trilinear_sample_oracle(v, 1, -0.001, 1), 0.0f);
  EXPECT_EQ(trilinear_sample_oracle(v, 1, 1, -0.001), 0.0f);
}

TEST(OperatorConsistency, ForwardAndBackProjectionOfOnesArePositiveFinite) {
  // The property the SART/MLEM normalizations stand on: the row norms A*1
  // (forward projection of an all-ones volume) and the column norms B*1
  // (unweighted back-projection of an all-ones view) must be finite and
  // non-negative everywhere, and strictly positive where a ray/voxel can
  // see the object — over RANDOMIZED geometries, not one blessed shape.
  // Detector corners are exempt from strict positivity: a corner ray can
  // legitimately miss the volume's bounding box entirely (A*1 = 0 there),
  // which is why the solvers guard the division with an epsilon.
  std::mt19937 rng(20260808);
  const auto pick = [&rng](std::size_t lo, std::size_t hi) {
    return std::uniform_int_distribution<std::size_t>(lo, hi)(rng);
  };
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t nu = 2 * pick(12, 20);  // even detector sizes
    const std::size_t nv = 2 * pick(12, 20);
    const std::size_t np = 2 * pick(2, 6);
    const geo::CbctGeometry g = geo::make_standard_geometry(
        {{nu, nv, np}, {pick(10, 20), pick(10, 20), pick(10, 20)}});
    const std::size_t s = pick(0, np - 1);
    const double beta = g.beta(s);
    const std::string context = "trial " + std::to_string(trial) + ", " +
                                std::to_string(nu) + "x" +
                                std::to_string(nv) + " det, beta index " +
                                std::to_string(s);

    // A*1: ray lengths through the volume, as the solvers compute them.
    const Image2D row_norm = ForwardProjector(g).ray_lengths(beta);
    for (std::size_t n = 0; n < row_norm.pixels(); ++n) {
      ASSERT_TRUE(std::isfinite(row_norm.data()[n]))
          << context << ", pixel " << n;
      ASSERT_GE(row_norm.data()[n], 0.0f) << context << ", pixel " << n;
    }
    // The central detector quarter looks straight through the volume: every
    // ray there intersects it, so its norm is strictly positive.
    for (std::size_t v = 3 * nv / 8; v < 5 * nv / 8; ++v) {
      for (std::size_t u = 3 * nu / 8; u < 5 * nu / 8; ++u) {
        ASSERT_GT(row_norm.at(u, v), 0.0f)
            << context << ", central pixel (" << u << ", " << v << ")";
      }
    }

    // B*1: unweighted back-projection of an all-ones view. The standard
    // geometry's detector covers the magnified volume footprint, so EVERY
    // voxel projects inside it and its column norm is strictly positive.
    Image2D ones_view(nu, nv, false);
    ones_view.fill(1.0f);
    Volume col_norm(g.nx, g.ny, g.nz);
    iterative::backproject_unweighted(g, ones_view, beta, col_norm);
    for (std::size_t n = 0; n < col_norm.voxels(); ++n) {
      ASSERT_TRUE(std::isfinite(col_norm.data()[n]))
          << context << ", voxel " << n;
      ASSERT_GT(col_norm.data()[n], 0.0f) << context << ", voxel " << n;
    }
  }
}

/// Volume of uniform values in [0.5, 1.5]: strictly positive, so a pixel is
/// zero exactly when its ray has no sample on the index box.
Volume random_positive_volume(const geo::CbctGeometry& g, std::mt19937& rng) {
  std::uniform_real_distribution<float> value(0.5f, 1.5f);
  Volume v(g.nx, g.ny, g.nz, VolumeLayout::kXMajor, false);
  for (std::size_t n = 0; n < v.voxels(); ++n) v.data()[n] = value(rng);
  return v;
}

/// project() against the serial oracle: within 1e-5 x peak everywhere with
/// the identical zero pattern; and ray_lengths() memcmp-equal to projecting
/// an all-ones volume. Returns the number of nonzero pixels.
std::size_t expect_matches_oracle(const geo::CbctGeometry& g,
                                  const Volume& vol, double step_fraction,
                                  double beta, const std::string& context) {
  ForwardOptions opts;
  opts.step_fraction = step_fraction;
  const ForwardProjector fp(g, opts);
  const Image2D got = fp.project(vol, beta);
  const Image2D want = forward_project_oracle(g, vol, beta, step_fraction);
  double peak = 0;
  for (std::size_t n = 0; n < want.pixels(); ++n) {
    peak = std::max(peak, std::abs(static_cast<double>(want.data()[n])));
  }
  std::size_t nonzero = 0;
  for (std::size_t n = 0; n < want.pixels(); ++n) {
    EXPECT_EQ(got.data()[n] == 0.0f, want.data()[n] == 0.0f)
        << context << ", pixel " << n;
    EXPECT_LE(std::abs(static_cast<double>(got.data()[n]) - want.data()[n]),
              1e-5 * peak)
        << context << ", pixel " << n;
    if (got.data()[n] != 0.0f) ++nonzero;
  }

  Volume ones(g.nx, g.ny, g.nz, VolumeLayout::kXMajor, false);
  ones.fill(1.0f);
  const Image2D lengths = fp.ray_lengths(beta);
  const Image2D projected_ones = fp.project(ones, beta);
  EXPECT_EQ(std::memcmp(lengths.data(), projected_ones.data(),
                        lengths.bytes()),
            0)
      << context << ": ray_lengths differs from project(ones)";
  return nonzero;
}

TEST(ForwardProjector, MatchesOracleOverRandomizedGeometries) {
  std::mt19937 rng(20261016);
  const auto pick = [&rng](std::size_t lo, std::size_t hi) {
    return std::uniform_int_distribution<std::size_t>(lo, hi)(rng);
  };
  for (int trial = 0; trial < 5; ++trial) {
    // Odd detector sizes put a pixel on the central row/column, whose rays
    // run exactly parallel to a box face.
    const std::size_t nu = pick(20, 36);
    const std::size_t nv = pick(20, 36);
    const std::size_t np = pick(4, 12);
    const geo::CbctGeometry g = geo::make_standard_geometry(
        {{nu, nv, np}, {pick(6, 18), pick(6, 18), pick(6, 18)}});
    const Volume vol = random_positive_volume(g, rng);
    for (const double step_fraction : {0.3, 0.5, 1.0}) {
      for (const double beta : {0.0, kPi / 2, kPi, g.beta(pick(0, np - 1))}) {
        const std::string context =
            "trial " + std::to_string(trial) + ", " + std::to_string(nu) +
            "x" + std::to_string(nv) + " det, " + std::to_string(g.nx) + "x" +
            std::to_string(g.ny) + "x" + std::to_string(g.nz) +
            " vol, step " + std::to_string(step_fraction) + ", beta " +
            std::to_string(beta);
        EXPECT_GT(expect_matches_oracle(g, vol, step_fraction, beta, context),
                  0u)
            << context;
      }
    }
  }
}

TEST(ForwardProjector, DegenerateAxesMatchOracle) {
  // A 1-voxel axis has no +1 neighbour (base 0, +1 stride 0) and a 2-voxel
  // axis clamps every base to 0; both must stay in bounds (the suite runs
  // under ASan) and agree with the oracle. With nz = 1 only rays in the
  // z = 0 plane see the volume: the central row of an odd-height detector.
  std::mt19937 rng(7);
  for (const Problem& problem : {Problem{{33, 31, 8}, {7, 5, 1}},
                                  Problem{{16, 16, 8}, {2, 2, 2}}}) {
    const geo::CbctGeometry g = geo::make_standard_geometry(problem);
    const Volume vol = random_positive_volume(g, rng);
    for (const double step_fraction : {0.3, 0.5, 1.0}) {
      for (const double beta : {0.0, kPi / 2, kPi, 0.7}) {
        const std::string context =
            std::to_string(g.nx) + "x" + std::to_string(g.ny) + "x" +
            std::to_string(g.nz) + " vol, step " +
            std::to_string(step_fraction) + ", beta " + std::to_string(beta);
        EXPECT_GT(expect_matches_oracle(g, vol, step_fraction, beta, context),
                  0u)
            << context;
      }
    }
  }
}

TEST(ForwardProjector, RejectsWrongLayoutOrDims) {
  const auto g = geo::make_standard_geometry({{32, 32, 4}, {16, 16, 16}});
  ForwardProjector fp(g);
  Volume zmajor(16, 16, 16, VolumeLayout::kZMajor);
  EXPECT_THROW(fp.project(zmajor, 0.0), ConfigError);
  Volume small(8, 8, 8);
  EXPECT_THROW(fp.project(small, 0.0), ConfigError);
}

}  // namespace
}  // namespace ifdk::projector
