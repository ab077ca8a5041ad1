// Distributed iterative solver tests: the parity contract of
// iterative::run_iterative against the serial reference in
// tests/iterative_oracle.h — BITWISE on one rank (where the owned-view order
// and every fold pins the sequential arithmetic exactly) and tight-tolerance
// on multi-rank grids (where the all-reduce folds rank partials in a
// different deterministic order) — plus monotone residual decrease on a
// noiseless phantom, rerun determinism, rank-consistent early stop, and
// workload-selector validation.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/math_util.h"
#include "ifdk/framework.h"
#include "iterative/distributed.h"
#include "iterative_oracle.h"
#include "phantom/phantom.h"

namespace ifdk::iterative {
namespace {

struct Scene {
  geo::CbctGeometry g;
  std::vector<Image2D> projections;
};

/// Noiseless Shepp-Logan scene sized so every grid in the suite divides it:
/// Np = 8 splits across 1/2/4 ranks, Nz = 12 satisfies Nz % 2R for R in
/// {1, 2}.
Scene make_scene(std::size_t np = 8) {
  Scene s{geo::make_standard_geometry({{32, 32, np}, {12, 12, 12}}), {}};
  s.projections = phantom::project_all(phantom::shepp_logan(), s.g);
  return s;
}

JobSpec make_iter_job(const IterParams& params, const std::string& tag) {
  JobSpec spec;
  spec.input_prefix = "in_" + tag + "/";
  spec.output_prefix = "out_" + tag + "/slice_";
  spec.workload = WorkloadKind::kIterative;
  spec.iterative = params;
  return spec;
}

IfdkOptions grid_options(int ranks, int rows) {
  IfdkOptions opts;
  opts.ranks = ranks;
  opts.rows = rows;  // explicit: Eq. (7) auto-selection targets larger worlds
  return opts;
}

/// Stages the scene, runs the distributed solver, and loads the result.
Volume run_distributed_iter(const Scene& s, const IfdkOptions& opts,
                            const JobSpec& spec, IterStats* stats = nullptr) {
  pfs::ParallelFileSystem fs;
  stage_projections(fs, spec.input_prefix, s.projections);
  const IterStats st = run_iterative(s.g, fs, opts, spec);
  if (stats != nullptr) *stats = st;
  return load_volume(fs, spec.output_prefix, s.g.vol_dims());
}

// ---- Single-rank parity: BITWISE --------------------------------------------
//
// On P = 1 the distributed workload owns all views in ascending order and
// every fold degenerates to a local copy, so each update expression matches
// the serial oracle float for float. These tests assert exact equality.

TEST(DistributedSart, SingleRankBitwiseMatchesOracle) {
  const Scene s = make_scene();
  for (const int subsets : {1, 2}) {  // 1 = SART, 2 = OS-SART
    IterParams params;
    params.algorithm = subsets > 1 ? Algorithm::kOsSart : Algorithm::kSart;
    params.iterations = 3;
    params.subsets = subsets;
    const Volume dist = run_distributed_iter(
        s, grid_options(1, 1),
        make_iter_job(params, "sart_p1_s" + std::to_string(subsets)));
    const Volume ref = sart_oracle(s.g, s.projections, params);
    for (std::size_t n = 0; n < ref.voxels(); ++n) {
      ASSERT_EQ(dist.data()[n], ref.data()[n])
          << subsets << " subset(s), voxel " << n;
    }
  }
}

TEST(DistributedMlem, SingleRankBitwiseMatchesOracle) {
  const Scene s = make_scene();
  IterParams params;
  params.algorithm = Algorithm::kMlem;
  params.iterations = 4;
  IterStats stats;
  const Volume dist = run_distributed_iter(s, grid_options(1, 1),
                                           make_iter_job(params, "mlem_p1"),
                                           &stats);
  const Volume ref = mlem_oracle(s.g, s.projections, params);
  for (std::size_t n = 0; n < ref.voxels(); ++n) {
    ASSERT_EQ(dist.data()[n], ref.data()[n]) << "voxel " << n;
  }
  EXPECT_EQ(stats.algorithm, "mlem");
  EXPECT_EQ(stats.iterations_run, 4);
}

// ---- Multi-rank parity: TOLERANCE -------------------------------------------
//
// On P > 1 the volume all-reduce folds rank partials in tree order, not the
// sequential view order, so float addition reassociates: results are
// deterministic but only tolerance-equal to the serial oracle.

TEST(DistributedSart, MultiRankMatchesOracleToTolerance) {
  const Scene s = make_scene();
  IterParams params;
  params.iterations = 3;
  const Volume ref = sart_oracle(s.g, s.projections, params);

  struct Grid {
    int ranks;
    int rows;
  };
  for (const Grid grid : {Grid{2, 2}, Grid{4, 2}}) {
    IterStats stats;
    const Volume dist = run_distributed_iter(
        s, grid_options(grid.ranks, grid.rows),
        make_iter_job(params, "sart_p" + std::to_string(grid.ranks)), &stats);
    EXPECT_EQ(stats.grid.rows, grid.rows);
    EXPECT_EQ(stats.grid.ranks(), grid.ranks);
    double max_diff = 0;
    for (std::size_t n = 0; n < ref.voxels(); ++n) {
      max_diff = std::max(
          max_diff, std::abs(static_cast<double>(dist.data()[n]) -
                             static_cast<double>(ref.data()[n])));
    }
    // Reassociation noise only: well below any voxel feature (~1e-1).
    EXPECT_LT(max_diff, 1e-4) << grid.ranks << " ranks";
    EXPECT_LT(rmse(dist.data(), ref.data(), ref.voxels()), 1e-5)
        << grid.ranks << " ranks";
  }
}

// ---- Convergence ------------------------------------------------------------

TEST(DistributedSart, ResidualMonotoneNonIncreasingOnNoiselessPhantom) {
  const Scene s = make_scene();
  IterParams params;
  params.iterations = 6;
  IterStats stats;
  run_distributed_iter(s, grid_options(4, 2),
                       make_iter_job(params, "sart_resid"), &stats);
  ASSERT_EQ(stats.residual_rmse.size(), 6u);
  EXPECT_GT(stats.residual_rmse.front(), 0.0);
  for (std::size_t i = 1; i < stats.residual_rmse.size(); ++i) {
    // Noiseless data: each relaxed sweep must not increase the residual
    // (tiny slack for float reassociation across the all-reduce).
    EXPECT_LE(stats.residual_rmse[i], stats.residual_rmse[i - 1] * 1.0001)
        << "iteration " << i;
  }
  // And it must actually converge, not just not diverge. (residual_rmse[i]
  // is measured from the iterate sweep i STARTED from, so even the last
  // entry lags the final volume by one sweep — hence the soft 0.6 bound.)
  EXPECT_LT(stats.residual_rmse.back(), 0.6 * stats.residual_rmse.front());
  EXPECT_EQ(stats.iterations_run, 6);
  EXPECT_GT(stats.wall_total, 0.0);
  EXPECT_GT(stats.iterations_per_second, 0.0);
}

TEST(DistributedIterative, DeterministicAcrossReruns) {
  const Scene s = make_scene();
  IterParams params;
  params.iterations = 3;
  params.subsets = 2;
  params.algorithm = Algorithm::kOsSart;
  IterStats first_stats;
  const Volume first = run_distributed_iter(
      s, grid_options(4, 2), make_iter_job(params, "det"), &first_stats);
  IterStats second_stats;
  const Volume second = run_distributed_iter(
      s, grid_options(4, 2), make_iter_job(params, "det"), &second_stats);
  for (std::size_t n = 0; n < first.voxels(); ++n) {
    ASSERT_EQ(first.data()[n], second.data()[n]) << "voxel " << n;
  }
  ASSERT_EQ(first_stats.residual_rmse.size(),
            second_stats.residual_rmse.size());
  for (std::size_t i = 0; i < first_stats.residual_rmse.size(); ++i) {
    EXPECT_EQ(first_stats.residual_rmse[i], second_stats.residual_rmse[i])
        << "iteration " << i;
  }
}

TEST(DistributedIterative, EarlyStopIsRankConsistent) {
  // stop_rmse above the first residual: every rank must agree to stop after
  // iteration 1 (the decision compares the identical all-reduced value); a
  // rank-inconsistent stop would deadlock the next collective and trip the
  // suite timeout.
  const Scene s = make_scene();
  IterParams params;
  params.iterations = 8;
  params.stop_rmse = 1e6;
  IterStats stats;
  run_distributed_iter(s, grid_options(4, 2),
                       make_iter_job(params, "early_stop"), &stats);
  EXPECT_EQ(stats.iterations_run, 1);
  ASSERT_EQ(stats.residual_rmse.size(), 1u);
  EXPECT_EQ(stats.algorithm, "sart");
}

// ---- Workload-selector validation -------------------------------------------

TEST(DistributedIterative, RejectsMisroutedAndMalformedJobs) {
  const Scene s = make_scene();
  pfs::ParallelFileSystem fs;
  const IfdkOptions opts = grid_options(1, 1);

  // An FDK job must not reach the iterative runtime...
  JobSpec fdk_job;
  fdk_job.input_prefix = "in/";
  fdk_job.output_prefix = "out/slice_";
  EXPECT_THROW(run_iterative(s.g, fs, opts, fdk_job), ConfigError);

  // ...and an iterative job must not reach the FDK streaming runtime.
  IterParams params;
  const JobSpec iter_job = make_iter_job(params, "misroute");
  try {
    run_streaming(s.g, fs, opts, std::vector<JobSpec>{iter_job});
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("run_streaming executes FDK jobs"),
              std::string::npos)
        << e.what();
  }

  // Solver-parameter validation runs through JobSpec::validate.
  IterParams bad_lambda;
  bad_lambda.lambda = 2.5;
  EXPECT_THROW(
      run_iterative(s.g, fs, opts, make_iter_job(bad_lambda, "bad_lambda")),
      ConfigError);
  IterParams mlem_subsets;
  mlem_subsets.algorithm = Algorithm::kMlem;
  mlem_subsets.subsets = 3;
  EXPECT_THROW(
      run_iterative(s.g, fs, opts, make_iter_job(mlem_subsets, "mlem_os")),
      ConfigError);
}

}  // namespace
}  // namespace ifdk::iterative
