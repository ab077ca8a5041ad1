// gpusim tests: the Table-4-calibrated kernel throughput model. (The device
// memory constraint behind Section 4.1.5's R selection is the plan's
// check_device_fit, tested as PlanMemory.* in test_plan.cpp.)
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "gpusim/kernel_model.h"
#include "perfmodel/paper_reference.h"

namespace ifdk::gpusim {
namespace {

// ---------------------------------------------------------------------------
// KernelModel
// ---------------------------------------------------------------------------

TEST(KernelModel, ReproducesTable4Exactly) {
  KernelModel model;
  for (const auto& row : paper::table4()) {
    const double rtk = model.predict_gups(bp::KernelVariant::kRtk32, row.problem);
    if (std::isnan(row.rtk32)) {
      EXPECT_TRUE(std::isnan(rtk)) << row.problem.to_string();
    } else {
      EXPECT_DOUBLE_EQ(rtk, row.rtk32) << row.problem.to_string();
    }
    EXPECT_DOUBLE_EQ(model.predict_gups(bp::KernelVariant::kL1Tran, row.problem),
                     row.l1_tran);
    EXPECT_DOUBLE_EQ(model.predict_gups(bp::KernelVariant::kBpTex, row.problem),
                     row.bp_tex);
  }
}

TEST(KernelModel, ProposedBeatsRtkForLargeOutputs) {
  // Table 4's headline: L1-Tran wins (up to 1.6x and beyond) whenever the
  // output dominates (alpha <= 32 in every calibration row).
  KernelModel model;
  for (const auto& row : paper::table4()) {
    if (std::isnan(row.rtk32) || row.alpha > 32) continue;
    EXPECT_GT(model.predict_gups(bp::KernelVariant::kL1Tran, row.problem),
              model.predict_gups(bp::KernelVariant::kRtk32, row.problem))
        << row.problem.to_string();
  }
}

TEST(KernelModel, InterpolatesBetweenCalibrationPoints) {
  KernelModel model;
  // alpha = 4 problem not in the table for 512^2 input: 512^2 x 1k -> ~368^3.
  Problem p{{512, 512, 1024}, {512, 512, 128}};  // alpha = 8
  const double gups = model.predict_gups(bp::KernelVariant::kL1Tran, p);
  // Must land between the alpha=16 (188.6) and alpha=2 (206.0)-ish levels.
  EXPECT_GT(gups, 150.0);
  EXPECT_LT(gups, 215.0);
}

TEST(KernelModel, PredictionsStayInsideCalibrationEnvelope) {
  // Table 4 is not strictly monotone in alpha alone (input size matters in
  // the cache-bound large-alpha regime), so the model interpolates; every
  // prediction must stay inside the measured min/max for the variant, and
  // the coarse ordering small-alpha >> large-alpha must hold (§4.1.5 II).
  KernelModel model;
  double lo = 1e30, hi = 0;
  for (const auto& row : paper::table4()) {
    lo = std::min(lo, row.l1_tran);
    hi = std::max(hi, row.l1_tran);
  }
  for (double alpha_exp = 10; alpha_exp >= -3; alpha_exp -= 0.5) {
    const auto voxels = static_cast<std::size_t>(
        std::cbrt(512.0 * 512 * 1024 / std::exp2(alpha_exp)));
    if (voxels < 8) continue;
    Problem p{{512, 512, 1024}, {voxels, voxels, voxels}};
    const double gups = model.predict_gups(bp::KernelVariant::kL1Tran, p);
    EXPECT_GE(gups, lo - 1e-9) << "alpha 2^" << alpha_exp;
    EXPECT_LE(gups, hi + 1e-9) << "alpha 2^" << alpha_exp;
  }
  // Output-dominated problems run an order of magnitude faster than
  // input-dominated ones.
  Problem small_alpha{{512, 512, 1024}, {1024, 1024, 2048}};
  Problem large_alpha{{2048, 2048, 1024}, {128, 128, 128}};
  EXPECT_GT(model.predict_gups(bp::KernelVariant::kL1Tran, small_alpha),
            5.0 * model.predict_gups(bp::KernelVariant::kL1Tran, large_alpha));
}

TEST(KernelModel, RtkCannotRunEightGbOutputs) {
  KernelModel model;
  Problem big{{2048, 2048, 4096}, {2048, 2048, 4096}};  // 64 GB output
  EXPECT_TRUE(std::isnan(model.predict_gups(bp::KernelVariant::kRtk32, big)));
  EXPECT_FALSE(std::isnan(model.predict_gups(bp::KernelVariant::kL1Tran, big)));
}

TEST(KernelModel, KernelSecondsMatchesGupsDefinition) {
  KernelModel model;
  const Problem p = paper::table4()[3].problem;  // 512^2x1k -> 1k^3, 211.4
  const double secs = model.kernel_seconds(bp::KernelVariant::kL1Tran, p);
  const double updates = p.updates();
  EXPECT_NEAR(updates / (secs * 1073741824.0), 211.4, 1e-6);
}

TEST(KernelModel, SubVolumeProblemNearPaperKernelRate) {
  // The paper's scaling runs give each GPU an 8 GB sub-volume slab of the
  // 4096^3 volume and report ~200 GUPS for the kernel; the model must
  // predict within ~15% of that.
  KernelModel model;
  Problem p{{2048, 2048, 4096}, {4096, 4096, 128}};  // 8 GB slab
  const double gups = model.predict_gups(bp::KernelVariant::kL1Tran, p);
  EXPECT_GT(gups, 170.0);
  EXPECT_LT(gups, 230.0);
}

}  // namespace
}  // namespace ifdk::gpusim
