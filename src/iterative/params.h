// Wire-level iterative reconstruction parameters.
//
// IterParams is the *request* vocabulary for iterative jobs: the solver
// parameters run_iterative (distributed.h) reads, carried inside a JobSpec
// through the service front door and the plan layer. It is header-only so
// ifdk/job.h can embed it without a link edge from the framework layer to
// the iterative layer (which sits ABOVE ifdk in the build graph — the
// distributed solver consumes the plan layer).
#pragma once

#include <string>

#include "common/error.h"

namespace ifdk::iterative {

/// Which solver family an iterative job runs. On one rank the arithmetic of
/// each matches the serial reference in tests/iterative_oracle.h exactly
/// (the parity contract tests/test_distributed_iterative.cpp pins). ART is
/// kOsSart with one view per subset.
enum class Algorithm {
  kSart,    ///< relaxed SART: one full-view sweep per iteration
  kOsSart,  ///< ordered-subsets SART: `subsets` sweeps per iteration
  kMlem,    ///< multiplicative EM (non-negative data; subsets must be 1)
};

/// Human-readable solver name ("sart" / "os-sart" / "mlem") for logs,
/// bench JSON, and error messages.
inline const char* to_string(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kSart:
      return "sart";
    case Algorithm::kOsSart:
      return "os-sart";
    case Algorithm::kMlem:
      return "mlem";
  }
  return "?";
}

/// Solver parameters of one iterative job, validated at admission exactly
/// like the geometric fields of a JobSpec.
struct IterParams {
  /// Solver family; governs which of the constraints below apply.
  Algorithm algorithm = Algorithm::kSart;
  /// Full iterations (sweeps over all subsets). At least 1.
  int iterations = 10;
  /// SART relaxation factor in (0, 2). Ignored by MLEM.
  double lambda = 0.9;
  /// Ordered subsets: 1 for kSart/kMlem, >= 2 for kOsSart.
  int subsets = 1;
  /// Ray-marching step of the forward projector, in (0, 1] voxel pitches.
  double step_fraction = 0.5;
  /// Early-stop threshold on the all-reduced residual RMSE; 0 disables.
  /// Every rank sees the identical reduced value, so the stop decision is
  /// rank-consistent by construction.
  double stop_rmse = 0;

  /// Validates the parameter ranges above; throws ConfigError naming the
  /// offending field, prefixed with "volume N: " when `volume_index >= 0`
  /// (the plan layer's convention). Called by JobSpec::validate for
  /// iterative jobs.
  void validate(int volume_index = -1) const {
    const std::string prefix =
        volume_index >= 0 ? "volume " + std::to_string(volume_index) + ": "
                          : std::string{};
    if (iterations < 1) {
      throw ConfigError(prefix + "iterative iterations (" +
                        std::to_string(iterations) + ") must be at least 1");
    }
    if (subsets < 1) {
      throw ConfigError(prefix + "iterative subsets (" +
                        std::to_string(subsets) + ") must be at least 1");
    }
    if (!(lambda > 0 && lambda < 2)) {
      throw ConfigError(prefix + "iterative lambda (" +
                        std::to_string(lambda) + ") must lie in (0, 2)");
    }
    if (!(step_fraction > 0 && step_fraction <= 1)) {
      throw ConfigError(prefix + "iterative step_fraction (" +
                        std::to_string(step_fraction) +
                        ") must lie in (0, 1]");
    }
    // Written as !(>= 0) so NaN, which would silently never stop, fails too.
    if (!(stop_rmse >= 0)) {
      throw ConfigError(prefix + "iterative stop_rmse (" +
                        std::to_string(stop_rmse) + ") must be >= 0");
    }
    if (algorithm == Algorithm::kOsSart && subsets < 2) {
      throw ConfigError(prefix +
                        "os-sart requires at least 2 subsets (subsets=" +
                        std::to_string(subsets) + "); use sart for 1");
    }
    if (algorithm == Algorithm::kMlem && subsets != 1) {
      throw ConfigError(prefix + "mlem does not take ordered subsets "
                                 "(subsets=" +
                        std::to_string(subsets) + ")");
    }
  }
};

}  // namespace ifdk::iterative
