// Ray-driven forward projection through a voxel volume: the forward operator
// A of the iterative solvers (Section 6.2's SART/OS-SART/MLEM, run by
// iterative::run_iterative), paired with the unweighted back-projection
// A^T. Tests also cross-check the analytic ellipsoid projector against it.
// Each call renders one view serially; the distributed solver parallelizes
// across views (one shard per rank), not within one.
//
// Each source->pixel ray is sampled with trilinear interpolation at
// t0 + (m + 1/2) * step, m = 0, 1, ..., where t0 is the ray's entry into the
// volume's bounding box and step = step_fraction * min_pitch (the standard
// Joseph-style sampling RTK's voxel projectors use). A sample contributes
// only on the closed index box [0, n-1]^3, widened by kFaceTolerance, and is
// zero outside it.
//
// The arithmetic is hoisted out of the sample loop the way the paper's
// Theorem 3 hoists it out of back-projection:
//   * per view, the source and the detector basis are set up once (one
//     sin/cos pair);
//   * per ray, the sample index range [first, last] inside the index box is
//     found once, by clipping in closed form and trimming both ends with
//     the inside predicate. The box is convex and each sample's fractional
//     index a + b*m is monotone in m per axis, so every sample between two
//     inside end samples is inside too;
//   * the sample loop evaluates a + b*m directly (no accumulated drift) and
//     reads the volume through raw strides with no per-sample checks.
//
// ray_lengths() is A*1 from the same ray setup: each inside sample of an
// all-ones volume interpolates to exactly 1.0f (every lerp is
// v0 + (v1 - v0) * w), so it returns float(count * step), bitwise equal to
// project(ones, beta), without an all-ones volume.
#pragma once

#include <cstddef>

#include "common/image.h"
#include "common/volume.h"
#include "geometry/cbct.h"

namespace ifdk::projector {

/// How far (in voxels) outside a face of the index box a sample still counts
/// as on it. Samples can land exactly on a face: an axis-aligned ray stepping
/// one pitch hits every voxel centre, the first and last on the faces. The
/// tolerance keeps rounding noise from deciding those ties.
inline constexpr double kFaceTolerance = 1e-9;

class ForwardProjector {
 public:
  /// Captures the geometry and the ray-marching step, as a fraction in
  /// (0, 1] of the smallest voxel pitch; cheap (no precomputation), so a
  /// projector can be constructed per view or held for a whole solve.
  explicit ForwardProjector(const geo::CbctGeometry& geometry,
                            double step_fraction = 0.5);

  /// Renders the cone-beam projection of `volume` at gantry angle beta.
  /// The volume must be kXMajor.
  Image2D project(const Volume& volume, double beta) const;

  /// Row norms A*1 at gantry angle beta: per pixel, the number of samples
  /// inside the index box times the step. Bitwise equal to projecting an
  /// all-ones volume.
  Image2D ray_lengths(double beta) const;

 private:
  geo::CbctGeometry geometry_;
  double step_fraction_;
};

}  // namespace ifdk::projector
