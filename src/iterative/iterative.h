// The B operator of the iterative solvers.
//
// Paper Section 6.2: "The proposed back-projection algorithm and CUDA
// implementation can be applied in a number of iterative solvers (i.e. ART,
// MLEM, MBIR), which are popular methodologies in medical imaging for low
// dose image reconstruction." The solvers themselves (SART, OS-SART, MLEM)
// live in one place, iterative::run_iterative (distributed.h); ART is its
// OS-SART case with one view per subset.
//
// The forward operator A is the ray-driven projector (src/projector); the
// transpose-like operator B below is an *unweighted* voxel-driven
// back-projection (bilinear interpolation at the projected detector
// position, no FDK 1/z^2 weight — iterative methods normalize explicitly
// instead). Both row and column normalizations are computed numerically
// from the operators themselves (A*1 and B*1), so the pair need not be an
// exact adjoint.
#pragma once

#include "common/image.h"
#include "common/volume.h"
#include "geometry/cbct.h"

namespace ifdk::iterative {

/// Unweighted voxel-driven back-projection of a single view into `volume`
/// (accumulates), serially over the volume's slices. Exposed because it is
/// the B operator of the solvers and independently unit-tested.
void backproject_unweighted(const geo::CbctGeometry& geometry,
                            const Image2D& view, double beta, Volume& volume);

}  // namespace ifdk::iterative
