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
// transpose-like operator B below is the FDK back-projection kernel of
// Algorithm 4 (bp::Backprojector: Theorem-1 symmetry, hoisted u/Wdis, the
// resolved SIMD column backend) run *unweighted* — BpConfig::
// distance_weight = false drops the FDK 1/z^2 factor, because iterative
// methods normalize explicitly instead. Both row and column normalizations
// are computed numerically from the operators themselves (A*1 and B*1), so
// the pair need not be an exact adjoint.
#pragma once

#include "common/image.h"
#include "common/volume.h"
#include "geometry/cbct.h"

namespace ifdk::iterative {

/// Unweighted back-projection of a single view into `volume` (accumulates)
/// on one thread. A kZMajor volume — the layout the solvers keep their B
/// volumes in — is accumulated in place; a kXMajor volume is reshaped to
/// kZMajor and back around the kernel.
void backproject_unweighted(const geo::CbctGeometry& geometry,
                            const Image2D& view, double beta, Volume& volume);

}  // namespace ifdk::iterative
