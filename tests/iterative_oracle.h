// Serial reference for the iterative solvers.
//
// The textbook SART / OS-SART (Andersen & Kak 1984) and MLEM (Shepp & Vardi
// 1982) loops, on one thread and with no messages, over the same operators
// iterative::run_iterative uses: ForwardProjector for A, its ray_lengths
// for the row norms A*1, and iterative::backproject_unweighted for B and
// the column norms B*1. Subset `sub` holds views s = sub, sub + subsets, ...
// in ascending order, which is the order one rank owns them in.
//
// On one rank run_iterative performs exactly these floating-point
// operations, so tests compare the two with memcmp-level equality; on
// larger grids the all-reduce reassociates the per-view sums and tests
// compare to a tolerance.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "common/image.h"
#include "common/volume.h"
#include "geometry/cbct.h"
#include "iterative/iterative.h"
#include "iterative/params.h"
#include "projector/forward.h"

namespace ifdk {

/// Normalization floor of every division below (run_iterative's kEps).
inline constexpr float kIterOracleEps = 1e-6f;

/// SART (params.subsets == 1) or OS-SART: params.iterations sweeps of
/// relaxed, column-normalized corrections from a zero start.
inline Volume sart_oracle(const geo::CbctGeometry& g,
                          std::span<const Image2D> projections,
                          const iterative::IterParams& params) {
  const projector::ForwardProjector fp(g, params.step_fraction);
  const auto subsets = static_cast<std::size_t>(params.subsets);

  std::vector<Image2D> ray_norm;  // A*1 per view
  ray_norm.reserve(g.np);
  for (std::size_t s = 0; s < g.np; ++s) {
    ray_norm.push_back(fp.ray_lengths(g.beta(s)));
  }
  Image2D ones_img(g.nu, g.nv, /*zero_fill=*/false);
  ones_img.fill(1.0f);
  std::vector<Volume> vox_norm;  // B_subset*1 per subset
  vox_norm.reserve(subsets);
  for (std::size_t sub = 0; sub < subsets; ++sub) {
    Volume norm(g.nx, g.ny, g.nz);
    for (std::size_t s = sub; s < g.np; s += subsets) {
      iterative::backproject_unweighted(g, ones_img, g.beta(s), norm);
    }
    vox_norm.push_back(std::move(norm));
  }

  Volume x(g.nx, g.ny, g.nz);
  Image2D resid(g.nu, g.nv, /*zero_fill=*/false);
  for (int it = 0; it < params.iterations; ++it) {
    for (std::size_t sub = 0; sub < subsets; ++sub) {
      Volume update(g.nx, g.ny, g.nz);
      for (std::size_t s = sub; s < g.np; s += subsets) {
        const Image2D fwd = fp.project(x, g.beta(s));
        for (std::size_t n = 0; n < resid.pixels(); ++n) {
          const float norm = std::max(ray_norm[s].data()[n], kIterOracleEps);
          resid.data()[n] = (projections[s].data()[n] - fwd.data()[n]) / norm;
        }
        iterative::backproject_unweighted(g, resid, g.beta(s), update);
      }
      const Volume& norm = vox_norm[sub];
      for (std::size_t n = 0; n < x.voxels(); ++n) {
        const float denom = std::max(norm.data()[n], kIterOracleEps);
        x.data()[n] +=
            static_cast<float>(params.lambda) * update.data()[n] / denom;
      }
    }
  }
  return x;
}

/// MLEM: params.iterations multiplicative updates from an all-ones start.
inline Volume mlem_oracle(const geo::CbctGeometry& g,
                          std::span<const Image2D> projections,
                          const iterative::IterParams& params) {
  const projector::ForwardProjector fp(g, params.step_fraction);

  Image2D ones_img(g.nu, g.nv, /*zero_fill=*/false);
  ones_img.fill(1.0f);
  Volume sensitivity(g.nx, g.ny, g.nz);  // B*1
  for (std::size_t s = 0; s < g.np; ++s) {
    iterative::backproject_unweighted(g, ones_img, g.beta(s), sensitivity);
  }

  Volume x(g.nx, g.ny, g.nz, VolumeLayout::kXMajor, /*zero_fill=*/false);
  x.fill(1.0f);
  Image2D ratio(g.nu, g.nv, /*zero_fill=*/false);
  for (int it = 0; it < params.iterations; ++it) {
    Volume ratio_bp(g.nx, g.ny, g.nz);
    for (std::size_t s = 0; s < g.np; ++s) {
      const Image2D fwd = fp.project(x, g.beta(s));
      for (std::size_t n = 0; n < ratio.pixels(); ++n) {
        ratio.data()[n] = projections[s].data()[n] /
                          std::max(fwd.data()[n], kIterOracleEps);
      }
      iterative::backproject_unweighted(g, ratio, g.beta(s), ratio_bp);
    }
    for (std::size_t n = 0; n < x.voxels(); ++n) {
      x.data()[n] *=
          ratio_bp.data()[n] / std::max(sensitivity.data()[n], kIterOracleEps);
    }
  }
  return x;
}

/// Projection-space residual |A volume - p| / sqrt(N) over all views.
inline double residual_rmse_oracle(const geo::CbctGeometry& g,
                                   const Volume& volume,
                                   std::span<const Image2D> projections) {
  const projector::ForwardProjector fp(g);
  double acc = 0;
  std::size_t count = 0;
  for (std::size_t s = 0; s < g.np; ++s) {
    const Image2D fwd = fp.project(volume, g.beta(s));
    for (std::size_t n = 0; n < fwd.pixels(); ++n) {
      const double d = fwd.data()[n] - projections[s].data()[n];
      acc += d * d;
      ++count;
    }
  }
  return std::sqrt(acc / static_cast<double>(count));
}

}  // namespace ifdk
